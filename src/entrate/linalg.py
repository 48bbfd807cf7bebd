"""Dense complex linear algebra for small Hilbert spaces.

Everything here works on plain numpy arrays: square complex matrices of
dimension up to a few dozen.  Spectral routines go through the Hermitian
eigendecomposition; nothing is sparse, iterative, or GPU-aware on purpose.
``hermitize``, ``dag``, ``matrix_log_on_support``, the norms and
``partial_trace`` also take a stack (k, n, n) and treat each matrix of it as
they treat one; a stacked LAPACK call runs the same routine on each matrix,
so a matrix reads the same bits in a stack as on its own.

``SUPPORT_TOL`` is the one threshold of a state's support: the library's
one log of a state, ``_log_on_support``, takes ln on the eigenvalues above
it and 0 on the rest, and ``matrix_log_on_support`` is that log of a matrix.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

__all__ = [
    "NotPositive",
    "NumericalFailure",
    "ShapeError",
    "as_matrix",
    "dag",
    "hermitize",
    "matrix_log_on_support",
    "operator_norm",
    "partial_trace",
    "singular_values",
    "tensor",
    "trace_norm",
]

# eigenvalues at or below this are off a state's support, and so are Schmidt
# coefficients, the eigenvalues of a pure state's marginal
SUPPORT_TOL = 1e-12


class ShapeError(ValueError):
    """Operands do not have the shapes the operation requires."""


class NotPositive(ValueError):
    """A matrix that must be positive semidefinite has a negative eigenvalue."""


class NumericalFailure(RuntimeError):
    """The eigensolver did not converge; carries a residual norm."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    return _as_square(m, name, 2)


def _as_stack(m, name: str = "matrix") -> np.ndarray:
    """``as_matrix`` for a stack (k, n, n) of matrices."""
    return _as_square(m, name, 3)


def _as_square(m, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        what = "square" if ndim == 2 else "a stack of square matrices"
        raise ShapeError(f"{name} must be {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def _as_operand(m, name: str = "matrix") -> np.ndarray:
    # one matrix, or a stack if ``m`` has three axes
    return _as_square(m, name, 3 if np.ndim(m) == 3 else 2)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return np.conjugate(np.asarray(m)).swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2, the Hermitian part of M (of each matrix, for a stack)."""
    return (m + np.conjugate(m).swapaxes(-1, -2)) / 2.0


def _log_on_support(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """V diag(ln lambda) V† from an eigendecomposition (lam, V), with ln taken
    on the eigenvalues above ``SUPPORT_TOL`` and 0 in place of it elsewhere
    (of each, for a stack)."""
    return (vec * np.log(np.where(lam > SUPPORT_TOL, lam, 1.0))[..., None, :]) @ dag(vec)


def matrix_log_on_support(m) -> np.ndarray:
    """ln of the Hermitian part of M on its support, ``_log_on_support`` of
    its eigendecomposition (of each matrix, for a stack).

    Raises NotPositive if the spectrum dips below -1e-10, and
    NumericalFailure, with the off-diagonal norm as its residual, if the
    eigensolver does not converge.
    """
    a = hermitize(_as_operand(m))
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        off = a * (1.0 - np.eye(a.shape[-1]))
        raise NumericalFailure(
            f"Hermitian eigensolver did not converge: {exc}",
            residual=float(np.linalg.norm(off)),
        ) from exc
    lo = float(lam.min()) if lam.size else 0.0
    if lo < -1e-10:
        raise NotPositive(f"matrix has eigenvalue {lo:.3e} < -1e-10")
    return _log_on_support(lam, vec)


def singular_values(m) -> np.ndarray:
    """Singular values, descending, from the SVD of M (M†M would lose the
    small ones); of each matrix, for a stack."""
    return np.linalg.svd(_as_operand(m), compute_uv=False)


def _scalar_or_stack(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def operator_norm(m):
    """Largest singular value (spectral norm); an array of them for a stack."""
    return _scalar_or_stack(singular_values(m)[..., 0])


def trace_norm(m):
    """Sum of singular values (Schatten-1 norm); an array of them for a stack."""
    return _scalar_or_stack(singular_values(m).sum(axis=-1))


def tensor(*ms) -> np.ndarray:
    """Kronecker product of the given matrices, left to right."""
    if not ms:
        raise ShapeError("tensor() needs at least one factor")
    mats = [as_matrix(m, name=f"factor {i}") for i, m in enumerate(ms)]
    return reduce(np.kron, mats)


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out tensor factors, keeping the ones in ``keep`` (of each
    matrix, for a stack).

    ``dims`` lists the factor dimensions of the full space; ``keep`` is the
    set of factor indices to retain, in their original order.
    """
    a = _as_operand(m)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ShapeError(f"factor dimensions must be >= 1, got {dims}")
    total = math.prod(dims)
    if total != a.shape[-1]:
        raise ShapeError(f"prod{dims} = {total} does not match matrix dim {a.shape[-1]}")
    n = len(dims)
    keep = tuple(sorted({int(k) for k in keep}))
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ShapeError(f"keep indices {keep} out of range for {n} factors")
    row = [chr(97 + i) for i in range(n)]
    col = [chr(97 + n + i) for i in range(n)]
    for i in range(n):
        if i not in keep:
            col[i] = row[i]  # repeated index: traced out
    spec = "..." + "".join(row) + "".join(col) + "->..." + "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    dk = math.prod(dims[i] for i in keep)
    lead = a.shape[:-2]
    return np.einsum(spec, a.reshape(lead + dims + dims)).reshape(lead + (dk, dk))

"""States on a four-factor Hilbert space a ⊗ A ⊗ B ⊗ b.

The bipartition of interest is always aA | Bb: Alice holds the first two
factors, Bob the last two.  Ancilla-free systems just use d_a = d_b = 1.
Includes the Schmidt decomposition, the closest separable state built from
it, smoothing toward the maximally mixed state and seeded random samplers;
``schmidt`` keeps the coefficients above ``linalg.SUPPORT_TOL``.

The samplers, ``schmidt``, ``closest_separable_state`` and
``convex_split_witness`` are stacked kernels, and the one-instance call is
their stack of one.  A sampler given a list of Generators as ``seed`` draws
one sample from each, in the order one call per generator would, and
finishes them together: the Hermitian parts, the operator-norm
normalisations, the QR phase fix and the validation eigensolves are stacked
calls.  It returns a stack (k, n, n), or a list of PureStates.  ``schmidt``
and ``closest_separable_state`` take a list and return a list, and the
spectra of a list of DensityMatrix states of one space come from one
stacked eigensolve (``_densities``).  A stacked LAPACK call runs the same
routine on each matrix, so a sample reads the same bits in a stack as on
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import SUPPORT_TOL, ShapeError, _as_stack, as_matrix, dag, hermitize, operator_norm

__all__ = [
    "TOTAL_DIM_CAP",
    "DegenerateCut",
    "DimensionSignature",
    "PureState",
    "DensityMatrix",
    "SchmidtDecomposition",
    "schmidt",
    "closest_separable_state",
    "convex_split_witness",
    "smooth",
    "random_pure",
    "random_gue_hamiltonian",
    "random_ginibre_lindblad",
    "random_density",
    "random_unitary",
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
]

TOTAL_DIM_CAP = 64

HERMITIAN_TOL = 1e-10  # the largest |M - M†| a state's matrix may show


class DegenerateCut(ValueError):
    """The cut has min(d_A, d_B) = 1, so the quantity asked for is vacuous."""


def _positive_int(v, name: str) -> int:
    """``v`` as an int if it is an integer >= 1 (a numpy integer too, a bool
    not); anything else, 2.7 or "2" included, raises ShapeError."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise ShapeError(f"{name} must be a positive integer, got {v!r}")
    return int(v)


def _finite_real(v, name: str, rule: str = "a finite number") -> float:
    """``v`` as a float if it is a finite int or float (a numpy one too, a
    bool not); anything else, "1e-3" or NaN too, raises "<name> must be <rule>"."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)) or not math.isfinite(v):
        raise ValueError(f"{name} must be {rule}, got {v!r}")
    return float(v)


def _positive_real(v, name: str) -> float:
    """``_finite_real(v, name)`` if it is > 0; else "<name> must be finite and > 0"."""
    if _finite_real(v, name, "finite and > 0") <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    return float(v)


@dataclass(frozen=True)
class DimensionSignature:
    """Factor dimensions (d_a, d_A, d_B, d_b) of the a ⊗ A ⊗ B ⊗ b layout."""

    d_a: int = 1
    d_A: int = 2
    d_B: int = 2
    d_b: int = 1

    def __post_init__(self):
        for name in ("d_a", "d_A", "d_B", "d_b"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        if self.total > TOTAL_DIM_CAP:
            raise ShapeError(f"total dimension {self.total} exceeds cap {TOTAL_DIM_CAP}")

    @classmethod
    def cut(cls, d_A: int, d_B: int) -> "DimensionSignature":
        """Ancilla-free signature (1, d_A, d_B, 1)."""
        return cls(1, d_A, d_B, 1)

    @property
    def total(self) -> int:
        return self.d_a * self.d_A * self.d_B * self.d_b

    @property
    def alice(self) -> int:
        return self.d_a * self.d_A

    @property
    def bob(self) -> int:
        return self.d_B * self.d_b

    @property
    def d(self) -> int:
        """Schmidt-rank bound min(d_A, d_B) of the dynamical factors."""
        return min(self.d_A, self.d_B)

    @property
    def p(self) -> float:
        return 1.0 / self.d

    def factors(self) -> tuple[int, int, int, int]:
        return (self.d_a, self.d_A, self.d_B, self.d_b)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on the full a ⊗ A ⊗ B ⊗ b space."""

    dims: DimensionSignature
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _check_amplitudes(self.dims, amp[None])
        object.__setattr__(self, "amplitudes", amp)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conjugate(self.amplitudes))

    def density(self) -> "DensityMatrix":
        return _pure_densities([self])[0]


def _check_amplitudes(dims: DimensionSignature, amps: np.ndarray) -> None:
    # PureState's checks on each row of a stack, the norm as np.linalg.norm
    # takes it; the first row that fails raises
    if amps.shape[-1] != dims.total:
        raise ShapeError(f"amplitude vector has length {amps.shape[-1]}, expected {dims.total}")
    norms = np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))
    for finite, nrm in zip(np.isfinite(amps).all(axis=-1).tolist(), norms.tolist()):
        if not finite:
            raise ValueError("amplitudes contain NaN or Inf")
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state norm {nrm} is not 1 within 1e-12")


def _unchecked(cls, **fields):
    # ``cls`` with ``fields`` set, its __post_init__ checks run by the caller on a whole stack
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _pure_densities(psis: list[PureState]) -> list["DensityMatrix"]:
    # psi.density() of each state of a list on one space
    amps = np.stack([psi.amplitudes for psi in psis])
    return _densities(psis[0].dims, amps[:, :, None] * np.conjugate(amps)[:, None, :])


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m`` (of each matrix,
    for a stack)."""
    return np.linalg.eigvalsh(hermitize(m))


def _hermiticity_error(m: np.ndarray):
    """max |M - M†| of ``m`` (of each matrix, for a stack), itself not finite
    if M is not.  Taken from the real and imaginary parts, with no conjugate
    copy."""
    t = m.swapaxes(-1, -2)
    sq = m.real - t.real
    sq *= sq
    im = m.imag + t.imag
    im *= im
    sq += im
    return np.sqrt(sq.max(axis=(-2, -1)))


def _purities(m: np.ndarray):
    """Tr M² of a Hermitian ``m`` (of each matrix, for a stack) as the squared
    Frobenius norm."""
    flat = m.reshape(*m.shape[:-2], -1)
    return np.vecdot(flat, flat).real


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive unit-trace operator on the full space.

    Construction validates Hermiticity, trace, and approximate positivity.
    Integrators that accumulate small drift can pass looser tolerances.

    The state diagonalizes itself at most once.  Validation computes the
    spectrum (ascending eigenvalues of the Hermitian part) and keeps it as
    ``spectrum``; ``eigh()`` computes the full decomposition of the Hermitian
    part on first request and keeps it too.  The matrix (a copy, when the
    caller passed in an array it still holds) and both results are
    read-only, so what the state keeps cannot go stale.
    """

    dims: DimensionSignature
    matrix: np.ndarray
    trace_tol: float = field(default=1e-10, repr=False, compare=False)
    psd_tol: float = field(default=1e-10, repr=False, compare=False)
    _spectrum: np.ndarray = field(init=False, repr=False)
    _eigh: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # the checks of ``_densities`` on a stack of one, on a copy if the caller holds the matrix
        m = as_matrix(self.matrix, name="density matrix")
        m = m.copy() if m is self.matrix else m
        (lam,) = _checked_spectra(self.dims, m[None], self.trace_tol, [self.psd_tol])
        object.__setattr__(self, "matrix", _read_only(m))
        object.__setattr__(self, "_spectrum", _read_only(lam))

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the Hermitian part, ascending, as validation found them."""
        return self._spectrum

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of the Hermitian part, computed once."""
        if self._eigh is None:
            lam, vec = np.linalg.eigh(hermitize(self.matrix))
            object.__setattr__(self, "_eigh", (_read_only(lam), _read_only(vec)))
        return self._eigh

    def purity(self) -> float:
        """Tr rho^2 as the squared Frobenius norm, rho being Hermitian."""
        return float(_purities(self.matrix))


def _densities(dims: DimensionSignature, mats: np.ndarray, trace_tol=1e-10, psd_tol=1e-10, spectra=None):
    """``DensityMatrix(dims, m, trace_tol, psd_tol)`` for each matrix ``m`` of
    a stack the library has just computed (``psd_tol`` one tolerance or one
    per matrix), checked as one stack, with the spectra from one stacked
    eigensolve or, when the caller has them, ``spectra``.  The first matrix
    that fails a check raises what its constructor would.  Each state keeps
    its matrix and spectrum as views of the stacks."""
    mats = _as_stack(mats, "density matrix")
    tols = psd_tol if isinstance(psd_tol, list) else [psd_tol] * len(mats)
    lam = _checked_spectra(dims, mats, trace_tol, tols, spectra)
    return [
        _unchecked(DensityMatrix, dims=dims, matrix=_read_only(m), trace_tol=trace_tol, psd_tol=t,
                   _spectrum=_read_only(x))
        for m, x, t in zip(mats, lam, tols)
    ]


def _checked_spectra(dims: DimensionSignature, mats: np.ndarray, trace_tol, tols: list, spectra=None):
    # the DensityMatrix checks on each matrix of a complex stack, with the
    # spectra from one stacked eigensolve or ``spectra``, which are returned;
    # the first matrix that fails a check raises
    if mats.shape[-1] != dims.total:
        raise ShapeError(f"matrix dim {mats.shape[-1]} does not match dims total {dims.total}")
    lam = _eigvalsh(mats) if spectra is None else spectra
    herm, traces = _hermiticity_error(mats).tolist(), np.trace(mats, axis1=-2, axis2=-1).tolist()
    for herm_err, trace, low, tol in zip(herm, traces, lam.min(axis=-1).tolist(), tols):
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian: max |M - M†| = {herm_err:.3e}")
        if abs(trace - 1.0) > trace_tol:
            raise ValueError(f"trace {trace} is not 1 within {trace_tol}")
        if low < -tol:
            raise ValueError(f"min eigenvalue {low:.3e} below -{tol}")
    return lam


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data across aA | Bb: coefficients p_n (descending, summing to 1),
    left vectors as columns on the Alice side, right vectors on the Bob side."""

    dims: DimensionSignature
    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def entropy(self) -> float:
        p = self.coefficients[self.coefficients > 0]
        return float(-(p * np.log(p)).sum())

    def product_vectors(self) -> np.ndarray:
        """The product vectors l_n ⊗ r_n as the columns of an n x r matrix."""
        return (self.left[:, None, :] * self.right[None, :, :]).reshape(self.dims.total, -1)

    def reconstruct(self) -> PureState:
        amp = np.einsum("n,in,jn->ij", np.sqrt(self.coefficients), self.left, self.right).reshape(-1)
        return PureState(self.dims, amp / np.linalg.norm(amp))


def _tie_break_order(p: np.ndarray, left: np.ndarray):
    # descending by coefficient, the SVD's order when adjacent coefficients are
    # more than 1e-11 apart; near-degenerate ones ordered by the lexicographic
    # (re, im) entries of the phase-fixed left vectors
    listed = p.tolist()
    if all(a - b > 1e-11 for a, b in zip(listed, listed[1:])):
        return np.arange(p.size)
    rounded = [-round(float(x), 12) for x in p]

    def key(n: int):
        col = left[:, n]
        lex = tuple(x for entry in col for x in (round(float(entry.real), 10), round(float(entry.imag), 10)))
        return (rounded[n], lex)

    return sorted(range(p.size), key=key)


def _grouped(keys: list, run) -> list:
    # run(key, idx) on the indices idx of each distinct key, which returns one
    # result per index, as one stack per key; the results in index order
    out = [None] * len(keys)
    for key in set(keys):
        idx = [i for i, k in enumerate(keys) if k == key]
        for i, result in zip(idx, run(key, idx)):
            out[i] = result
    return out


def _one_space(states: list) -> DimensionSignature:
    # the signature that every state of a non-empty list shares
    dims = states[0].dims
    if any(x.dims != dims for x in states):
        raise ShapeError("the states of a stack live on different spaces")
    return dims


def schmidt(psi: PureState | list[PureState]) -> SchmidtDecomposition | list[SchmidtDecomposition]:
    """Schmidt decomposition of ``psi`` across the aA | Bb cut; of each
    state, for a list of states on one space (one stacked SVD).

    Coefficients at or below ``SUPPORT_TOL`` are dropped.  Each left vector
    is phase-fixed so its first nonzero component is real positive; the
    compensating phase goes on the right vector, which keeps the
    reconstruction exact.
    """
    if isinstance(psi, PureState):
        return schmidt([psi])[0]
    dims = _one_space(psi)
    m = np.stack([x.amplitudes for x in psi]).reshape(-1, dims.alice, dims.bob)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    p = s**2
    mask = p > SUPPORT_TOL
    if (mask == mask[0]).all():
        return _phase_fixed(dims, p, u, vh, mask[0])
    # the ranks differ: each state drops its own columns
    return [_phase_fixed(dims, *x)[0] for x in zip(p[:, None], u[:, None], vh[:, None], mask)]


def _phase_fixed(dims: DimensionSignature, p: np.ndarray, u: np.ndarray, vh: np.ndarray, mask):
    # the decompositions of a stack whose coefficients above SUPPORT_TOL are
    # the ones ``mask`` picks, phase-fixed and ordered
    u, p = u[..., mask], p[..., mask]
    k, r = p.shape
    right = vh[..., mask, :].swapaxes(-1, -2).copy()  # columns are Bob-side vectors
    # the first entry above 1e-12 of each column of u
    first = np.argmax(np.abs(u) > 1e-12, axis=-2)
    lead = u[np.arange(k)[:, None], first, np.arange(r)]
    # hypot is the scalar abs, which the np.abs ufunc can differ from in the last bit
    ph = (lead / np.hypot(lead.real, lead.imag))[:, None, :]
    u /= ph
    right *= ph
    out = []
    for pi, ui, ri in zip(p, u, right):
        # fancy-indexed even in SVD order: the copies' layout sets how later products round
        order = _tie_break_order(pi, ui)
        out.append(SchmidtDecomposition(dims, pi[order], ui[:, order], ri[:, order]))
    return out


def closest_separable_state(sd: SchmidtDecomposition | list[SchmidtDecomposition]):
    """The dephased Schmidt mixture sum_n p_n |l_n r_n><l_n r_n| (of each
    decomposition, for a list of them on one space).

    For a pure state this is the separable state minimizing the relative
    entropy, and the relative entropy to it equals the Schmidt entropy.
    """
    if isinstance(sd, SchmidtDecomposition):
        return closest_separable_state([sd])[0]
    dims = _one_space(sd)
    full = dims.total
    mats = np.stack(
        [np.einsum("n,in,jn,kn,ln->ikjl", x.coefficients, x.left, x.left.conj(), x.right, x.right.conj()) for x in sd]
    )
    return _densities(dims, hermitize(mats.reshape(-1, full, full)))


def convex_split_witness(rho: DensityMatrix | list[DensityMatrix], sigma, d: int):
    """Witness for d*sigma >= rho: returns (mu, min_eig) with
    sigma = rho/d + (1 - 1/d) mu; for lists of states, a list of such pairs.

    ``min_eig`` is the smallest eigenvalue of d*sigma - rho; mu is a valid
    density matrix exactly when it is >= 0.  d = 1 leaves no room for mu.
    """
    if isinstance(rho, DensityMatrix):
        return convex_split_witness([rho], [sigma], d)[0]
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        raise DegenerateCut("d = 1: sigma would have to equal rho, no complement state")
    dims = _one_space(rho)
    if len(sigma) != len(rho) or _one_space(sigma) != dims:
        raise ShapeError("rho and sigma live on different spaces")
    r, s = np.stack([x.matrix for x in rho]), np.stack([x.matrix for x in sigma])
    min_eig = np.linalg.eigvalsh(hermitize(d * s - r)).min(axis=-1).tolist()
    mu_m = hermitize((s - r / d) / (1.0 - 1.0 / d))
    mus = _densities(dims, mu_m, psd_tol=[max(1e-10, -lo + 1e-12) for lo in min_eig])
    return list(zip(mus, min_eig))


def _smoothed(m: np.ndarray, eta: float) -> np.ndarray:
    """(1 - eta) m + (eta/n) I for an n x n matrix ``m`` (each matrix of a
    stack): a state mixed with the maximally mixed state on its own space,
    which keeps it full rank."""
    n = m.shape[-1]
    return (1.0 - eta) * m + (eta / n) * np.eye(n)


def smooth(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Mix with the maximally mixed state: (1 - eta) rho + eta I/D."""
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    return DensityMatrix(rho.dims, _smoothed(rho.matrix, eta))


# ---------------------------------------------------------------- samplers

def _is_stack(seed) -> bool:
    """Whether a sampler's ``seed`` is a list of Generators, one per sample."""
    return isinstance(seed, list) and bool(seed) and all(isinstance(g, np.random.Generator) for g in seed)


def _ginibre(shape: tuple[int, ...], rngs: list[np.random.Generator]) -> np.ndarray:
    """One complex Gaussian array ``a + 1j * b`` of ``shape`` from each
    generator, which draws a and then b; one draw of both is the same stream."""
    parts = np.empty((len(rngs), 2, *shape))
    for part, rng in zip(parts, rngs):
        rng.standard_normal(out=part)
    return parts[:, 0] + 1j * parts[:, 1]


def _unit_rows(dims: DimensionSignature, z: np.ndarray) -> list[PureState]:
    """The PureState of each row of ``z`` divided by its ``np.linalg.norm``,
    which is the square root of the dots of the real and imaginary parts,
    checked as one stack."""
    norms = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
    amps = z / norms[:, None]
    _check_amplitudes(dims, amps)
    return [_unchecked(PureState, dims=dims, amplitudes=amp) for amp in amps]


def random_pure(dims: DimensionSignature, seed) -> PureState | list[PureState]:
    """Haar-random pure state on the full space, deterministic per seed; a
    list of them for a list of Generators (module docstring)."""
    if not _is_stack(seed):
        return random_pure(dims, [np.random.default_rng(seed)])[0]
    return _unit_rows(dims, _ginibre((dims.total,), seed))


def random_gue_hamiltonian(dim: int, seed) -> np.ndarray:
    """GUE-distributed Hermitian matrix rescaled to operator norm exactly 1;
    a stack of them for a list of Generators (module docstring)."""
    if not _is_stack(seed):
        return random_gue_hamiltonian(dim, [np.random.default_rng(seed)])[0]
    h = hermitize(_ginibre((dim, dim), seed))
    return h / operator_norm(h)[:, None, None]


def random_ginibre_lindblad(dim: int, seed) -> np.ndarray:
    """Complex Ginibre matrix rescaled to operator norm exactly 1; a stack of
    them for a list of Generators (module docstring)."""
    if not _is_stack(seed):
        return random_ginibre_lindblad(dim, [np.random.default_rng(seed)])[0]
    g = _ginibre((dim, dim), seed)
    return g / operator_norm(g)[:, None, None]


def random_density(dim: int, seed) -> np.ndarray:
    """Full-rank random density matrix G G† / Tr(G G†) from a Ginibre G; a
    stack of them for a list of Generators (module docstring)."""
    if not _is_stack(seed):
        return random_density(dim, [np.random.default_rng(seed)])[0]
    g = _ginibre((dim, dim), seed)
    m = g @ dag(g)
    return m / np.real(np.trace(m, axis1=-2, axis2=-1))[:, None, None]


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing; a
    stack of them for a list of Generators (module docstring)."""
    if not _is_stack(seed):
        return random_unitary(dim, [np.random.default_rng(seed)])[0]
    q, r = np.linalg.qr(_ginibre((dim, dim), seed))
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


# ------------------------------------------------------------ serialization

def matrix_to_json(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ValueError("matrix object must have 're' and 'im' fields")
    re, im = np.asarray(obj["re"], dtype=object), np.asarray(obj["im"], dtype=object)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (*re.flat, *im.flat)):
        raise ValueError("matrix entries must be numbers, not strings or booleans")
    re, im = re.astype(float), im.astype(float)
    if re.shape != im.shape:
        raise ValueError(f"'re' has shape {re.shape} but 'im' has shape {im.shape}")
    return re + 1j * im


def state_to_json(state: PureState | DensityMatrix) -> dict:
    """Schema: {"dims": [d_a, d_A, d_B, d_b], "re": [...], "im": [...]}, with
    re/im the amplitude vector of a PureState or the matrix of a DensityMatrix."""
    out = {"dims": list(state.dims.factors())}
    out.update(matrix_to_json(state.amplitudes if isinstance(state, PureState) else state.matrix))
    return out


def _signature_from_json(obj, what: str) -> DimensionSignature:
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ValueError(f"{what} object must have a 'dims' field")
    dims = obj["dims"]
    if not (isinstance(dims, list) and len(dims) == 4):
        raise ValueError(f"dims must be a list of four factors, got {dims!r}")
    return DimensionSignature(*dims)


def state_from_json(obj) -> PureState | DensityMatrix:
    sig = _signature_from_json(obj, "state")
    data = matrix_from_json(obj)
    if data.ndim == 1:
        return PureState(sig, data)
    return DensityMatrix(sig, data)

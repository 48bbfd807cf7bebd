"""States on a four-factor Hilbert space a ⊗ A ⊗ B ⊗ b.

The bipartition of interest is always aA | Bb: Alice holds the first two
factors, Bob the last two.  Ancilla-free systems just use d_a = d_b = 1.
Includes the Schmidt decomposition, the closest separable state built from
it, smoothing toward the maximally mixed state, seeded random samplers, and
``SUPPORT_TOL``, the one threshold of every support log and relative entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError, as_matrix, dag, hermitize, operator_norm

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

# Schmidt coefficients (squared amplitudes) below this are dropped
SCHMIDT_CUTOFF = 1e-12
SUPPORT_TOL = 1e-12  # eigenvalues at or below this are off a state's support
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
        if amp.size != self.dims.total:
            raise ShapeError(f"amplitude vector has length {amp.size}, expected {self.dims.total}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes contain NaN or Inf")
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state norm {nrm} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amp)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conjugate(self.amplitudes))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, self.projector())


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


def _log_on_support(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """V diag(ln lambda) V† from an eigendecomposition (lam, V), with ln taken
    on the eigenvalues above ``SUPPORT_TOL`` and 0 in place of it elsewhere."""
    return (vec * np.log(np.where(lam > SUPPORT_TOL, lam, 1.0))) @ dag(vec)


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
    part on first request and keeps it too, and ``log_on_support()`` builds
    ln of the state on its support (eigenvalues above ``SUPPORT_TOL``) from
    that decomposition and keeps it, so a fixed reference state costs
    one O(n^3) log however often its relative entropy is taken.  The matrix
    (a copy, when the caller passed in an array it still holds) and all
    three results are read-only, so what the state keeps cannot go stale.
    """

    dims: DimensionSignature
    matrix: np.ndarray
    trace_tol: float = field(default=1e-10, repr=False, compare=False)
    psd_tol: float = field(default=1e-10, repr=False, compare=False)
    _spectrum: np.ndarray = field(init=False, repr=False)
    _eigh: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)
    _log: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = as_matrix(self.matrix, name="density matrix")
        if m.shape[0] != self.dims.total:
            raise ShapeError(f"matrix dim {m.shape[0]} does not match dims total {self.dims.total}")
        herm_err = float(_hermiticity_error(m))
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian: max |M - M†| = {herm_err:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"trace {tr} is not 1 within {self.trace_tol}")
        lam = self.__dict__.get("_spectrum")  # set only by _adopt
        if lam is None:
            if m is self.matrix:
                m = m.copy()
            lam = _eigvalsh(m)
        lo = float(lam.min())
        if lo < -self.psd_tol:
            raise ValueError(f"min eigenvalue {lo:.3e} below -{self.psd_tol}")
        object.__setattr__(self, "matrix", _read_only(m))
        object.__setattr__(self, "_spectrum", _read_only(lam))

    @classmethod
    def _adopt(cls, dims: DimensionSignature, m: np.ndarray, spectrum: np.ndarray, **tols) -> "DensityMatrix":
        """Validate a matrix the library has just computed and hands over,
        with its ``_eigvalsh(m)`` already known, so nothing is copied or
        diagonalized again."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "_spectrum", spectrum)
        rho.__init__(dims, m, **tols)
        return rho

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

    def log_on_support(self) -> np.ndarray:
        """ln of the state on the eigenvalues of ``eigh()`` above
        ``SUPPORT_TOL`` (0 off them), computed once."""
        if self._log is None:
            object.__setattr__(self, "_log", _read_only(_log_on_support(*self.eigh())))
        return self._log

    def purity(self) -> float:
        """Tr rho^2 as the squared Frobenius norm, rho being Hermitian."""
        return float(_purities(self.matrix))


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

    def reconstruct(self) -> PureState:
        amp = np.einsum("n,in,jn->ij", np.sqrt(self.coefficients), self.left, self.right).reshape(-1)
        return PureState(self.dims, amp / np.linalg.norm(amp))


def _tie_break_order(p: np.ndarray, left: np.ndarray) -> list[int]:
    # descending by coefficient; near-degenerate coefficients ordered by the
    # lexicographic (re, im) entries of the phase-fixed left vectors, whose
    # keys are built only when two coefficients round to the same value
    rounded = [-round(float(x), 12) for x in p]
    if len(set(rounded)) == len(rounded):
        return sorted(range(p.size), key=rounded.__getitem__)

    def key(n: int):
        col = left[:, n]
        lex = tuple(x for entry in col for x in (round(float(entry.real), 10), round(float(entry.imag), 10)))
        return (rounded[n], lex)

    return sorted(range(p.size), key=key)


def schmidt(psi: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition of ``psi`` across the aA | Bb cut.

    Coefficients below 1e-12 are dropped.  Each left vector is phase-fixed so
    its first nonzero component is real positive; the compensating phase goes
    on the right vector, which keeps the reconstruction exact.
    """
    dims = psi.dims
    m = psi.amplitudes.reshape(dims.alice, dims.bob)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    p = s**2
    mask = p > SCHMIDT_CUTOFF
    u, p = u[:, mask], p[mask]
    right = vh[mask, :].T.copy()  # columns are Bob-side vectors
    lead = u[np.argmax(np.abs(u) > 1e-12, axis=0), np.arange(p.size)]
    # the scalar abs, which the np.abs ufunc can differ from in the last bit
    ph = lead / np.array([abs(x) for x in lead])
    u /= ph
    right *= ph
    order = _tie_break_order(p, u)
    return SchmidtDecomposition(dims, p[order], u[:, order], right[:, order])


def closest_separable_state(sd: SchmidtDecomposition) -> DensityMatrix:
    """The dephased Schmidt mixture sum_n p_n |l_n r_n><l_n r_n|.

    For a pure state this is the separable state minimizing the relative
    entropy, and the relative entropy to it equals the Schmidt entropy.
    """
    p, u, r = sd.coefficients, sd.left, sd.right
    m = np.einsum("n,in,jn,kn,ln->ikjl", p, u, np.conjugate(u), r, np.conjugate(r))
    full = sd.dims.total
    return DensityMatrix(sd.dims, hermitize(m.reshape(full, full)))


def convex_split_witness(rho: DensityMatrix, sigma: DensityMatrix, d: int):
    """Witness for d*sigma >= rho: returns (mu, min_eig) with
    sigma = rho/d + (1 - 1/d) mu.

    ``min_eig`` is the smallest eigenvalue of d*sigma - rho; mu is a valid
    density matrix exactly when it is >= 0.  d = 1 leaves no room for mu.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        raise DegenerateCut("d = 1: sigma would have to equal rho, no complement state")
    if rho.dims != sigma.dims:
        raise ShapeError("rho and sigma live on different spaces")
    z = hermitize(d * sigma.matrix - rho.matrix)
    min_eig = float(np.linalg.eigvalsh(z).min())
    mu_m = (sigma.matrix - rho.matrix / d) / (1.0 - 1.0 / d)
    mu = DensityMatrix(rho.dims, hermitize(mu_m), psd_tol=max(1e-10, -min_eig + 1e-12))
    return mu, min_eig


def _smoothed(m: np.ndarray, eta: float) -> np.ndarray:
    """(1 - eta) m + (eta/n) I for an n x n matrix ``m``: a state mixed with
    the maximally mixed state on its own space, which keeps it full rank."""
    n = m.shape[0]
    return (1.0 - eta) * m + (eta / n) * np.eye(n)


def smooth(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Mix with the maximally mixed state: (1 - eta) rho + eta I/D."""
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    return DensityMatrix(rho.dims, _smoothed(rho.matrix, eta))


# ---------------------------------------------------------------- samplers

def random_pure(dims: DimensionSignature, seed) -> PureState:
    """Haar-random pure state on the full space, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
    return PureState(dims, z / np.linalg.norm(z))


def random_gue_hamiltonian(dim: int, seed) -> np.ndarray:
    """GUE-distributed Hermitian matrix rescaled to operator norm exactly 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = hermitize(g)
    return h / operator_norm(h)


def random_ginibre_lindblad(dim: int, seed) -> np.ndarray:
    """Complex Ginibre matrix rescaled to operator norm exactly 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / operator_norm(g)


def random_density(dim: int, seed) -> np.ndarray:
    """Full-rank random density matrix G G† / Tr(G G†) from a Ginibre G."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ np.conjugate(g).T
    return m / np.real(m.trace())


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


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

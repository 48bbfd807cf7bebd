"""Markovian open-system dynamics on the central A ⊗ B factors.

The generator is the usual GKSL form

    L(rho) = -i[H, rho] + sum_k ( L_k rho L_k† - {L_k† L_k, rho} / 2 )

with H and the jump operators given on A ⊗ B and acting as I_a ⊗ (·) ⊗ I_b
on the full space, so the ancilla indices of rho are spectators.  With
K = H - (i/2) sum_k L_k† L_k the generator is -i(K rho - rho K†) +
sum_k L_k rho L_k†, and every product below is taken on the A ⊗ B block of
rho only; nothing is embedded in the full space.

Integration is fixed-step RK4 with no renormalization; drift in the trace or
spectrum is reported, never hidden.  For a constant generator one RK4 step is
exactly the polynomial T4(hS) = I + hS + (hS)^2/2 + (hS)^3/6 + (hS)^4/24 of
the superoperator S = -i(K ⊗ I) + i(I ⊗ K̄) + sum_k L_k ⊗ L̄_k, which acts on
the row-major vec of the A ⊗ B block (size d_AB^2).  An integration of
``steps`` steps is then one product of the step map M = T4(hS)^steps with rho
reshaped to (d_AB^2, (d_a d_b)^2).  S preserves Hermiticity, so it is a
real matrix in any real coordinates of the Hermitian operators, as in the
coherence-vector form of Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17,
821 (1976).  The coordinates used here are X -> Re X + Im X, which map the
Hermitian operators onto the real matrices and keep the Frobenius norm; in
them S is Re S + (Im S) P, with P the vec transpose.  M is built in these
coordinates in float64, half the bytes of the complex map.  The same
coordinates taken over the whole space turn a Hermitian rho into one real
(d_AB^2, (d_a d_b)^2) matrix, so a segment is one real product with half the
columns of the complex block, and the state it returns is exactly
Hermitian.  The build forms sum_k L_k ⊗ L̄_k as one batched product over the
jump operators, T4(A) = (I + A) + A^2 (I/2 + A/6 + A^2/24) in two products
of size d_AB^2, and the power by binary powering.

The other path applies the generator to the block in K-form, with 2 + 2k
products of size d_AB per application (k jump operators), and evaluates the
same polynomial by Horner's rule instead of stepping: T4(x)^m is bounded
coefficient by coefficient by e^(mx), so with beta = 2‖K‖ + sum ‖L_k‖² (in
Frobenius norms, an upper bound on ‖S‖) and the steps cut into chunks of m
with m h beta <= 1, the terms of T4(hS)^m past some degree J <= 20 sum to at
most 1e-18 times the norm of the block.  A chunk then takes J applications
where the RK4 loop takes 4m; J never exceeds 4m, and a one-step chunk is one
RK4 step.  This is the truncated Taylor series of Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 488 (2011), applied to the RK4 polynomial rather than to
the exponential.  A 64-step integration over t <= 1e-3, as in the theorem2
probes, takes at most eight applications (about five on average) instead
of 256.  Both paths compute the same polynomial; they differ by roundoff
only.  A stack of states under a list of generators runs one Horner chain
per chunk size (theorem2's t beta <= 1 gives one): missing jump operators
are zero matrices (adding +0 may flip an exact -0), and each state's
coefficients are zero-padded above its own degree, so it is an exact zero
until then (apply(0) = 0, 0 + x = x) and reads as in a stack of one.

The caller picks the path.  ``evolve_series``, the time-series entry
point, builds the step map of its (h, steps) when d_AB <= 16
(``STEP_MAP_MAX_AB``), builds it again only when a retry changes the step
count, and passes it to ``_integrate`` for every segment: the 49 equal
segments of an ``entrate simulate`` series share one build.  Above that the
build costs more than the K-form segments it would replace, so they run in
K-form too.  Every other integration (``evolve``, the rate probes and
``convergence_order``) is a one-off and runs in K-form; a theorem2 probe
takes about five generator applications, less than a build costs.  The
generator keeps no map, so no result depends on what ran on it before.

``evolve_series`` integrates its segments one after another and checks
the states in chunks: one stacked eigensolve gives the drift of every state
of a chunk and the spectra the caller measures with, so what a state costs
beyond its product and its eigensolve is a share of a few stacked calls,
not a chain of per-state ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .linalg import ShapeError, as_matrix, dag, tensor
from .states import (
    HERMITIAN_TOL,
    DensityMatrix,
    DimensionSignature,
    _densities,
    _eigvalsh,
    _finite_real,
    _grouped,
    _hermiticity_error,
    _positive_int,
    _positive_real,
    _signature_from_json,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "IntegrationError",
    "LindbladGenerator",
    "embed_ab",
    "apply_generator",
    "evolve",
    "evolve_series",
    "convergence_order",
    "generator_to_json",
    "generator_from_json",
]

# post-integration sanity thresholds on trace and positivity drift
DRIFT_TOL = 1e-8

# evolve_series builds the step map only up to this d_AB.  The build grows as d_AB^6
# and a K-form segment as d_AB^3: a 49-segment series of 32 steps with three
# jump operators (one BLAS thread) took 0.015 s with the map and 0.135 s in
# K-form at d_AB = 16 (dims 2 4 4 2), but 0.374 s against 0.078 s at d_AB = 32
# (dims 1 4 8 1); at 64 the map is estimated at about 20 s and several hundred MB
STEP_MAP_MAX_AB = 16

# the K-form path drops the terms of T4(hS)^steps whose summed norm is at
# most this, relative to the norm of rho's block
HORNER_TAIL = 1e-18

# evolve_series checks and hands out its states in chunks of at most this
# many bytes of complex matrices, 8 states at n = 64.  A chunk saves
# per-state call overhead, and past a few states the saving no longer grows
# while the chunk's memory does, so the budget is in bytes, not states
SERIES_CHUNK_BYTES = 512 * 1024

# evolve_series integrates a drifting segment again at most this many times
SERIES_RETRIES = 3


class IntegrationError(RuntimeError):
    """Integrator drifted out of tolerance.  Carries a step-count suggestion."""

    def __init__(self, msg: str, drift: float, suggested_steps: int):
        super().__init__(msg)
        self.drift = drift
        self.suggested_steps = suggested_steps


def _check_ab(op: np.ndarray, dims: DimensionSignature, name: str) -> np.ndarray:
    op = as_matrix(op, name=name)
    ab = dims.d_A * dims.d_B
    if op.shape[0] != ab:
        raise ShapeError(f"operator dim {op.shape[0]} does not match d_A*d_B = {ab}")
    return op


def _same_space(gen: LindbladGenerator, state) -> None:
    # ``state`` is a DensityMatrix or a PureState
    if gen.dims != state.dims:
        raise ShapeError("generator and state live on different spaces")


def _check_hermitian(h: np.ndarray) -> None:
    herm = float(np.abs(h - dag(h)).max())
    if herm > 1e-12:
        raise ValueError(f"hamiltonian not Hermitian: max |H - H†| = {herm:.3e}")


def embed_ab(op: np.ndarray, dims: DimensionSignature) -> np.ndarray:
    """Lift an operator on A ⊗ B to I_a ⊗ op ⊗ I_b on the full space."""
    op = _check_ab(op, dims, "A⊗B operator")
    return tensor(np.eye(dims.d_a), op, np.eye(dims.d_b))


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """GKSL generator with H and jump operators given on the A ⊗ B factors.

    ``hamiltonian`` may be None for purely dissipative dynamics, and an empty
    ``lindblad_ops`` tuple gives closed (unitary) dynamics.  The effective
    operator K = H - (i/2) sum L† L is formed once at construction.  The
    generator is immutable: it keeps no step map, which ``evolve_series``
    builds for itself (module docstring).
    """

    dims: DimensionSignature
    hamiltonian: np.ndarray | None = None
    lindblad_ops: tuple[np.ndarray, ...] = ()
    _k: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = self.hamiltonian
        if h is not None:
            h = _check_ab(h, self.dims, "hamiltonian")
            _check_hermitian(h)
        ls = tuple(_check_ab(l, self.dims, "lindblad op") for l in self.lindblad_ops)
        ab = self.dims.d_A * self.dims.d_B
        k = np.zeros((ab, ab), dtype=complex) if h is None else h.copy()
        for l in ls:
            k -= 0.5j * (dag(l) @ l)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblad_ops", ls)
        object.__setattr__(self, "_k", k)

    @cached_property
    def _norm_bound(self) -> float:
        """beta = 2‖K‖ + sum ‖L_k‖², an upper bound on the norm of S on the
        block, with Frobenius norms standing in for operator norms."""
        return 2.0 * float(np.linalg.norm(self._k)) + sum(float(np.linalg.norm(l)) ** 2 for l in self.lindblad_ops)


# ------------------------------------------------------------ block layouts
#
# rho on a ⊗ (A⊗B) ⊗ b has axes (a, AB, b, a', AB', b').  The K-form keeps it
# as rows AB by columns (a, b, a', b', AB'), so left products act on the rows
# and right products on the trailing AB' axis of the same buffer; the step
# map takes rows (AB, AB') by columns (a, b, a', b').  The K-form layouts
# carry a leading stack axis.

_ROWS = (0, 2, 1, 3, 4, 6, 5)  # self-inverse, on a stack
_VEC = (1, 4, 0, 2, 3, 5)
_VEC_INV = (2, 0, 3, 4, 1, 5)
_T_AB_PAIR = (0, 1, 4, 5, 2, 3)  # on the _VEC layout: (a, b) <-> (a', b')


def _axes(dims: DimensionSignature) -> tuple[int, int, int, int]:
    d_a, d_A, d_B, d_b = dims.factors()
    return d_a, d_A * d_B, d_b, dims.total


def _to_rows(rho: np.ndarray, dims: DimensionSignature) -> np.ndarray:
    d_a, ab, d_b, _ = _axes(dims)
    return rho.reshape(-1, d_a, ab, d_b, d_a, ab, d_b).transpose(_ROWS).reshape(len(rho), ab, -1)


def _from_rows(y: np.ndarray, dims: DimensionSignature) -> np.ndarray:
    d_a, ab, d_b, n = _axes(dims)
    return y.reshape(-1, ab, d_a, d_b, d_a, d_b, ab).transpose(_ROWS).reshape(len(y), n, n)


def _kform(gens: list[LindbladGenerator]):
    """A list of generators on a stack in the row layout: y_i -> -i(K_i y_i -
    y_i K_i†) + sum_k L_ik y_i L_ik†, missing jump operators as zero matrices."""
    k = np.stack([g._k for g in gens])
    ls = np.zeros((max(len(g.lindblad_ops) for g in gens), *k.shape), dtype=complex)
    for i, g in enumerate(gens):
        for j, l in enumerate(g.lindblad_ops):
            ls[j, i] = l
    ab = k.shape[-1]
    k_dag = dag(k)
    pairs = [(l, dag(l)) for l in ls]

    def apply(y: np.ndarray) -> np.ndarray:
        out = k @ y
        out -= (y.reshape(len(y), -1, ab) @ k_dag).reshape(y.shape)
        out *= -1j
        for l, l_dag in pairs:
            out += ((l @ y).reshape(len(y), -1, ab) @ l_dag).reshape(y.shape)
        return out

    return apply


def apply_generator(gen, rho: np.ndarray) -> np.ndarray:
    """L(rho) for a full-space rho, computed on its A ⊗ B block; for a list of
    generators on one space and a stack, each applied to its matrix at once."""
    one = isinstance(gen, LindbladGenerator)
    gens, rho = ([gen], rho[None]) if one else (gen, rho)
    out = _from_rows(_kform(gens)(_to_rows(rho, gens[0].dims)), gens[0].dims)
    return out[0] if one else out


# ------------------------------------------------------------ the step map
#
# For Hermitian X, Re X is symmetric and Im X antisymmetric, so X -> Re X + Im X
# maps the Hermitian operators onto the real matrices and keeps the Frobenius
# norm.  On vec(X) it is the unitary T = ((1 - i) I + (1 + i) P)/2, P the vec
# transpose, with T^-1 = ((1 + i) I + (1 - i) P)/2; T S T^-1 = Re S + (Im S) P
# is real, and the step map is built as the real matrix
# T T4(hS)^steps T^-1.


def _build_step_map(k: np.ndarray, ls: tuple[np.ndarray, ...], h: float, steps: int) -> np.ndarray:
    # T4(hS)^steps, real in the coordinates Re X + Im X
    ab = k.shape[0]
    n = ab * ab
    if ls:
        # sum L ⊗ L̄, axes (p, q, p', q'), as one product over the jump
        # operators batched over (p, q): block (p, q) is L[:, p, :]ᵀ L̄[:, q, :]
        stack = np.asarray(ls)
        a = np.matmul(stack.transpose(1, 2, 0)[:, None], stack.conj().transpose(1, 0, 2)[None])
    else:
        a = np.zeros((ab, ab, ab, ab), dtype=complex)
    for q in range(ab):
        a[:, q, :, q] -= 1j * k
    k_bar = 1j * k.conj()
    for p in range(ab):
        a[p, :, p, :] += k_bar
    a = (a.real + a.imag.swapaxes(2, 3)).reshape(n, n)  # Re S + (Im S) P
    a *= h
    # T4(A) = (I + A) + A²(I/2 + A/6 + A²/24) in two products; the bracket
    # is a polynomial in A, so it commutes with A² and takes the product in place
    t = a @ a
    bracket = t / 4.0
    bracket += a
    bracket /= 6.0
    _add_identity(bracket, 0.5)
    _times_in_place(t, bracket)
    t += a
    _add_identity(t, 1.0)
    del bracket  # the powering needs two n×n buffers, not three
    return _power(t, steps, spare=a)


def _add_identity(m: np.ndarray, c: float) -> None:
    m.flat[:: m.shape[0] + 1] += c


def _times_in_place(x: np.ndarray, y: np.ndarray, rows: int = 32) -> None:
    # x <- x @ y one block of rows at a time, so no second n×n buffer is needed
    for i in range(0, x.shape[0], rows):
        x[i : i + rows] = x[i : i + rows] @ y


def _power(base: np.ndarray, steps: int, spare: np.ndarray) -> np.ndarray:
    # binary powering that overwrites ``base`` and ``spare``; the powers of one
    # matrix commute, so the result is multiplied in place, and a power of two
    # needs no buffer beyond the two given
    result = None
    while True:
        if steps & 1:
            if result is None:
                result = base if steps == 1 else base.copy()
            else:
                _times_in_place(result, base)
        steps >>= 1
        if not steps:
            return result
        np.matmul(base, base, out=spare)
        base, spare = spare, base


def _apply_step_map(m: np.ndarray, rho: np.ndarray, dims: DimensionSignature) -> np.ndarray:
    # rho Hermitian, laid out as x (AB, AB', ab, a'b'), goes through the
    # coordinates Re X + Im X of the whole space as one real matrix
    # Y = (Re x)^{T_AB} + Im x, half the columns of the complex block.  With
    # Z = M Y, rho' = (Z^{T_AB} + Z^{T_ab})/2 + (i/2)(Z - Z^{T_AB T_ab}): S
    # commutes with the transpose up to conjugation (S_r P = P S_r,
    # S_i P = -P S_i) and x^{T_ab} = conj(x)^{T_AB}, which take the pair back
    # to Re and Im of S x.  Each entry of rho' and its mirror are the same
    # two numbers summed, so rho' is exactly Hermitian.
    # The halving goes on Y, where it is exact and half the size.
    d_a, ab, d_b, n = _axes(dims)
    x = rho.reshape(d_a, ab, d_b, d_a, ab, d_b).transpose(_VEC)
    y = np.empty(x.shape)
    np.add(x.real.swapaxes(0, 1), x.imag, out=y)
    y *= 0.5
    z = (m @ y.reshape(ab * ab, -1)).reshape(x.shape)
    z_t = z.swapaxes(0, 1)
    out = np.empty(x.shape, dtype=complex)
    np.add(z_t, z.transpose(_T_AB_PAIR), out=out.real)
    np.subtract(z, z_t.transpose(_T_AB_PAIR), out=out.imag)
    return out.transpose(_VEC_INV).reshape(n, n)


# ------------------------------------------------------------- integration

def _integrate(gen, rho: np.ndarray, t: float, steps: int, step_map: np.ndarray | None = None) -> np.ndarray:
    """rho after ``steps`` RK4 steps of size t/steps, i.e. T4(hS)^steps rho
    (for a list of generators on one space and a stack, each matrix under its own).

    With ``step_map``, which must be ``_build_step_map`` of this (one)
    generator's (t/steps, steps), this is one product.  Otherwise, in K-form,
    the steps go in chunks of m with m h beta <= 1 (beta = ``_norm_bound``),
    and each chunk is Horner's rule on the coefficients c_0..c_J of T4(x)^m,
    zero-padded over a stack (module docstring), J <= 4m applications."""
    if step_map is not None:
        return _apply_step_map(step_map, rho, gen.dims)
    one = isinstance(gen, LindbladGenerator)
    gens, rho = ([gen], rho[None]) if one else (gen, rho)
    h = t / steps
    hbs = [h * g._norm_bound for g in gens]

    def chain(chunk: int, idx: list[int]) -> np.ndarray:
        apply = _kform([gens[i] for i in idx])
        y = _to_rows(rho[idx], gens[0].dims)
        for start in range(0, steps, chunk):
            m = min(chunk, steps - start)
            degrees = [_horner_degree(m * hbs[i], 4 * m) for i in idx]
            coeffs = np.zeros((len(idx), max(degrees) + 1))
            for row, j in zip(coeffs, degrees):
                row[: j + 1] = _t4_power_coefficients(m, j)
            acc = coeffs[:, -1, None, None] * y
            for c in coeffs.T[-2::-1, :, None, None]:
                acc = apply(acc)
                acc *= h
                acc += c * y
            y = acc
        return _from_rows(y, gens[0].dims)

    out = np.stack(_grouped([steps if hb * steps <= 1.0 else max(1, int(1.0 / hb)) for hb in hbs], chain))
    return out[0] if one else out


def _horner_degree(z: float, cap: int) -> int:
    # least J <= cap with e z^(J+1)/(J+1)! <= HORNER_TAIL.  For z <= 1 that
    # bounds sum_{j>J} z^j/j!, and with z = m h beta this bounds the dropped
    # terms of T4(hS)^m: T4(x)^m <= e^(mx) coefficient by coefficient.  Only
    # one-step chunks have z > 1, and there the cap of 4 keeps every term
    j, tail = 0, math.e * z
    while j < cap and tail > HORNER_TAIL:
        j += 1
        tail *= z / (j + 1)
    return j


@lru_cache(maxsize=64)
def _t4_power_coefficients(m: int, degree: int) -> np.ndarray:
    # c_0..c_degree of T4(x)^m by binary powering of the coefficient vector,
    # each product truncated to ``degree``; read-only, as the arrays are shared
    base = np.array([1.0, 1.0, 1 / 2, 1 / 6, 1 / 24])[: degree + 1]
    out = np.ones(1)
    while True:
        if m & 1:
            out = np.convolve(out, base)[: degree + 1]
        m >>= 1
        if not m:
            break
        base = np.convolve(base, base)[: degree + 1]
    out.flags.writeable = False
    return out


def _trace_error(m: np.ndarray):
    """|Re tr - 1| + |Im tr| of ``m`` (of each matrix, for a stack)."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    return np.abs(tr.real - 1.0) + np.abs(tr.imag)


def _drift(m: np.ndarray, lam: np.ndarray | None = None):
    """Trace and positivity drift max(|Re tr - 1| + |Im tr|, -lambda_min, 0),
    with the spectrum it read, of ``m`` or of each matrix of a stack: one
    stacked eigensolve (unless the caller passes ``lam``, the spectrum of the
    Hermitian part), whose spectra the adopted states keep."""
    if lam is None:
        lam = _eigvalsh(m)
    return np.maximum(np.maximum(_trace_error(m), -lam.min(axis=-1)), 0.0), lam


def _drift_error(drift: float, steps: int) -> IntegrationError:
    # the suggested step count scales by the fourth root of the overshoot
    grow = (drift / DRIFT_TOL) ** 0.25
    return IntegrationError(
        f"drift {drift:.3e} exceeds {DRIFT_TOL}; retry with more steps",
        drift=float(drift),
        suggested_steps=max(2 * steps, int(math.ceil(steps * grow))),
    )


def evolve(gen: LindbladGenerator, rho0: DensityMatrix, t: float, steps: int = 1000) -> DensityMatrix:
    """Integrate for time ``t`` with fixed-step RK4, as a one-off in K-form
    (module docstring); a time series is ``evolve_series``.

    Raises IntegrationError (with a suggested step count scaled by the
    fourth root of the overshoot) if trace or positivity drift exceeds 1e-8,
    before the result is validated as a state.  The returned state keeps the
    spectrum the drift check computed.
    """
    _same_space(gen, rho0)
    if _finite_real(t, "t", "finite and >= 0") < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    steps = _positive_int(steps, "steps")
    if t == 0:
        return rho0
    out = _integrate(gen, rho0.matrix, t, steps)
    drift, lam = _drift(out)
    if drift > DRIFT_TOL:
        raise _drift_error(drift, steps)
    return _densities(rho0.dims, out[None], DRIFT_TOL, DRIFT_TOL, lam[None])[0]


def evolve_series(
    gen: LindbladGenerator, rho0: DensityMatrix, t: float, count: int, steps: int
):
    """The states at times 0, t, 2t, ..., ``count`` t from ``rho0``, in
    chunks ``(mats, spectra)``: a stack of matrices and their ascending
    eigenvalues, in time order.  The first chunk is ``rho0`` alone.

    Each segment is an integration of ``steps`` steps, run one after
    another; up to d_AB = 16 they share one step map, built again only when
    a retry changes ``steps``.  A chunk holds at most ``SERIES_CHUNK_BYTES``
    of complex matrices and is checked as a stack: one stacked eigensolve
    for the trace and positivity drift, then the Hermiticity and finiteness
    of the rows before the first that drifts.
    The rows before a failure are yielded first.  A segment that drifts is
    integrated again from the last good state with the suggested step count,
    which the later segments keep; its ``SERIES_RETRIES + 1``-th drift
    raises IntegrationError, and a row that is not Hermitian within
    ``HERMITIAN_TOL`` (or not finite) raises ValueError.
    """
    _same_space(gen, rho0)
    _positive_real(t, "t")
    count = _positive_int(count, "count")
    steps = _positive_int(steps, "steps")
    n = rho0.dims.total
    rows = max(1, SERIES_CHUNK_BYTES // (16 * n * n))
    start = rho0.matrix
    yield start[None], rho0.spectrum[None]
    use_map = gen.dims.d_A * gen.dims.d_B <= STEP_MAP_MAX_AB
    step_map = _build_step_map(gen._k, gen.lindblad_ops, t / steps, steps) if use_map else None
    done = failures = 0  # failures: of the segment after the last good one
    while done < count:
        mats = np.empty((min(rows, count - done), n, n), dtype=complex)
        m = start
        for i in range(len(mats)):
            m = mats[i] = _integrate(gen, m, t, steps, step_map)
        herm = _hermiticity_error(mats)
        # the step map's states are exactly Hermitian, their own Hermitian part
        drift, lam = _drift(mats, None if herm.any() else np.linalg.eigvalsh(mats))
        good = _first(drift > DRIFT_TOL, len(mats))
        ok = _first(~(herm[:good] <= HERMITIAN_TOL), good)  # a non-finite state fails too
        if ok:
            yield mats[:ok], lam[:ok]
            start, done, failures = mats[ok - 1], done + ok, 0
        if ok < good:
            raise ValueError(f"segment {done + 1} not Hermitian: max |M - M†| = {herm[ok]:.3e}")
        if good < len(mats):
            failures += 1
            err = _drift_error(drift[good], steps)
            if failures > SERIES_RETRIES:
                raise err
            steps = err.suggested_steps
            if use_map:
                step_map = _build_step_map(gen._k, gen.lindblad_ops, t / steps, steps)


def _first(mask: np.ndarray, default: int) -> int:
    # index of the first True in ``mask``, or ``default`` if there is none
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


def convergence_order(gen: LindbladGenerator, rho0: DensityMatrix, t: float, steps: int) -> float | None:
    """Empirical order from errors at ``steps`` and ``2*steps`` against a
    reference at ``16*steps``.  Returns None when the errors are too close to
    roundoff to resolve a slope."""
    _same_space(gen, rho0)
    _positive_real(t, "t")
    steps = _positive_int(steps, "steps")
    ref = _integrate(gen, rho0.matrix, t, 16 * steps)
    e1 = float(np.linalg.norm(_integrate(gen, rho0.matrix, t, steps) - ref))
    e2 = float(np.linalg.norm(_integrate(gen, rho0.matrix, t, 2 * steps) - ref))
    if e1 < 1e-13 or e2 < 1e-14:
        return None
    return math.log2(e1 / e2)


def generator_to_json(gen: LindbladGenerator) -> dict:
    """Schema: {"dims": [...], "H": {re, im} | null, "Ls": [{re, im}, ...]}."""
    return {
        "dims": list(gen.dims.factors()),
        "H": None if gen.hamiltonian is None else matrix_to_json(gen.hamiltonian),
        "Ls": [matrix_to_json(l) for l in gen.lindblad_ops],
    }


def generator_from_json(obj) -> LindbladGenerator:
    sig = _signature_from_json(obj, "generator")
    h = obj.get("H")
    ls = obj.get("Ls", [])
    if not isinstance(ls, list):
        raise ValueError("'Ls' must be a list")
    return LindbladGenerator(
        sig,
        None if h is None else matrix_from_json(h),
        tuple(matrix_from_json(l) for l in ls),
    )

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
them S is Re S + (Im S) P, with P the vec transpose.  M is built and kept in
these coordinates in float64, half the bytes of the complex map, and is
applied to the real and imaginary parts of the mixed columns in one real
product.  The build forms sum_k L_k ⊗ L̄_k as one batched product over the
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
only.

The caller picks the path.  ``evolve``, the one time-series entry point,
asks the generator for the step map of its (h, steps) when d_AB <= 16
(``STEP_MAP_MAX_AB``), which is built on the first request and kept until
another (h, steps) replaces it: the 49 equal segments of an ``entrate
simulate`` series share one build.  Above that the build costs more than
the K-form segments it would replace, so ``evolve`` runs in K-form too.
``_integrate`` applies the kept map when the generator holds one for its
(h, steps) and otherwise runs in K-form, so the one-off integrations of the
rate probes and ``convergence_order`` build none; a theorem2 probe takes
about five generator applications, less than a build costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .linalg import ShapeError, as_matrix, dag, tensor
from .states import (
    DensityMatrix,
    DimensionSignature,
    _eigvalsh,
    _finite_real,
    _positive_int,
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
    "convergence_order",
    "generator_to_json",
    "generator_from_json",
]

# post-integration sanity thresholds on trace and positivity drift
DRIFT_TOL = 1e-8

# evolve builds the step map only up to this d_AB.  The build grows as d_AB^6
# and a K-form segment as d_AB^3: a 49-segment series of 32 steps with three
# jump operators (one BLAS thread) took 0.015 s with the map and 0.135 s in
# K-form at d_AB = 16 (dims 2 4 4 2), but 0.374 s against 0.078 s at d_AB = 32
# (dims 1 4 8 1); at 64 the map is estimated at about 20 s and several hundred MB
STEP_MAP_MAX_AB = 16

# the K-form path drops the terms of T4(hS)^steps whose summed norm is at
# most this, relative to the norm of rho's block
HORNER_TAIL = 1e-18


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


def embed_ab(op: np.ndarray, dims: DimensionSignature) -> np.ndarray:
    """Lift an operator on A ⊗ B to I_a ⊗ op ⊗ I_b on the full space."""
    op = _check_ab(op, dims, "A⊗B operator")
    return tensor(np.eye(dims.d_a), op, np.eye(dims.d_b))


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """GKSL generator with H and jump operators given on the A ⊗ B factors.

    ``hamiltonian`` may be None for purely dissipative dynamics, and an empty
    ``lindblad_ops`` tuple gives closed (unitary) dynamics.  The effective
    operator K = H - (i/2) sum L† L is formed once at construction; the RK4
    step map that ``evolve`` asked for last is kept on it.
    """

    dims: DimensionSignature
    hamiltonian: np.ndarray | None = None
    lindblad_ops: tuple[np.ndarray, ...] = ()
    _k: np.ndarray = field(init=False, repr=False)
    _map_cache: dict = field(init=False, repr=False)

    def __post_init__(self):
        h = self.hamiltonian
        if h is not None:
            h = _check_ab(h, self.dims, "hamiltonian")
            herm = float(np.abs(h - dag(h)).max())
            if herm > 1e-12:
                raise ValueError(f"hamiltonian not Hermitian: max |H - H†| = {herm:.3e}")
        ls = tuple(_check_ab(l, self.dims, "lindblad op") for l in self.lindblad_ops)
        ab = self.dims.d_A * self.dims.d_B
        k = np.zeros((ab, ab), dtype=complex) if h is None else h.copy()
        for l in ls:
            k -= 0.5j * (dag(l) @ l)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblad_ops", ls)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_map_cache", {})

    def _step_map(self, h: float, steps: int) -> np.ndarray:
        """T4(hS)^steps, real in the coordinates Re X + Im X.

        Built on the first request and kept; a request for any other step
        size or count replaces it.  Only ``evolve`` asks (module docstring).
        """
        if (h, steps) not in self._map_cache:
            self._map_cache.clear()
            self._map_cache[h, steps] = _build_step_map(self._k, self.lindblad_ops, h, steps)
        return self._map_cache[h, steps]

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
# map takes rows (AB, AB') by columns (a, b, a', b').

_ROWS = (1, 0, 2, 3, 5, 4)  # self-inverse
_VEC = (1, 4, 0, 2, 3, 5)
_VEC_INV = (2, 0, 3, 4, 1, 5)


def _axes(dims: DimensionSignature) -> tuple[int, int, int, int]:
    d_a, d_A, d_B, d_b = dims.factors()
    return d_a, d_A * d_B, d_b, dims.total


def _to_rows(rho: np.ndarray, dims: DimensionSignature) -> np.ndarray:
    d_a, ab, d_b, _ = _axes(dims)
    return rho.reshape(d_a, ab, d_b, d_a, ab, d_b).transpose(_ROWS).reshape(ab, -1)


def _from_rows(y: np.ndarray, dims: DimensionSignature) -> np.ndarray:
    d_a, ab, d_b, n = _axes(dims)
    return y.reshape(ab, d_a, d_b, d_a, d_b, ab).transpose(_ROWS).reshape(n, n)


def _kform(k: np.ndarray, ls: tuple[np.ndarray, ...]):
    """The generator on the row layout: y -> -i(K y - y K†) + sum L y L†."""
    ab = k.shape[0]
    k_dag = dag(k)
    pairs = [(l, dag(l)) for l in ls]

    def apply(y: np.ndarray) -> np.ndarray:
        out = k @ y
        out -= (y.reshape(-1, ab) @ k_dag).reshape(ab, -1)
        out *= -1j
        for l, l_dag in pairs:
            out += ((l @ y).reshape(-1, ab) @ l_dag).reshape(ab, -1)
        return out

    return apply


def apply_generator(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """L(rho) for a full-space rho, computed on its A ⊗ B block."""
    rows = _kform(gen._k, gen.lindblad_ops)(_to_rows(rho, gen.dims))
    return _from_rows(rows, gen.dims)


# ------------------------------------------------------------ the step map
#
# For Hermitian X, Re X is symmetric and Im X antisymmetric, so X -> Re X + Im X
# maps the Hermitian operators onto the real matrices and keeps the Frobenius
# norm.  On vec(X) it is the unitary T = ((1 - i) I + (1 + i) P)/2, P the vec
# transpose, with T^-1 = ((1 + i) I + (1 - i) P)/2; T S T^-1 = Re S + (Im S) P
# is real, and the step map is built and kept as the real matrix
# T T4(hS)^steps T^-1.


def _build_step_map(k: np.ndarray, ls: tuple[np.ndarray, ...], h: float, steps: int) -> np.ndarray:
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
    # take the rows through T, apply the real map to the real and imaginary
    # parts of every column in one real product (the complex array viewed as
    # interleaved floats), and take them back through T^-1; the transposes
    # are over the (AB, AB') axes
    d_a, ab, d_b, n = _axes(dims)
    x = rho.reshape(d_a, ab, d_b, d_a, ab, d_b).transpose(_VEC).reshape(ab, ab, -1)
    y = (0.5 - 0.5j) * x
    y += (0.5 + 0.5j) * x.swapaxes(0, 1)
    z = (m @ y.reshape(ab * ab, -1).view(np.float64)).view(complex).reshape(ab, ab, -1)
    out = (0.5 + 0.5j) * z
    out += (0.5 - 0.5j) * z.swapaxes(0, 1)
    return out.reshape(ab, ab, d_a, d_b, d_a, d_b).transpose(_VEC_INV).reshape(n, n)


# ------------------------------------------------------------- integration

def _integrate(gen: LindbladGenerator, rho: np.ndarray, t: float, steps: int) -> np.ndarray:
    """rho after ``steps`` RK4 steps of size t/steps, i.e. T4(hS)^steps rho.

    With the step map that ``evolve`` keeps on the generator for this (h,
    steps) this is one product.  Otherwise, in K-form, the steps go in chunks
    of m with m h beta <= 1 (beta = ``_norm_bound``), and each chunk is
    Horner's rule on the coefficients c_0..c_J of T4(x)^m, J generator
    applications with J <= 4m; a chunk of one step is one RK4 step.
    """
    h = t / steps
    step_map = gen._map_cache.get((h, steps))
    if step_map is not None:
        return _apply_step_map(step_map, rho, gen.dims)
    apply = _kform(gen._k, gen.lindblad_ops)
    y = _to_rows(rho, gen.dims)
    hb = h * gen._norm_bound
    chunk = steps if hb * steps <= 1.0 else max(1, int(1.0 / hb))
    for start in range(0, steps, chunk):
        m = min(chunk, steps - start)
        coeffs = _t4_power_coefficients(m, _horner_degree(m * hb, 4 * m))
        acc = coeffs[-1] * y
        for c in coeffs[-2::-1]:
            acc = apply(acc)
            acc *= h
            acc += c * y
        y = acc
    return _from_rows(y, gen.dims)


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


def _drift(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Trace and positivity drift max(|Re tr - 1| + |Im tr|, -lambda_min, 0),
    with the spectrum it read, for the DensityMatrix that adopts ``m``."""
    lam = _eigvalsh(m)
    tr = m.trace()
    return max(abs(float(np.real(tr)) - 1.0) + abs(float(np.imag(tr))), -float(lam.min()), 0.0), lam


def evolve(gen: LindbladGenerator, rho0: DensityMatrix, t: float, steps: int = 1000) -> DensityMatrix:
    """Integrate for time ``t`` with fixed-step RK4.  Up to d_AB = 16 the
    generator keeps the step map of (t/steps, steps), so each later equal
    segment is one product; larger blocks run in K-form.

    Raises IntegrationError (with a suggested step count scaled by the
    fourth root of the overshoot) if trace or positivity drift exceeds 1e-8,
    before the result is validated as a state.  The returned state keeps the
    spectrum the drift check computed.
    """
    if gen.dims != rho0.dims:
        raise ShapeError("generator and state live on different spaces")
    if _finite_real(t, "t", "finite and >= 0") < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    steps = _positive_int(steps, "steps")
    if t == 0:
        return rho0
    if gen.dims.d_A * gen.dims.d_B <= STEP_MAP_MAX_AB:
        gen._step_map(t / steps, steps)  # for _integrate and the next equal segment
    out = _integrate(gen, rho0.matrix, t, steps)
    drift, lam = _drift(out)
    if drift > DRIFT_TOL:
        grow = (drift / DRIFT_TOL) ** 0.25
        suggested = max(2 * steps, int(math.ceil(steps * grow)))
        raise IntegrationError(
            f"drift {drift:.3e} exceeds {DRIFT_TOL}; retry with more steps",
            drift=drift,
            suggested_steps=suggested,
        )
    return DensityMatrix._adopt(rho0.dims, out, lam, trace_tol=DRIFT_TOL, psd_tol=DRIFT_TOL)


def convergence_order(gen: LindbladGenerator, rho0: DensityMatrix, t: float, steps: int) -> float | None:
    """Empirical order from errors at ``steps`` and ``2*steps`` against a
    reference at ``16*steps``.  Returns None when the errors are too close to
    roundoff to resolve a slope."""
    if gen.dims != rho0.dims:
        raise ShapeError("generator and state live on different spaces")
    if _finite_real(t, "t", "finite and > 0") <= 0:
        raise ValueError(f"t must be finite and > 0, got {t}")
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

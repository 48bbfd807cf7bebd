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
reshaped to (d_AB^2, (d_a d_b)^2).  S preserves Hermiticity, so in an
orthonormal basis of Hermitian operators (E_jj, and (E_jk + E_kj)/√2 and
i(E_jk - E_kj)/√2 for j < k) it is a real matrix, as in the coherence-vector
form of Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976).  M is
built and kept in that basis in float64, half the bytes of the complex map,
and is applied to the real and imaginary parts of the rotated columns in
one real product.  The build forms sum_k L_k ⊗ L̄_k as one batched product
over the jump operators, T4(A) = (I + A) + A^2 (I/2 + A/6 + A^2/24) in two
products of size d_AB^2, and the power by binary powering.  The other path
runs the RK4 loop on the block in K-form, with 2 + 2k products of size d_AB
per generator application (k jump operators).  Both compute the same
polynomial; they differ by roundoff only.

Each generator caches its last (h, steps): the step map once built, or how
many integrations in a row ran in K-form.  ``_map_pays`` picks the path by a
rent-or-buy rule on estimated multiply-add counts: M is built once it costs
no more than the K-form integrations made with this (h, steps) so far, the
current one included.  Measured with one BLAS thread on a 2.0 GHz Xeon, a
one-off 64-step integration takes the map up to d_AB = 9 (build 0.4-0.5 ms
against 3-6 ms of K-form) and stays in K-form at d_AB = 16 without ancillas
(build 7-9 ms against 4-9 ms), where a repeated one builds M on its second
use; the 2 ⊗ (4 ⊗ 4) ⊗ 2 time series of ``entrate simulate`` builds M on its
first segment (7-9 ms against 18-26 ms of K-form) and reuses it for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import ShapeError, as_matrix, dag, tensor
from .states import (
    DensityMatrix,
    DimensionSignature,
    _eigvalsh,
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

# fixed cost of one small K-form product in multiply-add units (about 6 µs
# of numpy call overhead at ~0.2 ns per complex multiply-add, one BLAS
# thread, 2.0 GHz Xeon); it sets the crossover of ``_map_pays``
KFORM_CALL_COST = 30_000


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
    operator K = H - (i/2) sum L† L is formed once at construction; the last
    RK4 step map built for this generator is cached on it.
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

    def _step_map(self, h: float, steps: int) -> np.ndarray | None:
        """T4(hS)^steps, real in the Hermitian basis, once building it pays
        (see ``_map_pays``), else None.

        Only the last (h, steps) is kept, with the number of consecutive
        integrations that used it; any other step size or count replaces it.
        """
        key = (h, steps)
        uses, m = self._map_cache.get(key, (0, None))
        if m is None:
            uses += 1
            if _map_pays(self, steps, uses):
                m = _build_step_map(self._k, self.lindblad_ops, h, steps)
            self._map_cache.clear()
            self._map_cache[key] = (uses, m)
        return m


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
# The Hermitian basis keeps each E_jj and replaces each vec pair (jk, kj),
# j < k, by (E_jk + E_kj)/√2 and i(E_jk - E_kj)/√2: the unitary
# U = [[1, 1], [-i, i]]/√2 on the pair's coordinates.  The step map is built
# and kept as the real matrix U T4(hS)^steps U†.


@lru_cache(maxsize=16)
def _pair_coefficients(ab: int) -> tuple[np.ndarray, np.ndarray]:
    # U as (alpha, beta): (Ux)[p, q] = alpha[p, q] x[p, q] + beta[p, q] x[q, p]
    # for x of shape (ab, ab, ...); read-only, as the arrays are shared
    r = math.sqrt(0.5)
    upper = np.triu(np.ones((ab, ab)), 1)
    alpha = np.eye(ab) + r * upper + 1j * r * upper.T
    beta = r * upper - 1j * r * upper.T
    alpha.flags.writeable = beta.flags.writeable = False
    return alpha, beta


def _mix_pairs(x: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # alpha ∘ x + beta ∘ xᵀ, with the transpose taken over the first two axes
    out = alpha[:, :, None] * x
    out += beta[:, :, None] * x.swapaxes(0, 1)
    return out


def _to_hermitian_basis(s: np.ndarray) -> None:
    # S <- U S U† in place for S with axes (p, q, p', q'), 32 columns and then
    # 32 rows at a time so that the temporaries stay small; a row of S U† is
    # conj(U) times the same row of S
    ab = s.shape[0]
    alpha, beta = _pair_coefficients(ab)
    rows, cols = s.reshape(ab, ab, -1), s.reshape(-1, ab, ab)
    for i in range(0, ab * ab, 32):
        block = rows[:, :, i : i + 32]
        block[...] = _mix_pairs(block, alpha, beta)
    for i in range(0, ab * ab, 32):
        block = cols[i : i + 32].transpose(1, 2, 0)
        block[...] = _mix_pairs(block, alpha.conj(), beta.conj())


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
    _to_hermitian_basis(a)
    a = a.real.reshape(n, n) * h  # the imaginary part is roundoff
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
    # rotate the rows into the Hermitian basis, apply the real map to the real
    # and imaginary parts of every column in one real product (the complex
    # array viewed as interleaved floats), and rotate back with U†, whose
    # coefficients are (conj alpha, conj betaᵀ)
    d_a, ab, d_b, n = _axes(dims)
    alpha, beta = _pair_coefficients(ab)
    x = rho.reshape(d_a, ab, d_b, d_a, ab, d_b).transpose(_VEC).reshape(ab, ab, -1)
    y = _mix_pairs(x, alpha, beta).reshape(ab * ab, -1)
    z = (m @ y.view(np.float64)).view(complex).reshape(ab, ab, -1)
    out = _mix_pairs(z, alpha.conj(), beta.T.conj())
    return out.reshape(ab, ab, d_a, d_b, d_a, d_b).transpose(_VEC_INV).reshape(n, n)


# ------------------------------------------------------------- integration

def _map_pays(gen: LindbladGenerator, steps: int, uses: int) -> bool:
    """Build M once the K-form work spent on this (h, steps) would match it.

    Costs are complex multiply-adds: the build is charged bit_length +
    popcount + 1 real products of size d_AB^2 (two for T4, then binary
    powering; the extra one stands for assembling S in the Hermitian basis),
    at half a complex multiply-add each as measured (d_AB = 16, 32 or 64
    steps: 7-9 ms real against 18-28 ms for the same products in complex); one
    K-form integration is 4 (2 + 2k) products per step, each d_AB^3 times
    the spectator count plus KFORM_CALL_COST.  A one-off integration thus
    takes the cheaper path, and a repeated one builds M by the time the
    K-form path has cost as much as the build (at most twice the cost of the
    better choice in hindsight).
    """
    d_a, ab, d_b, _ = _axes(gen.dims)
    build = (steps.bit_length() + steps.bit_count() + 1) * ab**6 // 2
    kform = steps * 4 * (2 + 2 * len(gen.lindblad_ops)) * (ab**3 * (d_a * d_b) ** 2 + KFORM_CALL_COST)
    return build <= uses * kform


def _integrate(gen: LindbladGenerator, rho: np.ndarray, t: float, steps: int) -> np.ndarray:
    h = t / steps
    m = gen._step_map(h, steps)
    if m is not None:
        return _apply_step_map(m, rho, gen.dims)
    apply = _kform(gen._k, gen.lindblad_ops)
    y = _to_rows(rho, gen.dims)
    for _ in range(steps):
        k1 = apply(y)
        k2 = apply(y + 0.5 * h * k1)
        k3 = apply(y + 0.5 * h * k2)
        k4 = apply(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _from_rows(y, gen.dims)


def _drift(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Trace and positivity drift max(|Re tr - 1| + |Im tr|, -lambda_min, 0),
    with the spectrum it read, for the DensityMatrix that adopts ``m``."""
    lam = _eigvalsh(m)
    tr = m.trace()
    return max(abs(float(np.real(tr)) - 1.0) + abs(float(np.imag(tr))), -float(lam.min()), 0.0), lam


def evolve(gen: LindbladGenerator, rho0: DensityMatrix, t: float, steps: int = 1000) -> DensityMatrix:
    """Integrate for time ``t`` with fixed-step RK4.

    Raises IntegrationError (with a suggested step count scaled by the
    fourth root of the overshoot) if trace or positivity drift exceeds 1e-8,
    before the result is validated as a state.  The returned state keeps the
    spectrum the drift check computed.
    """
    if gen.dims != rho0.dims:
        raise ShapeError("generator and state live on different spaces")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if t == 0:
        return rho0
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
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
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

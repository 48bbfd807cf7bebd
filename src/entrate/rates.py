"""Entangling rates across aA | Bb and the inequalities that cap them.

Rates are measured three ways and cross-checked against each other:

* ``gamma_surrogate_fd`` — finite difference of the relative entropy to the
  pinch of the evolved state onto the Schmidt blocks of the initial pure
  state (below): a separable reference that needs no regularizer.
* ``gamma_fd`` — finite difference of the best available upper bound on the
  relative entropy of entanglement itself.  With ``measure="surrogate"``
  this coincides with the surrogate; with ``measure="bruteforce"`` the
  evolved state's see-saw estimate is folded in via a min, which can only
  tighten it.
* ``surrogate_rate_analytic`` — the probe's expansion at t = 0 (below) in
  closed form: the pair (kappa, a).

The pinch.  With a_i, b_j (i, j <= r) the Schmidt vectors of psi and P⊥,
Q⊥ the projectors onto the complements of their spans, the product
projectors a_i ⊗ b_j, a_i ⊗ Q⊥, P⊥ ⊗ b_j and P⊥ ⊗ Q⊥ are blocks Pi_k of
ranks m_k that sum to I.  With w_k = Tr Pi_k rho, the separable pinch
sum_k w_k Pi_k / m_k lies at D(rho || pinch) = -S(rho) - sum_k w_k ln(w_k/m_k),
read from the product vectors and the two marginals: no basis is completed
and no reference matrix is built.  The value is E(psi) at t = 0, and no
reference constant on the blocks (the dephased Schmidt mixture smoothed
toward I/n among them) is closer.

The expansion.  With rhodot the generator applied to |psi><psi|, mu_j the
eigenvalues of R rhodot R (R = I - |psi><psi|, mu = sum_j mu_j), and omega_i
on a_i ⊗ b_i and nu_k on every other block the block weights of rhodot
(nu = sum_k nu_k), D(rho_dt || pinch(rho_dt)) = E(psi) + kappa dt ln dt +
a dt + o(dt) with kappa = mu - nu >= 0, the leak into span{a_i ⊗ b_i} ⊖ psi, and
a = sum_j mu_j ln mu_j - mu + nu - sum_i omega_i ln p_i - sum_k nu_k ln(nu_k/m_k)
(0 ln 0 = 0).  The pinch is separable, so the rate of the relative entropy of
entanglement at psi is at most a when kappa = 0 and is -inf when kappa > 0.

The closed-form bounds (``entangling_rate_bound`` and friends) are what the
certification sweeps compare the measured rates against.

Each inequality check is a stacked kernel, and so are ``random_xy_pair``,
``surrogate_rate_analytic``, ``mutual_info_rate_analytic``,
``entangling_rate_fd`` (whose see-saw runs per instance) and the caps
``entangling_rate_bound`` and ``mi_rate_bound``:
given a stack of instances (matrices as (k, n, n) stacks, states and
generators as lists on one space, a list of Generators as the sampler's
``seed``) they return a list of results, one per instance, from stacked
eigensolves, SVDs and products.  The one-instance call is the stack of one.
A stacked LAPACK call runs the same routine on each matrix and the scalar
formulas after it run per instance in Python floats, so an instance's result
has the same bits in any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IntegrationError, LindbladGenerator, apply_generator, _check_hermitian, _drift, _integrate, _same_space
)
from .linalg import (
    ShapeError,
    _as_operand,
    _as_stack,
    as_matrix,
    dag,
    hermitize,
    matrix_log_on_support,
    operator_norm,
    partial_trace,
    trace_norm,
)
from .measures import _mat, mutual_information, relative_entropy, ree_bruteforce, von_neumann_entropy
from .states import (
    DegenerateCut,
    DensityMatrix,
    DimensionSignature,
    PureState,
    SchmidtDecomposition,
    _densities,
    _eigvalsh,
    _ginibre,
    _grouped,
    _is_stack,
    _one_space,
    _positive_int,
    _positive_real,
    _pure_densities,
    _smoothed,
    closest_separable_state,
    convex_split_witness,
    random_density,
    schmidt,
)

__all__ = [
    "InvalidPair",
    "SamplerFailure",
    "InequalityResult",
    "RateReport",
    "binary_entropy",
    "hamiltonian_term",
    "hamiltonian_term_bound",
    "hamiltonian_term_bound_tight",
    "hamiltonian_commutator_check",
    "dissipative_term",
    "dissipative_term_bound",
    "dissipative_commutator_check",
    "mixing_term",
    "mixing_term_bound",
    "small_incremental_mixing_check",
    "commutator_trace_norm_check",
    "pure_ree_identity_check",
    "marginal_split_check",
    "random_xy_pair",
    "entangling_rate_bound",
    "unitary_rate_bound",
    "mi_rate_bound",
    "surrogate_rate_analytic",
    "surrogate_rate_fd",
    "mutual_info_rate_analytic",
    "mutual_info_rate_fd",
    "entangling_rate_fd",
]

# coefficients of the closed-form rate bounds
DISSIPATOR_XY_COEFF = 172.0
RATE_DISSIPATOR_COEFF = 86.0
MI_DISSIPATOR_COEFF = 129.0

TIGHT_DRIFT = 1e-10


class InvalidPair(ValueError):
    """Inputs do not satisfy the ordering/trace constraints of the inequality."""


class SamplerFailure(RuntimeError):
    """A random instance failed its own validity checks after construction."""


@dataclass(frozen=True)
class InequalityResult:
    """One checked inequality: margin = rhs - lhs (>= 0 means it held).

    Equality checks set lhs/rhs to the two sides and margin = -|lhs - rhs|.
    """

    tag: str
    lhs: float
    rhs: float
    margin: float
    witness: dict | None = None


@dataclass(frozen=True)
class RateReport:
    """Measured entangling rates for one instance, plus the closed-form cap.

    ``gamma_surrogate_fd`` is measured against the pinched Schmidt reference
    (module docstring) and dominates ``gamma_fd`` by construction, so
    ``margin = theorem_bound - gamma_surrogate_fd >= 0`` certifies both.
    """

    gamma_fd: float
    gamma_surrogate_fd: float
    delta_t: float
    theorem_bound: float
    margin: float
    dims: DimensionSignature
    measure: str
    seed: int | None = None


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log(1.0 - p))


# the range of the smoothing weight of the analytic mutual-information rate
def _check_eta(eta) -> None:
    if not 1e-10 <= eta <= 1e-4:
        raise ValueError(f"eta must lie in [1e-10, 1e-4], got {eta}")


def _check_weight(p) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")


def _check_cut(psi: PureState) -> None:
    if psi.dims.d < 2:
        raise DegenerateCut("d = 1 cut: no entanglement is possible across it")


# ------------------------------------------------------ one-step quantities

def _same_size(**ops: np.ndarray) -> None:
    # numpy would broadcast a mis-sized square operand (or stack) into a wrong value
    (first, a), *rest = ops.items()
    for name, b in rest:
        if b.shape[-1] != a.shape[-1]:
            raise ShapeError(f"{first} is {a.shape[-1]} x {a.shape[-1]} but {name} is {b.shape[-1]} x {b.shape[-1]}")
        if b.shape != a.shape:
            raise ShapeError(f"{first} has shape {a.shape} but {name} has shape {b.shape}")


def _one(m, name: str) -> np.ndarray:
    # one operand as a stack of one, validated (and its errors worded) as one matrix
    return as_matrix(m, name=name)[None]


def hamiltonian_term(h, rho, sigma) -> float:
    """i Tr(H [rho, ln sigma]) — the coherent part of the surrogate rate."""
    h, r, s = as_matrix(h, name="hamiltonian"), _mat(rho), _mat(sigma)
    _same_size(hamiltonian=h, rho=r, sigma=s)
    log_s = matrix_log_on_support(s)
    return float(np.real(1j * np.trace(h @ (r @ log_s - log_s @ r))))


def _coherent_caps(h, d: int):
    # (4 ln(d) ||H||, 2 h2(1/d) d ||H||) from one operator norm of H (arrays
    # of them, for a stack)
    if _positive_int(d, "d") < 2:
        raise ValueError(f"need d >= 2, got {d}")
    h_norm, p = operator_norm(_as_operand(h, name="hamiltonian")), 1.0 / d
    return 4.0 * math.log(d) * h_norm, 2.0 * binary_entropy(p) / p * h_norm


def hamiltonian_term_bound(h, d: int) -> float:
    """Dimension-only cap 4 ln(d) ||H|| on the coherent term."""
    return _coherent_caps(h, d)[0]


def hamiltonian_term_bound_tight(h, d: int) -> float:
    """Sharper cap 2 h2(1/d) d ||H|| (h2 = binary entropy in nats)."""
    return _coherent_caps(h, d)[1]


def hamiltonian_commutator_check(h, psi):
    """|i Tr(H [rho, ln sigma0])| vs the dimension cap 4 ln d ||H||, rho =
    |psi><psi| and sigma0 its dephased Schmidt mixture, the log on its support.

    The term is -2 sum_n ln p_n Im(<psi|v_n><v_n|H psi>) with v_n = a_n ⊗ b_n,
    which needs H n x n and Hermitian within 1e-12.  The witness carries the
    sharper cap 2 h2(1/d) d ||H||: by Cauchy-Schwarz d sigma0 >= rho, so
    sigma0 = rho/d + (1 - 1/d) mu with mu a state, and the term is d times
    the mixing term at p = 1/d, which 2 h2(p) ||H|| caps.  A stack of H and
    a list of states give a list of results."""
    if isinstance(psi, PureState):
        return hamiltonian_commutator_check(_one(h, "hamiltonian"), [psi])[0]
    dims = _one_space(psi)
    _check_cut(psi[0])
    h = _as_stack(h, name="hamiltonian")
    if h.shape[1:] != (dims.total, dims.total) or len(h) != len(psi):
        raise ShapeError(f"hamiltonian must be {dims.total} x {dims.total}, got shape {h.shape[1:]}")
    _check_hermitian(h)
    out = []
    for hi, x, sd, rhs, tight in zip(h, psi, schmidt(psi), *_coherent_caps(h, dims.d)):
        v, amp = sd.product_vectors(), x.amplitudes
        lhs = abs(-2.0 * float(np.log(sd.coefficients) @ np.imag((amp.conj() @ v) * (hi @ amp @ v.conj()))))
        rhs, tight = float(rhs), float(tight)
        out.append(InequalityResult("coherent-term-cap", lhs, rhs, rhs - lhs, witness={"tight_bound": tight}))
    return out


def dissipative_term(l, x, y):
    """Tr(L† [L X, ln Y]) — one jump operator's contribution pattern; an
    array of them for stacks of L, X and Y."""
    if np.ndim(l) != 3:
        return complex(dissipative_term(_one(l, "jump operator"), _one(x, "X"), _one(y, "Y"))[0])
    l = _as_stack(l, name="jump operator")
    x = _as_stack(x, name="X")
    y = _as_stack(y, name="Y")
    _same_size(L=l, X=x, Y=y)
    log_y = matrix_log_on_support(y)
    lx = l @ x
    return np.trace(dag(l) @ (lx @ log_y - log_y @ lx), axis1=-2, axis2=-1)


def dissipative_term_bound(l, p: float):
    """Cap 172 ||L||^2 p ln(1/p), valid for trace weight p <= e^-2; an array
    of them for a stack of L."""
    if not 0.0 < p <= math.exp(-2.0):
        raise InvalidPair(f"p must be in (0, e^-2], got {p}")
    nl = operator_norm(_as_operand(l, name="jump operator"))

    def cap(n: float) -> float:
        return DISSIPATOR_XY_COEFF * n**2 * p * math.log(1.0 / p)

    return cap(nl) if isinstance(nl, float) else np.array([cap(n) for n in nl.tolist()])


def _validate_xy(x: np.ndarray, y: np.ndarray, p: float, tol: float = 1e-8) -> None:
    # each pair of the stacks: 0 <= X <= Y, Tr X = p and Tr Y = 1 within tol;
    # the first pair that fails names the rule it broke
    _same_size(X=x, Y=y)
    if (_eigvalsh(x).min(axis=-1) < -tol).any():
        raise InvalidPair("X is not positive semidefinite")
    if (_eigvalsh(y - x).min(axis=-1) < -tol).any():
        raise InvalidPair("X is not dominated by Y")
    for tr in np.trace(x, axis1=-2, axis2=-1).real:
        if abs(float(tr) - p) > tol:
            raise InvalidPair(f"Tr X = {tr} != p = {p}")
    for tr in np.trace(y, axis1=-2, axis2=-1).real:
        if abs(float(tr) - 1.0) > tol:
            raise InvalidPair(f"Tr Y = {tr} != 1")


def dissipative_commutator_check(l, x, y, p: float):
    """|Tr(L† [L X, ln Y])| vs 172 ||L||^2 p ln(1/p) for a valid pair (X, Y);
    stacks of L, X and Y give a list of results."""
    if np.ndim(l) != 3:
        return dissipative_commutator_check(_one(l, "jump operator"), _one(x, "X"), _one(y, "Y"), p)[0]
    x, y = _as_stack(x, name="X"), _as_stack(y, name="Y")
    _validate_xy(x, y, p)
    terms = dissipative_term(l, x, y)
    out = []
    for term, rhs in zip(terms, dissipative_term_bound(l, p)):
        lhs, rhs = abs(complex(term)), float(rhs)
        out.append(InequalityResult("dissipative-term-cap", lhs, rhs, rhs - lhs, witness={"p": p}))
    return out


def mixing_term(h, rho1, rho2, p: float):
    """i Tr(H [p rho1, ln(p rho1 + (1-p) rho2)]); an array of them for stacks
    of H, rho1 and rho2."""
    if np.ndim(h) != 3:
        return float(mixing_term(_one(h, "hamiltonian"), _mat(rho1)[None], _mat(rho2)[None], p)[0])
    h = _as_stack(h, name="hamiltonian")
    r1, r2 = _as_stack(rho1, name="state"), _as_stack(rho2, name="state")
    _same_size(hamiltonian=h, rho1=r1, rho2=r2)
    _check_weight(p)
    mix = matrix_log_on_support(p * r1 + (1.0 - p) * r2)
    pr = p * r1
    return np.real(1j * np.trace(h @ (pr @ mix - mix @ pr), axis1=-2, axis2=-1))


def mixing_term_bound(h, p: float):
    """Cap 2 h2(p) ||H||: mixing a weight-p component moves the log slowly;
    an array of them for a stack of H."""
    _check_weight(p)
    return 2.0 * binary_entropy(p) * operator_norm(_as_operand(h, name="hamiltonian"))


def small_incremental_mixing_check(h, rho1, rho2, p: float):
    """|i Tr(H [p rho1, ln(p rho1 + (1-p) rho2)])| vs 2 h2(p) ||H||; stacks
    of H, rho1 and rho2 give a list of results."""
    if np.ndim(h) != 3:
        return small_incremental_mixing_check(_one(h, "hamiltonian"), _mat(rho1)[None], _mat(rho2)[None], p)[0]
    out = []
    for term, rhs in zip(mixing_term(h, rho1, rho2, p), mixing_term_bound(h, p)):
        lhs, rhs = abs(float(term)), float(rhs)
        out.append(InequalityResult("mixing-term-cap", lhs, rhs, rhs - lhs, witness={"p": p}))
    return out


def commutator_trace_norm_check(a, x):
    """||[A, X]||_1 <= ||A|| ||X||_1 for positive semidefinite A; stacks of A
    and X give a list of results."""
    if np.ndim(a) != 3:
        return commutator_trace_norm_check(_one(a, "A"), _one(x, "X"))[0]
    a = _as_stack(a, name="A")
    x = _as_stack(x, name="X")
    _same_size(A=a, X=x)
    if (np.abs(a - dag(a)).max(axis=(-2, -1)) > 1e-10).any() or (_eigvalsh(a).min(axis=-1) < -1e-10).any():
        raise InvalidPair("A must be Hermitian positive semidefinite")
    out = []
    for lhs, a_norm, x_norm in zip(trace_norm(a @ x - x @ a), operator_norm(a), trace_norm(x)):
        lhs, rhs = float(lhs), float(a_norm) * float(x_norm)
        out.append(InequalityResult("commutator-trace-norm", lhs, rhs, rhs - lhs))
    return out


def pure_ree_identity_check(psi):
    """Relative entropy to the dephased Schmidt mixture equals the Schmidt
    entropy for pure states; checked as an equality.  A list of states on one
    space gives a list of results."""
    if isinstance(psi, PureState):
        return pure_ree_identity_check([psi])[0]
    sds = schmidt(psi)
    out = []
    for sd, dist in zip(sds, relative_entropy(_pure_densities(psi), closest_separable_state(sds))):
        entropy, dist = sd.entropy(), float(dist)
        out.append(
            InequalityResult(
                "pure-ree-identity",
                dist,
                entropy,
                -abs(dist - entropy),
                witness={"schmidt_coefficients": [float(c) for c in sd.coefficients]},
            )
        )
    return out


def marginal_split_check(rho, side: str = "B"):
    """Operator inequality rho_sub <= d^2 (marginal ⊗ maximally mixed).

    side="B": rho on aAB is dominated by d_B^2 * (rho_aA ⊗ I/d_B);
    side="A" is the mirror statement on ABb.  The margin is the minimum
    eigenvalue of the difference, which certifies the convex split
    sigma = rho/d^2 + (1 - 1/d^2) mu with mu a genuine state.  A list of
    states on one space gives a list of results.
    """
    if isinstance(rho, DensityMatrix):
        return marginal_split_check([rho], side)[0]
    dims = _one_space(rho)
    d_a, d_A, d_B, d_b = dims.factors()
    m = np.stack([x.matrix for x in rho])
    if side == "B":
        sub = partial_trace(m, dims.factors(), keep=(0, 1, 2))
        marg = partial_trace(m, dims.factors(), keep=(0, 1))
        sig = DimensionSignature(d_a, d_A, d_B, 1)
        prod = np.kron(marg, np.eye(d_B) / d_B)
        factor = d_B**2
    elif side == "A":
        sub = partial_trace(m, dims.factors(), keep=(1, 2, 3))
        marg = partial_trace(m, dims.factors(), keep=(2, 3))
        sig = DimensionSignature(1, d_A, d_B, d_b)
        prod = np.kron(np.eye(d_A) / d_A, marg)
        factor = d_A**2
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    witnesses = convex_split_witness(_densities(sig, hermitize(sub)), _densities(sig, hermitize(prod)), factor)
    return [
        InequalityResult(
            f"marginal-split-{side}",
            max(-min_eig, 0.0),
            0.0,
            min_eig,
            witness={"factor": factor, "min_eig": min_eig},
        )
        for _, min_eig in witnesses
    ]


def random_xy_pair(dim: int, p: float, seed):
    """Random (X, Y) with 0 <= X <= Y, Tr X = p, Tr Y = 1, Y full rank.

    Y is a Ginibre density; X = Y^{1/2} C Y^{1/2} with a random contraction C
    rescaled (or mixed with the identity) so the trace lands exactly on p.
    A list of Generators as ``seed`` gives stacks (X, Y), one pair drawn
    from each generator in the order one call per generator draws it.
    """
    _check_weight(p)
    if not _is_stack(seed):
        x, y = random_xy_pair(dim, p, [np.random.default_rng(seed)])
        return x[0], y[0]
    y = random_density(dim, seed)
    gq, _ = np.linalg.qr(_ginibre((dim, dim), seed))
    weights = np.stack([rng.uniform(0.0, 1.0, size=dim) for rng in seed])
    c = hermitize((gq * weights[:, None, :]) @ dag(gq))
    for i, q in enumerate(np.real(np.trace(y @ c, axis1=-2, axis2=-1)).tolist()):
        if q >= p:
            c[i] = (p / q) * c[i]
        else:
            alpha = (p - q) / (1.0 - q)
            c[i] = alpha * np.eye(dim) + (1.0 - alpha) * c[i]
    lam, v = np.linalg.eigh(hermitize(y))
    sqrt_y = (v * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]) @ dag(v)
    x = hermitize(sqrt_y @ c @ sqrt_y)
    try:
        _validate_xy(x, y, p)
    except InvalidPair as exc:
        raise SamplerFailure(f"xy pair failed validation: {exc}") from exc
    return x, y


# -------------------------------------------------------- closed-form caps

def _norms(gen):
    # (||H||, sum ||L||^2) of each generator of a list, from one stacked SVD
    # of the Hamiltonians and one of the jump operators
    hs = [g.hamiltonian for g in gen if g.hamiltonian is not None]
    ls = [l for g in gen for l in g.lindblad_ops]
    h_norms = iter(operator_norm(np.stack(hs)).tolist() if hs else ())
    l_norms = iter(operator_norm(np.stack(ls)).tolist() if ls else ())
    out = []
    for g in gen:
        h_norm = 0.0 if g.hamiltonian is None else next(h_norms)
        l_sq = sum(next(l_norms) ** 2 for _ in g.lindblad_ops)
        out.append((h_norm, float(l_sq)))
    return out


def entangling_rate_bound(gen):
    """4 (||H|| + 86 sum ||L||^2) ln d with d = min(d_A, d_B); a list of caps
    for a list of generators whose operators share one size."""
    if isinstance(gen, LindbladGenerator):
        return entangling_rate_bound([gen])[0]
    return [4.0 * (h + RATE_DISSIPATOR_COEFF * l_sq) * math.log(g.dims.d) for g, (h, l_sq) in zip(gen, _norms(gen))]


def unitary_rate_bound(gen: LindbladGenerator) -> float:
    """Closed-dynamics specialization 4 ||H|| ln d."""
    h_norm, _ = _norms([gen])[0]
    return 4.0 * h_norm * math.log(gen.dims.d)


def mi_rate_bound(gen):
    """Mutual-information rate cap 4 (2||H|| + 129 sum ||L||^2)(ln d_A + ln d_B);
    a list of caps for a list of generators whose operators share one size."""
    if isinstance(gen, LindbladGenerator):
        return mi_rate_bound([gen])[0]
    return [
        4.0 * (2.0 * h_norm + MI_DISSIPATOR_COEFF * l_sq) * (math.log(g.dims.d_A) + math.log(g.dims.d_B))
        for g, (h_norm, l_sq) in zip(gen, _norms(gen))
    ]


# ------------------------------------------------------------- rate probes

def _evolve_tight(gen, rho, t: float):
    # short-horizon integration of one state, or of each of a list under its
    # own generator as one stack; a state whose trace/positivity drift is
    # above TIGHT_DRIFT is integrated again alone with doubled resolution,
    # so the IntegrationError it may end in is its own
    one = isinstance(gen, LindbladGenerator)
    gens, rhos = ([gen], [rho]) if one else (gen, rho)
    mats = np.stack([x.matrix for x in rhos])
    out = _integrate(gens, mats, t, 64)
    drift, lam = _drift(out)
    for i in np.flatnonzero(drift > TIGHT_DRIFT):
        steps = 64
        while drift[i] > TIGHT_DRIFT:
            if steps >= 8192:
                msg = f"drift {drift[i]:.3e} still above {TIGHT_DRIFT} at {steps} steps"
                raise IntegrationError(msg, drift=float(drift[i]), suggested_steps=2 * steps)
            steps *= 2
            out[i : i + 1] = _integrate(gens[i : i + 1], mats[i : i + 1], t, steps)
            drift[i : i + 1], lam[i : i + 1] = _drift(out[i : i + 1])
    states = _densities(rhos[0].dims, out, trace_tol=1e-9, psd_tol=1e-9, spectra=lam)
    return states[0] if one else states


def _block_weights(sds: list[SchmidtDecomposition], m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    # (w, mult) of each decomposition of a list on one space and each matrix M of a
    # stack: w_k = Tr Pi_k M on the pinch's blocks (module docstring), 0 if of rank 0, and
    # their ranks m_k, as (r + 1)^2 tables, last row and column P⊥ and Q⊥, one product per rank
    alice, bob = sds[0].dims.alice, sds[0].dims.bob

    def tables(r: int, idx: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        left, right, mi = np.stack([sds[i].left for i in idx]), np.stack([sds[i].right for i in idx]), m[idx]
        # the columns a_i ⊗ b_j, as np.kron lays them out
        u = (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(len(idx), alice * bob, r * r)
        w = np.zeros((len(idx), r + 1, r + 1))
        w[:, :r, :r] = np.real(np.einsum("...nk,...nk->...k", u.conj(), mi @ u)).reshape(-1, r, r)
        if r < alice or r < bob:
            # a_i ⊗ Q⊥ and P⊥ ⊗ b_j from the marginals, P⊥ ⊗ Q⊥ from the trace
            m_a, m_b = (partial_trace(mi, sds[0].dims.factors(), keep=k) for k in ((0, 1), (2, 3)))
            w[:, :r, r] = np.real(np.einsum("...xi,...xy,...yi->...i", left.conj(), m_a, left)) - w[:, :r, :r].sum(-1)
            w[:, r, :r] = np.real(np.einsum("...xj,...xy,...yj->...j", right.conj(), m_b, right)) - w[:, :r, :r].sum(-2)
            w[:, r, r] = np.real(np.trace(mi, axis1=-2, axis2=-1)) - w.sum(axis=(-2, -1))
        mult = np.outer([1] * r + [alice - r], [1] * r + [bob - r])
        w[:, mult == 0] = 0.0
        return [(wi, mult) for wi in w]

    return _grouped([sd.coefficients.size for sd in sds], tables)


def _xlogx(x: np.ndarray, m=1.0) -> float:
    # sum x ln(x / m) over the entries x > 0: 0 ln 0 = 0, and roundoff below 0 adds nothing
    keep = x > 0.0
    return float(x[keep] @ np.log(x[keep] / np.broadcast_to(m, x.shape)[keep]))


def _paired(states: list, gens: list) -> DimensionSignature:
    # the space of a list of states on one space, each paired with a generator on it
    dims = _one_space(states)
    if len(gens) != len(states):
        raise ValueError(f"{len(states)} states but {len(gens)} generators")
    for g in gens:
        _same_space(g, states[0])
    return dims


def surrogate_rate_analytic(psi, gen):
    """(kappa, a) of the pinched probe's expansion E(psi) + kappa dt ln dt + a dt
    + o(dt) (module docstring); a list of pairs for a list of states on one space
    and their generators, from one stacked generator application and eigvalsh."""
    if isinstance(psi, PureState):
        return surrogate_rate_analytic([psi], [gen])[0]
    _check_cut(psi[0])
    n = _paired(psi, gen).total
    sds = schmidt(psi)
    amps = np.stack([x.amplitudes for x in psi])
    proj = amps[:, :, None] * amps.conj()[:, None, :]
    rhodot, perp = apply_generator(gen, proj), np.eye(n) - proj
    out = []
    for sd, (w, mult), mu in zip(sds, _block_weights(sds, rhodot), _eigvalsh(perp @ rhodot @ perp)):
        omega = np.diagonal(w)[: sd.coefficients.size]
        nu = w - np.diag(np.append(omega, 0.0))  # nu_k: every block but the a_i ⊗ b_i
        kappa = float(mu.sum()) - float(nu.sum())
        out.append((kappa, _xlogx(mu) - kappa - float(omega @ np.log(sd.coefficients)) - _xlogx(nu, mult)))
    return out


def _surrogate_step(psis: list[PureState], gens: list[LindbladGenerator], delta_t: float):
    # (schmidt(psi), rho_dt, D(rho_dt || pinch(rho_dt))) of each state of a list on one
    # space under its generator, the pinch in the Schmidt frame of psi (module docstring)
    _check_cut(psis[0])
    _positive_real(delta_t, "delta_t")
    _paired(psis, gens)
    sds = schmidt(psis)
    rhos = _evolve_tight(gens, _pure_densities(psis), delta_t)
    tables = _block_weights(sds, np.stack([x.matrix for x in rhos]))
    return [(sd, x, max(-von_neumann_entropy(x) - _xlogx(*t), 0.0)) for sd, x, t in zip(sds, rhos, tables)]


def surrogate_rate_fd(psi: PureState, gen: LindbladGenerator, delta_t: float) -> float:
    """(D(rho_dt || pinch(rho_dt)) - E(psi)) / dt, the pinch onto the blocks
    of the Schmidt frame of psi (module docstring); a separable reference
    that needs no regularizer, and equals E(psi) at t = 0."""
    ((sd, _, dist),) = _surrogate_step([psi], [gen], delta_t)
    return (dist - sd.entropy()) / delta_t


def mutual_info_rate_analytic(rho, gen, *, eta: float | None = None):
    """d/dt [S(aA) + S(Bb) - S(full)] at t = 0 in closed form.

    Without ``eta`` the logs are taken on their supports, ln on the
    eigenvalues above ``SUPPORT_TOL`` and 0 on the rest, which is intended
    for full-rank states (random Ginibre densities qualify).  With ``eta``
    every logged state is first smoothed toward the maximally mixed state on
    its own space, which makes the formula evaluable at rank-deficient
    states, pure initial states included.  A list of states on one space and
    a list of generators give a list of rates, the logs from stacked
    eigensolves."""
    if not isinstance(rho, list):
        return mutual_info_rate_analytic([rho], [gen], eta=eta)[0]
    rho = [x.density() if isinstance(x, PureState) else x for x in rho]
    dims = _paired(rho, gen)
    if eta is not None:
        _check_eta(eta)
    factors = dims.factors()
    mats = np.stack([x.matrix for x in rho])
    rhodot = apply_generator(gen, mats)

    def logged(mat: np.ndarray) -> np.ndarray:
        return matrix_log_on_support(mat if eta is None else _smoothed(mat, eta))

    val = np.trace(rhodot @ logged(mats), axis1=-2, axis2=-1)
    for keep in ((0, 1), (2, 3)):
        sub = partial_trace(mats, factors, keep=keep)
        sub_dot = partial_trace(rhodot, factors, keep=keep)
        val -= np.trace(sub_dot @ logged(sub), axis1=-2, axis2=-1)
    return np.real(val).tolist()


def mutual_info_rate_fd(rho: DensityMatrix, gen: LindbladGenerator, delta_t: float) -> float:
    """Rate of the mutual information across aA | Bb at t = 0 by the
    Richardson extrapolation 2 q(dt/2) - q(dt) of the forward quotients
    q(h) = (I(rho_h) - I(rho)) / h, which cancels their step-linear error."""
    _same_space(gen, rho)
    _positive_real(delta_t, "delta_t")
    i0 = mutual_information(rho)

    def quot(h: float) -> float:
        return (mutual_information(_evolve_tight(gen, rho, h)) - i0) / h

    return 2.0 * quot(delta_t / 2.0) - quot(delta_t)


def entangling_rate_fd(psi, gen, delta_t: float, measure: str = "surrogate", *, seed=None, ree_kwargs=None):
    """Measure the entangling rate of one instance over one short step; a
    list of reports for a list of states on one space, their generators and
    their seeds, taken as one stack (``_surrogate_step``).

    measure="surrogate" differences the relative entropy to the block pinch
    in the Schmidt frame of psi.  measure="bruteforce" additionally runs
    the see-saw minimizer on each evolved state and keeps the smaller upper
    bound, so gamma_fd <= gamma_surrogate_fd holds by construction.
    """
    if measure not in ("surrogate", "bruteforce"):
        raise ValueError(f"measure must be 'surrogate' or 'bruteforce', got {measure!r}")
    one = isinstance(psi, PureState)
    psis, gens, seeds = ([psi], [gen], [seed]) if one else (psi, gen, seed or [None] * len(psi))
    reports = []
    for (sd, rho_dt, surr_dt), x, s, bound in zip(
        _surrogate_step(psis, gens, delta_t), psis, seeds, entangling_rate_bound(gens)
    ):
        e0 = sd.entropy()
        gamma = gamma_surrogate = (surr_dt - e0) / delta_t
        if measure == "bruteforce":
            estimate = ree_bruteforce(rho_dt, **{"seed": 0 if s is None else s, **(ree_kwargs or {})})
            gamma = (min(estimate.value, surr_dt) - e0) / delta_t
        reports.append(RateReport(gamma_fd=gamma, gamma_surrogate_fd=gamma_surrogate, delta_t=delta_t,
                                  theorem_bound=bound, margin=bound - gamma_surrogate, dims=x.dims,
                                  measure=measure, seed=s))
    return reports[0] if one else reports

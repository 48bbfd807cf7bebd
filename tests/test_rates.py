import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrate.rates
from entrate.certify import SweepConfig, _build, _run_cell, _trial_seed, cells_for
from entrate.dynamics import LindbladGenerator, apply_generator
from entrate.linalg import ShapeError
from entrate.measures import relative_entropy, von_neumann_entropy
from entrate.rates import (
    InvalidPair,
    binary_entropy,
    commutator_trace_norm_check,
    dissipative_commutator_check,
    dissipative_term,
    dissipative_term_bound,
    entangling_rate_bound,
    entangling_rate_fd,
    hamiltonian_commutator_check,
    hamiltonian_term,
    hamiltonian_term_bound,
    hamiltonian_term_bound_tight,
    marginal_split_check,
    mi_rate_bound,
    mixing_term,
    mixing_term_bound,
    mutual_info_rate_analytic,
    mutual_info_rate_fd,
    pure_ree_identity_check,
    random_xy_pair,
    small_incremental_mixing_check,
    surrogate_rate_analytic,
    surrogate_rate_fd,
    unitary_rate_bound,
)
from entrate.states import (
    DegenerateCut,
    DensityMatrix,
    DimensionSignature,
    PureState,
    closest_separable_state,
    random_density,
    random_gue_hamiltonian,
    random_ginibre_lindblad,
    random_pure,
    random_unitary,
    schmidt,
)


def test_binary_entropy_landmarks():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-14)
    assert binary_entropy(0.3) == pytest.approx(0.6108643, abs=1e-7)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_hamiltonian_term_diagonal_oracle():
    # diagonal sigma and a simple off-diagonal H: the trace collapses to
    # i sum_{jk} H_kj rho_jk (ln s_k - ln s_j)
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    sigma = np.diag([0.7, 0.3]).astype(complex)
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    log_s = np.log([0.7, 0.3])
    want = 0.0
    for j in range(2):
        for k in range(2):
            want += np.real(1j * h[k, j] * rho[j, k] * (log_s[k] - log_s[j]))
    assert hamiltonian_term(h, rho, sigma) == pytest.approx(want, abs=1e-12)


def test_hamiltonian_term_vanishes_when_commuting():
    # [rho, ln sigma] = 0 for simultaneously diagonal matrices
    rho = np.diag([0.6, 0.4]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    h = random_gue_hamiltonian(2, 7)
    assert hamiltonian_term(h, rho, sigma) == pytest.approx(0.0, abs=1e-12)


def test_hamiltonian_bounds_ordering():
    h = random_gue_hamiltonian(4, 0)
    for d in range(2, 9):
        tight = hamiltonian_term_bound_tight(h, d)
        loose = hamiltonian_term_bound(h, d)
        assert tight <= loose + 1e-12
    # equality exactly at d = 2
    assert hamiltonian_term_bound_tight(h, 2) == pytest.approx(hamiltonian_term_bound(h, 2), rel=1e-12)
    for d in (1, 2.5):  # a cut size is an integer >= 2
        with pytest.raises(ValueError):
            hamiltonian_term_bound(h, d)
        with pytest.raises(ValueError):
            hamiltonian_term_bound_tight(h, d)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 4), (3, 3)])
def test_hamiltonian_commutator_check_holds(da, db):
    dims = DimensionSignature.cut(da, db)
    for s in range(25):
        psi = random_pure(dims, seed=s)
        h = random_gue_hamiltonian(dims.total, seed=1000 + s)
        res = hamiltonian_commutator_check(h, psi)
        assert res.margin >= 0.0
        # the sharper cap must hold as well
        assert abs(res.lhs) <= hamiltonian_term_bound_tight(h, dims.d) + 1e-9


def _probe_states(dims, seed):
    # a random state, a product state and a Schmidt-rank-2 state
    rng = np.random.default_rng(seed)
    ua, ub = random_unitary(dims.alice, rng), random_unitary(dims.bob, rng)
    return [
        random_pure(dims, rng),
        PureState(dims, np.outer(ua[:, 0], ub[:, 0]).reshape(-1)),
        PureState(dims, (ua[:, :2] @ np.diag([0.8, 0.6]) @ ub[:, :2].T).reshape(-1)),
    ]


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (1, 2, 4, 1), (1, 3, 3, 1), (2, 2, 2, 2)])
def test_hamiltonian_commutator_check_matches_the_log_formula(factors):
    # the closed form against i Tr(H [rho, ln sigma0]) with the log of the
    # dephased Schmidt mixture taken numerically on its support
    dims = DimensionSignature(*factors)
    for s in range(3):
        h = random_gue_hamiltonian(dims.total, seed=500 + s)
        for psi in _probe_states(dims, s):
            res = hamiltonian_commutator_check(h, psi)
            sigma0 = closest_separable_state(schmidt(psi)).matrix
            assert res.lhs == pytest.approx(abs(hamiltonian_term(h, psi.projector(), sigma0)), rel=0, abs=1e-12)
            assert res.rhs == hamiltonian_term_bound(h, dims.d)
            assert res.witness["tight_bound"] == hamiltonian_term_bound_tight(h, dims.d)


def test_hamiltonian_commutator_check_validates_h():
    psi = random_pure(DimensionSignature.cut(3, 3), seed=0)
    with pytest.raises(ValueError, match="not Hermitian"):
        hamiltonian_commutator_check(np.ones((9, 9)) + 1j * np.eye(9), psi)
    for h in (random_gue_hamiltonian(4, seed=0), np.ones((9, 3))):
        with pytest.raises(ShapeError):
            hamiltonian_commutator_check(h, psi)


def test_dissipative_term_diagonal_oracle():
    # everything diagonal commutes, so the term vanishes
    l = np.diag([1.0, 2.0]).astype(complex)
    x = np.diag([0.05, 0.05]).astype(complex)
    y = np.diag([0.6, 0.4]).astype(complex)
    assert abs(dissipative_term(l, x, y)) == pytest.approx(0.0, abs=1e-12)


def test_dissipative_term_explicit_value():
    # hand-computed 2x2 instance: Tr(L† (LX lnY - lnY LX))
    l = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    x = np.array([[0.08, 0.02], [0.02, 0.05]], dtype=complex)
    y = np.diag([0.7, 0.3]).astype(complex)
    log_y = np.diag(np.log([0.7, 0.3])).astype(complex)
    lx = l @ x
    want = complex(np.trace(l.conj().T @ (lx @ log_y - log_y @ lx)))
    assert dissipative_term(l, x, y) == pytest.approx(want, abs=1e-12)


def test_dissipative_term_bound_domain():
    l = np.eye(2, dtype=complex)
    p = math.exp(-2.0)
    assert dissipative_term_bound(l, p) == pytest.approx(172.0 * p * math.log(1.0 / p), rel=1e-12)
    with pytest.raises(InvalidPair):
        dissipative_term_bound(l, 0.2)  # above e^-2
    with pytest.raises(InvalidPair):
        dissipative_term_bound(l, 0.0)


def test_pair_validation_rejects_bad_inputs():
    l = np.eye(2, dtype=complex)
    y = np.diag([0.6, 0.4]).astype(complex)
    p = 0.1
    with pytest.raises(InvalidPair):  # X not PSD
        dissipative_commutator_check(l, np.diag([0.2, -0.1]).astype(complex), y, p)
    with pytest.raises(InvalidPair):  # X not dominated by Y
        dissipative_commutator_check(l, np.diag([0.1, 0.7]).astype(complex), y, 0.8)
    with pytest.raises(InvalidPair):  # trace of X off target
        dissipative_commutator_check(l, np.diag([0.05, 0.05]).astype(complex), y, 0.2)


@pytest.mark.parametrize("dim", [2, 4, 7])
@pytest.mark.parametrize("p", [0.01, 0.05, math.exp(-2.0)])
def test_random_xy_pair_constraints(dim, p):
    x, y = random_xy_pair(dim, p, seed=dim * 100 + int(p * 1000))
    assert float(np.linalg.eigvalsh((x + x.conj().T) / 2).min()) >= -1e-10
    assert float(np.linalg.eigvalsh(((y - x) + (y - x).conj().T) / 2).min()) >= -1e-10
    assert float(np.real(np.trace(x))) == pytest.approx(p, abs=1e-10)
    assert float(np.real(np.trace(y))) == pytest.approx(1.0, abs=1e-10)
    # full-rank reference
    assert float(np.linalg.eigvalsh((y + y.conj().T) / 2).min()) > 0.0


def test_random_xy_pair_identity_mix_branch():
    # a trace target close to 1 forces the identity-mixing branch
    x, y = random_xy_pair(3, 0.95, seed=5)
    assert float(np.real(np.trace(x))) == pytest.approx(0.95, abs=1e-10)
    assert float(np.linalg.eigvalsh(((y - x) + (y - x).conj().T) / 2).min()) >= -1e-10


def test_random_xy_pair_deterministic():
    x1, y1 = random_xy_pair(4, 0.1, seed=9)
    x2, y2 = random_xy_pair(4, 0.1, seed=9)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


@pytest.mark.parametrize("dim,p", [(4, 0.05), (8, 1.0 / 8.0), (9, 1.0 / 9.0)])
def test_dissipative_commutator_check_holds(dim, p):
    for s in range(20):
        x, y = random_xy_pair(dim, p, seed=s)
        l = random_ginibre_lindblad(dim, seed=500 + s)
        res = dissipative_commutator_check(l, x, y, p)
        assert res.margin >= 0.0


def test_mixing_term_zero_for_commuting_inputs():
    h = np.diag([1.0, -1.0]).astype(complex)
    r1 = np.diag([0.8, 0.2]).astype(complex)
    r2 = np.diag([0.5, 0.5]).astype(complex)
    assert mixing_term(h, r1, r2, 0.3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        mixing_term(h, r1, r2, 0.0)


def test_mixing_bound_formula_and_check():
    h = random_gue_hamiltonian(6, 3)
    norm = float(np.abs(np.linalg.eigvalsh(h)).max())
    assert mixing_term_bound(h, 0.25) == pytest.approx(2.0 * binary_entropy(0.25) * norm, rel=1e-12)
    for s in range(20):
        r1 = random_density(6, seed=2 * s)
        r2 = random_density(6, seed=2 * s + 1)
        res = small_incremental_mixing_check(h, r1, r2, 0.25)
        assert res.margin >= 0.0
        assert res.witness == {"p": 0.25}


def test_operands_of_one_identity_must_share_their_size():
    # a mis-sized operand used to broadcast into a wrong value (mixing_term
    # with rho2 = [[1.0]]) or the wrong InvalidPair reason (Y - X), or to
    # fail inside numpy's matmul
    h4, h2 = random_gue_hamiltonian(4, 0), random_gue_hamiltonian(2, 0)
    r4, one = random_density(4, seed=1), [[1.0]]
    x, y = random_xy_pair(2, 0.1, seed=0)
    cases = [
        (lambda: mixing_term(h4, r4, one, 0.5), "hamiltonian is 4 x 4 but rho2 is 1 x 1"),
        (lambda: small_incremental_mixing_check(h4, r4, one, 0.5), "but rho2 is 1 x 1"),
        (lambda: mixing_term(h2, r4, r4, 0.5), "hamiltonian is 2 x 2 but rho1 is 4 x 4"),
        (lambda: hamiltonian_term(h2, r4, r4), "hamiltonian is 2 x 2 but rho is 4 x 4"),
        (lambda: hamiltonian_term(h4, r4, one), "but sigma is 1 x 1"),
        (lambda: dissipative_commutator_check(np.eye(2), x, one, 0.1), "X is 2 x 2 but Y is 1 x 1"),
        (lambda: dissipative_term(np.eye(3), x, y), "L is 3 x 3 but X is 2 x 2"),
        (lambda: commutator_trace_norm_check(np.eye(3), np.eye(2)), "A is 3 x 3 but X is 2 x 2"),
    ]
    for run, message in cases:
        with pytest.raises(ShapeError, match=message):
            run()


def test_commutator_trace_norm_margin_and_domain():
    for s in range(30):
        rng = np.random.default_rng(s)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = g @ g.conj().T  # PSD, arbitrary scale
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert commutator_trace_norm_check(a, x).margin >= -1e-9
    # identity commutes with everything: lhs = 0
    res = commutator_trace_norm_check(np.eye(3), np.diag([1.0, 2.0, 3.0]))
    assert res.lhs == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidPair):
        commutator_trace_norm_check(np.diag([1.0, -0.5]), np.eye(2))


def test_pure_ree_identity_margin_tiny():
    for s in range(10):
        psi = random_pure(DimensionSignature.cut(3, 4), seed=s)
        res = pure_ree_identity_check(psi)
        assert abs(res.lhs - res.rhs) <= 1e-10
        assert res.margin <= 0.0  # equality check stores -|difference|
        assert all(c > 0 for c in res.witness["schmidt_coefficients"])


def test_marginal_split_check_both_sides():
    dims = DimensionSignature(2, 2, 2, 2)
    for s in range(10):
        rho = DensityMatrix(dims, random_density(dims.total, seed=s))
        for side in ("B", "A"):
            res = marginal_split_check(rho, side=side)
            assert res.margin >= 0.0
            assert res.witness["factor"] == 4
    with pytest.raises(ValueError):
        marginal_split_check(DensityMatrix(dims, random_density(16, seed=0)), side="C")


def test_marginal_split_product_state_oracle():
    # rho = rho_aA ⊗ I_B/d_B ⊗ |0><0|_b: the B-side difference is
    # (d_B^2 - 1)/d_B^2 of a state, so the witness eigenvalue is positive
    dims = DimensionSignature(2, 2, 3, 1)
    marg = random_density(4, seed=11)
    rho = DensityMatrix(dims, np.kron(marg, np.eye(3) / 3))
    res = marginal_split_check(rho, side="B")
    lam_min = float(np.linalg.eigvalsh(np.kron(marg, np.eye(3) / 3)).min())
    assert res.margin == pytest.approx(8.0 * lam_min, rel=1e-9)


def _unitary_gen(dims, seed, scale=1.0):
    h = scale * random_gue_hamiltonian(dims.d_A * dims.d_B, seed)
    return LindbladGenerator(dims, hamiltonian=h)


def _open_gen(dims, seed, n_lindblad=2):
    h = random_gue_hamiltonian(dims.d_A * dims.d_B, seed)
    ls = tuple(random_ginibre_lindblad(dims.d_A * dims.d_B, seed=seed + 10 + k) for k in range(n_lindblad))
    return LindbladGenerator(dims, hamiltonian=h, lindblad_ops=ls)


def test_rate_bound_formulas():
    dims = DimensionSignature.cut(2, 3)
    h = np.diag([1.0, -1.0, 0.5, 0.0, 0.0, -0.5]).astype(complex)  # ||H|| = 1
    l = np.zeros((6, 6), dtype=complex)
    l[0, 1] = 2.0  # ||L|| = 2
    gen = LindbladGenerator(dims, hamiltonian=h, lindblad_ops=(l,))
    assert entangling_rate_bound(gen) == pytest.approx(4.0 * (1.0 + 86.0 * 4.0) * math.log(2), rel=1e-12)
    assert unitary_rate_bound(gen) == pytest.approx(4.0 * math.log(2), rel=1e-12)
    assert mi_rate_bound(gen) == pytest.approx(
        4.0 * (2.0 + 129.0 * 4.0) * (math.log(2) + math.log(3)), rel=1e-12
    )


def test_surrogate_rate_zero_generator_bias():
    # no dynamics: the pinch of the unchanged state is its dephased Schmidt
    # mixture, so the finite difference reproduces E(psi) to rounding
    dims = DimensionSignature.cut(3, 3)
    psi = random_pure(dims, seed=4)
    gen = LindbladGenerator(dims)  # H = 0, no jumps
    assert abs(surrogate_rate_fd(psi, gen, 1e-3)) < 1e-9


def test_surrogate_rate_input_validation():
    dims = DimensionSignature.cut(2, 2)
    psi = random_pure(dims, seed=0)
    gen = _unitary_gen(dims, 0)
    for dt in (0.0, np.inf, np.nan, True, "1e-3"):  # True used to step by 1
        with pytest.raises(ValueError, match="finite and > 0"):
            surrogate_rate_fd(psi, gen, dt)
    with pytest.raises(ValueError, match="2 states but 1 generators"):
        surrogate_rate_analytic([psi, psi], [gen])
    other = random_pure(DimensionSignature.cut(2, 3), seed=0)
    with pytest.raises(ValueError):
        surrogate_rate_analytic(other, gen)
    with pytest.raises(ValueError, match="different spaces"):
        surrogate_rate_fd(other, gen, 1e-3)


def _expansion_oracle(psi, gen):
    # (kappa, a) with every term built as a matrix: rhodot, the eigenvalues
    # mu_j of R rhodot R (R = I - |psi><psi|) and the weights Tr Pi_k rhodot
    # on the pinch's blocks as projectors (``_pinch_blocks``)
    rho = psi.projector()
    rhodot = apply_generator(gen, rho)
    r_perp = np.eye(psi.dims.total) - rho
    mu = np.linalg.eigvalsh(r_perp @ rhodot @ r_perp)
    p = schmidt(psi).coefficients
    omega_log_p, nu = 0.0, []
    for block, rank, i in _pinch_blocks(psi):
        weight = np.trace(block @ rhodot).real
        if i is None:
            nu.append((weight, rank))
        else:
            omega_log_p += weight * math.log(p[i])
    kappa = mu.sum() - sum(w for w, _ in nu)
    xlogx = sum(x * math.log(x) for x in mu if x > 0) - sum(w * math.log(w / m) for w, m in nu if w > 0)
    return kappa, xlogx - kappa - omega_log_p


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (1, 2, 3, 1), (2, 3, 2, 1), (1, 4, 4, 1)])
def test_surrogate_rate_analytic_matches_the_log_formula(factors):
    # the closed form against the same formula with its terms built as
    # matrices: no block-weight table, no product-vector reshapes
    dims = DimensionSignature(*factors)
    for k in range(4):
        gen = _open_gen(dims, seed=40 + k, n_lindblad=k)
        for psi in _probe_states(dims, k):
            kappa, a = surrogate_rate_analytic(psi, gen)
            want_kappa, want_a = _expansion_oracle(psi, gen)
            assert abs(kappa - want_kappa) <= 1e-12 and abs(a - want_a) <= 1e-11 * max(1.0, abs(want_a))


# instances of the probe's convergence to its expansion: the factors, which of
# ``_probe_states`` (random, product, Schmidt rank 2) and the jump operators
_EXPANSION_CASES = {
    "2x2-two-jumps": ((1, 2, 2, 1), 0, 2),
    "3x3": ((1, 3, 3, 1), 0, 1),
    "4x4": ((1, 4, 4, 1), 0, 1),
    "2x3-rank2": ((1, 2, 3, 1), 2, 1),
    "2x3-product": ((1, 2, 3, 1), 1, 1),
    "2-2x2-1-ancilla": ((2, 2, 2, 1), 0, 1),
}


@pytest.mark.parametrize("factors,which,n_lindblad", list(_EXPANSION_CASES.values()), ids=list(_EXPANSION_CASES))
def test_probe_converges_to_its_expansion(factors, which, n_lindblad):
    # surrogate_rate_fd(dt) - (a + kappa ln dt) is o(1): its next terms are
    # O(dt ln dt), so it falls about 8-10x per decade of dt.  The range stops
    # at dt = 1e-5, because the probe's roundoff grows as 1/dt (about 1e-8 at
    # dt = 1e-5) and soon floors the difference
    dims = DimensionSignature(*factors)
    psi, gen = _probe_states(dims, 60)[which], _open_gen(dims, 60, n_lindblad)
    kappa, a = surrogate_rate_analytic(psi, gen)
    assert kappa >= -1e-12
    err = [abs(surrogate_rate_fd(psi, gen, dt) - (a + kappa * math.log(dt))) for dt in (1e-3, 1e-4, 1e-5)]
    assert err[0] >= 5.0 * err[1] and err[1] >= 5.0 * err[2], err


def test_expansion_of_a_stack_matches_one_state_at_a_time():
    # Schmidt ranks 1-3 and 0-3 jump operators in one stack: the same bits
    dims = DimensionSignature.cut(3, 3)
    psis = _probe_states(dims, 61) + _probe_states(dims, 62)
    gens = [_open_gen(dims, 70 + i, n_lindblad=i % 4) for i in range(len(psis))]
    got = surrogate_rate_analytic(psis, gens)
    want = [surrogate_rate_analytic(x, g) for x, g in zip(psis, gens)]
    assert [tuple(map(repr, pair)) for pair in got] == [tuple(map(repr, pair)) for pair in want]


def test_expansion_reaches_the_zz_entangling_capacity():
    # H = Z ⊗ Z has entangling capacity max_p 2 sqrt(p(1-p)) ln(p/(1-p)) =
    # 1.3254868387 nats, attained by sqrt(p*)|++> - i sqrt(1-p*)|--> at
    # p* = 0.9167783 (Dür, Vidal, Cirac, Linden & Popescu, PRL 87, 137901 (2001))
    dims, p = DimensionSignature.cut(2, 2), 0.9167783
    z = np.diag([1.0, -1.0]).astype(complex)
    plus, minus = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)
    psi = PureState(dims, math.sqrt(p) * np.kron(plus, plus) - 1j * math.sqrt(1.0 - p) * np.kron(minus, minus))
    kappa, a = surrogate_rate_analytic(psi, LindbladGenerator(dims, np.kron(z, z)))
    assert kappa <= 1e-12
    assert abs(a - 1.3254868387) <= 1e-9


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (1, 2, 3, 1), (1, 3, 3, 1), (2, 2, 2, 2)])
def test_expansion_vanishes_under_local_hamiltonians(factors):
    # H_A ⊗ I + I ⊗ H_B moves no entanglement, and the rate is 0 at every pure state
    dims = DimensionSignature(*factors)
    for s in range(3):
        h_a, h_b = random_gue_hamiltonian(dims.d_A, 90 + s), random_gue_hamiltonian(dims.d_B, 95 + s)
        gen = LindbladGenerator(dims, np.kron(h_a, np.eye(dims.d_B)) + np.kron(np.eye(dims.d_A), h_b))
        for psi in _probe_states(dims, 90 + s):
            kappa, a = surrogate_rate_analytic(psi, gen)
            assert abs(kappa) <= 1e-12 and abs(a) <= 1e-12, (s, kappa, a)


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (1, 2, 3, 1), (1, 3, 3, 1), (2, 2, 2, 2)])
def test_expansion_has_no_log_term_at_product_states(factors):
    # at a product state span{a_1 ⊗ b_1} is psi itself, so no weight leaks
    # into the pinch's diagonal blocks off psi: kappa = 0 under any jump operators
    dims = DimensionSignature(*factors)
    for k in range(1, 4):
        psi = _probe_states(dims, 100 + k)[1]
        kappa, _ = surrogate_rate_analytic(psi, _open_gen(dims, 100 + k, n_lindblad=k))
        assert abs(kappa) <= 1e-12, (k, kappa)


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_entangling_rate_fd_takes_one_schmidt_decomposition_and_no_log(monkeypatch):
    # the pinch is read from the Schmidt frame, so no relative entropy
    # against a reference matrix is taken either; the report carries no
    # closed-form rate, so none is computed
    dims = DimensionSignature.cut(3, 3)
    psi, gen = random_pure(dims, seed=3), _open_gen(dims, seed=3)
    schmidts = _counting(monkeypatch, entrate.rates, "schmidt")
    logs = _counting(monkeypatch, entrate.rates, "matrix_log_on_support")
    dists = _counting(monkeypatch, entrate.rates, "relative_entropy")
    analytic = _counting(monkeypatch, entrate.rates, "surrogate_rate_analytic")
    entangling_rate_fd(psi, gen, 1e-4)
    assert (len(schmidts), len(logs), len(dists), len(analytic)) == (1, 0, 0, 0)


def _planted_drift(monkeypatch, planted, at_steps):
    # rates._integrate, with the state whose start is ``planted`` doubled
    # (trace 2, drift 1) at the step counts in ``at_steps``; the calls'
    # (stack size, steps) recorded
    integrate, calls = entrate.rates._integrate, []

    def drifting(gens, mats, t, steps):
        calls.append((len(gens), steps))
        out = integrate(gens, mats, t, steps)
        for j, m in enumerate(mats):
            if steps in at_steps and np.array_equal(m, planted):
                out[j] *= 2.0
        return out

    monkeypatch.setattr(entrate.rates, "_integrate", drifting)
    return calls


def test_a_drifting_state_of_a_stack_is_integrated_again_alone(monkeypatch):
    # state 2 drifts on its first integration only: it alone is integrated
    # again, at 128 steps, and every state reads as in its stack of one
    dims = DimensionSignature.cut(2, 2)
    gens = [_open_gen(dims, seed=70 + i, n_lindblad=i % 4) for i in range(5)]
    rhos = [random_pure(dims, 80 + i).density() for i in range(5)]
    want = [entrate.rates._evolve_tight(g, r, 1e-3).matrix for g, r in zip(gens, rhos)]
    want[2] = entrate.rates._integrate(gens[2], rhos[2].matrix, 1e-3, 128)
    calls = _planted_drift(monkeypatch, rhos[2].matrix, (64,))
    got = entrate.rates._evolve_tight(gens, rhos, 1e-3)
    assert calls == [(5, 64), (1, 128)]
    assert [x.matrix.tobytes() for x in got] == [m.tobytes() for m in want]
    monkeypatch.undo()
    _planted_drift(monkeypatch, rhos[2].matrix, range(64, 8193))
    with pytest.raises(entrate.rates.IntegrationError, match="drift 1.000e"):
        entrate.rates._evolve_tight(gens, rhos, 1e-3)


def test_a_theorem2_probe_that_keeps_drifting_is_charged_to_its_trial_alone(monkeypatch):
    # trial 3's state drifts at every step count, so its stack's probe raises
    # after trial 3 is integrated again alone up to 8192 steps; the cell runs
    # again trial by trial and only trial 3 fails
    cfg = SweepConfig(families=("theorem2",), trials=5, dims_grid=(2,), delta_ts=(1e-3,))
    cell = cells_for("theorem2", cfg)[0]
    seeds = [_trial_seed(cfg.base_seed, "theorem2", cell, i) for i in range(5)]
    planted = _build("theorem2", cell, seeds[3], cfg)["psi"].density().matrix
    calls = _planted_drift(monkeypatch, planted, range(64, 8193))
    out = _run_cell(cfg, "theorem2", cell)
    # the stack and trial 3's 7 retries alone, then trials 0-4 one at a time, trial 3 again with its 7
    assert [n for n, _ in calls] == [5] + [1] * 7 + [1] * 3 + [1] * 8 + [1]
    assert out["errors"] == [
        {"index": 3, "seed": seeds[3], "error": "IntegrationError: drift 1.000e+00 still above 1e-10 at 8192 steps"}
    ]
    assert out["failures"] == 1 and math.isfinite(out["worst_margin"])


def _pinch_blocks(psi):
    # the pinch's blocks in the Schmidt frame of psi as (projector, rank, i):
    # a_i ⊗ b_j, a_i ⊗ Q⊥, P⊥ ⊗ b_j and P⊥ ⊗ Q⊥ of rank > 0, built from the
    # Schmidt vectors alone; i indexes a diagonal block a_i ⊗ b_i, None any other
    sd = schmidt(psi)
    alice, bob, r = sd.left.shape[0], sd.right.shape[0], sd.coefficients.size
    side_a = [np.outer(a, a.conj()) for a in sd.left.T] + [np.eye(alice) - sd.left @ sd.left.conj().T]
    side_b = [np.outer(b, b.conj()) for b in sd.right.T] + [np.eye(bob) - sd.right @ sd.right.conj().T]
    out = []
    for i, pa in enumerate(side_a):
        for j, pb in enumerate(side_b):
            block = np.kron(pa, pb)
            rank = round(np.trace(block).real)
            if rank:
                out.append((block, rank, i if i == j < r else None))
    return out


def _pinch(psi, rho):
    # the block pinch of rho in the Schmidt frame of psi as a matrix: each
    # block weighted by Tr(Pi rho) / rank(Pi)
    return sum(np.trace(block @ rho).real / rank * block for block, rank, _ in _pinch_blocks(psi))


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (1, 2, 3, 1), (1, 3, 3, 1), (1, 4, 4, 1), (2, 2, 2, 2)],
                         ids=["2-2", "2-3", "3-3", "4-4", "2-2-2-2"])
def test_surrogate_rate_fd_matches_the_pinched_reference_oracle(factors):
    # D(rho_dt || pinch) from the pinch built as a matrix and the generic
    # relative entropy, whose eigensolves the closed form does not share; a
    # random, a product and a Schmidt-rank-2 state, so the complement blocks
    # a_i ⊗ Q⊥, P⊥ ⊗ b_j and P⊥ ⊗ Q⊥ are exercised at ranks up to 9
    dims, dt = DimensionSignature(*factors), 1e-5
    for k in range(1, 4):
        gen = _open_gen(dims, seed=50 + k, n_lindblad=k)
        for psi in _probe_states(dims, 50 + k):
            rho_dt = entrate.rates._evolve_tight(gen, psi.density(), dt)
            dist = float(relative_entropy(rho_dt, _pinch(psi, rho_dt.matrix)))
            oracle = (max(dist, 0.0) - schmidt(psi).entropy()) / dt
            got = surrogate_rate_fd(psi, gen, dt)
            assert abs(got - oracle) <= 1e-7 * max(1.0, abs(oracle)), (k, got, oracle)


def _smoothed_reference_rate(psi, gen, dt, eta=1e-13):
    # the probe against the dephased Schmidt mixture smoothed toward I/n, the
    # reference the pinch replaced: it is diagonal in the Schmidt product
    # vectors v_n completed to an orthonormal basis q_j, with eigenvalues
    # (1 - eta) p_n + eta/n on v_n and eta/n on the complement
    n = psi.dims.total
    sd = schmidt(psi)
    v = np.einsum("in,jn->ijn", sd.left, sd.right).reshape(n, -1)
    q = np.concatenate([v, np.linalg.svd(v)[0][:, v.shape[1]:]], axis=1)
    mu = np.full(n, eta / n)
    mu[: v.shape[1]] += (1.0 - eta) * sd.coefficients
    rho_dt = entrate.rates._evolve_tight(gen, psi.density(), dt)
    overlap = float(np.log(mu) @ np.real(np.einsum("ij,ij->j", q.conj(), rho_dt.matrix @ q)))
    return (max(-von_neumann_entropy(rho_dt) - overlap, 0.0) - sd.entropy()) / dt


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (1, 3, 3, 1), (1, 2, 4, 1), (2, 2, 2, 2)])
def test_the_pinch_is_never_above_the_smoothed_reference(factors):
    # the smoothed reference is constant on the pinch's blocks, so by Gibbs'
    # inequality the pinch is at least as close to rho_dt; under dissipation
    # the smoothed probe pays ln(n / eta) per unit of weight that leaks
    dims = DimensionSignature(*factors)
    for k in range(4):
        gen = _open_gen(dims, seed=70 + k, n_lindblad=k)
        for psi in _probe_states(dims, 70 + k):
            for dt in (1e-3, 1e-5):
                pinched, smoothed = surrogate_rate_fd(psi, gen, dt), _smoothed_reference_rate(psi, gen, dt)
                assert pinched <= smoothed + 1e-8, (k, dt, pinched, smoothed)
                if k:
                    assert pinched < smoothed - 0.1, (k, dt, pinched, smoothed)


def test_mi_rate_fd_matches_analytic():
    dims = DimensionSignature.cut(2, 2)
    for s in range(5):
        rho = DensityMatrix(dims, random_density(dims.total, seed=s))
        gen = _open_gen(dims, seed=200 + s, n_lindblad=1)
        fd = mutual_info_rate_fd(rho, gen, 1e-4)
        exact = mutual_info_rate_analytic(rho, gen)
        assert fd == pytest.approx(exact, abs=1e-4)
    for dt in (-1.0, np.inf, np.nan, True, "1e-3"):
        with pytest.raises(ValueError, match="finite and > 0"):
            mutual_info_rate_fd(rho, gen, dt)
    # same total dimension, different factors: no rate is defined
    other = DensityMatrix(DimensionSignature(2, 2, 1, 1), random_density(4, seed=0))
    for rate in (mutual_info_rate_analytic, lambda r, g: mutual_info_rate_fd(r, g, 1e-4)):
        with pytest.raises(ValueError, match="different spaces"):
            rate(other, gen)


def test_mi_rate_analytic_smoothed_pure_states():
    # with eta smoothing the closed form becomes evaluable at pure states;
    # a product state under a purely one-sided Hamiltonian has zero MI rate
    dims = DimensionSignature(2, 2, 2, 2)
    rng = np.random.default_rng(5)
    va = rng.normal(size=4) + 1j * rng.normal(size=4)
    vb = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = PureState(dims, np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb)))
    h_local = np.kron(random_gue_hamiltonian(2, rng), np.eye(2))
    gen = LindbladGenerator(dims, h_local, ())
    assert abs(mutual_info_rate_analytic(psi, gen, eta=1e-8)) < 1e-6

    for s in range(5):
        psi = random_pure(dims, seed=s)
        gen = LindbladGenerator(
            dims,
            random_gue_hamiltonian(4, np.random.default_rng(300 + s)),
            (random_ginibre_lindblad(4, np.random.default_rng(400 + s)),),
        )
        rate = mutual_info_rate_analytic(psi, gen, eta=1e-8)
        assert rate <= mi_rate_bound(gen) + 1e-3


def test_mi_rate_analytic_eta_validation():
    dims = DimensionSignature(1, 2, 2, 1)
    psi = random_pure(dims, seed=0)
    gen = _unitary_gen(dims, seed=0)
    for bad in (0.5, 0.0, 1e-11, 1e-3):
        with pytest.raises(ValueError):
            mutual_info_rate_analytic(psi, gen, eta=bad)


def test_rate_report_fields_surrogate():
    dims = DimensionSignature.cut(2, 2)
    psi = random_pure(dims, seed=1)
    gen = _open_gen(dims, seed=2)
    rep = entangling_rate_fd(psi, gen, 1e-4, seed=1)
    assert rep.gamma_fd == rep.gamma_surrogate_fd  # surrogate measure: identical
    assert rep.margin == pytest.approx(rep.theorem_bound - rep.gamma_surrogate_fd, rel=1e-12)
    assert rep.delta_t == 1e-4
    assert rep.measure == "surrogate"
    assert rep.dims == dims
    assert rep.theorem_bound == pytest.approx(entangling_rate_bound(gen), rel=1e-12)


def test_rate_report_bruteforce_only_tightens():
    dims = DimensionSignature.cut(2, 2)
    for s in range(3):
        psi = random_pure(dims, seed=s)
        gen = _open_gen(dims, seed=50 + s, n_lindblad=1)
        rep = entangling_rate_fd(
            psi, gen, 1e-4, measure="bruteforce", seed=s, ree_kwargs={"restarts": 1, "max_iters": 200}
        )
        assert rep.gamma_fd <= rep.gamma_surrogate_fd + 1e-7


def test_rate_measure_validation():
    dims = DimensionSignature.cut(2, 2)
    psi = random_pure(dims, seed=0)
    gen = _unitary_gen(dims, 0)
    with pytest.raises(ValueError):
        entangling_rate_fd(psi, gen, 1e-4, measure="exact")
    with pytest.raises(ValueError):
        entangling_rate_fd(psi, gen, -1e-4)


def test_rate_probes_reject_degenerate_cut():
    # d = 1 cut: zero cap but a nonzero reference-distance quotient, so the
    # probes refuse instead of reporting a meaningless negative margin
    dims = DimensionSignature.cut(1, 2)
    psi = random_pure(dims, seed=0)
    gen = _unitary_gen(dims, 0)
    for probe in (
        lambda: entangling_rate_fd(psi, gen, 1e-4),
        lambda: surrogate_rate_fd(psi, gen, 1e-4),
        lambda: surrogate_rate_analytic(psi, gen),
    ):
        with pytest.raises(DegenerateCut):
            probe()


@pytest.mark.parametrize("da,db", [(2, 2), (3, 3), (2, 4)])
def test_measured_rates_respect_bound(da, db):
    dims = DimensionSignature.cut(da, db)
    for s in range(10):
        psi = random_pure(dims, seed=s)
        gen = _open_gen(dims, seed=300 + s)
        rep = entangling_rate_fd(psi, gen, 1e-4, seed=s)
        assert rep.margin >= -1e-3


def test_unitary_rates_respect_closed_bound():
    # closed dynamics: kappa = 0, and the rate a is finite and under 4 ||H|| ln d
    dims = DimensionSignature.cut(3, 3)
    for s in range(10):
        psi = random_pure(dims, seed=s)
        gen = _unitary_gen(dims, seed=400 + s)
        kappa, a = surrogate_rate_analytic(psi, gen)
        assert abs(kappa) <= 1e-12
        assert a <= unitary_rate_bound(gen)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_binary_entropy_properties(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= math.log(2) + 1e-15
    assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

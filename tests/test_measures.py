import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrate.measures as measures
from entrate.linalg import partial_trace
from entrate.measures import (
    OptimizerStall,
    entanglement_entropy,
    mutual_information,
    ree_bruteforce,
    relative_entropy,
    von_neumann_entropy,
)
from entrate.states import (
    DensityMatrix,
    DimensionSignature,
    PureState,
    closest_separable_state,
    random_density,
    random_pure,
    schmidt,
)


def test_entropy_known_spectrum():
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.6108643, abs=1e-7)
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0, abs=1e-14)


def test_entropy_basis_independent():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    lam = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
    rho = (q * lam) @ q.conj().T
    assert von_neumann_entropy(rho) == pytest.approx(float(-(lam[:4] * np.log(lam[:4])).sum()), abs=1e-12)


def test_relative_entropy_diagonal_oracle():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.5, 0.3])
    want = float((p * np.log(p / q)).sum())
    got = relative_entropy(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert got == pytest.approx(want, abs=1e-12)


def test_relative_entropy_support_convention():
    # rho leaking outside supp(sigma) -> +inf
    rho = np.diag([0.4, 0.3, 0.3]).astype(complex)
    sigma = np.diag([0.5, 0.5, 0.0]).astype(complex)
    assert relative_entropy(rho, sigma) == np.inf
    # supported inside -> finite, computed on the joint support
    rho2 = np.diag([0.7, 0.3, 0.0]).astype(complex)
    want = 0.7 * np.log(0.7 / 0.5) + 0.3 * np.log(0.3 / 0.5)
    assert relative_entropy(rho2, sigma) == pytest.approx(want, abs=1e-12)


def test_relative_entropy_zero_iff_equal():
    rho = random_density(4, 1)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    other = random_density(4, 2)
    assert relative_entropy(rho, other) > 1e-4


def test_relative_entropy_shape_mismatch():
    with pytest.raises(ValueError, match=r"shape mismatch \(2, 2\) vs \(3, 3\)"):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)
    psi = random_pure(DimensionSignature.cut(2, 2), 0)
    with pytest.raises(ValueError, match=r"shape mismatch \(4, 4\) vs \(6, 6\)"):
        relative_entropy(psi, np.eye(6) / 6)


def test_entanglement_entropy_frozen_value():
    dims = DimensionSignature.cut(2, 2)
    psi = PureState(dims, np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)]))
    assert entanglement_entropy(psi) == pytest.approx(0.325083, abs=1e-6)


def test_ree_upper_bound_is_relative_entropy_to_reference():
    psi = random_pure(DimensionSignature.cut(3, 3), 5)
    sigma = closest_separable_state(schmidt(psi))
    assert relative_entropy(psi.density(), sigma) == pytest.approx(entanglement_entropy(psi), abs=1e-10)


def test_mutual_information_landmarks():
    dims = DimensionSignature.cut(2, 2)
    bell = PureState(dims, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    assert mutual_information(bell.density()) == pytest.approx(2 * np.log(2), abs=1e-10)
    # classical correlation: half |00>, half |11>
    cc = DensityMatrix(dims, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    assert mutual_information(cc) == pytest.approx(np.log(2), abs=1e-10)
    # product state
    prod = DensityMatrix(dims, np.kron(random_density(2, 0), random_density(2, 1)))
    assert mutual_information(prod) == pytest.approx(0.0, abs=1e-10)


def test_bruteforce_bell_state():
    dims = DimensionSignature.cut(2, 2)
    bell = PureState(dims, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    est = ree_bruteforce(bell.density(), seed=0)
    assert est.value == pytest.approx(np.log(2), abs=1e-4)
    assert est.converged


def test_bruteforce_separable_state_scores_zero():
    dims = DimensionSignature.cut(2, 2)
    sep = DensityMatrix(dims, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    est = ree_bruteforce(sep, seed=1)
    assert est.value <= 1e-5


def test_bruteforce_matches_schmidt_entropy_on_pure_states():
    dims = DimensionSignature.cut(2, 2)
    for seed in range(5):
        psi = random_pure(dims, seed)
        est = ree_bruteforce(psi.density(), seed=seed)
        assert est.value == pytest.approx(entanglement_entropy(psi), abs=1e-4)


def test_bruteforce_ensemble_is_separable_by_construction():
    psi = random_pure(DimensionSignature.cut(2, 3), 7)
    est = ree_bruteforce(psi.density(), seed=3)
    ens = est.ensemble
    assert ens.weights.sum() == pytest.approx(1.0)
    assert np.all(ens.weights > 0)
    for fs in (ens.factors_a, ens.factors_b):
        for f in fs:
            assert np.real(np.trace(f)) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh((f + f.conj().T) / 2).min() >= -1e-10
    sigma = ens.assemble()
    # the assembled mixture really is the ensemble state
    assert relative_entropy(psi.density(), sigma) == pytest.approx(est.value, abs=1e-9)


def test_bruteforce_stall_warns_but_returns():
    rho = DensityMatrix(DimensionSignature.cut(2, 3), random_density(6, 11))
    with pytest.warns(OptimizerStall):
        est = ree_bruteforce(rho, max_iters=1, seed=0)
    assert est.stalled
    assert np.isfinite(est.value)


def test_bruteforce_validates_inputs():
    big = DensityMatrix(DimensionSignature.cut(5, 5), random_density(25, 0))
    with pytest.raises(ValueError):
        ree_bruteforce(big)
    small = DensityMatrix(DimensionSignature.cut(2, 2), random_density(4, 0))
    with pytest.raises(ValueError):
        ree_bruteforce(small, restarts=0)
    with pytest.raises(ValueError):
        ree_bruteforce(small, ensemble_size=1)
    # counts are exact integers >= 1 and tol a finite number > 0, checked
    # before any see-saw runs
    bad = [
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": True},
        {"tol": "1e-9"},
        {"max_iters": 0},
        {"max_iters": True},
        {"max_iters": 2.5},
        {"restarts": 1.5},
        {"restarts": True},
        {"ensemble_size": 2.5},
        {"ensemble_size": True},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            ree_bruteforce(small, **kwargs)
    pure = random_pure(DimensionSignature.cut(2, 2), 0).density()
    est = ree_bruteforce(pure, restarts=np.int64(1), max_iters=np.int64(2), ensemble_size=np.int64(3), tol=np.float64(1e-9))
    assert est.iterations == 0 and est.converged  # numpy integers and floats are taken


def test_bruteforce_deterministic_per_seed():
    rho = DensityMatrix(DimensionSignature.cut(2, 2), random_density(4, 13))
    a = ree_bruteforce(rho, seed=2, max_iters=60)
    b = ree_bruteforce(rho, seed=2, max_iters=60)
    assert a.value == b.value


def test_stacked_scores_match_relative_entropy():
    # the see-saw's stacked kernel equals relative_entropy(rho, sigma_k) for
    # every sigma_k of the stack, +inf included; only the order of summation
    # differs, so the tolerance is 1e-12
    rng = np.random.default_rng(17)
    n = 6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rho = DensityMatrix(DimensionSignature.cut(2, 3), (q[:, :3] * [0.5, 0.3, 0.2]) @ q[:, :3].conj().T)

    def on(basis, spectrum):
        return (basis * spectrum) @ basis.conj().T

    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sigmas = [
        random_density(n, 3),  # full rank
        random_density(n, 4),
        on(q, [0.3, 0.3, 0.2, 0.2, 0.0, 0.0]),  # rank deficient, holds supp(rho): finite
        on(q[:, :3], [0.5, 0.25, 0.25]),  # support exactly supp(rho): finite
        on(q, [0.4, 0.4, 0.0, 0.1, 0.1, 0.0]),  # misses a live direction: leak
        on(u[:, :4], [0.25] * 4),  # generic rank 4: leak
    ]
    neg_entropy = -von_neumann_entropy(rho)
    got, lam, vec = measures._ree_scores(rho, neg_entropy, np.stack(sigmas))
    want = [relative_entropy(rho, s) for s in sigmas]
    assert [np.isinf(x) for x in want] == [False, False, False, False, True, True]
    for g, x in zip(got, want):
        assert g == x if np.isinf(x) else abs(g - x) <= 1e-12
    for s, l, v in zip(sigmas, lam, vec):  # the kept eigh reproduces each sigma
        assert np.abs((v * l) @ v.conj().T - s).max() <= 1e-12


def _support_cases():
    # a rank-3 rho on 2⊗3, with sigmas that are full rank, rank deficient
    # holding supp(rho), and rank deficient missing a live direction (a leak)
    rng = np.random.default_rng(23)
    dims = DimensionSignature.cut(2, 3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    rho = DensityMatrix(dims, (q[:, :3] * [0.5, 0.3, 0.2]) @ q[:, :3].conj().T)
    cases = [
        (random_density(6, 5), False),
        ((q * [0.3, 0.3, 0.2, 0.2, 0.0, 0.0]) @ q.conj().T, False),
        ((q * [0.4, 0.4, 0.0, 0.1, 0.1, 0.0]) @ q.conj().T, True),
    ]
    return dims, q, rho, cases


def _weight_oracle(r, m):
    # max(-S(rho) - Tr rho ln sigma, 0) for matrices r and m, Tr rho ln sigma
    # from sigma's eigenvector weights <v_j|rho|v_j> on its support
    lam, vec = np.linalg.eigh((m + m.conj().T) / 2)
    live = lam > measures.SUPPORT_TOL
    weights = np.real(np.einsum("ij,ij->j", vec.conj(), r @ vec))
    return max(-von_neumann_entropy(r) - float((np.log(lam[live]) * weights[live]).sum()), 0.0)


def test_relative_entropy_matches_the_eigenvector_weights():
    # for a DensityMatrix sigma, Re<ln sigma, rho> equals the eigenvector-weight
    # formula; +inf exactly on a leak
    dims, _, rho, cases = _support_cases()
    for m, leaks in cases:
        sigma = DensityMatrix(dims, m)
        got = relative_entropy(rho, sigma)
        if leaks:
            assert got == np.inf
            continue
        assert abs(got - _weight_oracle(rho.matrix, m)) <= 1e-12
        assert relative_entropy(rho, sigma) == got


def test_relative_entropy_of_one_pair_is_its_stack_of_one():
    dims, _, rho, cases = _support_cases()
    for m, leaks in cases:
        sigma = DensityMatrix(dims, m)
        got = relative_entropy(rho, sigma)
        assert type(got) is float and np.isinf(got) == leaks
        assert got == relative_entropy([rho], [sigma])[0]


def test_relative_entropy_takes_raw_and_pure_operands():
    dims, q, rho, cases = _support_cases()
    psi = PureState(dims, q[:, 0])  # on supp(rho) and on the second sigma's support
    for m, leaks in cases:
        got = relative_entropy(rho.matrix.copy(), m)
        assert got == np.inf if leaks else abs(got - _weight_oracle(rho.matrix, m)) <= 1e-12
        assert abs(relative_entropy(psi, m) - _weight_oracle(psi.projector(), m)) <= 1e-12
    assert relative_entropy(psi, psi) == pytest.approx(0.0, abs=1e-12)
    assert relative_entropy(rho.matrix.copy(), psi) == np.inf


@pytest.mark.parametrize("factors", [(2, 4, 4, 2), (2, 2, 2, 1), (1, 4, 4, 1), (3, 2, 2, 3)])
def test_mutual_information_marginals_are_partial_traces(monkeypatch, factors):
    dims = DimensionSignature(*factors)
    rho = DensityMatrix(dims, random_density(dims.total, sum(factors)))
    seen = []
    eigvalsh = measures._eigvalsh

    def recording(x):
        seen.append(x)
        return eigvalsh(x)

    # the marginals are diagonalized, in one stack when they are the same
    # size, and the full state's entropy reads its kept spectrum
    monkeypatch.setattr(measures, "_eigvalsh", recording)
    got = mutual_information(rho)
    assert len(seen) == (1 if dims.alice == dims.bob else 2)
    left, right = (m for x in seen for m in x.reshape(-1, *x.shape[-2:]))
    assert np.array_equal(left, partial_trace(rho.matrix, factors, keep=(0, 1)))
    assert np.array_equal(right, partial_trace(rho.matrix, factors, keep=(2, 3)))
    monkeypatch.undo()
    assert got == von_neumann_entropy(left) + von_neumann_entropy(right) - von_neumann_entropy(rho)


# (state kind, d_A, d_B, state seed, restarts, ree seed) -> iterations of each
# restart and the best value, as recorded before the see-saw scored its
# candidates in batches; values may move by roundoff, pinned to the see-saw's
# own tol 1e-9.  Restart 0 of a pure state starts certified within tol, so it
# takes 0 iterations and no restart follows it, however many are asked for;
# the mixed state's restart 0 is not certified, so its random restart 1 runs
# and stays pinned
SEESAW_PINS = [
    (("pure", 2, 2, 11, 1, 0), [0], 0.6231618602054644),
    (("pure", 2, 3, 12, 1, 0), [0], 0.4865414770295764),
    (("pure", 3, 2, 13, 1, 0), [0], 0.33739125479907844),
    (("pure", 2, 2, 43, 2, 3), [0], 0.454903452157855),
    (("mixed", 2, 2, 44, 2, 3), [55, 101], 0.03566145176751023),
]


@pytest.mark.parametrize("case,iterations,value", SEESAW_PINS)
def test_bruteforce_regression_pins(monkeypatch, case, iterations, value):
    kind, da, db, state_seed, restarts, seed = case
    seen = []
    seesaw = measures._seesaw

    def recording(*args):
        out = seesaw(*args)
        seen.append(out[4])
        return out

    monkeypatch.setattr(measures, "_seesaw", recording)
    dims = DimensionSignature.cut(da, db)
    if kind == "pure":
        rho = random_pure(dims, state_seed).density()
    else:
        rho = DensityMatrix(dims, random_density(dims.total, state_seed))
    est = ree_bruteforce(rho, restarts=restarts, seed=seed)
    assert seen == iterations
    assert est.value == pytest.approx(value, abs=1e-9)


def _pure_corpus():
    # random, product and maximally entangled pure states on 2⊗2, 2⊗3, 3⊗3
    for da, db in ((2, 2), (2, 3), (3, 3)):
        dims = DimensionSignature.cut(da, db)
        for seed in range(4):
            yield random_pure(dims, (da, db, seed))
        rng = np.random.default_rng((da, db))
        va = rng.normal(size=da) + 1j * rng.normal(size=da)
        vb = rng.normal(size=db) + 1j * rng.normal(size=db)
        yield PureState(dims, np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb)))
        k = min(da, db)
        yield PureState(dims, np.eye(da, db).reshape(-1) / np.sqrt(k))


def _support_factor(rho):
    lam, vec = rho.eigh()
    live = lam > measures.SUPPORT_TOL
    return vec[:, live] * np.sqrt(lam[live])


def _restart0_start(monkeypatch, psi):
    # the separable state restart 0 of ree_bruteforce starts the see-saw from
    starts = []
    seesaw = measures._seesaw

    def recording(rho, w, fa, fb, *args):
        starts.append(measures.SeparableEnsemble(rho.dims, w, fa, fb).assemble().matrix)
        return seesaw(rho, w, fa, fb, *args)

    monkeypatch.setattr(measures, "_seesaw", recording)
    ree_bruteforce(psi.density(), restarts=1)
    monkeypatch.undo()
    return starts[0]


def test_gap_bounds_the_excess_over_the_schmidt_entropy(monkeypatch):
    # D(rho||sigma) - E_R(rho) <= _gap at every separable sigma, here the
    # padded Schmidt mixture mixed with random product ensembles; at the
    # padded start itself the bound certifies within the see-saw's tol
    for psi in _pure_corpus():
        rho = psi.density()
        dims = psi.dims
        na, nb = dims.alice, dims.bob
        exact = schmidt(psi).entropy()
        r_f = _support_factor(rho)
        start = _restart0_start(monkeypatch, psi)
        rng = np.random.default_rng(dims.total)
        for t in (0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5):
            m = 4
            w = rng.dirichlet(np.ones(m))
            fa = np.stack([random_density(na, rng) for _ in range(m)])
            fb = np.stack([random_density(nb, rng) for _ in range(m)])
            other = measures.SeparableEnsemble(dims, w, fa, fb).assemble().matrix
            sigma = (1.0 - t) * start + t * other
            lam, vec = np.linalg.eigh(sigma)
            gap = measures._gap(measures._log_gradient(r_f, lam, vec), sigma, na, nb)
            assert relative_entropy(rho, sigma) - exact <= gap + 1e-12
            if t == 0.0:
                assert gap <= 1e-9


def test_log_gradient_matches_the_closed_form_at_the_padded_start(monkeypatch):
    # at the padded Schmidt mixture sigma and rho = |psi><psi| are both
    # diagonal in the Schmidt product basis v_k = l_k ⊗ r_k, so
    # G = sum_kl sqrt(p_k p_l) f(s_k, s_l) |v_k><v_l| with s_k = <v_k|sigma|v_k>
    # and f the divided difference of ln; V† rho V instead of the support
    # factor misses this by about 4e-6 in the largest entry
    for psi in _pure_corpus():
        rho = psi.density()
        start = _restart0_start(monkeypatch, psi)
        sd = schmidt(psi)
        p = sd.coefficients
        v = np.einsum("ik,jk->ijk", sd.left, sd.right).reshape(psi.dims.total, p.size)
        s = np.real(np.einsum("ik,ij,jk->k", v.conj(), start, v))
        x, y = s[:, None], s[None, :]
        rel = (x - y) / y
        f = np.where(rel == 0.0, 1.0 / y, np.log1p(rel) / np.where(rel == 0.0, 1.0, x - y))
        want = (v * np.sqrt(p)) @ f @ (v * np.sqrt(p)).conj().T
        lam, vec = np.linalg.eigh(start)
        got = measures._log_gradient(_support_factor(rho), lam, vec)
        assert np.abs(got - want).max() <= 1e-10


def _isotropic(d, fid):
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(phi, phi)
    return fid * proj + (1.0 - fid) * (np.eye(d * d) - proj) / (d * d - 1)


def _isotropic_ree(d, fid):
    # Rains; Vollbrecht & Werner: the relative entropy of entanglement of the
    # isotropic state of fidelity F >= 1/d
    return math.log(d) + fid * math.log(fid) + (1.0 - fid) * math.log((1.0 - fid) / (d - 1))


def _mub_ensemble(d):
    # the product states |e><e| ⊗ |ē><ē| over a complete set of mutually
    # unbiased bases of C^d (d = 2 or an odd prime), equally weighted: a
    # 2-design, so the mixture is the isotropic state at F = 1/d, the closest
    # separable state to every isotropic state with F >= 1/d
    if d == 2:
        bases = [np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)]
    else:
        j = np.arange(d)
        omega = np.exp(2j * np.pi / d)
        bases = [np.eye(d)] + [omega ** (b * j[:, None] ** 2 + j[:, None] * j[None, :]) / np.sqrt(d) for b in range(d)]
    kets = np.concatenate([np.asarray(b, dtype=complex).T for b in bases])
    fa = np.einsum("ki,kj->kij", kets, kets.conj())
    fb = fa.conj()
    return np.full(len(kets), 1.0 / len(kets)), fa, fb


def test_certified_isotropic_values_meet_the_closed_form(monkeypatch):
    # whenever the see-saw stops at iteration 0 on an isotropic state, its
    # value is within tol of the exact E_R; started at the exact minimizer it
    # does stop there, and from ree_bruteforce's restart 0 (the padded Schmidt
    # mixture of rho's top eigenvector) its value never undercuts E_R
    tol = 1e-9
    runs = []
    seesaw = measures._seesaw

    def recording(*args):
        out = seesaw(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(measures, "_seesaw", recording)
    for d in (2, 3):
        dims = DimensionSignature.cut(d, d)
        w, fa, fb = _mub_ensemble(d)
        assert np.abs(measures.SeparableEnsemble(dims, w, fa, fb).assemble().matrix - _isotropic(d, 1.0 / d)).max() <= 1e-12
        for fid in (0.5, 0.6, 0.8):
            rho = DensityMatrix(dims, _isotropic(d, fid))
            exact = _isotropic_ree(d, fid)
            runs.clear()
            measures._seesaw(rho, w, fa, fb, 300, tol)
            ree_bruteforce(rho, restarts=1)
            assert runs[0][4] == 0 and runs[0][5]
            for value, *_, iters, _ in runs:
                assert value >= exact - tol
                if iters == 0:
                    assert abs(value - exact) <= tol


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_relative_entropy_nonnegative(seed):
    rho = random_density(4, seed)
    sigma = random_density(4, seed + 1)
    assert relative_entropy(rho, sigma) >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_entropy_bounds(seed):
    rho = random_density(5, seed)
    s = von_neumann_entropy(rho)
    assert -1e-12 <= s <= np.log(5) + 1e-12

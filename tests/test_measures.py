import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ValueError):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


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


def test_bruteforce_deterministic_per_seed():
    rho = DensityMatrix(DimensionSignature.cut(2, 2), random_density(4, 13))
    a = ree_bruteforce(rho, seed=2, max_iters=60)
    b = ree_bruteforce(rho, seed=2, max_iters=60)
    assert a.value == b.value


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

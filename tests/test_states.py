import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate.linalg import ShapeError
from entrate.states import (
    TOTAL_DIM_CAP,
    DegenerateCut,
    DensityMatrix,
    DimensionSignature,
    PureState,
    closest_separable_state,
    convex_split_witness,
    matrix_from_json,
    random_density,
    random_gue_hamiltonian,
    random_ginibre_lindblad,
    random_pure,
    random_unitary,
    schmidt,
    smooth,
    state_from_json,
    state_to_json,
)


def test_signature_properties():
    sig = DimensionSignature(2, 3, 4, 1)
    assert sig.total == 24
    assert sig.alice == 6
    assert sig.bob == 4
    assert sig.d == 3
    assert sig.p == pytest.approx(1 / 3)
    assert sig.factors() == (2, 3, 4, 1)
    assert DimensionSignature.cut(3, 4) == DimensionSignature(1, 3, 4, 1)


def test_signature_rejects_bad_dims():
    with pytest.raises(ShapeError):
        DimensionSignature(0, 2, 2, 1)
    with pytest.raises(ShapeError):
        DimensionSignature(2, 4, 4, 3)  # 96 > 64
    with pytest.raises(ShapeError):
        DimensionSignature(True, 2, 2, True)  # bool is an int subclass, not a dimension
    for bad in ((2.7, 2), ("2", 2), (2, True)):
        with pytest.raises(ShapeError):
            DimensionSignature.cut(*bad)
    assert DimensionSignature.cut(np.int64(2), np.int32(3)) == DimensionSignature.cut(2, 3)
    assert DimensionSignature(1, 8, 8, 1).total == TOTAL_DIM_CAP  # boundary fits


def test_pure_state_validation():
    dims = DimensionSignature.cut(2, 2)
    with pytest.raises(ValueError):
        PureState(dims, np.array([1.0, 1.0, 0.0, 0.0]))  # norm sqrt(2)
    with pytest.raises(ShapeError):
        PureState(dims, np.array([1.0, 0.0]))
    psi = PureState(dims, np.array([1.0, 0.0, 0.0, 0.0]))
    assert psi.density().purity() == pytest.approx(1.0)


def test_density_matrix_validation():
    dims = DimensionSignature.cut(2, 1)
    with pytest.raises(ValueError):
        DensityMatrix(dims, np.diag([0.7, 0.7]).astype(complex))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(dims, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(dims, np.diag([1.2, -0.2]).astype(complex))  # negative
    # loosened tolerances admit integrator drift
    drifted = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
    DensityMatrix(dims, drifted, trace_tol=1e-8, psd_tol=1e-8)


def test_density_matrix_keeps_its_spectrum():
    dims = DimensionSignature(1, 2, 3, 1)
    m = random_density(6, 4)
    rho = DensityMatrix(dims, m)
    assert np.array_equal(rho.spectrum, np.linalg.eigvalsh((m + m.conj().T) / 2))
    lam, vec = rho.eigh()
    fresh_lam, fresh_vec = np.linalg.eigh((m + m.conj().T) / 2)
    assert np.array_equal(lam, fresh_lam) and np.array_equal(vec, fresh_vec)
    assert rho.eigh()[1] is vec  # computed once
    for kept in (rho.matrix, rho.spectrum, lam, vec):
        with pytest.raises(ValueError):
            kept[0] = 0.0
    # the caller's array was copied: writing to it leaves the state alone
    before = m.copy()
    m[0, 0] += 1.0
    assert np.array_equal(rho.matrix, before)


def test_schmidt_bell_state():
    dims = DimensionSignature.cut(2, 2)
    psi = PureState(dims, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    sd = schmidt(psi)
    assert np.allclose(sd.coefficients, [0.5, 0.5])
    assert sd.entropy() == pytest.approx(np.log(2))


def test_schmidt_product_state_is_rank_one():
    dims = DimensionSignature.cut(3, 2)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amp = np.outer(a, b).reshape(-1)
    psi = PureState(dims, amp / np.linalg.norm(amp))
    sd = schmidt(psi)
    assert sd.coefficients.shape == (1,)
    assert sd.coefficients[0] == pytest.approx(1.0)
    assert sd.entropy() == pytest.approx(0.0, abs=1e-12)
    # in a stack with a full-rank state each keeps its own rank, to the bit
    states = [psi, random_pure(dims, 1), psi]
    for alone, stacked in zip(map(schmidt, states), schmidt(states)):
        for field in ("coefficients", "left", "right"):
            assert np.array_equal(getattr(alone, field), getattr(stacked, field))


def test_schmidt_known_two_qubit_amplitudes():
    # sqrt(.9)|00> + sqrt(.1)|11>: entropy = -.9 ln .9 - .1 ln .1
    dims = DimensionSignature.cut(2, 2)
    psi = PureState(dims, np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)]))
    sd = schmidt(psi)
    assert np.allclose(sd.coefficients, [0.9, 0.1])
    assert sd.entropy() == pytest.approx(0.325083, abs=1e-6)


def test_schmidt_phase_fix_and_reconstruction():
    dims = DimensionSignature(2, 2, 2, 2)
    for seed in range(8):
        psi = random_pure(dims, seed)
        sd = schmidt(psi)
        # left columns phase-fixed: first nonzero entry real positive
        for n in range(sd.left.shape[1]):
            col = sd.left[:, n]
            k = np.flatnonzero(np.abs(col) > 1e-12)[0]
            assert abs(col[k].imag) < 1e-12 and col[k].real > 0
        rec = sd.reconstruct()
        assert abs(np.vdot(rec.amplitudes, psi.amplitudes)) == pytest.approx(1.0, abs=1e-10)
        assert sd.coefficients.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(sd.coefficients) <= 1e-12)


def test_schmidt_orthonormal_vectors():
    psi = random_pure(DimensionSignature.cut(4, 4), 11)
    sd = schmidt(psi)
    k = sd.coefficients.size
    assert np.allclose(sd.left.conj().T @ sd.left, np.eye(k), atol=1e-12)
    assert np.allclose(sd.right.conj().T @ sd.right, np.eye(k), atol=1e-12)


def _schmidt_oracle(psi):
    # the per-column phase loop and the tie-break with its keys always built
    dims = psi.dims
    u, s, vh = np.linalg.svd(psi.amplitudes.reshape(dims.alice, dims.bob), full_matrices=False)
    p = s**2
    mask = p > 1e-12
    u, p = u[:, mask].copy(), p[mask].copy()
    right = vh[mask, :].T.copy()
    for n in range(u.shape[1]):
        k = int(np.argmax(np.abs(u[:, n]) > 1e-12))
        ph = u[k, n] / abs(u[k, n])
        u[:, n] /= ph
        right[:, n] *= ph

    def key(n):
        lex = tuple(x for e in u[:, n] for x in (round(float(e.real), 10), round(float(e.imag), 10)))
        return (-round(float(p[n]), 12), lex)

    order = sorted(range(p.size), key=key)
    return p[order], u[:, order], right[:, order]


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (1, 2, 3, 1), (1, 3, 3, 1), (1, 4, 4, 1), (2, 2, 2, 2)])
def test_schmidt_matches_the_per_column_oracle_bit_for_bit(factors):
    dims = DimensionSignature(*factors)
    na, nb = dims.alice, dims.bob
    r = min(na, nb)
    states = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        states.append(random_pure(dims, rng).amplitudes.reshape(na, nb))
        # maximally entangled across the full rank, rotated: every coefficient ties
        ua, ub = random_unitary(na, rng), random_unitary(nb, rng)
        states.append(ua[:, :r] @ ub[:, :r].T / np.sqrt(r))
        # rank 2 and product
        states.append(ua[:, :2] @ np.diag([0.8, 0.6]) @ ub[:, :2].T)
        states.append(np.outer(ua[:, 0], ub[:, 0]))
    for amp in states:
        psi = PureState(dims, amp.reshape(-1) / np.linalg.norm(amp))
        sd = schmidt(psi)
        p, left, right = _schmidt_oracle(psi)
        for got, want in ((sd.coefficients, p), (sd.left, left), (sd.right, right)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_closest_separable_state_diagonal_in_schmidt_basis():
    psi = random_pure(DimensionSignature.cut(3, 3), 2)
    sd = schmidt(psi)
    sigma = closest_separable_state(sd)
    # explicit oracle: sum_n p_n |l_n x r_n><l_n x r_n|
    want = np.zeros((9, 9), dtype=complex)
    for n, p in enumerate(sd.coefficients):
        v = np.kron(sd.left[:, n], sd.right[:, n])
        want += p * np.outer(v, v.conj())
    assert np.allclose(sigma.matrix, want, atol=1e-12)
    # and psi's projector is dominated by d * sigma
    d = psi.dims.d
    gap = np.linalg.eigvalsh(d * sigma.matrix - psi.projector()).min()
    assert gap >= -1e-10


def test_convex_split_witness_recovers_mixture():
    dims = DimensionSignature.cut(2, 2)
    rho = DensityMatrix(dims, random_density(4, 0))
    mu0 = DensityMatrix(dims, random_density(4, 1))
    d = 4
    sigma = DensityMatrix(dims, rho.matrix / d + (1 - 1 / d) * mu0.matrix)
    mu, min_eig = convex_split_witness(rho, sigma, d)
    assert min_eig >= -1e-12
    assert np.allclose(mu.matrix, mu0.matrix, atol=1e-10)


def test_convex_split_witness_degenerate():
    dims = DimensionSignature.cut(2, 2)
    rho = DensityMatrix(dims, random_density(4, 2))
    with pytest.raises(DegenerateCut):
        convex_split_witness(rho, rho, 1)


def test_smooth_preserves_trace_and_raises_floor():
    dims = DimensionSignature.cut(2, 2)
    psi = random_pure(dims, 3)
    out = smooth(psi.density(), 1e-3)
    assert np.trace(out.matrix) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(out.matrix).min() >= 1e-3 / 4 - 1e-15
    with pytest.raises(ValueError):
        smooth(psi.density(), 0.0)


@pytest.mark.parametrize("dim", [2, 5])
def test_sampler_normalizations(dim):
    h = random_gue_hamiltonian(dim, 0)
    assert np.allclose(h, h.conj().T)
    assert np.abs(np.linalg.eigvalsh(h)).max() == pytest.approx(1.0)
    l = random_ginibre_lindblad(dim, 0)
    assert np.linalg.svd(l, compute_uv=False)[0] == pytest.approx(1.0)
    rho = random_density(dim, 0)
    assert np.real(np.trace(rho)) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() > 0
    u = random_unitary(dim, 0)
    assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_samplers_deterministic_per_seed():
    a = random_pure(DimensionSignature.cut(2, 3), 17)
    b = random_pure(DimensionSignature.cut(2, 3), 17)
    c = random_pure(DimensionSignature.cut(2, 3), 18)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_stacked_samplers_match_one_at_a_time():
    # a list of Generators draws one sample from each in the order one call
    # per generator would, and finishes them as a stack: the same bits
    seeds = (3, 4, 5)
    for draw in (
        lambda seed: random_pure(DimensionSignature(2, 2, 3, 1), seed),
        lambda seed: random_gue_hamiltonian(5, seed),
        lambda seed: random_ginibre_lindblad(5, seed),
        lambda seed: random_density(5, seed),
        lambda seed: random_unitary(5, seed),
    ):
        rngs = [np.random.default_rng(s) for s in seeds]
        stacked = draw(rngs)
        for rng, s, got in zip(rngs, seeds, stacked):
            alone = np.random.default_rng(s)
            want = draw(alone)
            if isinstance(want, PureState):
                want, got = want.amplitudes, got.amplitudes
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == alone.bit_generator.state


def test_haar_mean_reduced_purity_two_qubits():
    # mean purity of a one-qubit marginal of a Haar two-qubit state is 0.8
    dims = DimensionSignature.cut(2, 2)
    vals = []
    for seed in range(4000):
        psi = random_pure(dims, seed)
        m = psi.amplitudes.reshape(2, 2)
        red = m @ m.conj().T
        vals.append(float(np.real(np.trace(red @ red))))
    assert np.mean(vals) == pytest.approx(0.8, abs=0.01)


def test_state_json_roundtrip():
    dims = DimensionSignature(1, 2, 3, 1)
    rho = DensityMatrix(dims, random_density(6, 9))
    obj = state_to_json(rho)
    back = state_from_json(obj)
    assert back.dims == dims
    assert np.array_equal(back.matrix, rho.matrix)
    psi = random_pure(dims, 9)
    back_psi = state_from_json(state_to_json(psi))
    assert isinstance(back_psi, PureState) and back_psi.dims == dims
    assert np.array_equal(back_psi.amplitudes, psi.amplitudes)
    with pytest.raises(ValueError):
        state_from_json({"re": [[1.0]], "im": [[0.0]]})  # missing dims
    with pytest.raises(ValueError):  # re and im of different shapes
        state_from_json({"dims": [1, 2, 2, 1], "re": [0.5, 0.5, 0.5, 0.5], "im": [0.0]})
    for dims in ([1, 2.7, 2, 1], [1, "2", 2, 1], [1, True, 2, 1]):  # dims must be integers
        with pytest.raises(ValueError):
            state_from_json({"dims": dims, "re": [0.5, 0.5, 0.5, 0.5], "im": [0.0] * 4})
    # entries must be JSON numbers: numpy would read "0.5" and booleans as numbers,
    # also mixed into an otherwise numeric list, where the dtype alone looks fine
    with pytest.raises(ValueError):
        state_from_json({"dims": [1, 2, 2, 1], "re": ["0.5", "0.5", "0.5", "0.5"], "im": [0, 0, 0, False]})
    for re in ([True, 2], [1.0, "2"], [[1.0], None]):
        with pytest.raises(ValueError):
            matrix_from_json({"re": re, "im": [0, 0]})
    assert np.array_equal(matrix_from_json({"re": [1, 2.5], "im": [0, -1]}), [1, 2.5 - 1j])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_schmidt_entropy_bounded_by_log_d(seed):
    dims = DimensionSignature.cut(3, 4)
    psi = random_pure(dims, seed)
    assert -1e-12 <= schmidt(psi).entropy() <= np.log(3) + 1e-12

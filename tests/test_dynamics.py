from fractions import Fraction

import numpy as np
import pytest

from entrate import dynamics
from entrate.dynamics import (
    IntegrationError,
    LindbladGenerator,
    _build_step_map,
    _from_coords,
    _horner_degree,
    _integrate,
    _t4_power_coefficients,
    _to_coords,
    apply_generator,
    convergence_order,
    embed_ab,
    evolve,
    evolve_series,
    generator_from_json,
    generator_to_json,
)
from entrate.linalg import ShapeError, tensor
from entrate.rates import _evolve_tight, entangling_rate_fd, mutual_info_rate_fd, surrogate_rate_fd
from entrate.states import (
    DensityMatrix,
    DimensionSignature,
    _hermiticity_error,
    random_density,
    random_ginibre_lindblad,
    random_gue_hamiltonian,
    random_pure,
)


def _expm(m, t=1.0):
    # plain scaling-and-squaring Taylor oracle; fine for the tiny dims here
    a = t * m
    s = max(0, int(np.ceil(np.log2(max(1.0, np.abs(a).sum(axis=1).max())))))
    a = a / (2**s)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


def _full_space_ops(gen):
    # the generator's operators embedded as I_a ⊗ (·) ⊗ I_b on the full space
    n = gen.dims.total
    h = np.zeros((n, n), dtype=complex) if gen.hamiltonian is None else embed_ab(gen.hamiltonian, gen.dims)
    return h, [embed_ab(l, gen.dims) for l in gen.lindblad_ops]


def _liouvillian(gen):
    n = gen.dims.total
    eye = np.eye(n)
    h, ls = _full_space_ops(gen)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in ls:
        ld = l.conj().T
        sup += np.kron(l, l.conj()) - 0.5 * (np.kron(ld @ l, eye) + np.kron(eye, (ld @ l).T))
    return sup


def _full_space_apply(gen):
    # the generator on the full space: the reference for the block kernels
    h_full, ls = _full_space_ops(gen)

    def apply(r):
        out = -1j * (h_full @ r - r @ h_full)
        for l in ls:
            ldl = l.conj().T @ l
            out += l @ r @ l.conj().T - 0.5 * (ldl @ r + r @ ldl)
        return out

    return apply


def _rk4_full(gen, rho, t, steps):
    apply = _full_space_apply(gen)
    h = t / steps
    for _ in range(steps):
        k1 = apply(rho)
        k2 = apply(rho + 0.5 * h * k1)
        k3 = apply(rho + 0.5 * h * k2)
        k4 = apply(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def _forbid_step_map(monkeypatch):
    # every integration after this runs in K-form: building a step map or
    # converting to or from its coordinates fails the test
    def refuse(*args):
        raise AssertionError("a step map was built or its coordinates used")

    for name in ("_build_step_map", "_to_coords", "_from_coords"):
        monkeypatch.setattr(dynamics, name, refuse)


def _through_map(gen, rho, t, steps, m):
    # one segment as the series runs it: rho into the map's real coordinates,
    # one _integrate there, and back
    y = _integrate(gen, _to_coords(rho[None], gen.dims)[0], t, steps, m)
    return _from_coords(y[None], gen.dims)[0]


def _recording_builds(monkeypatch):
    # every step map built from here on, as ((h, steps), map)
    built = []
    build = dynamics._build_step_map

    def recording(k, ls, h, steps):
        built.append(((h, steps), build(k, ls, h, steps)))
        return built[-1][1]

    monkeypatch.setattr(dynamics, "_build_step_map", recording)
    return built


def _random_generator(factors, k, seed):
    rng = np.random.default_rng(seed)
    dims = DimensionSignature(*factors)
    ab = dims.d_A * dims.d_B
    ls = tuple(random_ginibre_lindblad(ab, rng) for _ in range(k))
    return LindbladGenerator(dims, random_gue_hamiltonian(ab, rng), ls), random_density(dims.total, rng)


@pytest.mark.parametrize(
    "factors",
    [(2, 2, 3, 2), (1, 3, 3, 1), (2, 4, 4, 2), (1, 4, 4, 1)],
    ids=["ancillas-map", "no-ancilla-map", "d16-ancillas-map", "kform-fallback"],
)
def test_block_kernels_match_full_space_rk4(factors, monkeypatch):
    # both paths on every shape: K-form without a map, then the step map of
    # this (h, steps) passed in
    gen, rho = _random_generator(factors, 2, seed=sum(factors))
    want = _rk4_full(gen, rho, 0.3, 48)
    with monkeypatch.context() as mp:
        _forbid_step_map(mp)
        kform = _integrate(gen, rho, 0.3, 48)
    m = _build_step_map(gen._k, gen.lindblad_ops, 0.3 / 48, 48)  # 48 = 0b110000 also exercises the powering's multiply
    assert m.dtype == np.float64  # built in the coordinates Re X + Im X
    monkeypatch.setattr(dynamics, "_kform", None)  # the map is applied, not the K-form
    mapped = _through_map(gen, rho, 0.3, 48, m)
    monkeypatch.undo()
    assert np.abs(kform - want).max() <= 1e-13
    assert np.abs(mapped - want).max() <= 1e-13
    assert np.abs(apply_generator(gen, rho) - _full_space_apply(gen)(rho)).max() <= 1e-13


@pytest.mark.parametrize("factors", [(1, 4, 4, 1), (2, 2, 3, 2)], ids=["no-ancilla", "ancillas"])
def test_repeated_segments_switch_to_the_step_map(factors, monkeypatch):
    # a time series builds the map once and applies the same object to every
    # equal segment, each a real block of the chain; the result is the same
    # RK4 polynomial either way, and every state it yields is exactly Hermitian
    gen, rho = _random_generator(factors, 3, seed=11)
    built = _recording_builds(monkeypatch)
    applied = []
    integrate = dynamics._integrate

    def recording(gen, y, t, steps, step_map=None):
        assert y.dtype == np.float64 and y.ndim == 2
        applied.append(step_map)
        return integrate(gen, y, t, steps, step_map)

    monkeypatch.setattr(dynamics, "_integrate", recording)
    mats = np.concatenate([m for m, _ in evolve_series(gen, DensityMatrix(gen.dims, rho), 0.2, 3, 64)])
    assert np.array_equal(_hermiticity_error(mats[1:]), np.zeros(3))
    for prev, out in zip(mats, mats[1:]):
        assert np.abs(out - _rk4_full(gen, prev, 0.2, 64)).max() <= 1e-13
    ((key, m),) = built
    assert key == (0.2 / 64, 64) and len(applied) == 3
    assert all(a is m for a in applied)


def test_new_step_count_rebuilds_the_map():
    gen, rho = _random_generator((2, 2, 2, 1), 1, seed=5)
    coarse = _through_map(gen, rho, 0.5, 4, _build_step_map(gen._k, gen.lindblad_ops, 0.5 / 4, 4))
    fine = _through_map(gen, rho, 0.5, 8, _build_step_map(gen._k, gen.lindblad_ops, 0.5 / 8, 8))
    assert np.abs(coarse - _rk4_full(gen, rho, 0.5, 4)).max() <= 1e-13
    assert np.abs(fine - _rk4_full(gen, rho, 0.5, 8)).max() <= 1e-13
    assert np.abs(coarse - fine).max() > 1e-8


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (1, 3, 3, 1), (2, 2, 3, 1)])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("steps", [1, 48])
def test_step_map_is_kept_in_re_plus_im_coordinates(factors, k, steps):
    # oracle: S from np.kron, M = T4(hS)^steps by matrix_power, and the
    # coordinates X -> Re X + Im X as T = ((1 - i) I + (1 + i) P)/2 on vec(X)
    gen, _ = _random_generator(factors, k, seed=30 + k)
    ab = gen.dims.d_A * gen.dims.d_B
    eye = np.eye(ab)
    s = -1j * np.kron(gen._k, eye) + 1j * np.kron(eye, gen._k.conj())
    for l in gen.lindblad_ops:
        s += np.kron(l, l.conj())
    a = (0.3 / steps) * s
    t4 = np.eye(ab * ab) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    p = np.eye(ab * ab)[np.arange(ab * ab).reshape(ab, ab).T.reshape(-1)]
    t = ((1 - 1j) * np.eye(ab * ab) + (1 + 1j) * p) / 2
    want = t @ np.linalg.matrix_power(t4, steps) @ np.linalg.inv(t)
    got = _build_step_map(gen._k, gen.lindblad_ops, 0.3 / steps, steps)
    assert np.abs(want.imag).max() <= 1e-13
    assert np.abs(got - want.real).max() <= 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "t, steps", [(1e-3, 64), (1e-5, 64), (0.3, 48)], ids=["dt1e-3", "dt1e-5", "t0.3-chunks"]
)
def test_kform_horner_matches_full_space_rk4(k, t, steps, monkeypatch):
    # one chunk of m = steps when t beta <= 1 (the theorem2 probes), several
    # chunks at t = 0.3; both are the RK4 polynomial T4(hS)^steps
    gen, rho = _random_generator((1, 4, 4, 1), k, seed=20 + k)
    _forbid_step_map(monkeypatch)
    got = _integrate(gen, rho, t, steps)
    assert (t * gen._norm_bound <= 1.0) == (t < 0.3)
    assert np.abs(got - _rk4_full(gen, rho, t, steps)).max() <= 1e-13


def test_kform_horner_long_horizons_stay_chunked(monkeypatch):
    # t beta of 50-100: one chunk would sum terms as large as e^(t beta) and
    # lose digits to cancellation; chunks of m h beta <= 1 do not
    _forbid_step_map(monkeypatch)
    for factors, k, t, steps in [((1, 2, 2, 1), 1, 20.0, 400), ((2, 2, 2, 1), 2, 10.0, 256)]:
        gen, rho = _random_generator(factors, k, seed=40 + k)
        assert t * gen._norm_bound > 50
        assert np.abs(_integrate(gen, rho, t, steps) - _rk4_full(gen, rho, t, steps)).max() <= 1e-13


def _scaled(gen, s):
    # the generator with H and every jump operator scaled by s
    return LindbladGenerator(gen.dims, s * gen.hamiltonian, tuple(s * l for l in gen.lindblad_ops))


@pytest.mark.parametrize("t, steps", [(1e-3, 64), (0.3, 48)], ids=["one-chunk", "chunks-differ"])
def test_a_stack_integrates_as_its_stacks_of_one(t, steps):
    # five generators with 0-3 jump operators and norms up to 16x apart:
    # their Horner degrees differ, and at t = 0.3 so do their chunk sizes.
    # Each state of the stack keeps the bits of its stack of one.  A stacked
    # generator application keeps the values: a zero jump operator's slot
    # adds +0, which turns an exact -0 (a diagonal's imaginary part) into +0
    gens, rhos = [], []
    for i, (k, s) in enumerate([(0, 1.0), (3, 0.5), (1, 8.0), (2, 2.0), (3, 4.0)]):
        gen, rho = _random_generator((2, 2, 2, 1), k, seed=60 + i)
        gens.append(_scaled(gen, s))
        rhos.append(rho)
    hbs = [t / steps * g._norm_bound for g in gens]
    chunks = [steps if hb * steps <= 1.0 else max(1, int(1.0 / hb)) for hb in hbs]
    assert len({_horner_degree(c * hb, 4 * c) for c, hb in zip(chunks, hbs)}) > 1
    assert (len(set(chunks)) > 1) == (t > 1e-3)
    stacked = _integrate(gens, np.stack(rhos), t, steps)
    applied = apply_generator(gens, np.stack(rhos))
    for i, (gen, rho) in enumerate(zip(gens, rhos)):
        assert stacked[i].tobytes() == _integrate(gen, rho, t, steps).tobytes(), i
        assert np.array_equal(applied[i], apply_generator(gen, rho)), i


def test_kform_without_generator_returns_rho(monkeypatch):
    gen = LindbladGenerator(DimensionSignature(1, 4, 4, 1))  # S = 0, beta = 0
    rho = random_density(16, 4)
    _forbid_step_map(monkeypatch)
    got = _integrate(gen, rho, 0.5, 64)
    assert gen._norm_bound == 0.0
    assert np.array_equal(got, rho)


def test_t4_power_coefficients_match_exact_expansion():
    t4 = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    # with m h beta <= 1 the kept degree is at most 20; below 5 steps it is 4m
    assert _horner_degree(1.0, 10**6) == 20
    for m in (1, 2, 3, 64):
        exact = [Fraction(1)]
        for _ in range(m):
            exact = [sum(exact[i] * t4[j - i] for i in range(len(exact)) if 0 <= j - i <= 4) for j in range(len(exact) + 4)]
        degree = min(4 * m, 20)
        got = _t4_power_coefficients(m, degree)
        assert len(got) == degree + 1
        assert max(abs(float((Fraction(c) - e) / e)) for c, e in zip(got, exact)) <= 1e-15, m


def test_simulate_shape_builds_the_map_and_one_offs_stay_in_kform(monkeypatch):
    # a time series builds exactly one map, for its (h, steps), and every
    # segment applies it; the one-off integrations of evolve, the rate
    # probes and convergence_order build none.  d_AB = 4, 9 and 16, the last
    # with the ancillas of the ``entrate simulate`` time series, and 2 2 3 1
    # with d_a != d_b; at d_AB = 32 the series builds none either.  The
    # map's product returns an exactly Hermitian state
    built = _recording_builds(monkeypatch)
    for factors in ((1, 2, 2, 1), (1, 3, 3, 1), (2, 2, 3, 1), (2, 4, 4, 2)):
        gen, rho = _random_generator(factors, 3, seed=1)
        built.clear()
        _, first, second = np.concatenate([m for m, _ in evolve_series(gen, DensityMatrix(gen.dims, rho), 0.02, 2, 32)])
        ((key, m),) = built
        assert key == (0.02 / 32, 32) and m.dtype == np.float64
        assert np.array_equal(first, _through_map(gen, rho, 0.02, 32, m)), factors
        assert np.abs(second - _rk4_full(gen, first, 0.02, 32)).max() <= 1e-13, factors
        for out in (first, second):
            assert np.array_equal(out, out.conj().T), factors
    # above d_AB = 16 the build costs more than the segments it replaces
    gen, rho = _random_generator((1, 4, 8, 1), 3, seed=1)
    built.clear()
    _, out = np.concatenate([m for m, _ in evolve_series(gen, DensityMatrix(gen.dims, rho), 0.02, 1, 32)])
    assert not built
    assert np.abs(out - _rk4_full(gen, rho, 0.02, 32)).max() <= 1e-13
    _forbid_step_map(monkeypatch)
    for factors in ((1, 2, 2, 1), (1, 3, 3, 1), (1, 4, 4, 1)):
        for k in range(4):
            gen, rho = _random_generator(factors, k, seed=2)
            state = DensityMatrix(gen.dims, rho)
            _integrate(gen, rho, 1e-3, 64)
            evolve(gen, state, 0.02, 32)
            _evolve_tight(gen, state, 1e-3)
            convergence_order(gen, state, 0.5, 8)
            mutual_info_rate_fd(state, gen, 1e-4)


@pytest.mark.parametrize("factors", [(1, 2, 2, 1), (2, 2, 2, 1)], ids=["2x2", "ancillas"])
def test_probes_do_not_depend_on_what_ran_before(factors):
    # a probe is a function of its inputs: a plain evolve and a time series
    # over the probe's own (t, steps), run on the same generator first,
    # leave it bit for bit equal to its value on a fresh generator
    gen, _ = _random_generator(factors, 1, seed=7)
    psi = random_pure(gen.dims, 8)
    rho = psi.density()
    probes = [
        (lambda g: surrogate_rate_fd(psi, g, 1e-3), [(1e-3, 64)]),
        (lambda g: entangling_rate_fd(psi, g, 1e-3).gamma_fd, [(1e-3, 64)]),
        (lambda g: mutual_info_rate_fd(rho, g, 1e-3), [(5e-4, 64), (1e-3, 64)]),
        (lambda g: convergence_order(g, rho, 0.5, 8), [(0.5, 128), (0.5, 8)]),
    ]
    for i, (probe, runs) in enumerate(probes):
        used = LindbladGenerator(gen.dims, gen.hamiltonian, gen.lindblad_ops)
        for t, steps in runs:
            evolve(used, rho, t, steps)
            for _ in evolve_series(used, rho, t, 1, steps):
                pass
        assert probe(used) == probe(LindbladGenerator(gen.dims, gen.hamiltonian, gen.lindblad_ops)), i


def test_convergence_order_in_kform(monkeypatch):
    gen, _ = _random_generator((1, 4, 4, 1), 1, seed=12)
    rho0 = random_pure(gen.dims, 13).density()
    _forbid_step_map(monkeypatch)  # every integration runs in K-form
    order = convergence_order(gen, rho0, 0.5, 8)
    assert order is not None and order >= 3.7


def test_convergence_order_with_ancillas():
    gen, _ = _random_generator((2, 2, 2, 2), 2, seed=9)
    rho0 = random_pure(gen.dims, 10).density()
    order = convergence_order(gen, rho0, 0.5, 8)
    assert order is not None and order >= 3.7
    for t in (0.0, np.inf, np.nan, True, "1e-3"):  # a bool or a string is not a time
        with pytest.raises(ValueError, match="finite and > 0"):
            convergence_order(gen, rho0, t, 8)


def test_generator_validates_inputs():
    dims = DimensionSignature.cut(2, 2)
    with pytest.raises(ValueError):
        LindbladGenerator(dims, np.array([[0.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ShapeError):
        LindbladGenerator(dims, np.eye(3))  # wrong block size
    with pytest.raises(ShapeError):
        LindbladGenerator(dims, None, (np.eye(3),))


def test_embed_ab_acts_trivially_on_ancillas():
    dims = DimensionSignature(2, 2, 3, 2)
    op = np.arange(36, dtype=complex).reshape(6, 6)
    full = embed_ab(op, dims)
    assert np.allclose(full, tensor(np.eye(2), op, np.eye(2)))
    with pytest.raises(ShapeError):
        embed_ab(np.eye(5), dims)


def test_apply_generator_unitary_part():
    dims = DimensionSignature.cut(2, 1)
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    gen = LindbladGenerator(dims, h)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = apply_generator(gen, rho)
    assert np.allclose(out, -1j * (h @ rho - rho @ h))


def test_amplitude_damping_closed_form():
    # L = sqrt(g)|0><1| : excited population decays as exp(-g t)
    g = 0.7
    dims = DimensionSignature.cut(2, 1)
    l = np.sqrt(g) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = LindbladGenerator(dims, None, (l,))
    rho0 = DensityMatrix(dims, np.diag([0.0, 1.0]).astype(complex))
    for t in (0.3, 1.0, 2.5):
        out = evolve(gen, rho0, t, steps=400)
        assert out.matrix[1, 1].real == pytest.approx(np.exp(-g * t), abs=1e-9)
        assert out.matrix[0, 0].real == pytest.approx(1 - np.exp(-g * t), abs=1e-9)


def test_evolve_matches_exponentiated_liouvillian():
    dims = DimensionSignature.cut(2, 2)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    l = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gen = LindbladGenerator(dims, h, (l / np.linalg.norm(l, 2),))
    rho0 = DensityMatrix(dims, random_density(4, 1))
    t = 0.8
    want = (_expm(_liouvillian(gen), t) @ rho0.matrix.reshape(-1)).reshape(4, 4)
    got = evolve(gen, rho0, t, steps=800)
    assert np.allclose(got.matrix, want, atol=1e-9)


def test_evolve_zero_time_is_identity():
    dims = DimensionSignature.cut(2, 2)
    rho = random_pure(dims, 5).density()
    gen = LindbladGenerator(dims)
    assert evolve(gen, rho, 0.0) is rho
    for t in (-1.0, np.inf, np.nan, True, "1e-3"):  # True used to integrate to t = 1
        with pytest.raises(ValueError, match="finite and >= 0"):
            evolve(gen, rho, t)
    # a step count is a positive int: not 0, -1 (which hung convergence_order),
    # 2.5 or True
    for steps in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="positive integer"):
            evolve(gen, rho, 1.0, steps=steps)
        with pytest.raises(ValueError, match="positive integer"):
            convergence_order(gen, rho, 1.0, steps)


@pytest.mark.parametrize("factors", [(2, 2, 2, 1), (1, 4, 8, 1)], ids=["map", "kform"])
def test_evolve_series_matches_repeated_evolve(factors, monkeypatch):
    # the series in chunks of 3 states is the chain of single integrations
    # (through the step map at d_AB = 4, in K-form at 32), state for state
    # and spectrum for spectrum, bit for bit; in K-form each link is evolve,
    # through the map it is one _integrate of the real block of the link before
    gen, rho = _random_generator(factors, 2, seed=3)
    state = DensityMatrix(gen.dims, rho)
    monkeypatch.setattr(dynamics, "SERIES_CHUNK_BYTES", 3 * 16 * gen.dims.total**2)
    chunks = list(evolve_series(gen, state, 0.05, 7, 16))
    assert [len(mats) for mats, _ in chunks] == [1, 3, 3, 1]
    mats = np.concatenate([mats for mats, _ in chunks])
    lams = np.concatenate([lam for _, lam in chunks])
    step_map = None
    if gen.dims.d_A * gen.dims.d_B <= dynamics.STEP_MAP_MAX_AB:
        step_map = _build_step_map(gen._k, gen.lindblad_ops, 0.05 / 16, 16)
    want = state
    y = rho if step_map is None else _to_coords(rho[None], gen.dims)[0]
    for i in range(8):
        if i:
            y = _integrate(gen, y, 0.05, 16, step_map)
            if step_map is None:
                m = y
                assert np.array_equal(m, evolve(gen, want, 0.05, 16).matrix), i
            else:
                m = _from_coords(y[None], gen.dims)[0]
            want = DensityMatrix(gen.dims, m)
        assert np.array_equal(mats[i], want.matrix) and np.array_equal(lams[i], want.spectrum), i


def test_evolve_series_stops_at_a_state_that_is_not_hermitian(monkeypatch):
    # the states before it are handed out first; it does not drift, so it is
    # a ValueError and no retry.  Only the K-form series checks Hermiticity:
    # the step map's states are Hermitian by construction
    monkeypatch.setattr(dynamics, "STEP_MAP_MAX_AB", 0)
    dims = DimensionSignature.cut(2, 1)
    gen = LindbladGenerator(dims, None, ())
    rho0 = DensityMatrix(dims, np.diag([0.5, 0.5]).astype(complex))
    broken = np.array([[0.5, 1e-3], [0.0, 0.5]], dtype=complex)  # |M - M†| = 1e-3
    calls = []

    def integrate(gen, rho, t, steps, step_map=None):
        calls.append(steps)
        return broken.copy() if len(calls) == 3 else rho.copy()

    monkeypatch.setattr(dynamics, "_integrate", integrate)
    seen = []
    with pytest.raises(ValueError, match="segment 3 not Hermitian"):
        for mats, _ in evolve_series(gen, rho0, 0.1, 4, 8):
            seen.append(len(mats))
    assert seen == [1, 2] and calls == [8] * 4


def test_evolve_series_stops_at_a_block_that_is_not_finite(monkeypatch):
    # on the step map's path the chunk check is the finiteness of the real
    # blocks: a NaN planted in segment 3 hands out the states before it, then
    # raises; segment 4 is computed from it but never converted
    gen, rho = _random_generator((2, 2, 2, 1), 2, seed=13)
    integrate, calls = dynamics._integrate, []

    def planting(gen, y, t, steps, step_map=None):
        out = integrate(gen, y, t, steps, step_map)
        calls.append(steps)
        if len(calls) == 3:
            out[5, 1] = np.nan
        return out

    monkeypatch.setattr(dynamics, "_integrate", planting)
    seen = []
    with pytest.raises(ValueError, match="segment 3 not finite"):
        for mats, lam in evolve_series(gen, DensityMatrix(gen.dims, rho), 0.1, 4, 8):
            assert np.isfinite(mats).all() and np.isfinite(lam).all()
            seen.append(len(mats))
    assert seen == [1, 2] and calls == [8] * 4


def test_evolve_dims_mismatch():
    gen = LindbladGenerator(DimensionSignature.cut(2, 2))
    rho = random_pure(DimensionSignature.cut(2, 3), 0).density()
    with pytest.raises(ShapeError):
        evolve(gen, rho, 0.1)
    # same total dimension, different factors
    gen = LindbladGenerator(DimensionSignature(1, 2, 2, 1), None, (np.diag([1.0, 0.0, 0.0, 0.0]),))
    rho = random_pure(DimensionSignature(2, 2, 1, 1), 0).density()
    for run in (evolve, convergence_order):
        with pytest.raises(ShapeError, match="different spaces"):
            run(gen, rho, 0.1, 8)


def test_evolve_reports_drift_with_step_suggestion():
    # one giant step of strong damping drives the spectrum far negative
    dims = DimensionSignature.cut(2, 1)
    l = 3.0 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = LindbladGenerator(dims, None, (l,))
    rho0 = DensityMatrix(dims, np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(IntegrationError) as exc:
        evolve(gen, rho0, 5.0, steps=1)
    assert exc.value.suggested_steps >= 2
    assert exc.value.drift > 1e-8


def test_drift_is_reported_before_hermiticity(monkeypatch):
    # a result that drifts and is also non-Hermitian is an IntegrationError,
    # so the CLI retries it with more steps instead of rejecting the state
    dims = DimensionSignature.cut(2, 1)
    gen = LindbladGenerator(dims, None, ())
    rho0 = DensityMatrix(dims, np.diag([0.5, 0.5]).astype(complex))
    broken = np.array([[0.75, 1e-3], [0.0, 0.5]], dtype=complex)  # trace 1.25, |M - M†| = 1e-3
    monkeypatch.setattr(dynamics, "_integrate", lambda gen, rho, t, steps: broken.copy())
    with pytest.raises(IntegrationError) as exc:
        evolve(gen, rho0, 0.1, steps=4)
    assert exc.value.drift == pytest.approx(0.25)
    assert exc.value.suggested_steps >= 8


def test_convergence_order_is_four():
    dims = DimensionSignature.cut(2, 2)
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    l = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gen = LindbladGenerator(dims, h, (0.5 * l / np.linalg.norm(l, 2),))
    rho0 = random_pure(dims, 4).density()
    order = convergence_order(gen, rho0, 0.5, 16)
    assert order is not None
    assert order == pytest.approx(4.0, abs=0.3)


def test_convergence_order_degenerate_returns_none():
    dims = DimensionSignature.cut(2, 2)
    gen = LindbladGenerator(dims)  # nothing moves
    rho0 = random_pure(dims, 6).density()
    assert convergence_order(gen, rho0, 0.5, 8) is None


def test_generator_json_roundtrip():
    dims = DimensionSignature(2, 2, 2, 1)
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    l = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gen = LindbladGenerator(dims, h, (l,))
    back = generator_from_json(generator_to_json(gen))
    assert back.dims == dims
    assert np.array_equal(back.hamiltonian, gen.hamiltonian)
    assert len(back.lindblad_ops) == 1
    assert np.array_equal(back.lindblad_ops[0], l)

    no_h = generator_from_json(generator_to_json(LindbladGenerator(dims)))
    assert no_h.hamiltonian is None
    assert no_h.lindblad_ops == ()
    with pytest.raises(ValueError):
        generator_from_json({"H": None})

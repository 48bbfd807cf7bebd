import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate.linalg import (
    LOG_FLOOR,
    NotPositive,
    ShapeError,
    as_matrix,
    dag,
    eigh,
    hermitize,
    matrix_log_on_support,
    operator_norm,
    partial_trace,
    singular_values,
    tensor,
    trace_norm,
)


def _rand_herm(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(g)


def test_as_matrix_rejects_non_square():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(4))


def test_as_matrix_rejects_nan():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        as_matrix(m)


def test_eigh_descending_and_reconstructs():
    m = _rand_herm(6, 0)
    dec = eigh(m)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert np.allclose(dec.reconstruct(), m, atol=1e-12)


def test_eigh_matches_power_iteration_top_eigenvalue():
    # oracle: dominant eigenvalue of a PSD matrix by power iteration
    m = _rand_herm(5, 3)
    m = m @ m  # PSD
    v = np.ones(5, dtype=complex) / np.sqrt(5)
    for _ in range(3000):
        v = m @ v
        v /= np.linalg.norm(v)
    top = float(np.real(np.vdot(v, m @ v)))
    assert eigh(m).eigenvalues[0] == pytest.approx(top, rel=1e-10)


def test_matrix_log_on_support_inverts_exp():
    h = 0.1 * _rand_herm(4, 1)
    lam, vec = np.linalg.eigh(h)
    m = (vec * np.exp(lam)) @ dag(vec)
    assert np.allclose(matrix_log_on_support(m), hermitize(h), atol=1e-12)


def test_matrix_log_floors_null_directions():
    m = np.diag([1.0, 0.0]).astype(complex)
    lg = matrix_log_on_support(m)
    assert lg[1, 1] == pytest.approx(np.log(LOG_FLOOR))
    assert lg[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_matrix_log_rejects_negative():
    with pytest.raises(NotPositive):
        matrix_log_on_support(np.diag([1.0, -0.5]).astype(complex))


def test_singular_values_known_matrix():
    # [[3,0],[4,0]] has singular values (5, 0)
    m = np.array([[3.0, 0.0], [4.0, 0.0]], dtype=complex)
    s = singular_values(m)
    assert s[0] == pytest.approx(5.0)
    assert s[1] == pytest.approx(0.0, abs=1e-12)
    # a rotated spread spectrum: the small values keep their relative accuracy
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    spread = np.array([1.0, 1e-3, 1e-7, 1e-9])
    s = singular_values(u @ np.diag(spread) @ dag(v))
    assert np.all(np.abs(s - spread) <= 1e-6 * spread)


def test_operator_and_trace_norm_diagonal():
    m = np.diag([3.0, -4.0, 1.0]).astype(complex)
    assert operator_norm(m) == pytest.approx(4.0)
    assert trace_norm(m) == pytest.approx(8.0)


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert trace_norm(q @ m @ dag(q)) == pytest.approx(trace_norm(m), rel=1e-10)


def test_tensor_kron_order():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.eye(3)
    t = tensor(a, b)
    assert t.shape == (6, 6)
    assert np.allclose(t, np.kron(a, b))
    with pytest.raises(ShapeError):
        tensor()


def test_partial_trace_explicit_sum():
    # oracle: index-level contraction on a random two-factor operator
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    got = partial_trace(m, (2, 3), keep=(0,))
    want = np.zeros((2, 2), dtype=complex)
    t = m.reshape(2, 3, 2, 3)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i, j] += t[i, k, j, k]
    assert np.allclose(got, want, atol=1e-13)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(6)
    a = _rand_herm(2, 7)
    b = _rand_herm(3, 8)
    b /= np.real(np.trace(b))
    m = np.kron(a, b)
    assert np.allclose(partial_trace(m, (2, 3), keep=(0,)), a, atol=1e-12)
    assert np.allclose(partial_trace(np.kron(a, b), (2, 3), keep=(1,)), b * np.real(np.trace(a)), atol=1e-12)


def test_partial_trace_validates():
    with pytest.raises(ShapeError):
        partial_trace(np.eye(6), (2, 2), keep=(0,))  # 2*2 != 6
    with pytest.raises(ShapeError):
        partial_trace(np.eye(6), (2, 3), keep=(2,))
    with pytest.raises(ShapeError):
        partial_trace(np.eye(6), (2, 3), keep=())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_operator_norm_dominated_by_trace_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert operator_norm(m) <= trace_norm(m) + 1e-10
    assert trace_norm(m) <= n * operator_norm(m) + 1e-10

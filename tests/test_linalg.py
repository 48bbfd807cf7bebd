import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate.linalg import (
    NotPositive,
    NumericalFailure,
    ShapeError,
    _log_on_support,
    as_matrix,
    dag,
    hermitize,
    matrix_log_on_support,
    operator_norm,
    partial_trace,
    singular_values,
    tensor,
    trace_norm,
)
from entrate.states import DensityMatrix, DimensionSignature


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


def test_matrix_log_on_support_inverts_exp():
    h = 0.1 * _rand_herm(4, 1)
    lam, vec = np.linalg.eigh(h)
    m = (vec * np.exp(lam)) @ dag(vec)
    assert np.allclose(matrix_log_on_support(m), hermitize(h), atol=1e-12)


def test_matrix_log_reads_zero_off_the_support():
    lg = matrix_log_on_support(np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(lg, np.zeros((2, 2)))
    # a rank-deficient state: the log of its matrix is the one log of its
    # kept eigendecomposition, bit for bit
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    rho = DensityMatrix(DimensionSignature.cut(2, 3), (q[:, :4] * [0.4, 0.3, 0.2, 0.1]) @ dag(q[:, :4]))
    assert np.array_equal(matrix_log_on_support(rho.matrix), _log_on_support(*rho.eigh()))


def test_matrix_log_rejects_negative():
    with pytest.raises(NotPositive):
        matrix_log_on_support(np.diag([1.0, -0.5]).astype(complex))


def test_matrix_log_reports_an_eigensolver_failure(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    m = np.array([[1.0, 3.0], [4.0, 2.0]], dtype=complex)
    with pytest.raises(NumericalFailure, match="did not converge") as info:
        matrix_log_on_support(m)
    # the residual is the off-diagonal norm of the Hermitian part
    assert info.value.residual == pytest.approx(np.sqrt(2) * 3.5)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


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

"""Kernels, SMO training fixtures, and KKT certification."""
import math
import tracemalloc

import numpy as np
import pytest

from microstrat.errors import DataError, NonConvergenceError
from microstrat.svm import (
    Kernel,
    Scaler,
    SvmModel,
    decision_value,
    kernel_matrix,
    predict,
    train_smo,
)

SEPARABLE_X = np.array([[2.0, 2.0], [3.0, 3.0], [-2.0, -2.0], [-3.0, -3.0]])
SEPARABLE_Y = np.array([1, 1, -1, -1])
XOR_X = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
XOR_Y = np.array([1, 1, -1, -1])


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def test_rbf_kernel_fixed_points():
    x = np.array([[0.3, -1.2, 4.0]])
    assert kernel_matrix(x, x, Kernel.rbf(0.7))[0, 0] == 1.0
    # squared distance of exactly 2 sigma^2, and one of 100 sigma^2
    a = np.zeros((1, 2))
    b = np.array([[math.sqrt(2.0) * 0.5, 0.0], [10.0 * 0.5, 0.0]])
    near, far = kernel_matrix(a, b, Kernel.rbf(0.5))[0]
    assert near == pytest.approx(math.exp(-1.0), abs=1e-6)
    assert 0.0 <= far < math.exp(-49.0)


def test_rbf_kernel_rejects_bad_inputs():
    with pytest.raises(DataError):
        kernel_matrix(np.zeros((1, 2)), np.zeros((1, 3)), Kernel.rbf(1.0))
    with pytest.raises(DataError):
        Kernel.rbf(0.0)


def test_kernel_matrix_is_symmetric_psd():
    # train_smo reads K's rows in place of its columns, so K must equal K.T
    # bit for bit, up to the engine's 1,500-row window of 11 features
    rng = np.random.default_rng(41)
    for X in (rng.standard_normal((20, 3)), rng.standard_normal((1500, 11))):
        for kernel in (Kernel.linear(), Kernel.rbf(0.8)):
            K = kernel_matrix(X, X, kernel)
            assert np.array_equal(K, K.T)
            assert np.linalg.eigvalsh(K).min() >= -1e-8


def _rbf_three_temporaries(A, B, sigma):
    # the kernel as it was written before it was finished in one buffer
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * (A @ B.T))
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * sigma * sigma))


def test_rbf_kernel_is_bit_equal_to_the_three_temporary_formula():
    rng = np.random.default_rng(7)
    shapes = [(1, 1, 3), (1, 40, 2), (40, 1, 2), (30, 30, 3), (257, 90, 11),
              (1500, 1500, 11), (3, 40000, 2)]  # the last spans row blocks
    for n, m, d in shapes:
        A, B = rng.standard_normal((n, d)), rng.standard_normal((m, d))
        for sigma in (0.1, 0.8, 3.0):
            for right in (B, A):  # `right is A` takes the symmetric product
                K = kernel_matrix(A, right, Kernel.rbf(sigma))
                ref = _rbf_three_temporaries(A, right, sigma)
                assert K.tobytes() == ref.tobytes(), (n, m, d, sigma)


def test_rbf_kernel_allocates_about_one_result_array():
    rng = np.random.default_rng(8)
    for n, m in ((1500, 1500), (1200, 700)):
        A, B = rng.standard_normal((n, 11)), rng.standard_normal((m, 11))
        tracemalloc.start()
        try:
            kernel_matrix(A, B, Kernel.rbf(0.8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * m * 8, (n, m, peak)


def test_kernel_validation():
    with pytest.raises(DataError):
        Kernel("rbf")
    with pytest.raises(DataError):
        Kernel("poly")
    with pytest.raises(DataError):
        Kernel("linear", sigma=1.0)


# ---------------------------------------------------------------------------
# Training fixtures
# ---------------------------------------------------------------------------


def test_separable_clusters_linear_kernel():
    model = train_smo(SEPARABLE_X, SEPARABLE_Y, c=10.0, kernel=Kernel.linear())
    preds = predict(model, SEPARABLE_X)
    np.testing.assert_array_equal(preds, SEPARABLE_Y)
    # maximal margin puts the hyperplane through the origin for this geometry
    assert abs(model.bias) < 0.05
    assert model.report.max_kkt_violation <= model.training_tol


def test_xor_with_rbf_kernel():
    model = train_smo(XOR_X, XOR_Y, c=100.0, kernel=Kernel.rbf(1.0))
    np.testing.assert_array_equal(predict(model, XOR_X), XOR_Y)
    # a +1 support vector classifies as +1
    pos = model.support_vectors[model.dual_coefs > 0]
    assert len(pos) > 0
    assert predict(model, pos[0]) == 1


def test_single_class_is_rejected():
    with pytest.raises(DataError):
        train_smo(SEPARABLE_X, np.ones(4), c=1.0)


def test_bad_labels_are_rejected():
    with pytest.raises(DataError):
        train_smo(SEPARABLE_X, np.array([1, 0, -1, 1]), c=1.0)


def test_non_convergence_reports_violations():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((60, 2))
    y = np.where(rng.standard_normal(60) > 0, 1, -1)
    with pytest.raises(NonConvergenceError, match="violate"):
        train_smo(X, y, c=1.0, kernel=Kernel.rbf(1.0), max_iter=2)


def test_non_convergence_message_is_pinned():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((60, 2))
    y = np.where(rng.standard_normal(60) > 0, 1, -1)
    with pytest.raises(NonConvergenceError) as info:
        train_smo(X, y, c=1.0, kernel=Kernel.rbf(1.0), max_iter=2)
    assert str(info.value) == ("SMO failed to converge in 2 iterations; 60 points "
                               "still violate the pairing tolerance (gap 2.319e+00)")


# ---------------------------------------------------------------------------
# KKT certification and dual monotonicity
# ---------------------------------------------------------------------------


def test_kkt_residuals_within_tol_on_random_problems():
    rng = np.random.default_rng(43)
    tol = 1e-3
    for trial in range(50):
        n = int(rng.integers(10, 60))
        X = rng.standard_normal((n, 3))
        w = rng.standard_normal(3)
        y = np.where(X @ w + 0.3 * rng.standard_normal(n) > 0, 1, -1)
        if np.all(y == y[0]):
            y[0] = -y[0]
        kernel = Kernel.rbf(1.5) if trial % 2 else Kernel.linear()
        model = train_smo(X, y, c=1.0, kernel=kernel, tol=tol)
        assert model.report.gap <= tol
        assert model.report.max_kkt_violation <= tol


def test_dual_objective_is_monotone():
    rng = np.random.default_rng(44)
    X = rng.standard_normal((80, 4))
    y = np.where(X[:, 0] + 0.5 * rng.standard_normal(80) > 0, 1, -1)
    model = train_smo(X, y, c=2.0, kernel=Kernel.rbf(1.0))
    log = np.array(model.report.objective_log)
    assert len(log) >= 2
    assert np.all(np.diff(log) >= -1e-10)


def test_equality_constraint_holds():
    model = train_smo(SEPARABLE_X, SEPARABLE_Y, c=10.0, kernel=Kernel.linear())
    assert abs(float(model.dual_coefs.sum())) <= model.training_tol


def _smo_recomputing_the_sets(X, y, c, kernel, tol):
    # the SMO loop as it was written before it updated the working sets in
    # place: both sets are rebuilt from alpha at every step
    K = kernel_matrix(X, X, kernel)
    n = X.shape[0]
    alpha, G = np.zeros(n), -np.ones(n)
    beps = 1e-12 * max(1.0, c)
    objective_log, iterations = [], 0
    while True:
        yg = -y * G
        up_vals = np.where(((y > 0) & (alpha < c - beps)) | ((y < 0) & (alpha > beps)),
                           yg, -np.inf)
        low_vals = np.where(((y < 0) & (alpha < c - beps)) | ((y > 0) & (alpha > beps)),
                            yg, np.inf)
        i, j = int(np.argmax(up_vals)), int(np.argmin(low_vals))
        if up_vals[i] == -np.inf or low_vals[j] == np.inf:
            break
        gap = float(up_vals[i] - low_vals[j])
        if gap <= tol:
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
        t = min(gap / eta, cap_i, cap_j)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        if t == cap_i:
            alpha[i] = c if y[i] > 0 else 0.0
        if t == cap_j:
            alpha[j] = 0.0 if y[j] > 0 else c
        G += y * t * (K[i] - K[j])
        iterations += 1
        objective_log.append(0.5 * float(alpha.sum() - alpha @ G))
    free = (alpha > beps) & (alpha < c - beps)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        bias = float((up_vals.max() + low_vals.min()) / 2.0)
    keep = alpha > 1e-10
    return alpha[keep] * y[keep], bias, iterations, tuple(objective_log)


def test_smo_matches_the_loop_that_rebuilds_its_working_sets():
    rng = np.random.default_rng(47)
    for trial in range(24):
        n = int(rng.integers(8, 120))
        X = rng.standard_normal((n, 3))
        y = np.where(X[:, 0] + rng.standard_normal(n) > 0, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        kernel = Kernel.rbf(0.7) if trial % 2 else Kernel.linear()
        # a small C leaves most alphas at the bound
        c = (0.01, 1.0, 4.0)[trial % 3]
        model = train_smo(X, y, c=c, kernel=kernel)
        coefs, bias, iterations, log = _smo_recomputing_the_sets(X, y, c, kernel,
                                                                 model.training_tol)
        assert model.dual_coefs.tobytes() == coefs.tobytes(), trial
        assert model.bias == bias, trial
        assert model.report.iterations == iterations, trial
        assert model.report.objective_log == log, trial
        if c == 0.01:
            assert np.mean(np.abs(model.dual_coefs) >= c * (1 - 1e-9)) > 0.5, trial


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def test_prediction_invariant_to_support_vector_order():
    model = train_smo(XOR_X, XOR_Y, c=100.0, kernel=Kernel.rbf(1.0))
    perm = np.arange(model.support_vectors.shape[0])[::-1]
    shuffled = SvmModel(support_vectors=model.support_vectors[perm],
                        dual_coefs=model.dual_coefs[perm], bias=model.bias,
                        kernel=model.kernel, c=model.c,
                        training_tol=model.training_tol)
    grid = np.random.default_rng(45).standard_normal((50, 2))
    np.testing.assert_allclose(decision_value(model, grid),
                               decision_value(shuffled, grid), atol=1e-12)


def test_predict_validates_dimension():
    model = train_smo(SEPARABLE_X, SEPARABLE_Y, c=1.0)
    with pytest.raises(DataError):
        predict(model, np.zeros(3))


def test_model_without_support_vectors_cannot_exist():
    with pytest.raises(DataError):
        SvmModel(support_vectors=np.empty((0, 2)), dual_coefs=np.empty(0),
                 bias=0.0, kernel=Kernel.linear(), c=1.0, training_tol=1e-3)


def test_zero_decision_value_maps_to_plus_one():
    model = SvmModel(support_vectors=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                     dual_coefs=np.array([0.5, -0.5]), bias=0.0,
                     kernel=Kernel.linear(), c=1.0, training_tol=1e-3)
    assert decision_value(model, np.array([0.0, 5.0])) == 0.0
    assert predict(model, np.array([0.0, 5.0])) == 1


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_scaler_standardizes_and_keeps_constant_columns():
    rng = np.random.default_rng(46)
    X = np.column_stack([rng.standard_normal(200) * 5 + 3, np.full(200, 2.0)])
    scaler = Scaler.fit(X)
    Z = scaler.transform(X)
    assert abs(Z[:, 0].mean()) < 1e-12
    assert Z[:, 0].std() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(Z[:, 1], 0.0, atol=1e-12)

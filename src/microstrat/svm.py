"""Soft-margin binary SVM trained by sequential minimal optimization.

The dual problem min 0.5 a'Qa - e'a with 0 <= a <= C and y'a = 0 is solved
by maximal-violating-pair selection: the most violating index from the
'up' set against the most violating from the 'down' set, stopping when the
violation gap falls below the training tolerance. That stopping rule bounds
every KKT residual by the tolerance.

Models keep only the support vectors, and `decision_value` and `predict`
take a batch of rows and return one value per row. Feature standardization
is provided separately because the RBF width is only meaningful on a fixed
scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NonConvergenceError

DEFAULT_C = 1.0
DEFAULT_TOL = 1e-3
_BOUND_EPS = 1e-12
_SV_EPS = 1e-10
_KERNEL_BLOCK = 1 << 16  # elements in kernel_matrix's row-block temporary


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Linear or RBF kernel; sigma is the RBF width."""

    kind: str
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if self.sigma is not None:
                raise DataError("linear kernel takes no sigma")
        elif self.kind == "rbf":
            if self.sigma is None or not self.sigma > 0:
                raise DataError(f"rbf kernel needs sigma > 0, got {self.sigma}")
        else:
            raise DataError(f"unknown kernel kind {self.kind!r}")

    @staticmethod
    def linear() -> "Kernel":
        return Kernel("linear")

    @staticmethod
    def rbf(sigma: float) -> "Kernel":
        return Kernel("rbf", float(sigma))


def kernel_matrix(A: np.ndarray, B: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Pairwise kernel evaluations, rows of A against rows of B.

    With B the same array as A the result is exactly symmetric: numpy forms
    A @ A.T by a symmetric rank-k update, and s_i + s_j == s_j + s_i.

    The RBF kernel is finished in the buffer of A @ B.T, a block of rows at a
    time, so its only other temporary holds about `_KERNEL_BLOCK` elements.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise DataError("feature dimensions differ")
    K = A @ B.T
    if kernel.kind == "linear":
        return K
    # exp(-max(s_i + s_j - 2 k_ij, 0) / (2 sigma^2)), one operation at a time
    sa = np.sum(A * A, axis=1)[:, None]
    sb = np.sum(B * B, axis=1)[None, :]
    K *= 2.0
    step = max(1, _KERNEL_BLOCK // max(1, K.shape[1]))
    for start in range(0, K.shape[0], step):
        rows = K[start:start + step]
        np.subtract(sa[start:start + step] + sb, rows, out=rows)
    np.maximum(K, 0.0, out=K)
    np.negative(K, out=K)
    K /= 2.0 * kernel.sigma * kernel.sigma
    return np.exp(K, out=K)


# ---------------------------------------------------------------------------
# Feature scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scaler:
    """Per-feature affine map to zero mean, unit variance on the fit window."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)  # constant columns pass through
        return cls(mean, scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean) / self.scale


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainReport:
    """Diagnostics from one SMO run; objective_log is the maximized dual."""

    iterations: int
    gap: float
    max_kkt_violation: float
    objective_log: tuple[float, ...] = field(repr=False)


@dataclass(frozen=True)
class SvmModel:
    support_vectors: np.ndarray
    dual_coefs: np.ndarray  # alpha_i * y_i per support vector
    bias: float
    kernel: Kernel
    c: float
    training_tol: float
    report: TrainReport | None = None

    def __post_init__(self) -> None:
        sv = np.atleast_2d(np.asarray(self.support_vectors, dtype=np.float64))
        coefs = np.asarray(self.dual_coefs, dtype=np.float64).ravel()
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "dual_coefs", coefs)
        if sv.shape[0] == 0 or coefs.shape[0] == 0:
            raise DataError("a model needs at least one support vector")
        if sv.shape[0] != coefs.shape[0]:
            raise DataError("support vectors and dual coefficients must align")
        if not self.c > 0 or not self.training_tol > 0:
            raise DataError("C and tol must be positive")
        # |dual| = alpha since alpha >= 0
        if np.any(np.abs(coefs) > self.c * (1.0 + 1e-9)):
            raise DataError("dual coefficient exceeds the box constraint")
        if abs(float(coefs.sum())) > self.training_tol:
            raise DataError("dual coefficients do not satisfy the equality constraint")


def decision_value(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Sum of dual_coefs * K(sv, x) + bias for each row x of X; a 1-D X is
    one row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n_features = model.support_vectors.shape[1]
    if X.shape[1] != n_features:
        raise DataError(f"expected {n_features} features, got {X.shape[1]}")
    return kernel_matrix(X, model.support_vectors, model.kernel) @ model.dual_coefs \
        + model.bias


def predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """-1/+1 per row of X, the sign of its decision value; an exact zero
    maps to +1."""
    return np.where(decision_value(model, X) >= 0, 1, -1)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_smo(X: np.ndarray, y: np.ndarray, c: float = DEFAULT_C,
              kernel: Kernel | None = None, tol: float = DEFAULT_TOL,
              max_iter: int | None = None) -> SvmModel:
    """Train by maximal-violating-pair SMO; deterministic for a fixed input."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n = X.shape[0]
    if kernel is None:
        kernel = Kernel.linear()
    if n < 2 or y.shape[0] != n:
        raise DataError("need at least 2 aligned samples")
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise DataError("training needs both classes")
    if not c > 0 or not tol > 0:
        raise DataError("C and tol must be positive")
    if max_iter is None:
        max_iter = max(20_000, 100 * n)
    elif max_iter < 1:
        raise DataError(f"max_iter must be at least 1, got {max_iter}")

    K = kernel_matrix(X, X, kernel)
    alpha = np.zeros(n)
    G = -np.ones(n)  # gradient of the dual at alpha = 0
    beps = _BOUND_EPS * max(1.0, c)
    objective_log = []
    iterations = 0
    pos, neg_y, hi = y > 0, -y, c - beps
    # the working sets; a step moves only alpha[i] and alpha[j], so only
    # their entries are updated after it
    up = np.where(pos, alpha < hi, alpha > beps)
    low = np.where(pos, alpha > beps, alpha < hi)
    while True:
        yg = neg_y * G
        # +-inf marks an index outside 'up' or 'low'
        up_vals = np.where(up, yg, -np.inf)
        low_vals = np.where(low, yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        if up_vals[i] == -np.inf or low_vals[j] == np.inf:
            gap = 0.0
            break
        gap = float(up_vals[i] - low_vals[j])
        if gap <= tol:
            break
        if iterations >= max_iter:
            viol = int(np.sum(up_vals > low_vals[j] + tol)
                       + np.sum(low_vals < up_vals[i] - tol))
            raise NonConvergenceError(
                f"SMO failed to converge in {max_iter} iterations; "
                f"{viol} points still violate the pairing tolerance (gap {gap:.3e})",
                iterations=iterations, gradient_norm=gap)
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        t = gap / eta
        cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
        t = min(t, cap_i, cap_j)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        if t == cap_i:
            alpha[i] = c if y[i] > 0 else 0.0
        if t == cap_j:
            alpha[j] = 0.0 if y[j] > 0 else c
        for k in (i, j):
            below, above = alpha[k] < hi, alpha[k] > beps
            up[k], low[k] = (below, above) if pos[k] else (above, below)
        # K is exactly symmetric (see kernel_matrix): read its contiguous rows
        G += y * t * (K[i] - K[j])
        iterations += 1
        # maximized dual W = e'a - 0.5 a'Qa = 0.5 (sum(a) - a'G)
        objective_log.append(0.5 * float(alpha.sum() - alpha @ G))

    # the loop leaves before it changes alpha: yg and the sets are current
    free = (alpha > beps) & (alpha < hi)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        bias = float((up_vals.max() + low_vals.min()) / 2.0)

    margin = G + 1.0 + y * bias  # y_i * f(x_i)
    at_zero = alpha <= beps
    at_c = alpha >= c - beps
    viol = np.where(at_zero, np.maximum(1.0 - margin, 0.0),
                    np.where(at_c, np.maximum(margin - 1.0, 0.0),
                             np.abs(margin - 1.0)))
    report = TrainReport(iterations=iterations, gap=gap,
                         max_kkt_violation=float(viol.max()),
                         objective_log=tuple(objective_log))
    keep = alpha > _SV_EPS
    if not keep.any():
        # converged with an all-zero dual: every point already satisfies KKT
        keep = np.zeros(n, dtype=bool)
        keep[0] = True
    return SvmModel(support_vectors=X[keep], dual_coefs=alpha[keep] * y[keep],
                    bias=bias, kernel=kernel, c=c, training_tol=tol, report=report)

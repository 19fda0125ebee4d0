"""Econometric diagnostics shared by the signal pipeline.

OLS with classical covariance is the common engine; on top of it sit the
augmented Dickey-Fuller unit-root test (MacKinnon response-surface p-values
and finite-sample critical values), Jarque-Bera normality, a Ljung-Box
ARCH-effect check on squared demeaned returns, and two-directional Granger
causality F-tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaincc, ndtr

from .errors import DataError, NumericalError
from .marketdata import ReturnSeries

# ---------------------------------------------------------------------------
# MacKinnon tables, constant-only (no trend) case
# ---------------------------------------------------------------------------

# Response-surface p-value coefficients from MacKinnon (1994):
# p = Phi(poly(tau)), small-p branch below _TAU_STAR, large-p branch above.
_TAU_STAR = -1.61
_TAU_MIN = -18.83
_TAU_MAX = 2.74
_TAU_SMALL_P = (2.1659, 1.4412, 0.038269)
_TAU_LARGE_P = (1.7339, 0.93202, -0.12745, -0.010368)

# Finite-sample critical-value surface from MacKinnon (2010),
# cv = c0 + c1/T + c2/T^2 + c3/T^3 at regression sample size T.
_CV_SURFACE = {
    "1%": (-3.43035, -6.5393, -16.786, -79.433),
    "5%": (-2.86154, -2.8903, -4.234, -40.04),
    "10%": (-2.56677, -1.5384, -2.809, 0.0),
}


# ---------------------------------------------------------------------------
# Distribution tails
# ---------------------------------------------------------------------------


def chi2_sf(x: float, df: float) -> float:
    """Chi-squared survival function via the regularized incomplete gamma."""
    if df <= 0:
        raise DataError(f"chi-squared df must be positive, got {df}")
    if x <= 0:
        return 1.0
    return float(gammaincc(df / 2.0, x / 2.0))


def f_sf(x: float, d1: float, d2: float) -> float:
    """F-distribution survival function via the regularized incomplete beta."""
    if d1 <= 0 or d2 <= 0:
        raise DataError(f"F df must be positive, got ({d1}, {d2})")
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x)))


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residuals: np.ndarray
    r_squared: float
    log_likelihood: float
    n_obs: int

    @property
    def ssr(self) -> float:
        return float(self.residuals @ self.residuals)


@dataclass(frozen=True)
class TestResult:
    """A scalar hypothesis test: statistic, p-value, rejection at 5%.

    `df` carries chi-squared or (numerator, denominator) F degrees of
    freedom; `critical_values` and `lag` are populated by the ADF test.
    """

    statistic: float
    p_value: float
    reject_at_5pct: bool
    df: int | tuple[int, int] | None = None
    critical_values: dict[str, float] | None = None
    lag: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise NumericalError(f"p-value {self.p_value} outside [0, 1]")


@dataclass(frozen=True)
class GrangerResult:
    """Both causality directions; each rejects 'no causality' when p is small."""

    x_causes_y: TestResult
    y_causes_x: TestResult


# ---------------------------------------------------------------------------
# OLS core
# ---------------------------------------------------------------------------


def ols(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares with classical (homoscedastic) standard errors."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64).ravel()
    n, k = X.shape
    if y.shape[0] != n:
        raise DataError("X and y row counts differ")
    if n <= k:
        raise DataError(f"need more observations than regressors ({n} <= {k})")
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise DataError(f"design matrix is rank deficient (rank {rank} < {k})")
    residuals = y - X @ coef
    ssr = float(residuals @ residuals)
    sigma2 = ssr / (n - k)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ssr / tss if tss > 0 else 0.0
    if ssr > 0:
        llf = -0.5 * n * (math.log(2.0 * math.pi) + math.log(ssr / n) + 1.0)
    else:
        llf = math.inf
    return OlsFit(coef, se, residuals, r_squared, llf, n)


# ---------------------------------------------------------------------------
# Normality and ARCH effects
# ---------------------------------------------------------------------------


def _values(r: ReturnSeries | np.ndarray) -> np.ndarray:
    return r.values if isinstance(r, ReturnSeries) else np.asarray(r, dtype=np.float64)


def jarque_bera(r: ReturnSeries | np.ndarray) -> TestResult:
    """JB = n/6 * (S^2 + (K-3)^2/4) against chi-squared with 2 df."""
    x = _values(r)
    n = x.shape[0]
    if n < 8:
        raise DataError(f"Jarque-Bera needs at least 8 observations, got {n}")
    d = x - x.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        raise DataError("Jarque-Bera is undefined for a constant series")
    skew = float(np.mean(d**3)) / m2**1.5
    kurt = float(np.mean(d**4)) / (m2 * m2)
    jb = n / 6.0 * (skew * skew + 0.25 * (kurt - 3.0) ** 2)
    p = chi2_sf(jb, 2)
    return TestResult(statistic=jb, p_value=p, reject_at_5pct=p < 0.05, df=2)


def arch_effect_test(r: ReturnSeries | np.ndarray, lags: int = 12) -> TestResult:
    """Ljung-Box Q on the squared demeaned series against chi-squared(lags)."""
    x = _values(r)
    n = x.shape[0]
    if lags < 1:
        raise DataError("lags must be >= 1")
    if n <= lags + 10:
        raise DataError(f"need more than {lags + 10} observations, got {n}")
    s = (x - x.mean()) ** 2
    d = s - s.mean()
    denom = float(d @ d)
    if denom == 0.0:
        raise DataError("ARCH-effect test is undefined for a constant series")
    q = 0.0
    for k in range(1, lags + 1):
        rho = float(d[k:] @ d[:-k]) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    p = chi2_sf(q, lags)
    return TestResult(statistic=q, p_value=p, reject_at_5pct=p < 0.05, df=lags)


# ---------------------------------------------------------------------------
# Augmented Dickey-Fuller
# ---------------------------------------------------------------------------


def _mackinnon_p(tau: float) -> float:
    if tau > _TAU_MAX:
        return 1.0
    if tau < _TAU_MIN:
        return 0.0
    coeffs = _TAU_SMALL_P if tau <= _TAU_STAR else _TAU_LARGE_P
    z = 0.0
    for c in reversed(coeffs):
        z = z * tau + c
    return float(ndtr(z))


def adf_critical_values(nobs: int) -> dict[str, float]:
    """1/5/10% critical values at the given regression sample size."""
    out = {}
    for level, (c0, c1, c2, c3) in _CV_SURFACE.items():
        t = float(nobs)
        out[level] = c0 + c1 / t + c2 / t**2 + c3 / t**3
    return out


def _adf_regression(y: np.ndarray, dy: np.ndarray, k: int, start: int) -> OlsFit:
    t = np.arange(start, dy.shape[0])
    cols = [np.ones(t.shape[0]), y[t]]
    for i in range(1, k + 1):
        cols.append(dy[t - i])
    return ols(np.column_stack(cols), dy[t])


def adf_test(series: np.ndarray, max_lag: int | None = None,
             selection: str = "sic") -> TestResult:
    """Unit-root test with a constant; lag fixed or chosen by Schwarz criterion.

    The reported statistic is the t-ratio on the lagged level; rejection at
    5% compares it to the finite-sample critical value.
    """
    y = np.asarray(series, dtype=np.float64).ravel()
    n = y.shape[0]
    if n == 0 or np.all(y == y[0]):
        raise DataError("ADF is undefined for a constant series")
    if max_lag is None:
        # Schwert's rule, truncated to leave a usable sample
        max_lag = min(int(12.0 * (n / 100.0) ** 0.25), n // 2 - 12)
        max_lag = max(max_lag, 0)
    if max_lag < 0:
        raise DataError("max_lag must be >= 0")
    if n <= max_lag + 10:
        raise DataError(f"need more than {max_lag + 10} observations, got {n}")
    if selection not in ("fixed", "sic"):
        raise DataError(f"unknown lag selection {selection!r}")
    dy = np.diff(y)
    if selection == "fixed":
        lag = max_lag
    else:
        # compare lags on the common sample, then refit on the full one
        best = (math.inf, 0)
        for k in range(max_lag + 1):
            fit = _adf_regression(y, dy, k, start=max_lag)
            n_eff = fit.n_obs
            ssr = max(fit.ssr, 1e-300)
            sic = n_eff * math.log(ssr / n_eff) + (k + 2) * math.log(n_eff)
            if sic < best[0]:
                best = (sic, k)
        lag = best[1]
    fit = _adf_regression(y, dy, lag, start=lag)
    if fit.standard_errors[1] == 0.0:
        raise NumericalError("degenerate ADF regression")
    tau = float(fit.coefficients[1] / fit.standard_errors[1])
    cvs = adf_critical_values(fit.n_obs)
    return TestResult(statistic=tau, p_value=_mackinnon_p(tau),
                      reject_at_5pct=tau < cvs["5%"], critical_values=cvs, lag=lag)


# ---------------------------------------------------------------------------
# Granger causality
# ---------------------------------------------------------------------------


def _granger_one_way(cause: np.ndarray, effect: np.ndarray, lag: int) -> TestResult:
    n = effect.shape[0]
    t = np.arange(lag, n)
    n_eff = t.shape[0]
    own = [effect[t - i] for i in range(1, lag + 1)]
    other = [cause[t - i] for i in range(1, lag + 1)]
    const = np.ones(n_eff)
    unrestricted = ols(np.column_stack([const, *own, *other]), effect[t])
    restricted = ols(np.column_stack([const, *own]), effect[t])
    df_den = n_eff - 2 * lag - 1
    ssr_u = unrestricted.ssr
    ssr_r = restricted.ssr
    if ssr_u == 0.0:
        stat, p = math.inf, 0.0
    else:
        stat = max((ssr_r - ssr_u) / lag / (ssr_u / df_den), 0.0)
        p = f_sf(stat, lag, df_den)
    return TestResult(statistic=stat, p_value=p, reject_at_5pct=p < 0.05,
                      df=(lag, df_den))


def granger_test(x: np.ndarray, y: np.ndarray, lag: int = 2) -> GrangerResult:
    """F-tests of 'x does not cause y' and 'y does not cause x' at one lag."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0]:
        raise DataError("series lengths differ")
    if lag < 1:
        raise DataError("lag must be >= 1")
    if x.shape[0] <= 2 * lag + 10:
        raise DataError(f"need more than {2 * lag + 10} observations, got {x.shape[0]}")
    return GrangerResult(x_causes_y=_granger_one_way(x, y, lag),
                         y_causes_x=_granger_one_way(y, x, lag))

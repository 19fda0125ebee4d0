"""Econometric diagnostics shared by the signal pipeline.

OLS with classical covariance is the common engine; on top of it sit the
augmented Dickey-Fuller unit-root test (MacKinnon response-surface p-values
and finite-sample critical values), Jarque-Bera normality, a Ljung-Box
ARCH-effect check on squared demeaned returns, and two-directional Granger
causality F-tests.

The chi-squared tail is scipy's `gammaincc` ufunc. The F tail is an in-repo
regularized incomplete beta, `_betainc`: scipy keeps `betainc` only in the
`scipy.special` package, so the Granger test loads no scipy package.

The ADF lag is chosen by the Schwarz criterion over lags 0..max_lag on a
common sample. The candidate regressions are nested, so one QR
factorization of the largest design with dy appended, numpy's, gives every
candidate's SSR (Golub & Van Loan, least squares by QR). The design is
factored a block of rows at a time and never built whole; the first minimum
wins a tie, and only the chosen lag is fitted by OLS.

A dot product of two sample-length vectors is numpy's pairwise
`np.sum(a * b)`, never a 1-D `@`: OpenBLAS splits a long `ddot` over its
threads, and the split moves the last bits, so the results would depend on
the BLAS thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import DataError, NumericalError

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

_BETA_EPS = 1e-15  # relative size of the last continued-fraction step
_BETA_MAX_TERMS = 10_000
_LENTZ_TINY = 1e-300  # stands in for a zero denominator
# Stirling's series, B_2k / (2k (2k - 1)) for k = 1..6: ln Gamma(z) is
# (z - 1/2) ln z - z + ln(2 pi) / 2 + sum_k c_k z^(1 - 2k), to z^-11
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0)


def chi2_sf(x: float, df: float) -> float:
    """Chi-squared survival function via the regularized incomplete gamma."""
    if df <= 0:
        raise DataError(f"chi-squared df must be positive, got {df}")
    if x <= 0:
        return 1.0
    return float(_scipy.special("gammaincc")(df / 2.0, x / 2.0))


def f_sf(x: float, d1: float, d2: float) -> float:
    """F-distribution survival function, I_{d2/s}(d2/2, d1/2) with
    s = d2 + d1 x, by `_betainc`; a NaN statistic gives a NaN."""
    if d1 <= 0 or d2 <= 0:
        raise DataError(f"F df must be positive, got ({d1}, {d2})")
    if x <= 0:
        return 1.0
    dx = d1 * x
    if math.isinf(dx):
        return 0.0
    # both arguments are formed directly: 1 - d2/s would lose dx/s's digits
    # where it is small, as it is for a long sample
    s = d2 + dx
    return _betainc(d2 / 2.0, d1 / 2.0, d2 / s, dx / s)


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0.

    Where the larger argument q is at least 10, ln Gamma(p + q) - ln Gamma(q)
    comes from Stirling's series as `algdiv` forms it (DiDonato & Morris
    1992, ACM TOMS 18(3)), so no two lgammas of about q ln q are subtracted.
    The series' difference at q and p + q is summed by the terms
    q^-n - (p + q)^-n = q^-n (1 - x^n) with x = q / (p + q), whose
    (1 - x^n) / (1 - x) = 1 + x + ... + x^(n-1) cancels nothing.
    """
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    x = q / (p + q)
    t = 1.0 / (q * q)
    s, tk, w = 1.0, 1.0, 0.0
    for c in _STIRLING:
        w += c * s * tk
        s = 1.0 + x + x * x * s
        tk *= t
    w *= p / ((p + q) * q)
    return (math.lgamma(p) + w - p * (math.log(q) - 1.0)
            - (p + q - 0.5) * math.log1p(p / q))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function I_x(a, b), for a, b > 0,
    given both x and y = 1 - x, each formed by the caller.

    Its continued fraction (Press et al., Numerical Recipes, 3rd ed.,
    section 6.4) is evaluated by the modified Lentz method on the side of
    I_x(a, b) = 1 - I_y(b, a) where it converges fast. Lentz's two steps per
    term are taken as one: after an even term e the next denominator is
    1 + e - x r, with x r the odd term's size, and that is formed as
    s + e with s = y + x (1 - r), which cancels nothing when x is near 1.
    The prefactor x^a y^b / (a B(a, b)) takes ln x and ln y from `log1p` of
    the other argument where that is below 0.5, and ln B from `_log_beta`.
    """
    if math.isnan(x + y):
        return math.nan
    if x <= 0.0 or y <= 0.0:
        return float(y <= 0.0)
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, y = b, a, y, x
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b)) / a
    c, d = 1.0, 1.0 / _nonzero(y + x * (1.0 - b) / (a + 1.0))
    h = d
    for m in range(1, _BETA_MAX_TERMS + 1):
        am = a + 2.0 * m
        even = m * (b - m) * x / ((am - 1.0) * am)
        # 1 - r, with r = (a + m)(a + b + m) / (am (am + 1)), in closed form
        s = y + x * (a * (2.0 * m + 1.0 - b) + m * (3.0 * m + 2.0 - b)) \
            / (am * (am + 1.0))
        e, g = even * d, even / c
        d = (1.0 + e) / _nonzero(s + e)
        c = _nonzero((s + g) / _nonzero(1.0 + g))
        step = (s + g) / _nonzero(s + e)
        h *= step
        if abs(step - 1.0) < _BETA_EPS:
            value = front * h
            return 1.0 - value if flip else value
    raise NumericalError(f"incomplete beta I_x({a}, {b}) at x = {x} did not "
                         f"converge in {_BETA_MAX_TERMS} terms")


def _nonzero(v: float) -> float:
    """v, or Lentz's stand-in for a zero denominator."""
    return v if abs(v) > _LENTZ_TINY else _LENTZ_TINY


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residuals: np.ndarray
    n_obs: int

    @property
    def ssr(self) -> float:
        return float(np.sum(self.residuals * self.residuals))


@dataclass(frozen=True)
class TestResult:
    """A scalar hypothesis test: statistic, p-value, rejection at 5%.

    `critical_values` and `lag` are populated by the ADF test.
    """

    statistic: float
    p_value: float
    reject_at_5pct: bool
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
    ssr = float(np.sum(residuals * residuals))
    sigma2 = ssr / (n - k)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return OlsFit(coef, se, residuals, n)


# ---------------------------------------------------------------------------
# Normality and ARCH effects
# ---------------------------------------------------------------------------


def _finite(series, test: str) -> np.ndarray:
    """The series as a flat float64 array; DataError when it holds NaN or inf."""
    x = np.asarray(series, dtype=np.float64).ravel()
    if not np.all(np.isfinite(x)):
        raise DataError(f"{test} needs finite values; the series has NaN or inf")
    return x


def jarque_bera(r: np.ndarray) -> TestResult:
    """JB = n/6 * (S^2 + (K-3)^2/4) against chi-squared with 2 df."""
    x = _finite(r, "Jarque-Bera")
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
    return TestResult(statistic=jb, p_value=p, reject_at_5pct=p < 0.05)


def arch_effect_test(r: np.ndarray, lags: int = 12) -> TestResult:
    """Ljung-Box Q on the squared demeaned series against chi-squared(lags)."""
    x = _finite(r, "ARCH-effect test")
    n = x.shape[0]
    if lags < 1:
        raise DataError("lags must be >= 1")
    if n <= lags + 10:
        raise DataError(f"need more than {lags + 10} observations, got {n}")
    s = (x - x.mean()) ** 2
    d = s - s.mean()
    denom = float(np.sum(d * d))
    if denom == 0.0:
        raise DataError("ARCH-effect test is undefined for a constant series")
    q = 0.0
    for k in range(1, lags + 1):
        rho = float(np.sum(d[k:] * d[:-k])) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    p = chi2_sf(q, lags)
    return TestResult(statistic=q, p_value=p, reject_at_5pct=p < 0.05)


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
    return float(_scipy.special("ndtr")(z))


def adf_critical_values(nobs: int) -> dict[str, float]:
    """1/5/10% critical values at the given regression sample size."""
    out = {}
    for level, (c0, c1, c2, c3) in _CV_SURFACE.items():
        t = float(nobs)
        out[level] = c0 + c1 / t + c2 / t**2 + c3 / t**3
    return out


# Rows of the ADF design built and factored at a time by `_sic_values`:
# 2048 x 52 float64 is 0.85 MB on one day's lag sweep
_QR_ROWS = 2048


def _adf_design(y: np.ndarray, dy: np.ndarray, k: int, start: int) -> np.ndarray:
    """``[1, y_{t-1}, dy_{t-1} .. dy_{t-k} | dy_t]`` over t = start .. len(dy)-1.

    One Fortran-order array, LAPACK's layout, written column by column from
    slice views.
    """
    z = np.empty((dy.shape[0] - start, k + 3), order="F")
    z[:, 0] = 1.0
    z[:, 1] = y[start:-1]
    for i in range(1, k + 1):
        z[:, i + 1] = dy[start - i:-i]
    z[:, -1] = dy[start:]
    return z


def _sic_values(y: np.ndarray, dy: np.ndarray, max_lag: int) -> np.ndarray:
    """Schwarz criterion of each lag 0..max_lag, every candidate fitted on
    the common sample t >= max_lag.

    The candidate designs are the leading k + 2 columns of one design, so a
    single QR factorization ``[X | dy] = QR`` gives every SSR: SSR_k is the
    sum of squares of ``R[k+2:, -1]``. The singular values of R's leading
    block are those of the candidate's design, which gives the rank that
    ``lstsq`` reports with its default cut-off.

    The design is never built whole. Each block of `_QR_ROWS` rows is
    stacked under the R so far and factored again, which leaves the R of
    all the rows up to the block (TSQR; Demmel et al. 2012, SIAM J. Sci.
    Comput. 34(1)). R is then unique up to its rows' signs, which neither
    the SSRs nor the singular values see.
    """
    m, n = dy.shape[0] - max_lag, max_lag + 3
    r = np.empty((0, n))
    for lo in range(max_lag, dy.shape[0], _QR_ROWS):
        hi = min(lo + _QR_ROWS, dy.shape[0])
        block = _adf_design(y[:hi + 1], dy[:hi], max_lag, start=lo)
        r = np.linalg.qr(np.vstack((r, block)), mode="r")
    ssr = np.cumsum(r[::-1, -1] ** 2)[::-1]
    cutoff = np.finfo(np.float64).eps * m
    sic = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        cols = k + 2
        if m <= cols:
            raise DataError(f"need more observations than regressors ({m} <= {cols})")
        s = np.linalg.svd(r[:cols, :cols], compute_uv=False)
        rank = int(np.count_nonzero(s > cutoff * s[0]))
        if rank < cols:
            raise DataError(f"design matrix is rank deficient (rank {rank} < {cols})")
        sic[k] = m * math.log(max(float(ssr[cols]), 1e-300) / m) + cols * math.log(m)
    return sic


def adf_test(series: np.ndarray, max_lag: int | None = None) -> TestResult:
    """Unit-root test with a constant; lag chosen by Schwarz criterion.

    The first minimum of ``_sic_values`` over lags 0..max_lag is the lag,
    refitted by OLS on its full sample. The reported statistic is the
    t-ratio on the lagged level; rejection at 5% compares it to the
    finite-sample critical value.
    """
    y = _finite(series, "ADF")
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
    dy = np.diff(y)
    # SIC values agree with one lstsq fit per lag to about 3e-11 absolute;
    # argmin keeps the first minimum, so on a tie the smaller lag wins
    lag = int(np.argmin(_sic_values(y, dy, max_lag)))
    z = _adf_design(y, dy, lag, start=lag)
    # a C-order copy, as np.column_stack built, keeps the statistic's bits;
    # ols on the Fortran-order view moves the last bits of some fits
    fit = ols(np.ascontiguousarray(z[:, :-1]), z[:, -1])
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
    return TestResult(statistic=stat, p_value=p, reject_at_5pct=p < 0.05)


def granger_test(x: np.ndarray, y: np.ndarray, lag: int = 2) -> GrangerResult:
    """F-tests of 'x does not cause y' and 'y does not cause x' at one lag."""
    x = _finite(x, "Granger test")
    y = _finite(y, "Granger test")
    if x.shape[0] != y.shape[0]:
        raise DataError("series lengths differ")
    if lag < 1:
        raise DataError("lag must be >= 1")
    if x.shape[0] <= 2 * lag + 10:
        raise DataError(f"need more than {2 * lag + 10} observations, got {x.shape[0]}")
    return GrangerResult(x_causes_y=_granger_one_way(x, y, lag),
                         y_causes_x=_granger_one_way(y, x, lag))

"""Diagnostics: OLS core, distribution tails, ADF, JB, ARCH effect, Granger."""
import math
import tracemalloc

import numpy as np
import pytest

from microstrat import stats
from microstrat.errors import DataError
from microstrat.marketdata import simulate_garch
from microstrat.stats import (
    _betainc,
    _sic_values,
    adf_critical_values,
    adf_test,
    arch_effect_test,
    chi2_sf,
    f_sf,
    granger_test,
    jarque_bera,
    ols,
)


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------


def test_ols_exact_fit():
    x = np.arange(1.0, 11.0)
    fit = ols(x[:, None], 2.0 * x)
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)


def test_ols_intercept_only_recovers_mean():
    y = np.array([1.0, 2.0, 4.0, 9.0])
    fit = ols(np.ones((4, 1)), y)
    assert fit.coefficients[0] == pytest.approx(y.mean(), abs=1e-12)


def test_ols_recovers_noisy_line_within_three_se():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(500)
    y = 1.0 + 3.0 * x + 0.5 * rng.standard_normal(500)
    fit = ols(np.column_stack([np.ones(500), x]), y)
    for est, se, truth in zip(fit.coefficients, fit.standard_errors, (1.0, 3.0)):
        assert abs(est - truth) < 3.0 * se


def test_ols_residuals_orthogonal_to_regressors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = rng.standard_normal((200, 4))
        y = rng.standard_normal(200)
        fit = ols(X, y)
        for j in range(4):
            num = abs(float(X[:, j] @ fit.residuals))
            scale = np.linalg.norm(X[:, j]) * np.linalg.norm(fit.residuals) + 1e-300
            assert num / scale < 1e-8


def test_ols_rejects_bad_designs():
    x = np.arange(5.0)
    with pytest.raises(DataError, match="rank"):
        ols(np.column_stack([x, 2.0 * x]), x)
    with pytest.raises(DataError):
        ols(np.ones((3, 4)), np.ones(3))


# ---------------------------------------------------------------------------
# Distribution tails (analytic closed forms at published quantiles)
# ---------------------------------------------------------------------------


def test_chi2_sf_published_quantiles():
    # df=2 tail is exp(-x/2), so the 5% point is -2 ln 0.05
    assert chi2_sf(-2.0 * math.log(0.05), 2) == pytest.approx(0.05, abs=1e-12)
    assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-8)
    assert chi2_sf(9.487729036781154, 4) == pytest.approx(0.05, abs=1e-8)


def test_chi2_sf_matches_closed_forms():
    for x in (0.1, 0.5, 1.0, 2.5, 7.0, 20.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-14)
        assert chi2_sf(x, 4) == pytest.approx(
            math.exp(-x / 2.0) * (1.0 + x / 2.0), abs=1e-13)


def test_f_sf_published_quantiles():
    # F(2,2) has cdf x/(1+x): the 5% tail point is exactly 19
    assert f_sf(19.0, 2, 2) == pytest.approx(0.05, abs=1e-12)
    # F(2,10): sf = (1 + x/5)^-5, 5% point is 5 (20^(1/5) - 1)
    assert f_sf(4.102821015130401, 2, 10) == pytest.approx(0.05, abs=1e-10)


def test_f_sf_matches_closed_form_for_two_numerator_df():
    for x in (0.3, 1.0, 2.0, 6.0):
        for d2 in (4, 8, 30):
            assert f_sf(x, 2, d2) == pytest.approx(
                (1.0 + 2.0 * x / d2) ** (-d2 / 2.0), abs=1e-12)


def test_tails_are_probabilities():
    assert chi2_sf(-1.0, 3) == 1.0
    assert f_sf(-0.5, 2, 7) == 1.0
    assert f_sf(math.inf, 2, 7) == 0.0
    for x in (0.01, 1.0, 10.0, 100.0):
        assert 0.0 <= chi2_sf(x, 5) <= 1.0
        assert 0.0 <= f_sf(x, 3, 9) <= 1.0


def test_f_sf_edges():
    assert math.isnan(f_sf(math.nan, 2, 30))
    assert f_sf(1e-300, 2, 100) == 1.0  # x rounds to 1
    assert f_sf(1e308, 3, 10) == 0.0  # d1 * stat overflows, x is 0


def test_betainc_matches_scipy_at_dyadic_points():
    # at dyadic x, 1 - x is exact, so both sides see the same point; a
    # reaches past the Granger test's d2 / 2 on long samples, and x runs to
    # within 2^-30 of either end. The bound is relative, wherever the value
    # is at least 1e-100
    from scipy.special import betainc

    xs = [k / 16.0 for k in range(1, 16)]
    for j in range(4, 31, 2):
        for k in (1, 3, 5, 7):
            xs += [k * 2.0 ** -j, 1.0 - k * 2.0 ** -j]
    xs = np.array(xs)
    worst = 0.0
    for big in (0.5, 1.0, 3.0, 10.0, 47.5, 300.0, 2500.0, 14400.5, 60000.0):
        for small in np.arange(1, 25) / 2.0:
            for a, b in ((big, small), (small, big)):
                want = betainc(a, b, xs)
                for x, w in zip(xs, want):
                    if w >= 1e-100:
                        got = _betainc(a, b, x, 1.0 - x)
                        worst = max(worst, abs(got - w) / w)
    assert worst <= 1e-11


def test_f_sf_matches_two_numerator_df_closed_form_on_long_samples():
    # F(2, d2) has the tail (1 + 2F/d2)^(-d2/2); a Granger test at lag 2 on
    # one day of ticks has d2 near 28,800. The reference is exact up to its
    # own rounding, about 1e-14 at 1e-100, so the bound is tighter than
    # against scipy. The textbook Lentz steps, which form 1 - x r with x
    # near 1, miss it by 1.5e-12 here
    for d2 in (10, 100, 1000, 10_000, 28_792, 57_592, 120_000):
        for x in (0.01, 0.1, 0.3, 0.6565, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
            want = math.exp(-(d2 / 2.0) * math.log1p(2.0 * x / d2))
            if want >= 1e-100:
                assert f_sf(x, 2, d2) == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# Jarque-Bera
# ---------------------------------------------------------------------------


def test_jarque_bera_zero_for_exact_normal_moments():
    # symmetric, and kurtosis N/(2 n_nonzero) = 12/4 = 3 exactly
    x = np.array([1.0, 1.0, -1.0, -1.0] + [0.0] * 8)
    res = jarque_bera(x)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0, abs=1e-12)
    assert not res.reject_at_5pct


def test_jarque_bera_size_on_gaussian():
    rng = np.random.default_rng(1)
    rejections = 0
    for _ in range(1000):
        if jarque_bera(rng.standard_normal(10_000)).p_value < 0.05:
            rejections += 1
    assert 0.04 <= rejections / 1000.0 <= 0.065


def test_jarque_bera_rejects_heavy_tails():
    rng = np.random.default_rng(2)
    for _ in range(5):
        assert jarque_bera(rng.standard_t(3, 5000)).p_value < 0.01


def test_jarque_bera_degenerate_inputs():
    with pytest.raises(DataError):
        jarque_bera(np.ones(20))
    with pytest.raises(DataError):
        jarque_bera(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# ADF
# ---------------------------------------------------------------------------


def test_adf_critical_values_match_published_table():
    cvs = adf_critical_values(1_000_000)
    assert cvs["1%"] == pytest.approx(-3.430328, abs=1e-3)
    assert cvs["5%"] == pytest.approx(-2.861415, abs=1e-3)
    assert cvs["10%"] == pytest.approx(-2.566744, abs=1e-3)


def test_adf_rejects_white_noise():
    rng = np.random.default_rng(3)
    for _ in range(30):
        res = adf_test(rng.standard_normal(5000), max_lag=8)
        assert res.p_value < 0.01
        assert res.statistic < res.critical_values["1%"]


def test_adf_keeps_unit_root_in_random_walk():
    rng = np.random.default_rng(4)
    kept = sum(
        not adf_test(np.cumsum(rng.standard_normal(5000)), max_lag=8).reject_at_5pct
        for _ in range(30))
    assert kept >= 27


def test_adf_sic_picks_up_short_memory():
    # differences follow AR(1) with phi=0.5, so at least one lag is needed
    rng = np.random.default_rng(6)
    hits = 0
    for _ in range(10):
        e = rng.standard_normal(3000)
        d = np.empty(3000)
        d[0] = e[0]
        for t in range(1, 3000):
            d[t] = 0.5 * d[t - 1] + e[t]
        res = adf_test(np.cumsum(d), max_lag=6)
        hits += res.lag >= 1
    assert hits >= 8


def test_adf_rejection_survives_doubling_the_sample():
    rng = np.random.default_rng(8)
    stable = 0
    for _ in range(20):
        x = rng.standard_normal(5000)
        first = adf_test(x[:2500], max_lag=6)
        second = adf_test(x, max_lag=6)
        if not (first.p_value < 0.01 and second.p_value > 0.05):
            stable += 1
    assert stable >= 19


def test_adf_rejects_constant_series():
    with pytest.raises(DataError):
        adf_test(np.full(100, 3.0))


def test_adf_rejects_non_finite_series(capfd):
    x = np.cumsum(np.random.default_rng(9).standard_normal(500))
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[250] = bad
        with pytest.raises(DataError, match="finite"):
            adf_test(y)
    assert capfd.readouterr().err == ""


def test_adf_names_the_first_rank_deficient_lag():
    # in a period-p series dy_{t-p+1} is a function of y_{t-1}
    for period, reps, rank in (([100.0, 101.0], 500, 2),
                               ([100.0, 101.0, 103.0], 400, 3)):
        with pytest.raises(DataError) as exc:
            adf_test(np.tile(period, reps))
        assert str(exc.value) == \
            f"design matrix is rank deficient (rank {rank} < {rank + 1})"


def _per_lag_sic(y: np.ndarray, max_lag: int) -> np.ndarray:
    """Reference: one OLS fit per lag on the common sample t >= max_lag."""
    dy = np.diff(y)
    t = np.arange(max_lag, dy.shape[0])
    sic = []
    for k in range(max_lag + 1):
        X = np.column_stack([np.ones(t.shape[0]), y[t],
                             *(dy[t - i] for i in range(1, k + 1))])
        fit = ols(X, dy[t])
        ssr = max(fit.ssr, 1e-300)
        sic.append(fit.n_obs * math.log(ssr / fit.n_obs)
                   + (k + 2) * math.log(fit.n_obs))
    return np.array(sic)


def test_adf_qr_sweep_matches_per_lag_ols():
    n = 500
    for seed in range(30):
        rng = np.random.default_rng(200 + seed)
        e = rng.standard_normal(n)
        d = np.zeros(n)
        for t in range(2, n):
            d[t] = 0.5 * d[t - 1] - 0.3 * d[t - 2] + e[t]
        for y in (100.0 + np.cumsum(e),            # random walk
                  3000.0 + np.cumsum(d),           # AR(2) in differences
                  rng.standard_normal(400),        # white noise
                  np.cumsum(rng.standard_normal(60))):
            # Schwert's rule, as adf_test applies it
            max_lag = min(int(12.0 * (y.shape[0] / 100.0) ** 0.25),
                          y.shape[0] // 2 - 12)
            want = _per_lag_sic(y, max_lag)
            np.testing.assert_allclose(_sic_values(y, np.diff(y), max_lag),
                                       want, rtol=1e-8, atol=0)
            first_min = 0
            for k in range(1, max_lag + 1):
                if want[k] < want[first_min]:
                    first_min = k
            assert adf_test(y).lag == first_min


def test_adf_qr_sweep_spans_row_blocks():
    # three blocks of rows, the last holding a single row
    max_lag = 12
    n = 2 * stats._QR_ROWS + 1 + max_lag + 1
    rng = np.random.default_rng(31)
    e = rng.standard_normal(n)
    d = np.zeros(n)
    for t in range(2, n):
        d[t] = 0.5 * d[t - 1] - 0.3 * d[t - 2] + e[t]
    for y in (100.0 + np.cumsum(e), 3000.0 + np.cumsum(d)):
        want = _per_lag_sic(y, max_lag)
        np.testing.assert_allclose(_sic_values(y, np.diff(y), max_lag), want,
                                   rtol=1e-8, atol=0)
        assert adf_test(y, max_lag=max_lag).lag == int(np.argmin(want))


def test_adf_qr_sweep_never_builds_the_whole_design():
    # one day of ticks at Schwert's lag for it
    y = 3000.0 + np.cumsum(np.random.default_rng(32).standard_normal(28_800))
    dy = np.diff(y)
    max_lag = 49
    _sic_values(y, dy, max_lag)  # numpy's lazy set-up stays out of the peak
    tracemalloc.start()
    try:
        _sic_values(y, dy, max_lag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    design = (dy.shape[0] - max_lag) * (max_lag + 3) * 8
    assert peak <= design / 2


# ---------------------------------------------------------------------------
# ARCH effect
# ---------------------------------------------------------------------------


def test_arch_effect_size_on_iid_gaussian():
    rng = np.random.default_rng(9)
    rejections = sum(
        arch_effect_test(rng.standard_normal(2000), lags=12).reject_at_5pct
        for _ in range(300))
    assert 0.02 <= rejections / 300.0 <= 0.09


def test_arch_effect_detects_volatility_clustering():
    rng = np.random.default_rng(10)
    for _ in range(5):
        eps = simulate_garch(rng.standard_normal(5000), 1e-6, 0.3, 0.6)
        assert arch_effect_test(eps, lags=12).p_value < 0.01


def test_arch_effect_rejects_constant_series():
    with pytest.raises(DataError):
        arch_effect_test(np.ones(100), lags=4)


# ---------------------------------------------------------------------------
# Granger
# ---------------------------------------------------------------------------


def test_granger_finds_the_planted_direction():
    rng = np.random.default_rng(11)
    forward_hits = 0
    reverse_clean = 0
    for _ in range(20):
        x = rng.standard_normal(2000)
        y = np.empty(2000)
        y[0] = rng.standard_normal()
        y[1:] = 0.8 * x[:-1] + rng.standard_normal(1999)
        res = granger_test(x, y, lag=2)
        forward_hits += res.x_causes_y.p_value < 0.01
        reverse_clean += res.y_causes_x.p_value > 0.05
    assert forward_hits == 20
    assert reverse_clean >= 18


def test_granger_size_on_independent_noise():
    # n=500 per trial; shorter samples run visibly under the nominal level
    rng = np.random.default_rng(12)
    rejections = 0
    trials = 400
    for _ in range(trials):
        res = granger_test(rng.standard_normal(500), rng.standard_normal(500), lag=2)
        rejections += res.x_causes_y.reject_at_5pct
    assert 0.03 <= rejections / trials <= 0.075


def test_granger_swapping_inputs_swaps_directions():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(300)
    y = rng.standard_normal(300)
    a = granger_test(x, y, lag=3)
    b = granger_test(y, x, lag=3)
    assert a.x_causes_y.statistic == b.y_causes_x.statistic
    assert a.x_causes_y.p_value == b.y_causes_x.p_value
    assert a.y_causes_x.statistic == b.x_causes_y.statistic


def test_granger_input_validation():
    with pytest.raises(DataError):
        granger_test(np.ones(50), np.ones(40), lag=2)
    with pytest.raises(DataError):
        granger_test(np.ones(12), np.ones(12), lag=2)


def test_diagnostics_reject_non_finite_series(capfd):
    x = np.random.default_rng(9).standard_normal(200)
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[100] = bad
        for call in (lambda: jarque_bera(y), lambda: arch_effect_test(y),
                     lambda: granger_test(y, x), lambda: granger_test(x, y)):
            with pytest.raises(DataError, match="finite"):
                call()
    assert capfd.readouterr().err == ""

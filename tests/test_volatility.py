import math

import numpy as np
import pytest

from microstrat.errors import DataError
from microstrat.marketdata import NS_PER_DAY, NS_PER_SEC, BarSeries
from microstrat.volatility import (
    GarchSpec,
    GarchState,
    _variance_path,
    fit_garch,
    fit_har_vpin,
    garch_loglik,
    realized_vol,
    simulate_garch,
)


def bars_from_closes(closes):
    closes = np.asarray(closes, dtype=np.float64)
    n = closes.shape[0]
    ts = (np.arange(n) + 1) * 300_000_000_000
    return BarSeries(interval_ns=300_000_000_000, ts=ts, open=closes.copy(),
                     high=closes.copy(), low=closes.copy(), close=closes,
                     volume=np.ones(n))


def central_fd(theta, r, spec):
    g = np.empty(len(theta))
    for i in range(len(theta)):
        step = 6e-6 * max(abs(theta[i]), 1e-8)
        up = theta.copy()
        up[i] += step
        dn = theta.copy()
        dn[i] -= step
        g[i] = (garch_loglik(up, r, spec)[0] - garch_loglik(dn, r, spec)[0]) / (2 * step)
    return g


# -- likelihood and gradient ------------------------------------------------


def test_gradient_matches_finite_differences():
    r = simulate_garch(3000, 1e-6, [0.05], [0.90], rng=np.random.default_rng(7))
    bases = [
        (GarchSpec(1, 1, False, "constant"), np.array([1e-5, 2e-6, 0.08, 0.85])),
        (GarchSpec(1, 2, False, "zero"), np.array([2e-6, 0.10, 0.40, 0.45])),
        (GarchSpec(2, 1, False, "constant"), np.array([-1e-5, 1.5e-6, 0.05, 0.04, 0.82])),
        (GarchSpec(1, 1, True, "ar1"), np.array([1e-5, 0.2, 2e-6, 0.05, 0.06, 0.85])),
    ]
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 10:
        spec, base = bases[checked % len(bases)]
        theta = base * rng.uniform(0.7, 1.2, size=base.shape[0])
        ll, g = garch_loglik(theta, r, spec)
        assert math.isfinite(ll)
        g_fd = central_fd(theta, r, spec)
        rel = np.max(np.abs(g - g_fd)) / max(np.max(np.abs(g_fd)), 1.0)
        assert rel < 1e-5
        checked += 1


def test_loglik_layout_validated():
    r = simulate_garch(500, 1e-6, [0.05], [0.9], rng=np.random.default_rng(0))
    with pytest.raises(DataError):
        garch_loglik(np.array([1e-6, 0.05]), r, GarchSpec(1, 1))


def test_infeasible_point_returns_minus_inf():
    r = simulate_garch(500, 1e-6, [0.05], [0.9], rng=np.random.default_rng(1))
    # strongly negative leverage drives h below zero on the first down tick
    theta = np.array([0.0, 1e-9, 0.0, -5.0, 0.0])
    ll, g = garch_loglik(theta, r, GarchSpec(1, 1, True, "constant"))
    assert ll == -math.inf
    assert np.all(g == 0.0)


def test_variance_recursion_reevaluates_exactly():
    r = simulate_garch(2000, 1e-6, [0.05], [0.45, 0.45], rng=np.random.default_rng(3))
    fit = fit_garch(r, GarchSpec(1, 2, False, "constant"))
    eps = r - fit.mean_params[0]
    n = r.shape[0]
    h_ref = np.empty(n)
    h_ref[0] = fit.seed_variance
    for t in range(1, n):
        v = fit.omega
        if t - 1 >= 0:
            v += fit.alphas[0] * eps[t - 1] ** 2
        for j in (1, 2):
            v += fit.gammas[j - 1] * (h_ref[t - j] if t - j >= 0 else fit.seed_variance)
        h_ref[t] = v
    assert np.max(np.abs(h_ref - fit.cond_variance)) < 1e-10
    assert np.max(np.abs(eps - fit.residuals)) < 1e-12
    ll_ref = -0.5 * np.sum(np.log(2 * np.pi) + np.log(h_ref) + eps ** 2 / h_ref)
    assert fit.log_likelihood == pytest.approx(ll_ref, rel=1e-12)


# -- estimation -------------------------------------------------------------


def test_garch11_parameter_recovery():
    hits = 0
    for seed in range(5):
        r = simulate_garch(20000, 1e-6, [0.05], [0.90],
                           rng=np.random.default_rng(seed))
        fit = fit_garch(r, GarchSpec(1, 1, False, "constant"))
        assert fit.persistence < 1.0
        assert np.all(fit.cond_variance > 0)
        ok = (abs(fit.alphas[0] - 0.05) <= 0.03
              and abs(fit.gammas[0] - 0.90) <= 0.03
              and abs(fit.omega - 1e-6) / 1e-6 <= 0.5)
        hits += ok
    assert hits == 5


def test_loglik_at_fit_beats_truth():
    spec = GarchSpec(1, 1, False, "constant")
    for seed in (11, 12):
        r = simulate_garch(20000, 1e-6, [0.05], [0.90],
                           rng=np.random.default_rng(seed))
        fit = fit_garch(r, spec)
        ll_true, _ = garch_loglik(np.array([0.0, 1e-6, 0.05, 0.90]), r, spec)
        assert fit.log_likelihood >= ll_true - 1e-6


def test_iid_normal_variance_level():
    r = 0.01 * np.random.default_rng(21).standard_normal(3000)
    fit = fit_garch(r, GarchSpec(1, 1, False, "constant"))
    ratio = float(np.mean(fit.cond_variance)) / float(np.var(r))
    assert 0.8 < ratio < 1.2


def test_std_errors_finite_and_named():
    r = simulate_garch(20000, 1e-6, [0.05], [0.90], rng=np.random.default_rng(31))
    fit = fit_garch(r, GarchSpec(1, 1, False, "constant"))
    table = fit.parameter_table(r)
    assert [row[0] for row in table] == ["mu", "omega", "alpha1", "gamma1"]
    for _, est, se in table:
        assert math.isfinite(est)
        assert math.isfinite(se) and se > 0
    # true alpha/gamma should sit within a few standard errors
    by_name = {name: (est, se) for name, est, se in table}
    assert abs(by_name["alpha1"][0] - 0.05) < 4 * by_name["alpha1"][1]
    assert abs(by_name["gamma1"][0] - 0.90) < 4 * by_name["gamma1"][1]


def test_tgarch_recovers_leverage_sign():
    pos = 0
    for seed in range(10):
        r = simulate_garch(20000, 1e-6, [0.05], [0.88], leverage=0.05,
                           rng=np.random.default_rng(100 + seed))
        fit = fit_garch(r, GarchSpec(leverage=True))
        pos += fit.leverage_coef > 0
    assert pos >= 9


def test_tgarch_on_symmetric_data_gives_null_leverage():
    within = 0
    for seed in range(10):
        r = simulate_garch(10000, 1e-6, [0.05], [0.90],
                           rng=np.random.default_rng(200 + seed))
        fit = fit_garch(r, GarchSpec(leverage=True))
        lam_se = dict((n, s) for n, _, s in fit.parameter_table(r))["lambda"]
        within += abs(fit.leverage_coef) <= 2.0 * lam_se
    assert within >= 9


def test_fit_rejects_bad_input():
    with pytest.raises(DataError):
        fit_garch(np.ones(500))
    with pytest.raises(DataError):
        fit_garch(np.random.default_rng(0).standard_normal(80), GarchSpec(1, 1))
    with pytest.raises(DataError):
        GarchSpec(0, 0)
    with pytest.raises(DataError):
        GarchSpec(0, 1, leverage=True)
    with pytest.raises(DataError):
        GarchSpec(1, 1, mean_model="ewma")


def test_fit_is_deterministic():
    r = simulate_garch(5000, 1e-6, [0.05], [0.90], rng=np.random.default_rng(17))
    a = fit_garch(r)
    b = fit_garch(r)
    assert np.array_equal(a.theta(), b.theta())
    assert a.log_likelihood == b.log_likelihood


# -- one-step forecasts -----------------------------------------------------


def test_forecast_one_step_is_exact():
    r = simulate_garch(5000, 1e-6, [0.05], [0.90], rng=np.random.default_rng(5))
    fit = fit_garch(r)
    manual = fit.omega
    manual += fit.alphas[0] * fit.residuals[-1] ** 2
    manual += fit.gammas[0] * fit.cond_variance[-1]
    assert GarchState(fit).variance_forecast() == manual


def test_forecast_mean_paths():
    r = simulate_garch(5000, 1e-6, [0.05], [0.90], rng=np.random.default_rng(6))
    zero_fit = fit_garch(r, GarchSpec(1, 1, False, "zero"))
    assert GarchState(zero_fit).mean_forecast() == 0.0

    r2 = simulate_garch(10000, 1e-6, [0.05], [0.90], mu=1e-5, phi=0.3,
                        rng=np.random.default_rng(8))
    ar_fit = fit_garch(r2, GarchSpec(1, 1, False, "ar1"))
    mu, phi = ar_fit.mean_params
    assert GarchState(ar_fit).mean_forecast() == mu + phi * ar_fit.last_return


@pytest.mark.parametrize("spec", [
    GarchSpec(1, 1, False, "ar1"), GarchSpec(2, 2, True, "ar1"),
    GarchSpec(2, 1, True, "constant"), GarchSpec(1, 0, False, "zero"),
    GarchSpec(1, 2, True, "zero")], ids=str)
def test_stepper_continues_the_in_sample_filter(spec):
    x = simulate_garch(1500, 1e-6, [0.05], [0.88], leverage=0.04, mu=1e-5,
                       phi=0.2, rng=np.random.default_rng(23))
    n = 1200
    fit = fit_garch(x[:n], spec)
    state = GarchState(fit)
    stepped = [state.update(float(r)) for r in x[n:]]
    h, _, _, _ = _variance_path(fit.theta(), x, spec, fit.seed_variance,
                                float(np.mean(x[:n])))
    np.testing.assert_array_equal(h[:n], fit.cond_variance)
    np.testing.assert_allclose(stepped, h[n:], rtol=1e-12, atol=0.0)


# -- realized volatility ----------------------------------------------------


def test_realized_vol_constant_prices():
    rv = realized_vol(bars_from_closes(np.full(60, 3000.0)), 10)
    assert np.all(np.isnan(rv[:10]))
    assert np.all(rv[10:] == 0.0)


def test_realized_vol_two_block_oracle():
    closes = [100.0, 100.0 * math.exp(0.01), 100.0 * math.exp(0.01) * math.exp(-0.01)]
    rv = realized_vol(bars_from_closes(closes), 2)
    assert rv[2] == pytest.approx(2e-4, rel=1e-12)


def test_realized_vol_window_alignment():
    closes = 100.0 * np.exp(np.cumsum(0.01 * np.random.default_rng(0).standard_normal(50)))
    rv = realized_vol(bars_from_closes(closes), 5)
    r2 = np.diff(np.log(closes)) ** 2
    assert rv[7] == pytest.approx(float(r2[2:7].sum()), rel=1e-12)


def test_realized_vol_skips_session_breaks():
    # one-minute bars at 11:27-11:29 and 13:00-13:02: the 11:29 -> 13:00
    # return crosses the lunch break, where the 10% jump must not count
    seconds = np.array([41_220, 41_280, 41_340, 46_800, 46_860, 46_920])
    closes = np.array([100.0, 101.0, 100.0, 110.0, 111.0, 110.0])
    bars = BarSeries(interval_ns=60 * NS_PER_SEC,
                     ts=17_000 * NS_PER_DAY + seconds * NS_PER_SEC,
                     open=closes.copy(), high=closes.copy(), low=closes.copy(),
                     close=closes, volume=np.ones(6))
    rv = realized_vol(bars, 5)
    within = [math.log(101 / 100), math.log(100 / 101),
              math.log(111 / 110), math.log(110 / 111)]
    assert rv[5] == pytest.approx(sum(r * r for r in within), rel=1e-12)


def test_realized_vol_needs_enough_bars():
    with pytest.raises(DataError):
        realized_vol(bars_from_closes(np.full(10, 100.0)), 10)
    with pytest.raises(DataError):
        realized_vol(bars_from_closes(np.full(10, 100.0)), 0)


# -- HAR with order flow ----------------------------------------------------


def har_inputs(n, seed):
    rng = np.random.default_rng(seed)
    rv_f = np.empty(n)
    rv_f[0] = 1.0
    noise = 0.1 * np.abs(rng.standard_normal(n)) + 0.05
    for t in range(1, n):
        rv_f[t] = 0.5 * rv_f[t - 1] + noise[t]
    rv_h = np.abs(rng.standard_normal(n)) + 1.0
    rv_d = np.abs(rng.standard_normal(n)) + 1.0
    volume = rng.uniform(100.0, 200.0, n)
    vpin = rng.uniform(0.1, 0.9, n)
    return rv_f, rv_h, rv_d, volume, vpin


def test_har_recovers_persistence_coefficient():
    rv_f, rv_h, rv_d, volume, vpin = har_inputs(2000, 4)
    fit = fit_har_vpin(rv_f, rv_h, rv_d, volume, vpin, horizon=1)
    assert abs(fit.betaF - 0.5) <= 0.05
    se = fit.diagnostics.standard_errors
    assert abs(fit.betaH) <= 2 * se[2]
    assert abs(fit.betaD) <= 2 * se[3]
    assert abs(fit.betaV) <= 2 * se[4]
    assert abs(fit.betaVPIN) <= 2 * se[5]
    assert fit.horizon == 1


def test_har_longer_horizon_sums_forward_blocks():
    rv_f, rv_h, rv_d, volume, vpin = har_inputs(500, 3)
    fit = fit_har_vpin(rv_f, rv_h, rv_d, volume, vpin, horizon=3)
    # target drops the last 3 rows, so the regression still runs
    assert fit.diagnostics.n_obs == 497


def test_har_rejects_degenerate_inputs():
    rv_f, rv_h, rv_d, volume, vpin = har_inputs(300, 5)
    with pytest.raises(DataError):
        fit_har_vpin(rv_f, rv_h, rv_d, volume, np.full(300, 0.5))
    with pytest.raises(DataError):
        fit_har_vpin(np.ones(300), np.ones(300), np.ones(300),
                     np.ones(300), np.ones(300))
    with pytest.raises(DataError):
        fit_har_vpin(rv_f[:99], rv_h[:99], rv_d[:99], volume[:99], vpin[:99])
    with pytest.raises(DataError):
        fit_har_vpin(rv_f, rv_h, rv_d, volume[:200], vpin)
    with pytest.raises(DataError):
        fit_har_vpin(rv_f, rv_h, rv_d, volume, vpin, horizon=0)

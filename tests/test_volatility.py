import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import microstrat
from microstrat import _scipy, volatility
from microstrat.errors import DataError, NonConvergenceError
from microstrat.marketdata import simulate_garch
from microstrat.volatility import (
    GarchFit,
    GarchSpec,
    _initial_raw,
    _objective,
    _variance_path,
    _Workspace,
    fit_garch,
    garch_loglik,
)


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
    r = simulate_garch(np.random.default_rng(7).standard_normal(3000), 1e-6, 0.05, 0.90)
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
    r = simulate_garch(np.random.default_rng(0).standard_normal(500), 1e-6, 0.05, 0.9)
    with pytest.raises(DataError):
        garch_loglik(np.array([1e-6, 0.05]), r, GarchSpec(1, 1))


def test_infeasible_point_returns_minus_inf():
    r = simulate_garch(np.random.default_rng(1).standard_normal(500), 1e-6, 0.05, 0.9)
    # strongly negative leverage drives h below zero on the first down tick
    theta = np.array([0.0, 1e-9, 0.0, -5.0, 0.0])
    ll, g = garch_loglik(theta, r, GarchSpec(1, 1, True, "constant"))
    assert ll == -math.inf
    assert np.all(g == 0.0)


def _feasible_theta(spec, rng):
    """Stationary coefficients and a small mean for `spec`."""
    p, q = spec.p, spec.q
    coefs = rng.uniform(0.01, 1.0, p + q)
    coefs *= rng.uniform(0.0, 0.98) / coefs.sum()
    mean = np.array([rng.uniform(-1e-4, 1e-4), rng.uniform(-0.5, 0.5)])
    lam = [rng.uniform(0.0, 0.2)] if spec.leverage else []
    return np.concatenate([mean[:spec.n_mean], [rng.uniform(1e-7, 1e-5)],
                           coefs[:p], lam, coefs[p:]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.booleans(),
       st.sampled_from(("zero", "constant", "ar1")), st.integers(0, 2**16))
def test_reused_workspace_matches_a_fresh_one(p, q, leverage, mean_model, seed):
    """A workspace carries nothing between calls: not after a call at
    another theta, not after an infeasible call that returned with its
    buffers half-written, not from whatever it held before."""
    assume(p + q >= 1 and (p >= 1 or not leverage))
    spec = GarchSpec(p, q, leverage, mean_model)
    rng = np.random.default_rng(seed)
    x = 1e-3 * rng.standard_normal(300)
    theta, other = _feasible_theta(spec, rng), _feasible_theta(spec, rng)
    infeasible = theta.copy()
    infeasible[spec.n_mean] = -1e-3
    ll, grad = garch_loglik(theta, x, spec)
    work = _Workspace(x.shape[0])
    for name in _Workspace.__slots__:
        getattr(work, name).fill(np.nan)
    for before in (None, other, infeasible):
        if before is infeasible:
            assert garch_loglik(before, x, spec, work=work)[0] == -math.inf
        elif before is not None:
            garch_loglik(before, x, spec, work=work)
        ll_w, grad_w = garch_loglik(theta, x, spec, work=work)
        assert np.float64(ll_w).tobytes() == np.float64(ll).tobytes()
        assert grad_w.tobytes() == grad.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.booleans(),
       st.sampled_from(("zero", "constant", "ar1")), st.integers(0, 2**16))
def test_raw_gradient_matches_finite_differences(p, q, leverage, mean_model, seed):
    """The gradient the optimizer gets, the likelihood's carried through the
    raw transform by `_chain_gradient`, matches central differences of the
    objective's value at a point near the optimizer's start."""
    assume(p + q >= 1 and (p >= 1 or not leverage))
    spec = GarchSpec(p, q, leverage, mean_model)
    rng = np.random.default_rng(seed)
    x = 1e-3 * rng.standard_normal(300)
    seed_var, rbar = float(np.var(x)), float(np.mean(x))
    raw = _initial_raw(spec, seed_var, rbar)
    jitter = rng.uniform(-0.2, 0.2, raw.shape[0])
    if spec.n_mean:
        jitter[0] *= np.std(x)  # mu is on the returns' scale
    raw += jitter
    objective = _objective(x, spec, seed_var, rbar)
    f, g = objective(raw)
    assert f < 1e12
    g_fd = np.empty(raw.shape[0])
    for i in range(raw.shape[0]):
        step = 1e-6 * max(abs(raw[i]), 1e-3)
        up, dn = raw.copy(), raw.copy()
        up[i] += step
        dn[i] -= step
        g_fd[i] = (objective(up)[0] - objective(dn)[0]) / (2.0 * step)
    np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-2)


def test_fit_paths_are_not_a_reused_buffer():
    """cond_variance and residuals survive the Hessian's evaluations and a
    second fit, so they are not the buffers those write into."""
    r = simulate_garch(np.random.default_rng(9).standard_normal(2000), 1e-6, 0.05, 0.90,
                       leverage=0.04, mu=1e-5, phi=0.2)
    spec = GarchSpec(1, 1, True, "ar1")
    fit = fit_garch(r, spec)
    h, eps = fit.cond_variance.copy(), fit.residuals.copy()
    fit.parameter_table(r)
    fit_garch(r[::-1], spec)
    assert fit.cond_variance.tobytes() == h.tobytes()
    assert fit.residuals.tobytes() == eps.tobytes()


def test_loglik_in_a_workspace_allocates_under_two_arrays():
    """With a workspace, one evaluation allocates little beyond the filter
    kernel's own output, where fresh temporaries took about eleven arrays."""
    n = 50_000
    r = simulate_garch(np.random.default_rng(4).standard_normal(n), 1e-6, 0.05, 0.90,
                       leverage=0.04, mu=1e-5, phi=0.2)
    spec = GarchSpec(2, 2, True, "ar1")
    theta = np.array([1e-5, 0.2, 1e-6, 0.03, 0.02, 0.04, 0.45, 0.40])
    seed_var, rbar = float(np.var(r)), float(np.mean(r))
    work = _Workspace(n)
    # the first call loads the filter kernel
    assert math.isfinite(garch_loglik(theta, r, spec, seed_var, rbar, work)[0])
    tracemalloc.start()
    try:
        garch_loglik(theta, r, spec, seed_var, rbar, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 8


def test_variance_recursion_reevaluates_exactly():
    r = simulate_garch(np.random.default_rng(3).standard_normal(2000), 1e-6, 0.05, 0.90)
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
        r = simulate_garch(np.random.default_rng(seed).standard_normal(20000),
                           1e-6, 0.05, 0.90)
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
        r = simulate_garch(np.random.default_rng(seed).standard_normal(20000),
                           1e-6, 0.05, 0.90)
        fit = fit_garch(r, spec)
        ll_true, _ = garch_loglik(np.array([0.0, 1e-6, 0.05, 0.90]), r, spec)
        assert fit.log_likelihood >= ll_true - 1e-6


def test_iid_normal_variance_level():
    r = 0.01 * np.random.default_rng(21).standard_normal(3000)
    fit = fit_garch(r, GarchSpec(1, 1, False, "constant"))
    ratio = float(np.mean(fit.cond_variance)) / float(np.var(r))
    assert 0.8 < ratio < 1.2


def test_std_errors_finite_and_named():
    r = simulate_garch(np.random.default_rng(31).standard_normal(20000), 1e-6, 0.05, 0.90)
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
    """Nine fits in ten find the positive leverage, and each recovers the
    simulator's persistence alpha + lambda / 2 + beta = 0.955."""
    pos = 0
    for seed in range(10):
        r = simulate_garch(np.random.default_rng(100 + seed).standard_normal(20000),
                           1e-6, 0.05, 0.88, leverage=0.05)
        fit = fit_garch(r, GarchSpec(leverage=True))
        pos += fit.leverage_coef > 0
        assert abs(fit.persistence - 0.955) < 0.02
    assert pos >= 9


def test_tgarch_on_symmetric_data_gives_null_leverage():
    within = 0
    for seed in range(10):
        r = simulate_garch(np.random.default_rng(200 + seed).standard_normal(10000),
                           1e-6, 0.05, 0.90)
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


def test_fit_rejects_negative_alpha1_plus_lambda():
    """A down shock may not lower the next variance: alpha_1 + lambda < 0
    is not a GarchFit, even where the in-sample variances stay positive."""
    with pytest.raises(DataError, match=r"alpha_1 \+ lambda"):
        GarchFit(spec=GarchSpec(1, 1, True, "zero"), omega=1e-6,
                 alphas=[0.05], gammas=[0.9], leverage_coef=-0.06,
                 mean_params=[], cond_variance=[1e-5, 1e-5], residuals=[1e-3, 1e-3],
                 log_likelihood=0.0, seed_variance=1e-5, iterations=0)


def test_fit_is_deterministic():
    r = simulate_garch(np.random.default_rng(17).standard_normal(5000), 1e-6, 0.05, 0.90)
    a = fit_garch(r)
    b = fit_garch(r)
    assert np.array_equal(a.theta(), b.theta())
    assert a.log_likelihood == b.log_likelihood


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_returns_before_evaluating(value, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("garch_loglik was called")

    monkeypatch.setattr(volatility, "garch_loglik", never)
    r = simulate_garch(np.random.default_rng(2).standard_normal(3000), 1e-6, 0.05, 0.90)
    r[[1234, 2000]] = value
    with pytest.raises(DataError, match="return 1234 is not finite"):
        fit_garch(r)


def _bench_window():
    """2,000 returns of the benchmark's process: GARCH(0.08, 0.88) with an
    AR(1) mean of 0.15."""
    return simulate_garch(np.random.default_rng(3).standard_normal(2000),
                          2e-8, 0.08, 0.88, phi=0.15)


def test_fit_raises_at_the_iteration_limit(monkeypatch):
    monkeypatch.setattr(volatility, "MAX_FIT_ITER", 2)
    with pytest.raises(NonConvergenceError,
                       match="(?i)iterations reached limit") as info:
        fit_garch(_bench_window(), GarchSpec(1, 1, False, "ar1"))
    assert info.value.iterations == 2
    assert info.value.gradient_norm > 1.0


def _lbfgsb_cases():
    x = _bench_window()
    ar1, tgarch = GarchSpec(1, 1, False, "ar1"), GarchSpec(2, 2, True, "constant")
    lev = GarchSpec(1, 1, True, "constant")
    lev_start = volatility._initial_raw(lev, float(np.var(x)), float(np.mean(x)))
    # from omega e^300 a line search steps where h overflows
    lev_start[lev.n_mean] = 300.0

    def arch(seed):
        return simulate_garch(np.random.default_rng(seed).standard_normal(400),
                              1e-6, 0.1, 0.0, phi=0.15)

    arch_zero = GarchSpec(1, 0, False, "zero")
    return {"ar1": (x, ar1, None, 500),
            "tgarch22": (x, tgarch, None, 500),
            "zero-mean": (x, GarchSpec(1, 1, False, "zero"), None, 500),
            "cut-off": (x, ar1, None, 3),
            "infeasible": (x, lev, lev_start, 500),
            # the kernel asks again for the point it was just given
            "repeated-x": (arch(0), GarchSpec(1, 0, False, "ar1"), None, 500),
            # stops on gtol
            "gradient-stop": (arch(3), arch_zero, None, 500),
            # takes more than 10 line-search steps, and repeats points too
            "long-line-search": (arch(6), arch_zero, None, 500)}


@pytest.mark.parametrize("case", [
    "ar1", "tgarch22", "zero-mean", "cut-off", "infeasible", "repeated-x",
    "gradient-stop", "long-line-search"])
def test_lbfgsb_driver_matches_scipy_minimize(case, monkeypatch):
    """The driver makes the calls scipy's L-BFGS-B makes on the same kernel,
    so it takes the same steps bit for bit."""
    setulb = _scipy.setulb()
    if setulb is None:
        pytest.skip("this scipy's L-BFGS-B kernel has another signature; "
                    "fit_garch calls scipy.optimize.minimize there")
    from scipy.optimize import minimize

    x, spec, start, max_iter = _lbfgsb_cases()[case]
    monkeypatch.setattr(volatility, "MAX_FIT_ITER", max_iter)
    seed_var, rbar = float(np.var(x)), float(np.mean(x))
    if start is None:
        start = volatility._initial_raw(spec, seed_var, rbar)
    values = {"driver": [], "scipy": []}

    def counted(side):
        objective = volatility._objective(x, spec, seed_var, rbar)

        def call(raw):
            f, g = objective(raw)
            values[side].append(f)
            return f, g
        return call

    requests = []

    def kernel(*args):
        setulb(*args)
        requests.append(args[11][0] == 3)  # task FG

    raw, jac, nit, converged, message = volatility._lbfgsb(
        counted("driver"), start.copy(), kernel)
    res = minimize(counted("scipy"), start.copy(), jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "ftol": 1e-13, "gtol": 1e-7})
    assert raw.tobytes() == res.x.tobytes()
    assert jac.tobytes() == res.jac.tobytes()
    assert (nit, converged) == (res.nit, res.success)
    assert values["driver"] == values["scipy"]
    if case == "cut-off":
        assert nit == 3 and not converged
    if case == "infeasible":
        assert 1e12 in values["driver"] and nit > 1
    if case == "gradient-stop":
        assert message.endswith("PGTOL") and converged
    # scipy does not evaluate the same x twice in a row, and neither does
    # the driver
    assert (sum(requests) > len(values["driver"])) \
        == (case in ("repeated-x", "long-line-search"))


def test_non_finite_gradient_is_an_infeasible_point():
    """At a raw TGARCH(2,2) point with omega e^-484 and ARCH weights e^-700,
    h sinks to omega: the log-likelihood stays finite, but dl/dh overflows.
    The objective treats the point as infeasible and warns of nothing, which
    the warnings-as-errors setting checks."""
    spec = GarchSpec(2, 2, True, "constant")
    x = simulate_garch(np.random.default_rng(5).standard_normal(500), 2e-8, 0.1, 0.8)
    seed_var, rbar = float(np.var(x)), float(np.mean(x))
    # mean, log omega, logit persistence, then the logits of the up- and
    # down-shock weights, alpha_2 and gamma_1; gamma_2's is 0
    raw = np.array([rbar, -484.0, -30.0, -700.0, -700.0, -700.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        ll, g = garch_loglik(volatility._raw_to_natural(raw, spec)[0], x, spec,
                             seed_var, rbar)
    assert math.isfinite(ll) and not np.isfinite(g).all()
    f, grad = volatility._objective(x, spec, seed_var, rbar)(raw)
    assert f == 1e12
    assert grad.tobytes() == np.zeros(raw.shape[0]).tobytes()


def test_fit_through_scipy_minimize_is_the_same_fit(monkeypatch):
    """Where the kernel's signature differs, fit_garch calls scipy's own
    driver, which takes the same steps."""
    x, spec = _bench_window(), GarchSpec(1, 1, False, "ar1")
    driven = fit_garch(x, spec)
    monkeypatch.setattr(_scipy, "setulb", lambda: None)
    minimized = fit_garch(x, spec)
    assert minimized.theta().tobytes() == driven.theta().tobytes()
    assert minimized.iterations == driven.iterations


def test_logistic_matches_expit_bit_for_bit():
    """The persistence weight is scipy's `expit` of its logit, 1.0 or 0.0
    without a warning where e^-x overflows."""
    from scipy.special import expit

    spec = GarchSpec(1, 1, False, "zero")
    logits = np.array([700.0, -700.0, 709.8, -709.8, 800.0, -800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([volatility._raw_to_natural(np.array([0.0, v, 0.0]),
                                                   spec)[2] for v in logits])
    assert got.tobytes() == expit(logits).tobytes()
    assert got[-1] == 0.0 and got[-2] == 1.0


# -- one-step forecasts -----------------------------------------------------


def test_forecast_one_step_is_exact():
    r = simulate_garch(np.random.default_rng(5).standard_normal(5000), 1e-6, 0.05, 0.90)
    fit = fit_garch(r)
    manual = fit.omega
    manual += fit.alphas[0] * fit.residuals[-1] ** 2
    manual += fit.gammas[0] * fit.cond_variance[-1]
    assert fit.path(r)[0][-1] == manual


def test_forecast_mean_paths():
    r = simulate_garch(np.random.default_rng(6).standard_normal(5000), 1e-6, 0.05, 0.90)
    zero_fit = fit_garch(r, GarchSpec(1, 1, False, "zero"))
    assert zero_fit.path(r)[1][-1] == 0.0

    r2 = simulate_garch(np.random.default_rng(8).standard_normal(10000), 1e-6, 0.05, 0.90,
                        mu=1e-5, phi=0.3)
    ar_fit = fit_garch(r2, GarchSpec(1, 1, False, "ar1"))
    mu, phi = ar_fit.mean_params
    assert ar_fit.path(r2)[1][-1] == mu + phi * r2[-1]


@pytest.mark.parametrize("spec", [
    GarchSpec(1, 1, False, "ar1"), GarchSpec(2, 2, True, "ar1"),
    GarchSpec(2, 1, True, "constant"), GarchSpec(1, 0, False, "zero"),
    GarchSpec(1, 2, True, "zero")], ids=str)
def test_stepper_continues_the_in_sample_filter(spec):
    """A fit's path through later returns is the in-sample filter over the
    longer series, with the fit's seed variance and window mean."""
    x = simulate_garch(np.random.default_rng(23).standard_normal(1500), 1e-6, 0.05, 0.88,
                       leverage=0.04, mu=1e-5, phi=0.2)
    n = 1200
    fit = fit_garch(x[:n], spec)
    var_path, mean_path = fit.path(x)
    rbar = float(np.mean(x[:n]))
    h, eps, _, _ = _variance_path(fit.theta(), x, spec, fit.seed_variance, rbar)
    np.testing.assert_array_equal(var_path[:n], fit.cond_variance)
    np.testing.assert_array_equal(var_path[:-1], h)
    # each return less its conditional mean is the filter's residual, up to
    # the order the AR(1) residual is rounded in
    np.testing.assert_allclose(x - mean_path[:-1], eps, rtol=0.0,
                               atol=1e-15 * np.max(np.abs(x)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.booleans(),
       st.sampled_from(("zero", "constant", "ar1")), st.data())
def test_path_is_causal_property(p, q, leverage, mean_model, data):
    """For any order, leverage, mean model and stationary coefficients, a
    fit's path through later returns is causal: changing return j leaves
    every forecast up to and including the one for return j as it was, and
    the path over a prefix is the same prefix of the path."""
    assume(p + q >= 1 and (p >= 1 or not leverage))
    spec = GarchSpec(p, q, leverage, mean_model)
    unit = st.floats(0.01, 1.0)
    weights = np.array(data.draw(st.lists(unit, min_size=p + q, max_size=p + q)))
    coefs = data.draw(st.floats(0.0, 0.98)) * weights / weights.sum()
    alphas, gammas = coefs[:p], coefs[p:]
    omega = data.draw(st.floats(1e-7, 1e-5))
    # alpha_1 + lambda >= 0, and sum alpha + lambda / 2 + sum gamma <= 0.99
    lam = (data.draw(st.floats(-alphas[0], 2.0 * (0.99 - coefs.sum())))
           if leverage else 0.0)
    mean = np.array(data.draw(st.tuples(st.floats(-1e-4, 1e-4),
                                        st.floats(-0.5, 0.5))))[:spec.n_mean]
    theta = np.concatenate([mean, [omega], alphas, [lam] if leverage else [],
                            gammas])
    x = 1e-3 * np.random.default_rng(data.draw(st.integers(0, 2**16))) \
        .standard_normal(400)
    n = data.draw(st.integers(50, 350))
    seed_var, rbar = float(np.var(x[:n])), float(np.mean(x[:n]))
    h, eps, _, _ = _variance_path(theta, x[:n], spec, seed_var, rbar)
    fit = GarchFit(spec=spec, omega=omega, alphas=alphas, gammas=gammas,
                   leverage_coef=lam, mean_params=mean, cond_variance=h,
                   residuals=eps, log_likelihood=0.0, seed_variance=seed_var,
                   iterations=0)
    var_path, mean_path = fit.path(x)
    assert var_path.shape == mean_path.shape == (x.shape[0] + 1,)

    j = data.draw(st.integers(n, x.shape[0] - 1))
    bumped = x.copy()
    bumped[j] += data.draw(st.sampled_from((-5e-3, 1e-6, 5e-3)))
    var_b, mean_b = fit.path(bumped)
    np.testing.assert_array_equal(var_b[:j + 1], var_path[:j + 1])
    np.testing.assert_array_equal(mean_b[:j + 1], mean_path[:j + 1])

    m = data.draw(st.integers(n, x.shape[0]))
    var_m, mean_m = fit.path(x[:m])
    np.testing.assert_array_equal(var_m, var_path[:m + 1])
    np.testing.assert_array_equal(mean_m, mean_path[:m + 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2),
       st.sampled_from(("zero", "constant", "ar1")), st.data())
def test_leverage_transform_is_feasible_property(p, q, mean_model, data):
    """Every raw TGARCH point maps to alpha >= 0, alpha_1 + lambda >= 0 and
    persistence s, so on returns with large down shocks every variance
    after the seed, in sample and forecast, is at least omega."""
    spec = GarchSpec(p, q, True, mean_model)
    logits = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=p + q,
                                max_size=p + q))
    raw = np.array([*data.draw(st.tuples(st.floats(-1e-4, 1e-4),
                                         st.floats(-3.0, 3.0)))[:spec.n_mean],
                    data.draw(st.floats(-25.0, -5.0)),
                    data.draw(st.floats(-5.0, 5.0)), *logits])
    theta, omega, s, _ = volatility._raw_to_natural(raw, spec)
    mean, _, alphas, lam, gammas = spec.split(theta)
    assert np.all(alphas >= 0.0) and np.all(gammas >= 0.0)
    assert alphas[0] + lam >= 0.0

    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = 1e-3 * rng.standard_normal(400)
    x[rng.choice(400, 40, replace=False)] = -0.05
    n = 300
    seed_var, rbar = float(np.var(x[:n])), float(np.mean(x[:n]))
    h, eps, _, _ = _variance_path(theta, x[:n], spec, seed_var, rbar)
    fit = GarchFit(spec=spec, omega=omega, alphas=alphas, gammas=gammas,
                   leverage_coef=lam, mean_params=mean, cond_variance=h,
                   residuals=eps, log_likelihood=0.0, seed_variance=seed_var,
                   iterations=0)
    assert fit.persistence == pytest.approx(s, rel=1e-12, abs=0.0)
    assert np.all(fit.path(x)[0][1:] >= omega)


def test_path_needs_the_fitted_returns_first():
    x = simulate_garch(np.random.default_rng(29).standard_normal(800), 1e-6, 0.05, 0.88)
    fit = fit_garch(x[:500])
    with pytest.raises(DataError, match="fit on"):
        fit.path(x[1:])
    with pytest.raises(DataError, match="fit on"):
        fit.path(x[::-1])
    with pytest.raises(DataError, match="500 returns"):
        fit.path(x[:499])


# Runs in a fresh interpreter, so `scipy.special` and `scipy.signal` are
# first imported after VPIN and the filter have loaded their kernels, and
# must reuse those modules. With argv[1] "standalone", VPIN's ndtr must come
# without the scipy.special package.
_KERNEL_PROBE = """
import sys
import numpy as np
from microstrat.marketdata import SynthSpec, synth_ticks
from microstrat.volatility import _ar_filter
from microstrat import _scipy
from microstrat.vpin import vpin_from_ticks

rng = np.random.default_rng(5)
cases = []
for q in (1, 2, 3) * 10:
    a_poly = np.concatenate([[1.0], -rng.uniform(0.0, 0.95 / q, q)])
    x = rng.uniform(1e-7, 1e-5, 500)
    presample = rng.uniform(1e-7, 1e-5, q)
    cases.append((a_poly, x, presample,
                  _ar_filter(a_poly, x), _ar_filter(a_poly, x, presample)))
kernel = sys.modules["scipy.signal._sigtools"]
vpin_from_ticks(synth_ticks(SynthSpec(count=20_000, seed=22)), window=10)
assert "scipy.signal" not in sys.modules
if sys.argv[1:] == ["standalone"]:
    assert "scipy.special" not in sys.modules
    ufuncs = sys.modules["scipy.special._special_ufuncs"]
    ndtr = _scipy.special("ndtr")
    assert ndtr is ufuncs.ndtr
    grid = np.concatenate([np.linspace(-40.0, 40.0, 16_001),
                           [0.0, -0.0, np.inf, -np.inf, np.nan]])
    phi = ndtr(grid)

    import scipy.special

    assert sys.modules["scipy.special._special_ufuncs"] is ufuncs
    assert scipy.special.ndtr is ndtr
    np.testing.assert_array_equal(phi.view(np.int64),
                                  scipy.special.ndtr(grid).view(np.int64))

from scipy.signal import lfilter, lfiltic

assert sys.modules["scipy.signal._sigtools"] is kernel
for a_poly, x, presample, bare, seeded in cases:
    zi = lfiltic([1.0], a_poly, presample)
    np.testing.assert_array_equal(bare.view(np.int64),
                                  lfilter([1.0], a_poly, x).view(np.int64))
    np.testing.assert_array_equal(
        seeded.view(np.int64),
        lfilter([1.0], a_poly, x, zi=zi)[0].view(np.int64))
"""


def _standalone(name: str) -> bool:
    """Whether `_scipy.special` finds `name` in scipy's standalone module."""
    return _scipy.special(name) is getattr(
        sys.modules.get("scipy.special._special_ufuncs"), name, None)


def test_standalone_kernels_match_scipy_bit_for_bit():
    standalone = _standalone("ndtr")
    src = os.path.dirname(os.path.dirname(microstrat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _KERNEL_PROBE,
                           *["standalone"] * standalone], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


"""End-to-end acceptance: one test per release criterion.

Each test prints a single summary line with the measured numbers so a
`pytest -v -s` run reads as a checklist. Tolerances are stated inline;
stated runtime budgets are asserted, not just hoped for.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from microstrat.backtest import Account, CostModel, EngineConfig, compute_metrics, \
    run_backtest, run_variants
from microstrat.cli import main as cli_main
from microstrat.denoise import denoise, haar_dwt, haar_idwt, max_level
from microstrat.errors import NonConvergenceError
from microstrat.marketdata import SynthSpec, TickSeries, simulate_garch, synth_ticks
from microstrat.stats import adf_test, granger_test
from microstrat.strategy import SIDE_BUY, SIDE_SELL, StrategyConfig
from microstrat.svm import Kernel, predict, train_smo
from microstrat.volatility import GarchSpec, fit_garch, garch_loglik
from microstrat.vpin import bucket_fill, default_bucket_volume, vpin_from_ticks


@pytest.fixture(scope="module")
def ticks4():
    spec = SynthSpec(count=4 * 28800, seed=3, phi=0.15, omega=2e-8,
                     alpha=0.08, beta=0.88, tick_interval_ms=500)
    return synth_ticks(spec)


@pytest.fixture(scope="module")
def base_run(ticks4):
    return run_backtest(ticks4, StrategyConfig())


def test_criterion_1_vpin_bounds_and_conservation():
    t0 = time.perf_counter()
    ticks = synth_ticks(SynthSpec(count=1_000_000, seed=0))
    bv = default_bucket_volume(ticks.ts, ticks.volume)
    raw = bucket_fill(ticks, bv)
    totals = [float(raw.volume[lo:hi].sum())
              for lo, hi in zip(raw.offsets[:-1], raw.offsets[1:])]
    # integer volumes survive cumsum/diff exactly, so these hold with == 0
    assert sum(totals) == float(ticks.volume.sum())
    for total in totals[:raw.complete]:
        assert total == bv
    series = vpin_from_ticks(ticks)
    assert np.all(series.values >= 0.0) and np.all(series.values <= 1.0)
    balanced_max = float(series.values.max())
    assert balanced_max < 0.05

    template = synth_ticks(SynthSpec(count=200_000, seed=1))
    rng = np.random.default_rng(2)
    up = 3000.0 + np.cumsum(10.0 + 0.01 * rng.standard_normal(len(template)))
    all_buy = TickSeries(template.ts, up, template.volume)
    buy_min = float(vpin_from_ticks(all_buy).values.min())
    assert buy_min > 0.999
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: {series.values.shape[0]} vpin values in [0,1], "
          f"conservation exact, balanced max {balanced_max:.4f} < 0.05, "
          f"all-buy min {buy_min:.4f} > 0.999, {elapsed:.2f}s < 5s")


def test_criterion_2_garch_recovery():
    t0 = time.perf_counter()
    spec = GarchSpec(p=1, q=1, leverage=False, mean_model="zero")
    hits = 0
    fails = 0
    for seed in range(20):
        r = simulate_garch(np.random.default_rng(seed).standard_normal(20_000),
                           1e-6, 0.05, 0.90)
        try:
            fit = fit_garch(r, spec)
        except NonConvergenceError:
            fails += 1
            continue
        assert fit.persistence < 1.0
        if abs(fit.alphas[0] - 0.05) <= 0.03 and abs(fit.gammas[0] - 0.90) <= 0.03:
            hits += 1
    assert hits >= 18

    r0 = simulate_garch(np.random.default_rng(0).standard_normal(20_000), 1e-6, 0.05, 0.90)
    theta = np.array([1e-6, 0.05, 0.90])
    _, grad = garch_loglik(theta, r0, spec)
    fd = np.empty_like(theta)
    for i in range(theta.shape[0]):
        step = 1e-6 * max(abs(theta[i]), 1e-8)
        hi, lo = theta.copy(), theta.copy()
        hi[i] += step
        lo[i] -= step
        fd[i] = (garch_loglik(hi, r0, spec)[0]
                 - garch_loglik(lo, r0, spec)[0]) / (2.0 * step)
    rel = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)))
    assert rel < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 2 PASS: {hits}/20 seeds within ±0.03 "
          f"({fails} non-convergent), persistence < 1 always, "
          f"gradient rel err {rel:.2e} < 1e-5, {elapsed:.1f}s < 60s")


def test_criterion_3_size_and_power():
    t0 = time.perf_counter()
    n = 500
    wn_reject = sum(
        adf_test(np.random.default_rng(s).standard_normal(n)).p_value < 0.01
        for s in range(200))
    rw_accept = sum(
        adf_test(np.cumsum(np.random.default_rng(1000 + s).standard_normal(n))
                 ).p_value >= 0.05
        for s in range(200))
    assert wn_reject >= 180
    assert rw_accept >= 180

    causal_rejects = 0
    for s in range(10):
        rng = np.random.default_rng(s)
        x = rng.standard_normal(n)
        e = rng.standard_normal(n)
        y = np.zeros(n)
        for t in range(2, n):
            y[t] = 0.4 * x[t - 1] + 0.3 * x[t - 2] + 0.5 * e[t]
        if granger_test(x, y, lag=2).x_causes_y.p_value < 0.01:
            causal_rejects += 1
    assert causal_rejects == 10

    size_hits = 0
    for s in range(1000):
        rng = np.random.default_rng(10_000 + s)
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        if granger_test(a, b, lag=2).x_causes_y.p_value < 0.05:
            size_hits += 1
    size = size_hits / 1000.0
    assert 0.04 <= size <= 0.065
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 3 PASS: ADF white-noise rejections {wn_reject}/200, "
          f"random-walk non-rejections {rw_accept}/200, causal VAR 10/10 at "
          f"1%, Granger size {size:.3f} in [0.04, 0.065], {elapsed:.1f}s < 2min")


def test_criterion_4_wavelet():
    rng = np.random.default_rng(7)
    worst_rec = 0.0
    worst_energy = 0.0
    energy_checked = 0
    for n in range(2, 4097):
        x = rng.standard_normal(n)
        dec = haar_dwt(x, max_level(n))
        back = haar_idwt(dec)
        worst_rec = max(worst_rec, float(np.max(np.abs(back - x))))
        # orthonormal energy identity holds at any depth the halvings
        # stay even; odd tails are extended and deliberately excluded
        depth = (n & -n).bit_length() - 1
        if depth >= 1:
            flat = haar_dwt(x, depth)
            assert not any(flat.padded)
            worst_energy = max(
                worst_energy,
                abs(flat.coefficient_energy() - float(x @ x)) / float(x @ x))
            energy_checked += 1
    assert worst_rec < 1e-10
    assert worst_energy < 1e-9

    rng = np.random.default_rng(36)
    clean = np.repeat([0.0, 4.0, -2.0, 3.0, 1.0, -3.0, 2.0, 0.5], 256)
    noise_sigma = math.sqrt(float(np.var(clean)) / 10.0)
    noisy = clean + noise_sigma * rng.standard_normal(clean.shape[0])
    smoothed, _ = denoise(noisy, level=6, mode="estimated")
    mse_before = float(np.mean((noisy - clean) ** 2))
    mse_after = float(np.mean((smoothed - clean) ** 2))
    reduction = 1.0 - mse_after / mse_before
    assert reduction >= 0.30
    print(f"criterion 4 PASS: reconstruction {worst_rec:.2e} < 1e-10 over "
          f"lengths 2..4096, energy {worst_energy:.2e} < 1e-9 on "
          f"{energy_checked} pad-free decompositions, "
          f"MSE reduction {reduction:.1%} >= 30%")


def test_criterion_5_svm():
    sep_x = np.array([[2.0, 2.0], [3.0, 3.0], [-2.0, -2.0], [-3.0, -3.0]])
    sep_y = np.array([1, 1, -1, -1])
    xor_x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    xor_y = np.array([1, 1, -1, -1])
    m1 = train_smo(sep_x, sep_y, c=10.0, kernel=Kernel.linear())
    m2 = train_smo(xor_x, xor_y, c=100.0, kernel=Kernel.rbf(1.0))
    assert np.array_equal(predict(m1, sep_x), sep_y)
    assert np.array_equal(predict(m2, xor_x), xor_y)

    worst_kkt = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        X = rng.standard_normal((40, 3))
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        y = np.where(X @ w >= 0, 1, -1)
        X = X + 0.5 * y[:, None] * w  # guaranteed margin
        kernel = Kernel.rbf(1.5) if trial % 2 else Kernel.linear()
        model = train_smo(X, y, c=10.0, kernel=kernel, tol=1e-3)
        worst_kkt = max(worst_kkt, model.report.max_kkt_violation)
        log = np.asarray(model.report.objective_log)
        assert np.all(np.diff(log) >= -1e-10)
    assert worst_kkt <= 1e-3
    print(f"criterion 5 PASS: fixtures 100% accurate, KKT worst "
          f"{worst_kkt:.2e} <= 1e-3 over 50 problems, dual monotone")


def test_criterion_6_accounting(ticks4):
    rng = np.random.default_rng(99)
    acct = Account(CostModel())
    steps = 0
    while steps < 100_000:
        px = float(rng.uniform(2500, 3500))
        acct.open(steps, SIDE_BUY if rng.random() < 0.5 else SIDE_SELL,
                  int(rng.integers(1, 4)), px)
        acct.close(steps + 1, px * float(rng.uniform(0.995, 1.005)))
        steps += 2
    assert acct.max_residual < 1e-6

    fee = Account(CostModel())
    fee.open(0, SIDE_BUY, 1, 3000.0)
    fee.close(1, 3000.0)
    assert fee.fees_paid == 2 * 3000.0 * 300.0 * 6.87e-4

    null = run_backtest(ticks4, StrategyConfig(),
                        engine=EngineConfig(garch_spec=GarchSpec(
                            1, 1, False, "zero")))
    assert null.report.trade_count == 0
    assert null.report.total_return == 0.0

    m = compute_metrics(np.array([1.0, 0.5, 0.75]),
                        np.array([1.0, 1.0, 1.0]), 240)
    assert m.max_drawdown == pytest.approx(-0.5)
    print(f"criterion 6 PASS: ledger residual {acct.max_residual:.2e} < 1e-6 "
          f"over 100000 steps, fee 1236.6 exact, null strategy exactly 0, "
          f"drawdown fixture -50%")


def test_criterion_7_layer_composition(ticks4):
    results = run_variants(ticks4, StrategyConfig())
    assert sorted(results) == ["G", "G+S", "G+V", "G+V+S"]
    for tag, res in results.items():
        r = res.report
        for field in ("total_return", "annualized_return",
                      "relative_return_vs_benchmark", "alpha", "beta",
                      "max_drawdown", "sharpe"):
            assert math.isfinite(getattr(r, field)), (tag, field)
    assert results["G+S"].report.trade_count <= results["G"].report.trade_count

    g, gv = results["G"].signal_log, results["G+V"].signal_log
    assert len(g) == len(gv)
    adjustments = 0
    for i in range(1, len(gv)):
        if gv[i].delta1 == gv[i - 1].delta1:
            continue
        crossed = "vpin-hi" in gv[i].layer_trace or "vpin-lo" in gv[i].layer_trace
        # an untagged change can only be the shared recalibration value
        assert crossed or gv[i].delta1 == g[i].delta1, i
        adjustments += crossed
    assert adjustments > 0  # the property must not hold vacuously
    print(f"criterion 7 PASS: four variants complete with full indicator "
          f"set, G+S trades {results['G+S'].report.trade_count} <= "
          f"G {results['G'].report.trade_count}, {adjustments} delta1 "
          f"adjustments all on vpin crossings")


def test_criterion_8_no_lookahead(ticks4, base_run):
    rng = np.random.default_rng(12)
    n = len(base_run.signal_log)
    cut_idx = sorted(rng.choice(np.arange(n // 10, n - 1), size=20,
                                replace=False))
    checked = 0
    for idx in cut_idx:
        cut = base_run.signal_log[idx].ts
        shift = ticks4.ts >= cut
        moved = TickSeries(ticks4.ts, ticks4.price + 25.0 * shift,
                           ticks4.volume, ticks4.bid1 + 25.0 * shift,
                           ticks4.ask1 + 25.0 * shift)
        other = run_backtest(moved, StrategyConfig())
        base_rows = [s for s in base_run.signal_log if s.ts <= cut]
        other_rows = [s for s in other.signal_log if s.ts <= cut]
        assert base_rows == other_rows, f"decision history changed at {cut}"
        checked += len(base_rows)
    print(f"criterion 8 PASS: 20 future perturbations left all "
          f"{checked} earlier decisions bit-identical")


def test_criterion_9_end_to_end_determinism(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        for argv in (
            ["--out", str(d), "generate", "--seed", "3",
             "--count", str(2 * 28800), "--phi", "0.15", "--omega", "2e-8",
             "--alpha", "0.08", "--beta", "0.88"],
            ["--out", str(d), "vpin", str(d / "ticks.csv")],
            ["--out", str(d), "garch", str(d / "ticks.csv")],
            ["--out", str(d), "backtest", str(d / "ticks.csv"), "--variants"],
        ):
            assert cli_main(argv) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                               shallow=False)
    assert not mismatch and not errors
    print(f"criterion 9 PASS: generate/vpin/garch/backtest --variants "
          f"byte-identical across two runs ({len(match)} files)")

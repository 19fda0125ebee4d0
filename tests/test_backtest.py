import logging
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microstrat.backtest as bt
from microstrat.backtest import (
    Account,
    BacktestReport,
    CostModel,
    EngineConfig,
    compute_metrics,
    run_backtest,
    run_variants,
    variant_tag,
)
from microstrat.config import load_config
from microstrat.errors import DataError, NonConvergenceError
from microstrat.marketdata import NS_PER_DAY, SynthSpec, TickSeries, synth_ticks
from microstrat.strategy import SIDE_BUY, SIDE_SELL, StrategyConfig
from microstrat.volatility import GarchSpec


@pytest.fixture(scope="module")
def ticks():
    spec = SynthSpec(count=4 * 28800, seed=3, phi=0.15, omega=2e-8,
                     alpha=0.08, beta=0.88, tick_interval_ms=500)
    return synth_ticks(spec)


@pytest.fixture(scope="module")
def full_run(ticks):
    return run_backtest(ticks, StrategyConfig())


def _count_calls(monkeypatch, calls, name):
    """Replace the engine's binding of `name` with one that counts calls."""
    fn = getattr(bt, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(bt, name, counted)


@pytest.fixture(scope="module")
def variants(ticks):
    """run_variants results, with the engine's GARCH fits and SMO runs counted."""
    calls: dict[str, int] = {}
    with pytest.MonkeyPatch.context() as mp:
        _count_calls(mp, calls, "fit_garch")
        _count_calls(mp, calls, "train_smo")
        return run_variants(ticks, StrategyConfig()), calls


# -- account ledger ---------------------------------------------------------


def test_fee_round_trip_oracle():
    acct = Account(CostModel())
    acct.open(0, SIDE_BUY, 1, 3000.0)
    acct.close(1, 3000.0)
    assert acct.fees_paid == 2 * 3000.0 * 300.0 * 6.87e-4
    assert acct.cash == pytest.approx(1e7 - 1236.6, abs=1e-6)
    assert acct.position == 0 and acct.margin_held == 0.0


def test_zero_fee_round_trip_is_exact():
    acct = Account(CostModel(fee_rate=0.0))
    acct.open(0, SIDE_SELL, 3, 2987.4)
    assert acct.margin_held == 3 * 2987.4 * 300.0 * 0.25
    acct.close(1, 2987.4)
    assert acct.cash == 1e7
    assert acct.fees_paid == 0.0
    assert acct.max_residual == 0.0


def test_ledger_closes_over_many_random_fills():
    rng = np.random.default_rng(17)
    acct = Account(CostModel())
    fees_seen = [0.0]
    for _ in range(10_000):
        px = float(rng.uniform(2500, 3500))
        acct.open(0, SIDE_BUY if rng.random() < 0.5 else SIDE_SELL,
                  int(rng.integers(1, 5)), px)
        acct.close(1, px * float(rng.uniform(0.99, 1.01)))
        fees_seen.append(acct.fees_paid)
    assert acct.max_residual < 1e-6
    assert all(a <= b for a, b in zip(fees_seen, fees_seen[1:]))


@settings(max_examples=30, deadline=None)
@given(st.builds(CostModel, capital=st.floats(1e4, 1e9),
                 margin_rate=st.floats(0.01, 1.0), fee_rate=st.floats(0.0, 0.01),
                 multiplier=st.floats(1.0, 1000.0)),
       st.lists(st.tuples(st.sampled_from((SIDE_BUY, SIDE_SELL)),
                          st.integers(1, 50), st.floats(100.0, 10_000.0),
                          st.floats(100.0, 10_000.0)), min_size=1, max_size=20),
       st.booleans())
def test_ledger_residual_property(costs, legs, end_flat):
    """Each leg opens at one price and closes at another; the last may stay
    open. The double-entry residual stays at rounding level, and whenever the
    account is flat its equity is capital plus realized P&L minus fees, both
    computed here from the legs."""
    acct = Account(costs)
    m = costs.multiplier
    realized = fees = 0.0
    scale = costs.capital
    for i, (side, qty, entry, exit_) in enumerate(legs):
        sign = 1 if side == SIDE_BUY else -1
        scale += qty * (entry + exit_) * m
        acct.open(2 * i, side, qty, entry)
        if i == len(legs) - 1 and not end_flat:
            assert acct.position == sign * qty
            break
        acct.close(2 * i + 1, exit_)
        realized += (exit_ - entry) * sign * qty * m
        fees += qty * (entry + exit_) * m * costs.fee_rate
        assert acct.position == 0 and acct.margin_held == 0.0
        tol = 1e-12 * scale
        assert acct.equity_at(exit_) == pytest.approx(
            costs.capital + realized - fees, abs=tol)
        assert acct.fees_paid == pytest.approx(fees, abs=tol)
    assert acct.max_residual <= 1e-12 * scale


def test_account_guards():
    acct = Account(CostModel())
    with pytest.raises(DataError):
        acct.close(0, 3000.0)
    acct.open(0, SIDE_BUY, 1, 3000.0)
    with pytest.raises(DataError):
        acct.open(1, SIDE_BUY, 1, 3000.0)
    acct.close(1, 3000.0)
    with pytest.raises(DataError):
        acct.open(2, SIDE_BUY, 0, 3000.0)


def test_unrealized_moves_equity_not_cash():
    acct = Account(CostModel(fee_rate=0.0))
    acct.open(0, SIDE_BUY, 2, 3000.0)
    cash_after_open = acct.cash
    eq = acct.mark(1, 3010.0)
    assert acct.cash == cash_after_open
    assert eq == pytest.approx(1e7 + 2 * 10.0 * 300.0)


def test_cost_model_validation():
    assert CostModel().maintenance == pytest.approx(0.1875)
    assert CostModel(maintenance_rate=0.1).maintenance == 0.1
    with pytest.raises(DataError):
        CostModel(capital=0.0)
    with pytest.raises(DataError):
        CostModel(margin_rate=1.5)


# -- metrics ----------------------------------------------------------------


def test_drawdown_oracle():
    e = np.array([1.0, 0.5, 0.75])
    m = compute_metrics(e, np.array([1.0, 1.1, 1.2]), 240)
    assert m.max_drawdown == pytest.approx(-0.5)


def test_self_regression_has_unit_beta():
    rng = np.random.default_rng(0)
    e = 1e7 * np.exp(np.cumsum(0.001 * rng.standard_normal(500)))
    m = compute_metrics(e, e.copy(), 240 * 244)
    assert abs(m.beta - 1.0) < 1e-9
    assert abs(m.alpha) < 1e-9
    assert m.relative_return_vs_benchmark == 0.0


def test_flat_benchmark_beta_undefined():
    e = np.array([1.0, 1.1, 1.05, 1.2])
    m = compute_metrics(e, np.full(4, 2.0), 240)
    assert math.isnan(m.beta) and math.isnan(m.alpha)
    assert m.total_return == pytest.approx(0.2)


def test_flat_equity_metrics():
    m = compute_metrics(np.full(10, 5.0), np.linspace(1, 2, 10), 240)
    assert m.total_return == 0.0
    assert m.max_drawdown == 0.0
    assert m.sharpe == 0.0


def test_drawdown_zero_iff_monotone():
    up = np.array([1.0, 1.0, 1.2, 1.3])
    assert compute_metrics(up, up, 240).max_drawdown == 0.0
    dips = np.array([1.0, 1.2, 1.19, 1.3])
    assert compute_metrics(dips, dips, 240).max_drawdown < 0.0


def test_metrics_validation():
    with pytest.raises(DataError):
        compute_metrics(np.array([1.0]), np.array([1.0]), 240)
    with pytest.raises(DataError):
        compute_metrics(np.array([1.0, 2.0]), np.array([1.0]), 240)
    with pytest.raises(DataError):
        compute_metrics(np.array([0.0, 2.0]), np.array([1.0, 2.0]), 240)


def test_report_validates_variant_and_drawdown():
    with pytest.raises(DataError):
        BacktestReport(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0, "X")
    with pytest.raises(DataError):
        BacktestReport(0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 0.0, 0, "G")


# -- engine -----------------------------------------------------------------


def test_run_produces_consistent_state(full_run):
    res = full_run
    assert res.report.variant == "G+V+S"
    assert res.report.trade_count == len(res.trades) > 0
    assert res.max_ledger_residual < 1e-6
    assert res.report.max_drawdown <= 0.0
    assert len(res.equity) == len(res.benchmark) == len(res.equity_ts)
    assert res.benchmark[0] == pytest.approx(1e7)
    for field in ("total_return", "annualized_return", "sharpe", "beta"):
        assert math.isfinite(getattr(res.report, field))


def test_trade_log_alternates_open_and_flat(full_run):
    position = 0
    for tr in full_run.trades:
        assert tr.kind in ("open", "close", "stop", "margin-call")
        assert tr.qty >= 1 and tr.price > 0 and tr.fee >= 0
        if tr.kind == "open":
            assert position == 0
            position = tr.position_after
            assert position != 0
        else:
            assert position != 0
            assert tr.position_after == 0
            position = 0


def test_signal_log_carries_thresholds(full_run):
    assert len(full_run.signal_log) == len(full_run.equity)
    for rec in full_run.signal_log[:50]:
        assert rec.side in ("buy", "sell", "none")
        assert rec.delta1 > 0
        assert rec.quote in ("bid1", "ask1", None)


def test_engine_is_deterministic(ticks, full_run):
    again = run_backtest(ticks, StrategyConfig())
    assert np.array_equal(again.equity, full_run.equity)
    assert again.report == full_run.report
    assert again.trades == full_run.trades


def test_null_strategy_is_exactly_flat(ticks):
    eng = EngineConfig(garch_spec=GarchSpec(1, 1, False, "zero"))
    res = run_backtest(ticks, StrategyConfig(), engine=eng)
    assert res.report.trade_count == 0
    assert res.report.total_return == 0.0
    assert res.report.max_drawdown == 0.0
    assert np.all(res.equity == 1e7)


def test_fee_increase_never_helps(ticks):
    totals = [run_backtest(ticks, StrategyConfig(),
                           costs=CostModel(fee_rate=f)).report.total_return
              for f in (0.0, 6.87e-4, 2e-3)]
    assert totals[0] >= totals[1] >= totals[2]


def test_margin_call_forces_flat(ticks):
    cfg = StrategyConfig(position_fraction=1.0, size_cap=1.0)
    res = run_backtest(ticks, cfg, costs=CostModel(maintenance_rate=1.0))
    assert res.margin_calls >= 1
    kinds = {tr.kind for tr in res.trades}
    assert "margin-call" in kinds
    for tr in res.trades:
        if tr.kind == "margin-call":
            assert tr.position_after == 0


def test_variants_share_data_and_tags(variants):
    vs, _ = variants
    assert sorted(vs) == ["G", "G+S", "G+V", "G+V+S"]
    hashes = {r.data_hash for r in vs.values()}
    assert len(hashes) == 1
    assert vs["G+S"].report.trade_count <= vs["G"].report.trade_count
    d1_g = [s.delta1 for s in vs["G"].signal_log]
    d1_gs = [s.delta1 for s in vs["G+S"].signal_log]
    assert d1_g == d1_gs  # the veto layer must not touch calibration


def test_variants_equal_separate_runs_and_share_one_pass(ticks, full_run,
                                                         variants, monkeypatch):
    vs, shared_calls = variants
    calls: dict[str, int] = {}
    _count_calls(monkeypatch, calls, "fit_garch")
    _count_calls(monkeypatch, calls, "train_smo")
    separate = {"G+V+S": full_run}
    counts = {}
    for tag, use_vpin, use_svm in (("G", False, False), ("G+S", False, True),
                                   ("G+V", True, False)):
        calls.clear()
        separate[tag] = run_backtest(ticks, StrategyConfig(use_vpin=use_vpin,
                                                           use_svm=use_svm))
        counts[tag] = dict(calls)
    for tag, res in separate.items():
        for f in fields(res):
            a, b = getattr(vs[tag], f.name), getattr(res, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), (tag, f.name)
            else:
                assert a == b, (tag, f.name)
    assert shared_calls["fit_garch"] == counts["G"]["fit_garch"] > 0
    assert shared_calls["train_smo"] == counts["G+S"]["train_smo"] > 0
    assert "train_smo" not in counts["G"]


def test_failed_garch_refit_is_counted_and_logged(ticks, monkeypatch, caplog):
    fit = bt.fit_garch
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NonConvergenceError("budget spent", iterations=7)
        return fit(*args, **kwargs)

    monkeypatch.setattr(bt, "fit_garch", second_fails)
    cfg = StrategyConfig(use_vpin=False, use_svm=False)
    with caplog.at_level(logging.DEBUG, logger="microstrat.backtest"):
        res = run_backtest(ticks, cfg)
    assert res.garch_failures == 1
    assert res.svm_failures == 0
    assert len(calls) > 2
    assert res.report.trade_count == len(res.trades)
    assert sum("budget spent" in r.getMessage() for r in caplog.records) == 1


def test_svm_tol_reaches_engine(ticks, tmp_path, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text("[svm]\ntol = 0.01\n")
    engine = load_config(str(ini)).engine
    assert engine.svm_tol == 0.01
    train = bt.train_smo
    tols = []

    def spy(*args, **kwargs):
        tols.append(kwargs["tol"])
        return train(*args, **kwargs)

    monkeypatch.setattr(bt, "train_smo", spy)
    run_backtest(ticks, StrategyConfig(use_vpin=False), engine=engine)
    assert tols and set(tols) == {0.01}


def test_no_lookahead_signals_unchanged_by_future_shift(ticks, full_run):
    cut = full_run.signal_log[len(full_run.signal_log) // 2].ts
    shift = ticks.ts >= cut
    shifted = TickSeries(ticks.ts, ticks.price + 25.0 * shift,
                         ticks.volume,
                         None if ticks.bid1 is None else ticks.bid1 + 25.0 * shift,
                         None if ticks.ask1 is None else ticks.ask1 + 25.0 * shift,
                         calendar=ticks.calendar)
    other = run_backtest(shifted, StrategyConfig())
    base_rows = [s for s in full_run.signal_log if s.ts <= cut]
    other_rows = [s for s in other.signal_log if s.ts <= cut]
    assert base_rows == other_rows


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**16), st.integers(2, 3))
def test_no_lookahead_prefix_property(seed, k):
    """All four variants run on the first k of four days make the same
    signals and trades as the run on all four, up to the end of day k."""
    ticks = synth_ticks(SynthSpec(count=4 * 2880, seed=seed, phi=0.15, omega=2e-8,
                                  alpha=0.08, beta=0.88, tick_interval_ms=5000))
    eng = EngineConfig(garch_window=200, garch_refit_every=120, garch_min_obs=100,
                       delta1_every=30, svm_min_rows=40, svm_max_rows=200,
                       vpin_window=10)
    end = int(np.unique(ticks.ts // NS_PER_DAY)[k]) * NS_PER_DAY
    n = int(np.searchsorted(ticks.ts, end))
    prefix = TickSeries(ticks.ts[:n], ticks.price[:n], ticks.volume[:n],
                        ticks.bid1[:n], ticks.ask1[:n], calendar=ticks.calendar)
    full = run_variants(ticks, StrategyConfig(), engine=eng)
    part = run_variants(prefix, StrategyConfig(), engine=eng)
    for tag, res in full.items():
        assert part[tag].signal_log == tuple(s for s in res.signal_log if s.ts < end)
        assert part[tag].trades == tuple(tr for tr in res.trades if tr.ts < end)


def test_engine_preconditions():
    one_day = SynthSpec(count=28800, seed=1, tick_interval_ms=500)
    with pytest.raises(DataError):
        run_backtest(synth_ticks(one_day), StrategyConfig())


def test_variant_tag_mapping():
    assert variant_tag(StrategyConfig(use_vpin=False, use_svm=False)) == "G"
    assert variant_tag(StrategyConfig(use_vpin=False, use_svm=True)) == "G+S"
    assert variant_tag(StrategyConfig(use_vpin=True, use_svm=False)) == "G+V"
    assert variant_tag(StrategyConfig()) == "G+V+S"

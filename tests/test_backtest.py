import logging
import math
from dataclasses import fields

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
from microstrat.marketdata import (
    NS_PER_DAY,
    NS_PER_SEC,
    SESSION_CLOSES_NS,
    SynthSpec,
    TickSeries,
    resample,
    session_log_returns,
    synth_ticks,
)
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
    eq = acct.mark(3010.0)
    assert acct.cash == cash_after_open
    assert eq == pytest.approx(1e7 + 2 * 10.0 * 300.0)


def test_cost_model_validation():
    assert CostModel().maintenance == pytest.approx(0.1875)
    assert CostModel(maintenance_rate=0.1).maintenance == 0.1
    with pytest.raises(DataError):
        CostModel(capital=0.0)
    with pytest.raises(DataError):
        CostModel(margin_rate=1.5)
    with pytest.raises(DataError, match=r"^tick_size must be >= 0, got -1\.0$"):
        CostModel(tick_size=-1.0)


# every float field of the run dataclasses a library caller builds directly;
# the checks used to be comparisons that NaN passes
_NAN_FIELDS = [(cls, f.name) for cls in (SynthSpec, CostModel, EngineConfig,
                                         StrategyConfig)
               for f in fields(cls) if f.type.startswith("float")]


@pytest.mark.parametrize("cls,name", _NAN_FIELDS,
                         ids=[f"{cls.__name__}-{name}" for cls, name in _NAN_FIELDS])
def test_run_dataclasses_reject_nan(cls, name):
    with pytest.raises(DataError):
        cls(**{name: math.nan})


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


@pytest.mark.parametrize("quotes", ["none", "gaps"])
def test_fills_without_a_quote_use_the_trade_price(quotes):
    """Each fill is at the book side of the last tick before its decision:
    entries and signal exits buy at the bid and sell at the ask, stops and
    margin calls pay the spread, and a side with no quote fills at the trade
    price -+ half a tick."""
    ticks = synth_ticks(SynthSpec(count=4 * 2880, seed=3, phi=0.15, omega=2e-8,
                                  alpha=0.08, beta=0.88, tick_interval_ms=5000,
                                  spread=0.0 if quotes == "none" else 0.2))
    if quotes == "gaps":
        rng = np.random.default_rng(7)
        bid, ask = ticks.bid1.copy(), ticks.ask1.copy()
        bid[rng.random(bid.shape[0]) < 0.5] = np.nan
        ask[rng.random(ask.shape[0]) < 0.5] = np.nan
        ticks = TickSeries(ticks.ts, ticks.price, ticks.volume, bid, ask)
    eng = EngineConfig(garch_window=200, garch_refit_every=120, garch_min_obs=100,
                       delta1_every=30, svm_min_rows=40, svm_max_rows=200,
                       vpin_window=10)
    runs = run_variants(ticks, StrategyConfig(), CostModel(tick_size=0.4), eng)
    kinds, quoted = {}, 0
    for tr in (tr for res in runs.values() for tr in res.trades):
        i = int(np.searchsorted(ticks.ts, tr.ts, side="left")) - 1
        at_bid = (tr.side == SIDE_BUY) == (tr.kind in ("open", "close"))
        book = ticks.bid1 if at_bid else ticks.ask1
        if book is not None and math.isfinite(book[i]):
            assert tr.price == book[i], tr
            quoted += 1
        else:
            px = float(ticks.price[i])
            assert tr.price == (px - 0.2 if at_bid else px + 0.2), tr
        kinds[tr.kind] = kinds.get(tr.kind, 0) + 1
    assert min(kinds.get(k, 0) for k in ("open", "close", "stop")) > 0
    n_trades = sum(kinds.values())
    assert quoted == 0 if quotes == "none" else 0 < quoted < n_trades


def test_decisions_fall_at_each_bars_end_when_the_last_bar_is_short():
    """7-minute bars leave each session a 1-minute last bar: its decision,
    its equity mark and its signal fall at the close, never in a break."""
    ticks = synth_ticks(SynthSpec(count=4 * 2880, seed=3, phi=0.15, omega=2e-8,
                                  alpha=0.08, beta=0.88, tick_interval_ms=5000))
    eng = EngineConfig(bar_interval_ns=7 * 60 * NS_PER_SEC, garch_window=100,
                       garch_min_obs=100, garch_refit_every=36, delta1_every=12,
                       delta1_window=30, sigma_window=20)
    res = run_backtest(ticks, StrategyConfig(use_vpin=False, use_svm=False),
                       engine=eng)
    start = resample(ticks, eng.bar_interval_ns).ts
    sod = start % NS_PER_DAY
    close = start - sod + SESSION_CLOSES_NS[(sod > SESSION_CLOSES_NS[0]).astype(int)]
    expected = np.minimum(start + eng.bar_interval_ns, close)[36:]  # after warmup
    np.testing.assert_array_equal(res.equity_ts, expected)
    signal_ts = {s.ts for s in res.signal_log}
    assert signal_ts <= set(expected.tolist())
    assert any(ts % NS_PER_DAY in SESSION_CLOSES_NS for ts in signal_ts)


def test_a_tick_on_the_close_prices_its_decision_and_completes_its_vpin():
    """A tick stamped 11:30:00.000 is its bar's last: the 11:30 decision
    fills at its quotes and reads the VPIN of the bucket it completes."""
    ticks = synth_ticks(SynthSpec(count=3 * 2880, seed=3, phi=0.15, omega=2e-8,
                                  alpha=0.08, beta=0.88, tick_interval_ms=5000))
    days = np.unique(ticks.ts // NS_PER_DAY)
    at = int(days[1]) * NS_PER_DAY + int(SESSION_CLOSES_NS[0])
    i = int(np.searchsorted(ticks.ts, at))
    px = float(ticks.price[i - 1]) + 1.0
    # heavy enough to complete at least one bucket
    cols = [np.insert(col, i, v) for col, v in (
        (ticks.ts, at), (ticks.price, px), (ticks.volume, int(ticks.volume.sum()) // 20),
        (ticks.bid1, px - 0.3), (ticks.ask1, px + 0.3))]
    ticks = TickSeries(*cols)
    eng = EngineConfig(garch_window=200, garch_refit_every=240, garch_min_obs=100)
    state = bt._market_state(ticks, StrategyConfig(use_vpin=False, use_svm=False),
                             CostModel(), eng, vpin=False, svm=False)
    t = int(np.flatnonzero(state.decision_ts == at)[0])
    assert (state.bid[t], state.ask[t]) == (px - 0.3, px + 0.3)
    values, end_ts, _, _ = bt._vpin_stream(ticks, days, eng)
    assert end_ts[end_ts <= at][-1] == at
    assert state.vpin_now[t] == values[end_ts <= at][-1]
    assert state.vpin_now[t] != values[end_ts < at][-1]


def test_variants_share_data_and_tags(variants):
    vs, _ = variants
    assert sorted(vs) == ["G", "G+S", "G+V", "G+V+S"]
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


def test_failed_svm_refit_keeps_the_previous_model(ticks, monkeypatch, caplog):
    """The SVM trains at the starts of the third and fourth days. When the
    second refit fails, the gating variants count it, and the fourth day's
    240 bars carry the third day's model's predictions."""
    train, predict = bt.train_smo, bt.predict
    models, predicted = [], []

    def every_second_fails(*args, **kwargs):
        if len(models) % 2:
            models.append(None)
            raise NonConvergenceError("planted", iterations=3)
        models.append(train(*args, **kwargs))
        return models[-1]

    def recorded(model, X):
        predicted.append((model, predict(model, X)))
        return predicted[-1][1]

    monkeypatch.setattr(bt, "train_smo", every_second_fails)
    with caplog.at_level(logging.DEBUG, logger="microstrat.backtest"):
        vs = run_variants(ticks, StrategyConfig())
    assert len(models) == 2
    assert {tag: res.svm_failures for tag, res in vs.items()} == \
        {"G": 0, "G+S": 1, "G+V": 0, "G+V+S": 1}
    assert sum("planted" in r.getMessage() for r in caplog.records) == 1

    monkeypatch.setattr(bt, "predict", recorded)
    state = bt._market_state(ticks, StrategyConfig(), CostModel(), EngineConfig(),
                             vpin=False, svm=True)
    assert models[2] is not None and models[3] is None
    # one prediction call for each day with a model, both with the one model
    # that was trained
    assert [m for m, _ in predicted] == [models[2], models[2]]
    last_day = state.svm_pred[720:]
    assert last_day.shape[0] == 240 and np.all(last_day != 0)
    np.testing.assert_array_equal(last_day, predicted[1][1])


def test_bars_before_the_first_forecast_are_marked_not_traded(ticks):
    """With garch_min_obs = 400 the first forecast comes at bar 403, well
    after trading starts at bar 240: every trading bar is marked, but the
    signal log and the trades start at the first forecast."""
    eng = EngineConfig(garch_min_obs=400)
    cfg = StrategyConfig(use_vpin=False, use_svm=False)
    state = bt._market_state(ticks, cfg, CostModel(), eng, vpin=False, svm=False)
    forecast_at = np.flatnonzero(np.isfinite(state.z))
    assert state.first_trading == 240 and forecast_at[0] == 403
    res = run_backtest(ticks, cfg, engine=eng)
    assert res.equity.shape[0] == 720
    first_ts = int(state.decision_ts[forecast_at[0]])
    assert res.signal_log[0].ts == first_ts
    assert [s.ts for s in res.signal_log] == state.decision_ts[forecast_at].tolist()
    assert len(res.signal_log) == 557
    assert res.trades and min(t.ts for t in res.trades) >= first_ts


def test_garch_path_serves_each_bar_the_latest_fit_through_its_returns(monkeypatch):
    """The GARCH stage against a bar-by-bar reference: refits follow the
    schedule (first at garch_min_obs finite returns, retried the next bar
    after a failure, garch_refit_every bars after a success) on the trailing
    window, and each bar reads the latest fit's path through the returns
    that have closed by then, bit for bit."""
    ticks = synth_ticks(SynthSpec(count=4 * 2880, seed=5, phi=0.15, omega=2e-8,
                                  alpha=0.08, beta=0.88, tick_interval_ms=5000))
    eng = EngineConfig(garch_window=200, garch_refit_every=120, garch_min_obs=100)
    bars = resample(ticks, eng.bar_interval_ns)
    rets = session_log_returns(bars)
    first_trading = int(np.searchsorted(
        bars.ts, (bars.ts[0] // NS_PER_DAY + 1) * NS_PER_DAY))
    fit, windows, fits = bt.fit_garch, [], []

    def third_fails(r, spec):
        windows.append(np.array(r))
        if len(windows) == 3:
            fits.append(None)
            raise NonConvergenceError("planted", iterations=1)
        fits.append(fit(r, spec))
        return fits[-1]

    monkeypatch.setattr(bt, "fit_garch", third_fails)
    z, h, failures = bt._garch_path(rets, first_trading, eng)
    assert failures == 1

    stream, model, since, attempt = [], None, 0, 0
    want_z, want_h = np.full_like(z, np.nan), np.full_like(h, np.nan)
    for t, r in enumerate(rets.tolist()):
        if math.isfinite(r):
            stream.append(r)
            if model is not None:
                want_h[t] = model[0].path(stream[model[1]:])[0][-2]
        since += 1
        if (model is None or since >= eng.garch_refit_every) \
                and len(stream) >= eng.garch_min_obs:
            start = max(0, len(stream) - eng.garch_window)
            np.testing.assert_array_equal(windows[attempt], stream[start:])
            if fits[attempt] is not None:
                model, since = (fits[attempt], start), 0
            attempt += 1
        if model is not None and t >= first_trading:
            var, mean = model[0].path(stream[model[1]:])
            want_z[t] = mean[-1] / math.sqrt(var[-1])
    assert attempt == len(windows) > 3
    np.testing.assert_array_equal(z, want_z)
    np.testing.assert_array_equal(h, want_h)


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


def test_svm_trains_on_lagged_feature_rows(ticks, monkeypatch):
    """With an identity scaler, train_smo sees the raw rows: 5 standardized
    forecasts, 5 standardized returns, VPIN; each row lags the one before by
    one; the label is the sign of the next return, a flat one counting as
    down; and no window holds more than svm_max_rows rows."""
    monkeypatch.setattr(bt.Scaler, "fit", classmethod(
        lambda cls, X: cls(np.zeros(X.shape[1]), np.ones(X.shape[1]))))
    train = bt.train_smo
    seen = []

    def spy(X, y, **kwargs):
        seen.append((X.copy(), y.copy()))
        return train(X, y, **kwargs)

    monkeypatch.setattr(bt, "train_smo", spy)
    returns = bt.session_log_returns

    def some_flat(*args):
        r = returns(*args)
        r[::7] = np.where(np.isfinite(r[::7]), 0.0, r[::7])
        return r

    monkeypatch.setattr(bt, "session_log_returns", some_flat)
    eng = EngineConfig(svm_min_rows=40, svm_max_rows=200)
    state = bt._market_state(ticks, StrategyConfig(), CostModel(), eng,
                             vpin=False, svm=True)
    lags = bt.SVM_FEATURE_LAGS
    assert len(seen) >= 2
    for X, y in seen:
        assert X.shape == (y.shape[0], 2 * lags + 1)
        assert X.shape[0] <= eng.svm_max_rows
        assert np.all(np.isin(X[:, :lags], state.z))
        assert np.all((X[:, -1] >= 0.0) & (X[:, -1] <= 1.0))
        np.testing.assert_array_equal(X[1:, :lags - 1], X[:-1, 1:lags])
        np.testing.assert_array_equal(X[1:, lags:2 * lags - 1],
                                      X[:-1, lags + 1:2 * lags])
        assert set(np.unique(y)) <= {-1.0, 1.0}
        # the next row's newest standardized return has the sign of the
        # return each row's label looks ahead to
        np.testing.assert_array_equal(y[:-1],
                                      np.where(X[1:, 2 * lags - 1] > 0, 1.0, -1.0))
    assert max(X.shape[0] for X, _ in seen) == eng.svm_max_rows - lags + 1
    assert all(np.any(X[:, 2 * lags - 1] == 0.0) for X, _ in seen)


@pytest.mark.parametrize("window", [20, 120, 500])
def test_stop_sigma_equals_per_bar_std(window):
    """The stop-scale column is bit-identical to the std of each bar's
    trailing close changes, 0 with 20 closes or fewer, including the short
    windows at the start."""
    closes = 3000.0 + 0.2 * np.cumsum(
        np.random.default_rng(5).integers(-3, 4, 700))
    expected = []
    for t in range(closes.shape[0]):
        seg = closes[max(0, t - window):t + 1]
        expected.append(float(np.std(np.diff(seg))) if seg.shape[0] > 20 else 0.0)
    np.testing.assert_array_equal(bt._stop_sigma(closes, window), expected)


def test_tgarch_forecasts_stay_finite_after_down_shocks(monkeypatch):
    """On two days of the benchmark's process at shock seed 4, TGARCH(2,2)
    refits with an AR(1) mean find negative leverage, yet each keeps
    alpha_1 + lambda >= 0, so every forecast bar's standardized forecast
    is finite."""
    ticks = synth_ticks(SynthSpec(count=2 * 28800, seed=4, phi=0.15,
                                  omega=2e-8, alpha=0.08, beta=0.88))
    fits, served = [], []
    fit_garch, garch_path = bt.fit_garch, bt._garch_path

    def spy_fit(*args):
        fits.append(fit_garch(*args))
        return fits[-1]

    def spy_path(rets, first_trading, eng):
        z, h, failures = garch_path(rets, first_trading, eng)
        served.append(z[first_trading:])
        return z, h, failures

    monkeypatch.setattr(bt, "fit_garch", spy_fit)
    monkeypatch.setattr(bt, "_garch_path", spy_path)
    run_backtest(ticks, StrategyConfig(use_vpin=False, use_svm=False),
                 engine=EngineConfig(garch_spec=GarchSpec(2, 2, True, "ar1")))
    assert min(f.leverage_coef for f in fits) < 0.0
    assert all(f.alphas[0] + f.leverage_coef >= 0.0 for f in fits)
    assert served[0].shape[0] > 0 and np.isfinite(served[0]).all()


def test_no_lookahead_signals_unchanged_by_future_shift(ticks, full_run):
    cut = full_run.signal_log[len(full_run.signal_log) // 2].ts
    shift = ticks.ts >= cut
    shifted = TickSeries(ticks.ts, ticks.price + 25.0 * shift,
                         ticks.volume,
                         None if ticks.bid1 is None else ticks.bid1 + 25.0 * shift,
                         None if ticks.ask1 is None else ticks.ask1 + 25.0 * shift)
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
                        ticks.bid1[:n], ticks.ask1[:n])
    full = run_variants(ticks, StrategyConfig(), engine=eng)
    part = run_variants(prefix, StrategyConfig(), engine=eng)
    for tag, res in full.items():
        assert part[tag].signal_log == tuple(s for s in res.signal_log if s.ts < end)
        assert part[tag].trades == tuple(tr for tr in res.trades if tr.ts < end)


def test_sub_second_bars_annualize_by_bars_per_session():
    """500 ms bars on 5 s ticks: each 2-hour session holds 14,400 bar
    slots, and the metrics annualize over 28,800 bars a day."""
    ticks = synth_ticks(SynthSpec(count=2 * 2880, seed=3, phi=0.15, omega=2e-8,
                                  alpha=0.08, beta=0.88, tick_interval_ms=5000))
    eng = EngineConfig(bar_interval_ns=500_000_000, garch_window=200,
                       garch_refit_every=1440, garch_min_obs=100, delta1_every=30)
    res = run_backtest(ticks, StrategyConfig(use_vpin=False, use_svm=False),
                       engine=eng)
    assert res.report.trade_count > 0
    m = compute_metrics(res.equity, res.benchmark, 28_800 * eng.trading_days_per_year)
    assert res.report.sharpe == m.sharpe


def test_engine_preconditions():
    one_day = SynthSpec(count=28800, seed=1, tick_interval_ms=500)
    with pytest.raises(DataError):
        run_backtest(synth_ticks(one_day), StrategyConfig())


def test_one_trading_bar_fails_before_any_stage_or_replay(monkeypatch):
    """A warmup day and three ticks of the next make one trading bar; the
    market-state pass rejects it before it fits or replays anything."""
    ticks = synth_ticks(SynthSpec(count=2 * 2880, seed=3, tick_interval_ms=5000))
    n = int(np.searchsorted(ticks.ts, (ticks.ts[0] // NS_PER_DAY + 1) * NS_PER_DAY)) + 3
    short = TickSeries(ticks.ts[:n], ticks.price[:n], ticks.volume[:n],
                       ticks.bid1[:n], ticks.ask1[:n])
    for name in ("fit_garch", "_replay"):
        monkeypatch.setattr(bt, name, lambda *args: pytest.fail("ran a stage"))
    with pytest.raises(DataError, match="not enough trading bars"):
        run_variants(short, StrategyConfig())


def test_variant_tag_mapping():
    assert variant_tag(StrategyConfig(use_vpin=False, use_svm=False)) == "G"
    assert variant_tag(StrategyConfig(use_vpin=False, use_svm=True)) == "G+S"
    assert variant_tag(StrategyConfig(use_vpin=True, use_svm=False)) == "G+V"
    assert variant_tag(StrategyConfig()) == "G+V+S"

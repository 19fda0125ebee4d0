"""Margin-aware sequential backtest engine and performance indicators.

A run has two stages.

The market-state pass computes, as per-bar columns, everything that no layer
switch can change. From the bars it takes the session returns and the VPIN
series, with bucket size and price-change scale frozen on the warmup days.
Then come one stage per layer: GARCH, the only one that walks the bars in
order, refits on schedule and gives each trading bar its one-step mean and
variance forecasts; delta1 is recalibrated every `delta1_every` bars; when a
requested variant uses VPIN, the (delta2, delta3) thresholds are fit daily;
and when one uses the SVM, a model is trained daily and predicts each of the
day's feature vectors in one call. Failed refits keep the previous model and
are counted.

The replay runs once per variant over those columns. It owns what the layers
change: the VPIN pull on delta1 and its daily extremes, the SVM gate,
position sizing, stops, margin calls, the double-entry ledger and the
performance indicators. `run_variants` therefore shares one market-state
pass among its four replays.

Every decision at a bar close uses only data that ended strictly before that
instant: volatility state advances on each completed session return and VPIN
reads the latest completed bucket. Entries fill passively at the signalled
book side; stops and margin calls pay the spread. Cash, margin and fees move
through a double-entry ledger whose residual is tracked and exposed.
"""
from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DataError, NonConvergenceError
from .marketdata import NS_PER_DAY, TickSeries, resample, session_log_returns
from .strategy import (
    SIDE_BUY,
    SIDE_NONE,
    SIDE_SELL,
    SVM_FEATURE_LAGS,
    StrategyConfig,
    adjust_delta1,
    calibrate_delta1,
    calibrate_vpin_thresholds,
    garch_signal,
    make_svm_dataset,
    position_size,
    stop_loss_check,
    svm_gate,
)
from .svm import DEFAULT_TOL, Kernel, Scaler, predict, train_smo
from .volatility import GarchSpec, GarchState, fit_garch
from .vpin import (
    DEFAULT_BUCKETS_PER_DAY,
    DEFAULT_WINDOW,
    bucket_fill,
    classify_buckets,
    compute_vpin,
    default_bucket_volume,
    sigma_delta_p,
)

VARIANTS = ("G", "G+S", "G+V", "G+V+S")

MINUTE_NS = 60_000_000_000

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CostModel:
    capital: float = 1e7
    margin_rate: float = 0.25
    fee_rate: float = 6.87e-4
    multiplier: float = 300.0
    tick_size: float = 0.2
    maintenance_rate: float | None = None  # None: 75% of the initial margin

    def __post_init__(self) -> None:
        if self.capital <= 0 or self.multiplier <= 0 or self.tick_size < 0:
            raise DataError("capital and multiplier must be positive")
        if not 0 < self.margin_rate <= 1 or self.fee_rate < 0:
            raise DataError("bad margin or fee rate")
        if self.maintenance_rate is not None and not 0 < self.maintenance_rate <= 1:
            raise DataError("bad maintenance rate")

    @property
    def maintenance(self) -> float:
        return self.maintenance_rate if self.maintenance_rate is not None \
            else 0.75 * self.margin_rate


@dataclass(frozen=True)
class EngineConfig:
    """Replay schedule and model windows, all in bars unless noted."""

    bar_interval_ns: int = MINUTE_NS
    warmup_days: int = 1
    garch_spec: GarchSpec = field(default=GarchSpec(1, 1, False, "ar1"))
    garch_window: int = 2000
    garch_refit_every: int = 240
    garch_min_obs: int = 200
    delta1_every: int = 60
    delta1_window: int = 60
    initial_delta1: float = 0.4
    sigma_window: int = 120
    buckets_per_day: int = DEFAULT_BUCKETS_PER_DAY
    vpin_window: int = DEFAULT_WINDOW
    svm_kernel_sigma: float = 1.0
    svm_c: float = 1.0
    svm_tol: float = DEFAULT_TOL
    svm_min_rows: int = 60
    svm_max_rows: int = 1500
    trading_days_per_year: int = 244

    def __post_init__(self) -> None:
        if self.warmup_days < 1:
            raise DataError("need at least one warmup day")
        if self.bar_interval_ns <= 0 or self.garch_window < 100:
            raise DataError("bad bar interval or window")


@dataclass(frozen=True)
class Trade:
    ts: int
    side: str
    qty: int
    price: float
    fee: float
    realized: float
    position_after: int
    cash_after: float
    kind: str  # open | close | stop | margin-call


@dataclass(frozen=True)
class SignalRecord:
    ts: int
    side: str
    quote: str | None
    delta1: float
    vpin: float
    layer_trace: str


@dataclass(frozen=True)
class Metrics:
    total_return: float
    annualized_return: float
    relative_return_vs_benchmark: float
    alpha: float
    beta: float
    max_drawdown: float
    sharpe: float


@dataclass(frozen=True)
class BacktestReport(Metrics):
    trade_count: int
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")
        if self.max_drawdown > 1e-12:
            raise DataError(f"max drawdown must be <= 0, got {self.max_drawdown}")


@dataclass(frozen=True)
class BacktestResult:
    report: BacktestReport
    equity_ts: np.ndarray
    equity: np.ndarray
    benchmark: np.ndarray
    trades: tuple[Trade, ...]
    signal_log: tuple[SignalRecord, ...]
    margin_calls: int
    max_ledger_residual: float
    data_hash: str
    garch_failures: int  # refits that raised; the previous fit stays in use
    svm_failures: int  # the same for SVM refits; 0 when the gate is off


class Account:
    """Cash, one net futures position, and the double-entry residual."""

    def __init__(self, costs: CostModel):
        self.costs = costs
        self.cash = costs.capital
        self.position = 0  # signed contracts
        self.entry_price = 0.0
        self.margin_held = 0.0
        self.fees_paid = 0.0
        self.equity_ts: list[int] = []
        self.equity: list[float] = []
        self.max_residual = 0.0

    def unrealized(self, price: float) -> float:
        return (price - self.entry_price) * self.position * self.costs.multiplier

    def equity_at(self, price: float) -> float:
        return self.cash + self.margin_held + self.unrealized(price)

    def mark(self, ts: int, price: float) -> float:
        eq = self.equity_at(price)
        self.equity_ts.append(ts)
        self.equity.append(eq)
        return eq

    def _book(self, d_cash: float, d_margin: float, fee: float, realized: float):
        residual = d_cash + d_margin + fee - realized
        self.max_residual = max(self.max_residual, abs(residual))

    def open(self, ts: int, side: str, qty: int, price: float,
             kind: str = "open") -> Trade:
        if self.position != 0:
            raise DataError("cannot open onto an existing position")
        if qty < 1:
            raise DataError("need at least one contract")
        notional = qty * price * self.costs.multiplier
        margin = notional * self.costs.margin_rate
        fee = notional * self.costs.fee_rate
        cash0, margin0 = self.cash, self.margin_held
        self.cash -= margin + fee
        self.margin_held += margin
        self.fees_paid += fee
        self.position = qty if side == SIDE_BUY else -qty
        self.entry_price = price
        self._book(self.cash - cash0, self.margin_held - margin0, fee, 0.0)
        return Trade(ts, side, qty, price, fee, 0.0, self.position, self.cash, kind)

    def close(self, ts: int, price: float, kind: str = "close") -> Trade:
        if self.position == 0:
            raise DataError("no position to close")
        qty = abs(self.position)
        side = SIDE_SELL if self.position > 0 else SIDE_BUY
        notional = qty * price * self.costs.multiplier
        fee = notional * self.costs.fee_rate
        realized = (price - self.entry_price) * self.position * self.costs.multiplier
        cash0, margin0 = self.cash, self.margin_held
        self.cash += self.margin_held + realized - fee
        self.margin_held = 0.0
        self.fees_paid += fee
        self.position = 0
        self.entry_price = 0.0
        self._book(self.cash - cash0, self.margin_held - margin0, fee, realized)
        return Trade(ts, side, qty, price, fee, realized, 0, self.cash, kind)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def compute_metrics(equity: np.ndarray, benchmark: np.ndarray,
                    periods_per_year: int) -> Metrics:
    """Return, drawdown and regression indicators for one equity curve."""
    e = np.asarray(equity, dtype=np.float64)
    b = np.asarray(benchmark, dtype=np.float64)
    if e.shape[0] < 2 or e.shape[0] != b.shape[0]:
        raise DataError("need two aligned curve points at least")
    if e[0] <= 0 or b[0] <= 0:
        raise DataError("curves must start positive")
    if periods_per_year < 1:
        raise DataError("periods_per_year must be >= 1")
    total = float(e[-1] / e[0] - 1.0)
    bench_total = float(b[-1] / b[0] - 1.0)
    n_periods = e.shape[0] - 1

    def annualize(tr: float) -> float:
        if 1.0 + tr <= 0.0:
            return -1.0
        return float((1.0 + tr) ** (periods_per_year / n_periods) - 1.0)

    ann = annualize(total)
    bench_ann = annualize(bench_total)
    rs = np.diff(e) / e[:-1]
    rb = np.diff(b) / b[:-1]
    var_b = float(np.var(rb, ddof=1)) if n_periods > 1 else 0.0
    if var_b > 0:
        cov = float(np.cov(rs, rb, ddof=1)[0, 1])
        beta = cov / var_b
    else:
        beta = math.nan  # benchmark never moved; slope is undefined
    alpha = ann - beta * bench_ann if math.isfinite(beta) else math.nan
    sd = float(np.std(rs, ddof=1)) if n_periods > 1 else 0.0
    sharpe = float(np.mean(rs) / sd * math.sqrt(periods_per_year)) if sd > 0 else 0.0
    dd = float(np.min(e / np.maximum.accumulate(e) - 1.0))
    return Metrics(total_return=total, annualized_return=ann,
                   relative_return_vs_benchmark=total - bench_total,
                   alpha=alpha, beta=beta, max_drawdown=dd, sharpe=sharpe)


def _data_hash(ticks: TickSeries) -> str:
    digest = hashlib.md5()
    digest.update(ticks.ts.tobytes())
    digest.update(ticks.price.tobytes())
    digest.update(ticks.volume.tobytes())
    return digest.hexdigest()


def variant_tag(cfg: StrategyConfig) -> str:
    return "G" + ("+V" if cfg.use_vpin else "") + ("+S" if cfg.use_svm else "")


# ---------------------------------------------------------------------------
# Market-state pass: everything the variants share
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MarketState:
    """What the replay reads at each bar that no layer switch can change.

    Columns are per bar: NaN marks a bar with no GARCH forecast (warmup, or
    before the first fit) and one with no delta1 recalibration; `svm_pred`
    is 0 where no model or feature vector exists; `thresholds` holds the
    (delta2, delta3) in effect, None when no variant uses the VPIN layer.
    """

    ticks: TickSeries
    data_hash: str
    decision_ts: np.ndarray
    closes: np.ndarray
    day_ord: np.ndarray
    first_trading: int
    price_idx: list[int]
    vpin_now: list[float]
    mean_fc: np.ndarray
    var_fc: np.ndarray
    delta1_fit: np.ndarray
    thresholds: np.ndarray | None
    svm_pred: np.ndarray
    garch_failures: int
    svm_failures: int


def _vpin_stream(ticks: TickSeries, days: np.ndarray, eng: EngineConfig):
    """VPIN values with their end times, and each complete bucket's end time
    and relative price move; bucket size and sigma are frozen on the warmup
    days."""
    n_warm = int(np.searchsorted(ticks.ts, days[eng.warmup_days] * NS_PER_DAY))
    sigma_dp = sigma_delta_p(ticks.price[:n_warm])
    bucket_volume = default_bucket_volume(ticks.ts[:n_warm], ticks.volume[:n_warm],
                                          eng.buckets_per_day)
    buckets = bucket_fill(ticks, bucket_volume)
    buy = classify_buckets(buckets, sigma_dp)
    # a copy, not a view: these end times live through the whole pass, and
    # the array bucket_fill allocated amid its large temporaries would stay
    # high on the C heap; pinned there, it raised the peak RSS of an 8-day
    # `backtest --variants` by about 6 MB in most runs
    bucket_end_ts = buckets.end_ts[:buckets.complete].copy()
    vpin_values = np.empty(0)
    vpin_end_ts = np.empty(0, dtype=np.int64)
    if buy.shape[0] >= eng.vpin_window:
        vs = compute_vpin(buy, bucket_end_ts, eng.vpin_window, bucket_volume)
        vpin_values, vpin_end_ts = vs.values, vs.end_ts
    # the price of the last tick at the bucket's end time, which with
    # repeated timestamps can follow the bucket's own closing tick
    end_price = ticks.price[np.searchsorted(ticks.ts, bucket_end_ts, side="right") - 1]
    # |relative price move| over each bucket, rated against its predecessor
    bucket_fluct = np.full(bucket_end_ts.shape[0], np.nan)
    bucket_fluct[1:] = np.abs(end_price[1:] / end_price[:-1] - 1.0)
    return vpin_values, vpin_end_ts, bucket_end_ts, bucket_fluct


def _garch_path(rets: np.ndarray, first_trading: int, eng: EngineConfig):
    """One-step mean and variance forecasts at each trading bar, each
    return's conditional variance under the model that absorbed it, and the
    failed refit count. A failed refit keeps the model and retries next bar.
    """
    mean_fc, var_fc, h = np.full((3, rets.shape[0]), np.nan)
    failures = 0
    garch: GarchState | None = None
    ret_stream: list[float] = []
    bars_since_fit = 0
    for t, r in enumerate(rets.tolist()):
        if math.isfinite(r):
            ret_stream.append(r)
            if garch is not None:
                h[t] = garch.update(r)
        bars_since_fit += 1
        if garch is None or bars_since_fit >= eng.garch_refit_every:
            window = ret_stream[-eng.garch_window:]
            if len(window) >= eng.garch_min_obs:
                try:
                    garch = GarchState(fit_garch(np.asarray(window), eng.garch_spec))
                except (DataError, NonConvergenceError) as exc:
                    failures += 1
                    log.debug("GARCH refit at bar %d failed: %s", t, exc)
                else:
                    bars_since_fit = 0
        if garch is not None and t >= first_trading:
            mean_fc[t] = garch.mean_forecast()
            var_fc[t] = garch.variance_forecast()
    return mean_fc, var_fc, h, failures


def _delta1_path(z: np.ndarray, rets: np.ndarray, first_trading: int,
                 cfg: StrategyConfig, eng: EngineConfig) -> np.ndarray:
    """delta1 fit every `delta1_every`-th trading bar on the trailing pairs of
    standardized forecast and the finite return that has followed it."""
    paired = np.flatnonzero(np.isfinite(z[:-1]) & np.isfinite(rets[1:]))
    pair_f, pair_r = z[paired], rets[paired + 1]
    fits = np.full(z.shape[0], np.nan)
    every = eng.delta1_every
    for t in range(first_trading + (-first_trading) % every, z.shape[0], every):
        m = int(np.searchsorted(paired, t))  # pairs whose return closed by t
        lo = max(0, m - eng.delta1_window)
        if m - lo >= 30:
            fits[t] = calibrate_delta1(pair_f[lo:m], pair_r[lo:m], cfg)
    return fits


def _threshold_path(vpin_values: np.ndarray, bucket_end_ts: np.ndarray,
                    bucket_fluct: np.ndarray, decision_ts: np.ndarray,
                    day_starts: np.ndarray, cfg: StrategyConfig,
                    window: int) -> np.ndarray:
    """(delta2, delta3) in effect at each bar: the config's, then each fit on
    the pairs complete at a trading day's first decision."""
    out = np.tile([cfg.delta2, cfg.delta3], (decision_ts.shape[0], 1))
    # vpin value i belongs to bucket i + w - 1; fluct looks `basket_delay`
    # buckets ahead, to bucket j, and the pair counts once bucket j has ended
    # (bucket end times never decrease)
    lead = window - 1 + cfg.basket_delay
    ended = np.searchsorted(bucket_end_ts, decision_ts[day_starts], side="left")
    for t, e in zip(day_starts.tolist(), ended.tolist()):
        n = max(0, min(vpin_values.shape[0], e - lead))
        fluct = bucket_fluct[lead:lead + n]
        keep = np.isfinite(fluct)
        pairs_v, pairs_f = vpin_values[:n][keep], fluct[keep]
        if pairs_v.shape[0] >= 30 and np.ptp(pairs_v) > 0:
            th = calibrate_vpin_thresholds(pairs_v, pairs_f, cfg.fluct_hi,
                                           cfg.fluct_lo)
            out[t:] = th.delta2, th.delta3
    return out


def _svm_path(z: np.ndarray, rets: np.ndarray, h: np.ndarray,
              vpin_now: list[float], day_starts: np.ndarray,
              eng: EngineConfig) -> tuple[np.ndarray, int]:
    """The gate's -1/+1 prediction at each bar (0 without a model or feature
    vector) and the failed refit count. Each trading day trains on the rows
    labelled before its first bar, keeps the previous model on a failed or
    skipped refit, and predicts all its feature vectors in one call."""
    lags = SVM_FEATURE_LAGS
    z_at = np.flatnonzero(np.isfinite(z))
    # a standardized return needs a model that absorbed it and a forecast bar
    rz_at = np.flatnonzero(np.isfinite(z) & (h > 0))
    rz = rets[rz_at] / np.sqrt(h[rz_at])
    # forecast bars with `lags` standardized returns, so also `lags` forecasts
    n_rz = np.searchsorted(rz_at, z_at, side="right")
    j = np.flatnonzero(n_rz >= lags)
    gate_at, n_rz = z_at[j], n_rz[j]
    v = np.asarray(vpin_now)[gate_at]
    v[~np.isfinite(v)] = 0.5
    # the last `lags` standardized forecasts and returns, and the VPIN
    back = np.arange(-lags, 0)
    feats = np.hstack([z[z_at][j[:, None] + 1 + back], rz[n_rz[:, None] + back],
                       v[:, None]])
    nxt = np.append(rets[1:], np.nan)[gate_at]
    row = np.isfinite(nxt)
    # make_svm_dataset lags these rows, so unlike the gate's vector they skip
    # the bar before each session break, whose next return is NaN
    fz, rz_row, vp, nxt = z[gate_at][row], rz[n_rz - 1][row], v[row], nxt[row]
    n_rows = np.searchsorted(gate_at[row] + 1, day_starts)
    day_lo = np.searchsorted(gate_at, day_starts)
    day_hi = np.append(day_lo[1:], gate_at.shape[0])

    pred = np.zeros(z.shape[0], dtype=np.int8)
    failures = 0
    fitted = None
    for t, k, lo, hi in zip(day_starts.tolist(), n_rows.tolist(),
                            day_lo.tolist(), day_hi.tolist()):
        w = slice(max(0, k - eng.svm_max_rows), k)
        try:
            if k >= eng.svm_min_rows:
                X, y = make_svm_dataset(fz[w], rz_row[w], vp[w], nxt[w])
                if np.unique(y).shape[0] == 2:
                    scaler = Scaler.fit(X)
                    fitted = (train_smo(scaler.transform(X), y, c=eng.svm_c,
                                        kernel=Kernel.rbf(eng.svm_kernel_sigma),
                                        tol=eng.svm_tol), scaler)
        except (DataError, NonConvergenceError) as exc:
            failures += 1
            log.debug("SVM refit at bar %d failed: %s", t, exc)
        if fitted is not None and hi > lo:
            model, scaler = fitted
            pred[gate_at[lo:hi]] = predict(model, scaler.transform(feats[lo:hi]))
    return pred, failures


def _market_state(ticks: TickSeries, cfg: StrategyConfig, eng: EngineConfig,
                  *, vpin: bool, svm: bool) -> _MarketState:
    """The bars and their returns, then one stage per layer. The threshold
    and SVM stages run only with `vpin` and `svm`, so a run pays for no layer
    it does not use."""
    bars = resample(ticks, eng.bar_interval_ns)
    day_codes = bars.ts // NS_PER_DAY
    days = np.unique(day_codes)
    if days.shape[0] < eng.warmup_days + 1:
        raise DataError(f"need at least {eng.warmup_days + 1} trading days, "
                        f"got {days.shape[0]}")
    day_ord = np.searchsorted(days, day_codes)
    # the first bar of each trading day
    day_starts = np.searchsorted(day_ord, np.arange(eng.warmup_days, days.shape[0]))
    first_trading = int(day_starts[0])
    decision_ts = bars.ts + eng.bar_interval_ns
    rets = session_log_returns(bars, ticks.calendar)

    vpin_values, vpin_end_ts, bucket_end_ts, bucket_fluct = \
        _vpin_stream(ticks, days, eng)
    # latest completed VPIN at each decision instant
    k = np.searchsorted(vpin_end_ts, decision_ts, side="left").tolist()
    vpin_now = [float(vpin_values[i - 1]) if i > 0 else math.nan for i in k]

    mean_fc, var_fc, h, garch_failures = _garch_path(rets, first_trading, eng)
    z = mean_fc / np.sqrt(var_fc)  # the standardized forecast
    delta1_fit = _delta1_path(z, rets, first_trading, cfg, eng)
    thresholds = None
    if vpin:
        thresholds = _threshold_path(vpin_values, bucket_end_ts, bucket_fluct,
                                     decision_ts, day_starts, cfg, eng.vpin_window)
    svm_pred, svm_failures = np.zeros(len(bars), dtype=np.int8), 0
    if svm:
        svm_pred, svm_failures = _svm_path(z, rets, h, vpin_now, day_starts, eng)

    return _MarketState(
        ticks=ticks, data_hash=_data_hash(ticks), decision_ts=decision_ts,
        closes=bars.close, day_ord=day_ord, first_trading=first_trading,
        price_idx=(np.searchsorted(ticks.ts, decision_ts, side="left") - 1).tolist(),
        vpin_now=vpin_now, mean_fc=mean_fc, var_fc=var_fc,
        delta1_fit=delta1_fit, thresholds=thresholds, svm_pred=svm_pred,
        garch_failures=garch_failures, svm_failures=svm_failures)


# ---------------------------------------------------------------------------
# Replay: one variant's decisions and accounting
# ---------------------------------------------------------------------------


def _quote_price(ticks: TickSeries, costs: CostModel, tick_idx: int,
                 book_side: str) -> float:
    """The book quote at a tick, or its trade price -+ half a tick without one."""
    arr = ticks.bid1 if book_side == "bid" else ticks.ask1
    if arr is not None and math.isfinite(arr[tick_idx]):
        return float(arr[tick_idx])
    px = float(ticks.price[tick_idx])
    half = costs.tick_size / 2.0
    return px - half if book_side == "bid" else px + half


def _replay(state: _MarketState, cfg: StrategyConfig, costs: CostModel,
            eng: EngineConfig) -> BacktestResult:
    """Walk the trading bars of `state` as the variant `cfg` selects."""
    ticks, closes = state.ticks, state.closes
    account = Account(costs)
    trades: list[Trade] = []
    signal_log: list[SignalRecord] = []
    margin_calls = 0
    delta1 = eng.initial_delta1
    day_min_d1 = day_max_d1 = delta1
    delta2, delta3 = cfg.delta2, cfg.delta3
    current_day = -1

    for t in range(state.first_trading, closes.shape[0]):
        now = int(state.decision_ts[t])
        if state.day_ord[t] != current_day:
            current_day = int(state.day_ord[t])
            day_min_d1 = day_max_d1 = delta1
        if cfg.use_vpin:
            delta2, delta3 = state.thresholds[t]

        price_idx = state.price_idx[t]
        mark_price = closes[t]
        equity = account.mark(now, mark_price)

        if account.position != 0:
            maint = abs(account.position) * mark_price * costs.multiplier \
                * costs.maintenance
            if equity < maint:
                book = "bid" if account.position > 0 else "ask"
                trades.append(account.close(
                    now, _quote_price(ticks, costs, price_idx, book),
                    kind="margin-call"))
                margin_calls += 1
            else:
                lo = max(0, t - eng.sigma_window)
                seg = closes[lo:t + 1]
                sigma_px = float(np.std(np.diff(seg))) if seg.shape[0] > 20 else 0.0
                side = SIDE_BUY if account.position > 0 else SIDE_SELL
                if sigma_px > 0 and stop_loss_check(
                        account.entry_price, mark_price, sigma_px,
                        cfg.stop_loss_sigmas, side):
                    book = "bid" if account.position > 0 else "ask"
                    trades.append(account.close(
                        now, _quote_price(ticks, costs, price_idx, book),
                        kind="stop"))

        if not math.isnan(state.delta1_fit[t]):
            delta1 = float(state.delta1_fit[t])
            day_min_d1 = min(day_min_d1, delta1)
            day_max_d1 = max(day_max_d1, delta1)

        vpin_now = state.vpin_now[t]
        vpin_trace: tuple[str, ...] = ()
        if cfg.use_vpin and math.isfinite(vpin_now):
            if vpin_now > delta2:
                vpin_trace = ("vpin-hi",)
            elif vpin_now < delta3:
                vpin_trace = ("vpin-lo",)
            delta1 = adjust_delta1(delta1, vpin_now, delta2, delta3,
                                   day_max_d1, day_min_d1)
            day_min_d1 = min(day_min_d1, delta1)
            day_max_d1 = max(day_max_d1, delta1)

        if math.isnan(state.mean_fc[t]):
            continue
        sig = garch_signal((state.mean_fc[t], state.var_fc[t]), delta1)
        if cfg.use_svm and sig.side != SIDE_NONE and state.svm_pred[t] != 0:
            sig = svm_gate(int(state.svm_pred[t]), sig)

        if sig.side == SIDE_SELL and account.position > 0:
            trades.append(account.close(
                now, _quote_price(ticks, costs, price_idx, "ask")))
        elif sig.side == SIDE_BUY and account.position < 0:
            trades.append(account.close(
                now, _quote_price(ticks, costs, price_idx, "bid")))
        if sig.side != SIDE_NONE and account.position == 0:
            book = "bid" if sig.side == SIDE_BUY else "ask"
            px = _quote_price(ticks, costs, price_idx, book)
            commitment = position_size(
                max(account.cash, 0.0), vpin_now if math.isfinite(vpin_now) else 0.5,
                delta2, delta3, fraction=cfg.position_fraction,
                reduce_factor=cfg.size_reduce, boost_factor=cfg.size_boost,
                cap_fraction=cfg.size_cap, vpin_layer=cfg.use_vpin)
            qty = int(commitment // (px * costs.multiplier * costs.margin_rate))
            if qty >= 1:
                trades.append(account.open(now, sig.side, qty, px))

        signal_log.append(SignalRecord(now, sig.side, sig.quote, delta1,
                                       vpin_now,
                                       "|".join(vpin_trace + sig.layer_trace)))

    equity_ts = np.asarray(account.equity_ts, dtype=np.int64)
    equity = np.asarray(account.equity)
    if equity.shape[0] < 2:
        raise DataError("not enough trading bars to evaluate")
    mark_idx = np.searchsorted(state.decision_ts, equity_ts)
    bench_px = closes[mark_idx]
    benchmark = costs.capital * bench_px / bench_px[0]
    bars_per_day = ticks.calendar.seconds_per_day() \
        // (eng.bar_interval_ns // 1_000_000_000)
    ppy = int(bars_per_day * eng.trading_days_per_year)
    m = compute_metrics(equity, benchmark, ppy)
    report = BacktestReport(**asdict(m), trade_count=len(trades),
                            variant=variant_tag(cfg))
    return BacktestResult(report=report, equity_ts=equity_ts, equity=equity,
                          benchmark=benchmark, trades=tuple(trades),
                          signal_log=tuple(signal_log),
                          margin_calls=margin_calls,
                          max_ledger_residual=account.max_residual,
                          data_hash=state.data_hash,
                          garch_failures=state.garch_failures,
                          svm_failures=state.svm_failures if cfg.use_svm else 0)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_backtest(ticks: TickSeries, cfg: StrategyConfig,
                 costs: CostModel | None = None,
                 engine: EngineConfig | None = None) -> BacktestResult:
    """Sequential replay of the layered strategy over one tick stream."""
    eng = engine if engine is not None else EngineConfig()
    state = _market_state(ticks, cfg, eng, vpin=cfg.use_vpin, svm=cfg.use_svm)
    return _replay(state, cfg, costs if costs is not None else CostModel(), eng)


def run_variants(ticks: TickSeries, cfg: StrategyConfig,
                 costs: CostModel | None = None,
                 engine: EngineConfig | None = None) -> dict[str, BacktestResult]:
    """The four layer combinations on identical data, keyed by variant tag.

    One market-state pass serves all four replays, so every GARCH window is
    fit and every SVM trained once.
    """
    costs = costs if costs is not None else CostModel()
    eng = engine if engine is not None else EngineConfig()
    state = _market_state(ticks, cfg, eng, vpin=True, svm=True)
    out: dict[str, BacktestResult] = {}
    for use_vpin, use_svm in ((False, False), (False, True),
                              (True, False), (True, True)):
        variant_cfg = replace(cfg, use_vpin=use_vpin, use_svm=use_svm)
        result = _replay(state, variant_cfg, costs, eng)
        out[result.report.variant] = result
    return out

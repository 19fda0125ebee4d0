"""Margin-aware sequential backtest engine and performance indicators.

A run has two stages.

The market-state pass computes, as per-bar columns, everything that no layer
switch can change. From the bars it takes the session returns, the stop
scale `stop_sigma` (the std of the trailing close changes) and the VPIN
series, with bucket size and price-change scale frozen on the warmup days.
Then come one stage per layer: GARCH refits on schedule and reads each
trading bar's standardized one-step forecast `z` from the path of the model
in effect there; delta1 is recalibrated every `delta1_every` bars; when
a requested variant uses VPIN, the (delta2, delta3) thresholds are fit daily;
and when one uses the SVM, the stage builds one feature matrix for training
and one for the gate, trains a model daily on the rows labelled so far, and
predicts each of the day's feature vectors in one call. Failed refits keep
the previous model and are counted. The pass also prices each bar's fills
and sets the benchmark curve and the annualization, so no replay reads ticks.

The replay runs once per variant over those columns and computes none of
them. It owns what the layers change: the VPIN pull on delta1 and its daily
extremes, the SVM gate, position sizing, stops, margin calls, the
double-entry ledger and the performance indicators. `run_variants`
therefore shares one market-state pass among its four replays.

A decision at a bar's end (its session's close, for a short last bar) sees
the ticks `resample` puts in the bar, a tick on the close included, and all
before them: GARCH has absorbed only completed session returns, VPIN is the
latest bucket those ticks completed, and fills take its last tick's quotes,
passively at the signalled book side, while stops and margin calls pay the
spread. A double-entry ledger moves cash, margin and fees and tracks its residual.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NonConvergenceError
from .marketdata import (
    NS_PER_DAY,
    TickSeries,
    bar_offsets,
    resample,
    session_log_returns,
)
from .strategy import (
    SIDE_BUY,
    SIDE_NONE,
    SIDE_SELL,
    StrategyConfig,
    adjust_delta1,
    calibrate_delta1,
    calibrate_vpin_thresholds,
    garch_signal,
    position_size,
    stop_loss_check,
    svm_gate,
)
from .svm import DEFAULT_C, DEFAULT_TOL, Kernel, Scaler, predict, train_smo
from .volatility import GarchSpec, fit_garch
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

# an SVM feature vector holds this many trailing standardized forecasts, as
# many standardized returns, and the latest VPIN
SVM_FEATURE_LAGS = 5

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
        # negated comparisons, so that NaN fails them
        if not (self.capital > 0 and self.multiplier > 0):
            raise DataError("capital and multiplier must be positive")
        if not self.tick_size >= 0:
            raise DataError(f"tick_size must be >= 0, got {self.tick_size}")
        if not (0 < self.margin_rate <= 1 and self.fee_rate >= 0):
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
    svm_c: float = DEFAULT_C
    svm_tol: float = DEFAULT_TOL
    svm_min_rows: int = 60
    svm_max_rows: int = 1500
    trading_days_per_year: int = 244

    def __post_init__(self) -> None:
        if self.warmup_days < 1:
            raise DataError("need at least one warmup day")
        # the grid rejects bars under 100 ms, here before any file is read
        bar_offsets(self.bar_interval_ns)
        if self.garch_window < 100:
            raise DataError("bad garch window")
        # a window never holds more than garch_window returns, so a larger
        # garch_min_obs would never refit and the run would never trade
        if not 0 < self.garch_min_obs <= self.garch_window:
            raise DataError(f"need 0 < garch_min_obs <= garch_window "
                            f"({self.garch_window}), got {self.garch_min_obs}")
        if min(self.garch_refit_every, self.delta1_every) < 1:
            raise DataError("garch_refit_every and delta1_every must be >= 1")
        # calibrate_delta1 needs 30 points, and a stop scale over 20 closes,
        # so shorter windows would never recalibrate or never stop
        if self.delta1_window < 30 or self.sigma_window < 20:
            raise DataError("need delta1_window >= 30 and sigma_window >= 20")
        if min(self.vpin_window, self.buckets_per_day) < 1:
            raise DataError("[vpin] window and buckets_per_day must be >= 1")
        if not (math.isfinite(self.initial_delta1) and self.initial_delta1 > 0):
            raise DataError("initial_delta1 must be positive")
        if not (self.svm_kernel_sigma > 0 and self.svm_c > 0 and self.svm_tol > 0):
            raise DataError("svm kernel_sigma, c and tol must be positive")
        if not SVM_FEATURE_LAGS < self.svm_min_rows <= self.svm_max_rows:
            raise DataError(f"need {SVM_FEATURE_LAGS} < svm min_rows <= max_rows")
        if self.trading_days_per_year < 1:
            raise DataError("trading_days_per_year must be >= 1")


@dataclass(frozen=True)
class Trade:
    ts: int
    side: str
    qty: int
    price: float
    fee: float
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
    max_ledger_residual: float
    garch_failures: int  # refits that raised; the previous fit stays in use
    svm_failures: int  # the same for SVM refits; 0 when the gate is off

    @property
    def margin_calls(self) -> int:
        return sum(tr.kind == "margin-call" for tr in self.trades)


class Account:
    """Cash, one net futures position, and the double-entry residual."""

    def __init__(self, costs: CostModel):
        self.costs = costs
        self.cash = costs.capital
        self.position = 0  # signed contracts
        self.entry_price = 0.0
        self.margin_held = 0.0
        self.fees_paid = 0.0
        self.equity: list[float] = []
        self.max_residual = 0.0

    def equity_at(self, price: float) -> float:
        return (self.cash + self.margin_held
                + (price - self.entry_price) * self.position * self.costs.multiplier)

    def mark(self, price: float) -> float:
        eq = self.equity_at(price)
        self.equity.append(eq)
        return eq

    def _book(self, d_cash: float, d_margin: float, fee: float, realized: float):
        residual = d_cash + d_margin + fee - realized
        self.max_residual = max(self.max_residual, abs(residual))

    def open(self, ts: int, side: str, qty: int, price: float) -> Trade:
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
        return Trade(ts, side, qty, price, fee, self.position, self.cash, "open")

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
        return Trade(ts, side, qty, price, fee, 0, self.cash, kind)


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


def variant_tag(cfg: StrategyConfig) -> str:
    return "G" + ("+V" if cfg.use_vpin else "") + ("+S" if cfg.use_svm else "")


# ---------------------------------------------------------------------------
# Market-state pass: everything the variants share
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MarketState:
    """What the replay reads at each bar that no layer switch can change.

    Columns are per bar: `z` is the standardized GARCH forecast, NaN on a
    bar with none (warmup, or before the first fit); `stop_sigma` is the
    stop's price scale, 0 where too few closes precede the bar; `delta1_fit`
    is NaN on a bar with no delta1 recalibration; `svm_pred` is the SVM's
    prediction on the bar's row of the feature matrix, 0 where no model or
    feature vector exists; `thresholds` holds the (delta2, delta3) in
    effect, None when no variant uses the VPIN layer; `bid` and `ask` price
    the fills. `benchmark` (the capital scaled by the closes over the trading
    bars) and `periods_per_year` feed the metrics.
    """

    decision_ts: np.ndarray
    closes: np.ndarray
    day_ord: np.ndarray
    first_trading: int
    bid: np.ndarray
    ask: np.ndarray
    benchmark: np.ndarray
    periods_per_year: int
    vpin_now: np.ndarray
    z: np.ndarray
    stop_sigma: np.ndarray
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


def _stop_sigma(closes: np.ndarray, window: int) -> np.ndarray:
    """The std of the close changes over each bar's trailing `window` bars,
    or over all earlier bars while fewer exist; 0 with 20 closes or fewer."""
    d = np.diff(closes)
    out = np.zeros(closes.shape[0])
    if d.shape[0] >= window:  # window >= 20, so a full window has > 20 closes
        out[window:] = np.std(sliding_window_view(d, window), axis=1)
    for t in range(20, min(window, closes.shape[0])):
        out[t] = np.std(d[:t])
    return out


def _garch_path(rets: np.ndarray, first_trading: int, eng: EngineConfig):
    """The standardized one-step forecast at each trading bar, each return's
    conditional variance under the model that absorbed it, and the failed
    refit count.

    The first refit is at the first bar with `garch_min_obs` finite returns.
    A failed refit keeps the model and retries next bar; a model fit at bar s
    serves the bars from s until the next successful refit, having absorbed
    each finite return up to the bar it serves.
    """
    n_bars = rets.shape[0]
    z, h = np.full((2, n_bars), np.nan)
    finite = np.isfinite(rets)
    stream = rets[finite]
    seen = np.cumsum(finite)  # finite returns up to and including each bar
    fits = []  # (refit bar, window start in `stream`, fit)
    failures = 0
    t = int(np.searchsorted(seen, eng.garch_min_obs))
    while t < n_bars:
        lo = max(0, seen[t] - eng.garch_window)
        try:
            fits.append((t, lo, fit_garch(stream[lo:seen[t]], eng.garch_spec)))
        except (DataError, NonConvergenceError) as exc:
            failures += 1
            log.debug("GARCH refit at bar %d failed: %s", t, exc)
            t += 1
        else:
            t += eng.garch_refit_every
    for (s, lo, fit), s_next in zip(fits, [f[0] for f in fits[1:]] + [n_bars]):
        var_path, mean_path = fit.path(stream[lo:seen[min(s_next, n_bars - 1)]])
        served = np.arange(max(s, first_trading), s_next)
        pos = seen[served] - lo  # the path entry after each bar's returns
        z[served] = mean_path[pos] / np.sqrt(var_path[pos])
        absorbed = s + 1 + np.flatnonzero(finite[s + 1:s_next + 1])
        h[absorbed] = var_path[seen[absorbed] - 1 - lo]
    return z, h, failures


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
                    bucket_fluct: np.ndarray, seen_ts: np.ndarray,
                    day_starts: np.ndarray, cfg: StrategyConfig,
                    window: int) -> np.ndarray:
    """(delta2, delta3) in effect at each bar: the config's, then each fit on
    the pairs complete by `seen_ts`, the bar's last tick, at a day's first bar."""
    out = np.tile([cfg.delta2, cfg.delta3], (seen_ts.shape[0], 1))
    # vpin value i belongs to bucket i + w - 1; fluct looks `basket_delay`
    # buckets ahead, to bucket j, and the pair counts once bucket j has ended
    # (bucket end times never decrease)
    lead = window - 1 + cfg.basket_delay
    ended = np.searchsorted(bucket_end_ts, seen_ts[day_starts], side="right")
    for t, e in zip(day_starts.tolist(), ended.tolist()):
        n = max(0, min(vpin_values.shape[0], e - lead))
        fluct = bucket_fluct[lead:lead + n]
        keep = np.isfinite(fluct)
        pairs_v, pairs_f = vpin_values[:n][keep], fluct[keep]
        if pairs_v.shape[0] >= 30 and np.ptp(pairs_v) > 0:
            th = calibrate_vpin_thresholds(pairs_v, pairs_f, cfg)
            out[t:] = th.delta2, th.delta3
    return out


def _svm_training_rows(fz: np.ndarray, rz: np.ndarray, vp: np.ndarray,
                       nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag per-row standardized forecasts, standardized returns, VPIN and
    next returns into SVM rows: row m holds rows m..m + lags - 1 of `fz` and
    `rz` and the VPIN of the last, labelled by the sign of its next return."""
    lags = SVM_FEATURE_LAGS
    lagged = np.arange(lags)[None, :] + np.arange(nxt.shape[0] - lags + 1)[:, None]
    X = np.hstack([fz[lagged], rz[lagged], vp[lags - 1:, None]])
    return X, np.where(nxt[lags - 1:] > 0, 1.0, -1.0)  # a flat bar counts as down


def _svm_path(z: np.ndarray, rets: np.ndarray, h: np.ndarray,
              vpin_now: np.ndarray, day_starts: np.ndarray,
              eng: EngineConfig) -> tuple[np.ndarray, int]:
    """The gate's -1/+1 prediction at each bar (0 without a model or feature
    vector) and the failed refit count. Each trading day trains on the rows
    labelled before its first bar, keeps the previous model on a failed or
    skipped refit, and predicts all its feature vectors in one call.

    Every feature is finite by construction: `z` at a forecast bar, a
    standardized return only where h > 0, and VPIN with NaN read as 0.5; so
    is every label's next return."""
    lags = SVM_FEATURE_LAGS
    z_at = np.flatnonzero(np.isfinite(z))
    # a standardized return needs a model that absorbed it and a forecast bar
    rz_at = np.flatnonzero(np.isfinite(z) & (h > 0))
    rz = rets[rz_at] / np.sqrt(h[rz_at])
    # forecast bars with `lags` standardized returns, so also `lags` forecasts
    n_rz = np.searchsorted(rz_at, z_at, side="right")
    j = np.flatnonzero(n_rz >= lags)
    gate_at, n_rz = z_at[j], n_rz[j]
    v = vpin_now[gate_at]  # a copy, so the fill leaves the column as it is
    v[~np.isfinite(v)] = 0.5
    # the last `lags` standardized forecasts and returns, and the VPIN
    back = np.arange(-lags, 0)
    feats = np.hstack([z[z_at][j[:, None] + 1 + back], rz[n_rz[:, None] + back],
                       v[:, None]])
    nxt = np.append(rets[1:], np.nan)[gate_at]
    row = np.isfinite(nxt)
    # the training rows are the gate bars with a finite next return, and a
    # row's lags run over rows, so unlike the gate's vector they skip the bar
    # before each session break; X_all[m] is row m + lags - 1
    X_all, y_all = _svm_training_rows(z[gate_at][row], rz[n_rz - 1][row],
                                      v[row], nxt[row])
    n_rows = np.searchsorted(gate_at[row] + 1, day_starts)
    day_lo = np.searchsorted(gate_at, day_starts)
    day_hi = np.append(day_lo[1:], gate_at.shape[0])

    pred = np.zeros(z.shape[0], dtype=np.int8)
    failures = 0
    fitted = None
    for t, k, lo, hi in zip(day_starts.tolist(), n_rows.tolist(),
                            day_lo.tolist(), day_hi.tolist()):
        # the rows among the last svm_max_rows labelled ones whose lags are
        # there too; never empty, as svm_min_rows > lags
        w = slice(max(0, k - eng.svm_max_rows), k - lags + 1)
        try:
            if k >= eng.svm_min_rows:
                X, y = X_all[w], y_all[w]
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


def _quotes(ticks: TickSeries, last: np.ndarray, costs: CostModel):
    """Bid and ask at each bar's `last` tick, its price -+ half a tick if missing."""
    half = costs.tick_size / 2.0
    px, bid, ask = ticks.price[last], ticks.bid1[last], ticks.ask1[last]
    return (np.where(np.isfinite(bid), bid, px - half),
            np.where(np.isfinite(ask), ask, px + half))


def _market_state(ticks: TickSeries, cfg: StrategyConfig, costs: CostModel,
                  eng: EngineConfig, *, vpin: bool, svm: bool) -> _MarketState:
    """The bars and their returns, then one stage per layer. The threshold
    and SVM stages run only with `vpin` and `svm`, so a run pays for no layer
    it does not use."""
    # checked here, not in EngineConfig: [garch] p and q also set the garch
    # command's model, which garch_min_obs does not bound
    spec = eng.garch_spec
    if eng.garch_min_obs < spec.min_obs:
        raise DataError(f"GARCH({spec.p},{spec.q}) needs garch_min_obs >= "
                        f"{spec.min_obs}, got {eng.garch_min_obs}")
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
    if len(bars) - first_trading < 2:
        raise DataError("not enough trading bars to evaluate")
    seen_ts = ticks.ts[bars.last]  # the last tick each decision sees
    rets = session_log_returns(bars)

    vpin_values, vpin_end_ts, bucket_end_ts, bucket_fluct = \
        _vpin_stream(ticks, days, eng)
    # latest VPIN completed by the bar's last tick
    k = np.searchsorted(vpin_end_ts, seen_ts, side="right")
    vpin_now = np.append(np.nan, vpin_values)[k]

    z, h, garch_failures = _garch_path(rets, first_trading, eng)
    delta1_fit = _delta1_path(z, rets, first_trading, cfg, eng)
    thresholds = None
    if vpin:
        thresholds = _threshold_path(vpin_values, bucket_end_ts, bucket_fluct,
                                     seen_ts, day_starts, cfg, eng.vpin_window)
    svm_pred, svm_failures = np.zeros(len(bars), dtype=np.int8), 0
    if svm:
        svm_pred, svm_failures = _svm_path(z, rets, h, vpin_now, day_starts, eng)

    bid, ask = _quotes(ticks, bars.last, costs)
    return _MarketState(
        decision_ts=bars.end_ts, closes=bars.close, day_ord=day_ord,
        first_trading=first_trading, bid=bid, ask=ask,
        benchmark=costs.capital * bars.close[first_trading:] / bars.close[first_trading],
        periods_per_year=len(bar_offsets(eng.bar_interval_ns)) * eng.trading_days_per_year,
        vpin_now=vpin_now, z=z, stop_sigma=_stop_sigma(bars.close, eng.sigma_window),
        delta1_fit=delta1_fit, thresholds=thresholds, svm_pred=svm_pred,
        garch_failures=garch_failures, svm_failures=svm_failures)


# ---------------------------------------------------------------------------
# Replay: one variant's decisions and accounting
# ---------------------------------------------------------------------------


def _replay(state: _MarketState, cfg: StrategyConfig, costs: CostModel,
            eng: EngineConfig) -> BacktestResult:
    """Walk the trading bars of `state` as the variant `cfg` selects."""
    account = Account(costs)
    trades: list[Trade] = []
    signal_log: list[SignalRecord] = []
    delta1 = eng.initial_delta1
    day_min_d1 = day_max_d1 = delta1
    delta2, delta3 = cfg.delta2, cfg.delta3
    current_day = -1

    for t in range(state.first_trading, state.closes.shape[0]):
        now = int(state.decision_ts[t])
        if state.day_ord[t] != current_day:
            current_day = int(state.day_ord[t])
            day_min_d1 = day_max_d1 = delta1
        if cfg.use_vpin:
            delta2, delta3 = state.thresholds[t]

        mark_price = state.closes[t]
        equity = account.mark(mark_price)

        if account.position != 0:
            long = account.position > 0
            maint = abs(account.position) * mark_price * costs.multiplier \
                * costs.maintenance
            kind = None
            if equity < maint:
                kind = "margin-call"
            elif state.stop_sigma[t] > 0 and stop_loss_check(
                    account.entry_price, mark_price, state.stop_sigma[t],
                    SIDE_BUY if long else SIDE_SELL, cfg):
                kind = "stop"
            if kind is not None:
                # an exit that is not signalled pays the spread
                exit_px = float(state.bid[t] if long else state.ask[t])
                trades.append(account.close(now, exit_px, kind=kind))

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
            # halfway to an extreme stays within the day's extremes
            delta1 = adjust_delta1(delta1, vpin_now, delta2, delta3,
                                   day_max_d1, day_min_d1)

        if math.isnan(state.z[t]):
            continue
        sig = garch_signal(state.z[t], delta1)
        if cfg.use_svm and sig.side != SIDE_NONE and state.svm_pred[t] != 0:
            sig = svm_gate(int(state.svm_pred[t]), sig)

        # signalled fills are passive: buy at the bid, sell at the ask
        if sig.side == SIDE_SELL and account.position > 0:
            trades.append(account.close(now, float(state.ask[t])))
        elif sig.side == SIDE_BUY and account.position < 0:
            trades.append(account.close(now, float(state.bid[t])))
        if sig.side != SIDE_NONE and account.position == 0:
            px = float(state.bid[t] if sig.side == SIDE_BUY else state.ask[t])
            commitment = position_size(
                max(account.cash, 0.0), vpin_now if math.isfinite(vpin_now) else 0.5,
                delta2, delta3, cfg)
            qty = int(commitment // (px * costs.multiplier * costs.margin_rate))
            if qty >= 1:
                trades.append(account.open(now, sig.side, qty, px))

        signal_log.append(SignalRecord(now, sig.side, sig.quote, delta1,
                                       vpin_now,
                                       "|".join(vpin_trace + sig.layer_trace)))

    # every trading bar is marked once
    equity = np.asarray(account.equity)
    m = compute_metrics(equity, state.benchmark, state.periods_per_year)
    report = BacktestReport(**asdict(m), trade_count=len(trades),
                            variant=variant_tag(cfg))
    return BacktestResult(report=report,
                          equity_ts=state.decision_ts[state.first_trading:],
                          equity=equity, benchmark=state.benchmark,
                          trades=tuple(trades), signal_log=tuple(signal_log),
                          max_ledger_residual=account.max_residual,
                          garch_failures=state.garch_failures,
                          svm_failures=state.svm_failures if cfg.use_svm else 0)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_backtest(ticks: TickSeries, cfg: StrategyConfig,
                 costs: CostModel | None = None,
                 engine: EngineConfig | None = None) -> BacktestResult:
    """Sequential replay of the layered strategy over one tick stream."""
    costs = costs if costs is not None else CostModel()
    eng = engine if engine is not None else EngineConfig()
    state = _market_state(ticks, cfg, costs, eng, vpin=cfg.use_vpin, svm=cfg.use_svm)
    return _replay(state, cfg, costs, eng)


def run_variants(ticks: TickSeries, cfg: StrategyConfig,
                 costs: CostModel | None = None,
                 engine: EngineConfig | None = None) -> dict[str, BacktestResult]:
    """The four layer combinations on identical data, keyed by variant tag
    in `VARIANTS` order.

    One market-state pass serves all four replays, so every GARCH window is
    fit and every SVM trained once.
    """
    costs = costs if costs is not None else CostModel()
    eng = engine if engine is not None else EngineConfig()
    state = _market_state(ticks, cfg, costs, eng, vpin=True, svm=True)
    return {tag: _replay(state, replace(cfg, use_vpin="V" in tag,
                                        use_svm="S" in tag), costs, eng)
            for tag in VARIANTS}

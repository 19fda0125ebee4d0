"""Margin-aware sequential backtest engine and performance indicators.

A run has two stages.

The market-state pass walks the minute bars once and computes everything
that no layer switch can change: the bars and their session returns; the
VPIN buckets, series and bucket fluctuations, with bucket size and
price-change scale frozen on the warmup day; the GARCH refits and, at each
trading bar, the one-step mean and variance forecasts (the standardized
forecast and return feed the delta1 grid and the SVM features); the delta1
recalibration every `delta1_every` bars. When a requested variant uses the
VPIN layer it also fits the daily (delta2, delta3) thresholds, and when one
uses the SVM layer it builds the feature rows and trains the daily model.
Failed refits keep the previous model and are counted.

The replay runs once per variant over that state. It owns what the layers
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
from .svm import DEFAULT_TOL, Kernel, Scaler, SvmModel, train_smo
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

    The bar-keyed dicts hold an entry only where the pass produced one: a
    one-step (mean, variance) forecast once a GARCH fit exists, a delta1 at
    each recalibration, and new VPIN thresholds, a new SVM model with its
    scaler, or the gate's feature vector where those were computed.
    """

    ticks: TickSeries
    data_hash: str
    decision_ts: np.ndarray
    closes: np.ndarray
    day_ord: np.ndarray
    first_trading: int
    price_idx: list[int]
    vpin_now: list[float]
    forecasts: dict[int, tuple[float, float]]
    delta1_fits: dict[int, float]
    thresholds: dict[int, tuple[float, float]]
    svm_models: dict[int, tuple[SvmModel, Scaler]]
    gate_features: dict[int, np.ndarray]
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


def _vpin_thresholds(vpin_values: np.ndarray, bucket_end_ts: np.ndarray,
                     bucket_fluct: np.ndarray, now_ns: int,
                     cfg: StrategyConfig, window: int):
    """(delta2, delta3) fit on the pairs complete before `now_ns`, or None."""
    # vpin value i belongs to bucket i + w - 1; fluct looks `basket_delay`
    # buckets ahead, to bucket j, and the pair counts once bucket j has ended
    # (bucket end times never decrease)
    lead = window - 1 + cfg.basket_delay
    ended = int(np.searchsorted(bucket_end_ts, now_ns, side="left"))
    n = max(0, min(vpin_values.shape[0], ended - lead))
    fluct = bucket_fluct[lead:lead + n]
    keep = np.isfinite(fluct)
    pairs_v, pairs_f = vpin_values[:n][keep], fluct[keep]
    if not (pairs_v.shape[0] >= 30 and np.ptp(pairs_v) > 0):
        return None
    th = calibrate_vpin_thresholds(pairs_v, pairs_f, cfg.fluct_hi, cfg.fluct_lo)
    return th.delta2, th.delta3


def _train_svm(rows: tuple[list[float], ...], eng: EngineConfig):
    """Model and scaler on the trailing rows; None while too few or one-sided."""
    fz, rz, vp, nxt = rows
    if len(nxt) < eng.svm_min_rows:
        return None
    lo = max(0, len(nxt) - eng.svm_max_rows)
    X, y = make_svm_dataset(fz[lo:], rz[lo:], vp[lo:], nxt[lo:])
    if np.unique(y).shape[0] < 2:
        return None
    scaler = Scaler.fit(X)
    model = train_smo(scaler.transform(X), y, c=eng.svm_c,
                      kernel=Kernel.rbf(eng.svm_kernel_sigma), tol=eng.svm_tol)
    return model, scaler


def _market_state(ticks: TickSeries, cfg: StrategyConfig, eng: EngineConfig,
                  *, vpin: bool, svm: bool) -> _MarketState:
    """One pass over the bars computing what every variant reads.

    VPIN thresholds are recalibrated only with `vpin`, and SVM models and
    their feature rows built only with `svm`, so a run pays for no layer it
    does not use. Refits that fail keep the previous model; each failure is
    counted and logged at debug level.
    """
    bars = resample(ticks, eng.bar_interval_ns)
    n_bars = len(bars)
    day_codes = bars.ts // NS_PER_DAY
    days = np.unique(day_codes)
    if days.shape[0] < eng.warmup_days + 1:
        raise DataError(f"need at least {eng.warmup_days + 1} trading days, "
                        f"got {days.shape[0]}")
    day_ord = np.searchsorted(days, day_codes)
    first_trading = int(np.searchsorted(day_ord, eng.warmup_days))
    decision_ts = bars.ts + eng.bar_interval_ns
    rets = session_log_returns(bars, ticks.calendar)

    vpin_values, vpin_end_ts, bucket_end_ts, bucket_fluct = \
        _vpin_stream(ticks, days, eng)
    # latest completed VPIN at each decision instant
    k = np.searchsorted(vpin_end_ts, decision_ts, side="left").tolist()
    vpin_now = [float(vpin_values[i - 1]) if i > 0 else math.nan for i in k]

    forecasts: dict[int, tuple[float, float]] = {}
    delta1_fits: dict[int, float] = {}
    thresholds: dict[int, tuple[float, float]] = {}
    svm_models: dict[int, tuple[SvmModel, Scaler]] = {}
    gate_features: dict[int, np.ndarray] = {}
    garch_failures = svm_failures = 0

    garch: GarchState | None = None
    ret_stream: list[float] = []
    bars_since_fit = 0
    pair_f: list[float] = []
    pair_r: list[float] = []
    pending_pair_z: float | None = None
    z_hist: list[float] = []
    rz_hist: list[float] = []
    svm_rows: tuple[list[float], ...] = ([], [], [], [])  # z, rz, vpin, next ret
    pending_svm: tuple[float, float, float] | None = None
    current_day = -1

    for t in range(n_bars):
        r = float(rets[t])
        trading = t >= first_trading

        # fold in the bar that just closed
        h_t = math.nan
        if math.isfinite(r):
            ret_stream.append(r)
            if garch is not None:
                h_t = garch.update(r)
        bars_since_fit += 1

        if trading and day_ord[t] != current_day:
            current_day = int(day_ord[t])
            if vpin and vpin_values.shape[0]:
                th = _vpin_thresholds(vpin_values, bucket_end_ts, bucket_fluct,
                                      int(decision_ts[t]), cfg, eng.vpin_window)
                if th is not None:
                    thresholds[t] = th
            if svm:
                try:
                    fitted = _train_svm(svm_rows, eng)
                except (DataError, NonConvergenceError) as exc:
                    svm_failures += 1
                    log.debug("SVM refit at bar %d failed: %s", t, exc)
                else:
                    if fitted is not None:
                        svm_models[t] = fitted

        if garch is None or bars_since_fit >= eng.garch_refit_every:
            window = ret_stream[-eng.garch_window:]
            if len(window) >= eng.garch_min_obs:
                try:
                    garch = GarchState(fit_garch(np.asarray(window), eng.garch_spec))
                except (DataError, NonConvergenceError) as exc:
                    garch_failures += 1
                    log.debug("GARCH refit at bar %d failed: %s", t, exc)
                else:
                    bars_since_fit = 0

        # settle pending next-return bookkeeping before issuing a new forecast
        if math.isfinite(r):
            if pending_pair_z is not None:
                pair_f.append(pending_pair_z)
                pair_r.append(r)
            if pending_svm is not None:
                for col, value in zip(svm_rows, pending_svm + (r,)):
                    col.append(value)
        pending_pair_z = None
        pending_svm = None

        if not trading:
            continue

        if t % eng.delta1_every == 0 and len(pair_f) >= 30:
            lo = max(0, len(pair_f) - eng.delta1_window)
            if len(pair_f) - lo >= 30:
                delta1_fits[t] = calibrate_delta1(np.asarray(pair_f[lo:]),
                                                  np.asarray(pair_r[lo:]), cfg)

        if garch is None:
            continue
        var_fc = garch.variance_forecast()
        mean_fc = garch.mean_forecast()
        forecasts[t] = (mean_fc, var_fc)
        z = mean_fc / math.sqrt(var_fc)
        z_hist.append(z)
        if math.isfinite(h_t) and h_t > 0:
            rz_hist.append(r / math.sqrt(h_t))
        pending_pair_z = z

        if svm and len(z_hist) >= SVM_FEATURE_LAGS \
                and len(rz_hist) >= SVM_FEATURE_LAGS:
            v = vpin_now[t] if math.isfinite(vpin_now[t]) else 0.5
            gate_features[t] = np.concatenate([z_hist[-SVM_FEATURE_LAGS:],
                                               rz_hist[-SVM_FEATURE_LAGS:], [v]])
            pending_svm = (z, rz_hist[-1], v)

    return _MarketState(
        ticks=ticks, data_hash=_data_hash(ticks), decision_ts=decision_ts,
        closes=bars.close, day_ord=day_ord, first_trading=first_trading,
        price_idx=(np.searchsorted(ticks.ts, decision_ts, side="left") - 1).tolist(),
        vpin_now=vpin_now, forecasts=forecasts, delta1_fits=delta1_fits,
        thresholds=thresholds, svm_models=svm_models,
        gate_features=gate_features, garch_failures=garch_failures,
        svm_failures=svm_failures)


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
    svm_model = svm_scaler = None
    current_day = -1

    for t in range(state.first_trading, closes.shape[0]):
        now = int(state.decision_ts[t])
        if state.day_ord[t] != current_day:
            current_day = int(state.day_ord[t])
            day_min_d1 = day_max_d1 = delta1
        if cfg.use_vpin and t in state.thresholds:
            delta2, delta3 = state.thresholds[t]
        if cfg.use_svm and t in state.svm_models:
            svm_model, svm_scaler = state.svm_models[t]

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

        if t in state.delta1_fits:
            delta1 = state.delta1_fits[t]
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

        forecast = state.forecasts.get(t)
        if forecast is None:
            continue
        sig = garch_signal(forecast, delta1)
        feats = state.gate_features.get(t)
        if cfg.use_svm and sig.side != SIDE_NONE and svm_model is not None \
                and feats is not None:
            sig = svm_gate(svm_model, svm_scaler.transform(feats[None, :])[0], sig)

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

"""Tick and bar data: ingestion, validation, resampling, synthesis, log returns.

Timestamps are integer nanoseconds since epoch and are interpreted in the
exchange's local clock. Every tick lies in one of the fixed CSI300 index
futures sessions, 09:30-11:30 and 13:00-15:00 (`CSI300_SESSIONS`), closes
included; `bar_offsets` is the one bar grid, and no bar spans a session break.
`simulate_garch` is the one GARCH simulator: `synth_ticks` and the tests draw
from it.
`load_ticks` parses the tick CSV in blocks of lines straight into columns,
so at its peak it holds about one copy of the columns.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError

NS_PER_SEC = 1_000_000_000
NS_PER_DAY = 86_400 * NS_PER_SEC

# CSI300 index futures hours as (open, close) seconds of day: 09:30-11:30 and
# 13:00-15:00.
CSI300_SESSIONS: tuple[tuple[int, int], ...] = (
    (9 * 3600 + 1800, 11 * 3600 + 1800),
    (13 * 3600, 15 * 3600),
)
SESSION_OPENS_NS = np.array([o for o, _ in CSI300_SESSIONS], dtype=np.int64) * NS_PER_SEC
SESSION_CLOSES_NS = np.array([c for _, c in CSI300_SESSIONS], dtype=np.int64) * NS_PER_SEC

# the tick CSV's columns, one (header, TickSeries field, dtype, save format)
# row each; a file has all five or the first three
_TICK_COLUMNS = (("ts_ns", "ts", np.int64, "%d"),
                 ("price", "price", np.float64, "%.12g"),
                 ("volume", "volume", np.int64, "%d"),
                 ("bid1", "bid1", np.float64, "%.12g"),
                 ("ask1", "ask1", np.float64, "%.12g"))
TICK_CSV_HEADER = tuple(header for header, _, _, _ in _TICK_COLUMNS)


# a day of 100 ms bars is 144,000 bars, five times a day of 500 ms ticks
MIN_BAR_INTERVAL_NS = 100_000_000


def bar_offsets(interval_ns: int) -> np.ndarray:
    """One (start, end) row per bar of a trading day, in ns after midnight:
    a bar starts every `interval_ns` from each session open and ends
    `interval_ns` later or at the close, so a session's last bar may be short.
    Any interval of one session or more gives one bar per session; above one
    day it is rejected."""
    if not interval_ns >= MIN_BAR_INTERVAL_NS:
        raise DataError(f"bar_interval_ns must be >= {MIN_BAR_INTERVAL_NS} "
                        f"(100 ms), got {interval_ns}")
    if not interval_ns <= NS_PER_DAY:
        raise DataError(f"bar_interval_ns must be <= {NS_PER_DAY} (1 day), "
                        f"got {interval_ns}")
    rows = []
    for o, c in zip(SESSION_OPENS_NS, SESSION_CLOSES_NS):
        start = np.arange(o, c, interval_ns, dtype=np.int64)
        rows.append(np.c_[start, np.minimum(start, c - interval_ns) + interval_ns])
    return np.concatenate(rows)


def _each_day(ts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The stamps of `times` (ns after midnight) on each day the sorted `ts`
    span, in order; they wrap back into int64 where a midnight does not."""
    days = np.arange(ts[0] // NS_PER_DAY, ts[-1] // NS_PER_DAY + 1) if len(ts) else ts
    return (days[:, None] * NS_PER_DAY + times).ravel()


# ---------------------------------------------------------------------------
# Core containers
# ---------------------------------------------------------------------------


class TickError(DataError):
    """A tick that breaks a TickSeries invariant, with its position."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"tick {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True)
class TickSeries:
    """Validated, time-ordered trades; the one place the tick rules live.

    Columns are stored as numpy arrays. Every tick has a positive finite
    price, a volume of at least 1, a timestamp no earlier than the tick
    before and inside a CSI300 session. Each quote is NaN (missing) or
    positive and finite, and a bid never exceeds its ask; a quote column
    that is not given is all NaN.
    """

    ts: np.ndarray
    price: np.ndarray
    volume: np.ndarray
    bid1: np.ndarray | None = None
    ask1: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = np.shape(self.ts)[0]
        for _, name, dtype, _ in _TICK_COLUMNS:
            col = getattr(self, name)
            col = (np.full(n, np.nan) if col is None
                   else np.ascontiguousarray(col, dtype=dtype))
            if col.shape[0] != n:
                raise DataError("tick columns must have equal length")
            object.__setattr__(self, name, col)
        ts, price, volume = self.ts, self.price, self.volume
        bid, ask = self.bid1, self.ask1

        def check(bad: np.ndarray, reason) -> None:
            if bad.any():
                i = int(np.argmax(bad))
                raise TickError(i, reason(i))

        check(~((price > 0) & (price < np.inf)),
              lambda i: f"price {price[i]} is not positive and finite")
        check(volume < 1, lambda i: f"volume {volume[i]} is below 1")
        check(np.r_[False, ts[1:] < ts[:-1]],
              lambda i: f"timestamp {ts[i]} decreases from the tick before")
        for name, q in (("bid1", bid), ("ask1", ask)):
            check(~(np.isnan(q) | ((q > 0) & (q < np.inf))),
                  lambda i: f"{name} {q[i]} is neither missing (NaN) nor "
                            "positive and finite")
        check(bid > ask, lambda i: f"crossed quotes: bid1 {bid[i]} > ask1 {ask[i]}")
        # the stamps are sorted, so ticks lo[k]:hi[k] lie in session k and the
        # first tick outside every session starts the first non-empty gap
        lo = np.r_[np.searchsorted(ts, _each_day(ts, SESSION_OPENS_NS)), n]
        hi = np.r_[0, np.searchsorted(ts, _each_day(ts, SESSION_CLOSES_NS), "right")]
        outside = hi[lo > hi]
        if outside.shape[0]:
            i = int(outside[0])
            raise TickError(i, f"timestamp {ts[i]} falls outside every session interval")

    def __len__(self) -> int:
        return int(self.ts.shape[0])


@dataclass(frozen=True)
class BarSeries:
    """Bars as `resample` cuts them: each bar's start `ts`, its closing
    instant `end_ts`, the index `last` of its last tick in the TickSeries it
    was cut from, and `close`, that tick's price. Bars never span a session
    break."""

    ts: np.ndarray
    close: np.ndarray
    end_ts: np.ndarray
    last: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("ts", np.int64), ("close", np.float64),
                            ("end_ts", np.int64), ("last", np.intp)):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name),
                                                                dtype=dtype))
        n = self.ts.shape[0]
        if not self.close.shape[0] == self.end_ts.shape[0] == self.last.shape[0] == n:
            raise DataError("bar columns must have equal length")
        if n > 1 and np.any(np.diff(self.ts) <= 0):
            raise DataError("bar timestamps must strictly increase")

    def __len__(self) -> int:
        return int(self.ts.shape[0])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


_TICK_DTYPE = [(name, dtype) for _, name, dtype, _ in _TICK_COLUMNS]
# rows parsed per block and formatted per write, which bounds the memory
# load_ticks and save_ticks need beyond the columns themselves
_CSV_BLOCK_ROWS = 8192


def _quote(field: str) -> float:
    # an empty quote field is a missing quote; the strip drops the U+001C..
    # U+001F padding that numpy's parser skips and float() rejects
    return float(field.strip()) if field else math.nan


def _parse(lines: list[str], n_cols: int, converters=None) -> np.ndarray:
    """np.loadtxt over tick CSV data lines, into a structured array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows
        return np.loadtxt(lines, dtype=_TICK_DTYPE[:n_cols], delimiter=",",
                          comments=None, ndmin=1, encoding="utf-8",
                          converters=converters)


def _read_rows(lines: list[str], n_cols: int) -> np.ndarray:
    """Parse tick CSV data lines into a structured array; blank lines are
    skipped, anything else that is not n_cols numbers raises ValueError.

    numpy's C parser alone reads the lines first. Only where it fails on a
    quoted file are they parsed again with `_quote` on the quote fields,
    which reads an empty field as a missing quote, and also the spellings
    that only float() reads.
    """
    try:
        return _parse(lines, n_cols)
    except ValueError:
        if n_cols != 5:
            raise
    return _parse(lines, n_cols, {3: _quote, 4: _quote})


def _first_unreadable(lines: list[str], n_cols: int) -> int:
    """Index of the first line that _read_rows rejects, by bisection."""
    lo, hi = 0, len(lines)  # lines[:lo] parse; the bad line is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _read_rows(lines[lo:mid], n_cols)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def load_ticks(path: str) -> TickSeries:
    """Load a tick CSV (``ts_ns,price,volume[,bid1,ask1]``) into a TickSeries.

    The data lines are parsed `_CSV_BLOCK_ROWS` at a time, and each block's
    fields are copied out into per-column pieces, so the whole file's
    structured array is never held; at the peak the load holds about one
    copy of the columns. TickSeries validates them; a bad file raises
    DataError naming the 1-based line of the first bad row.
    """
    # a byte that is not UTF-8 becomes U+FFFD, which no field parses
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        header = tuple(h.strip() for h in first.split(","))
        if header not in (TICK_CSV_HEADER, TICK_CSV_HEADER[:3]):
            raise DataError(f"{path}: unrecognized tick header {header}")
        pieces: list[list[np.ndarray]] = [[] for _ in header]
        line_no, n_rows = 2, 0  # the block's first line number, rows so far
        while lines := list(itertools.islice(fh, _CSV_BLOCK_ROWS)):
            try:
                rows = _read_rows(lines, len(header))
            except ValueError:
                k = _first_unreadable(lines, len(header))
                text = lines[k].rstrip("\n")
                raise DataError(f"{path}: line {line_no + k}: {text!r} is not "
                                f"{len(header)} numbers {','.join(header)}") from None
            for piece, name in zip(pieces, rows.dtype.names):
                piece.append(rows[name].copy())
            line_no += len(lines)
            n_rows += rows.shape[0]
            # free this block's line strings before the next block is read,
            # so that the small-object arenas they fill are reused
            del lines, rows
        if n_rows == 0:
            raise DataError(f"{path}: no data rows")
        columns = []
        for piece in pieces:
            columns.append(np.concatenate(piece))
            piece.clear()
        try:
            return TickSeries(*columns)
        except TickError as exc:
            fh.seek(0)
            lines = fh.read().split("\n")
            line = [k for k, text in enumerate(lines) if k and text][exc.index]
            raise DataError(f"{path}: line {line + 1}: {exc.reason}") from None


def save_ticks(path: str, ticks: TickSeries) -> None:
    """Write the tick CSV schema; the quote columns are left out only when
    every bid and every ask is missing.

    Each column is written in its `_TICK_COLUMNS` format, lines end in CRLF.
    """
    quoted = not (np.isnan(ticks.bid1).all() and np.isnan(ticks.ask1).all())
    columns = _TICK_COLUMNS if quoted else _TICK_COLUMNS[:3]
    cols = [getattr(ticks, name) for _, name, _, _ in columns]
    row = ",".join(fmt for _, _, _, fmt in columns) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TICK_CSV_HEADER[:len(cols)]) + "\r\n")
        for start in range(0, len(ticks), _CSV_BLOCK_ROWS):
            chunk = [col[start:start + _CSV_BLOCK_ROWS].tolist() for col in cols]
            fh.write("".join(map(row.__mod__, zip(*chunk))))


# ---------------------------------------------------------------------------
# Returns and resampling
# ---------------------------------------------------------------------------


def log_returns(prices: np.ndarray | Sequence[float]) -> np.ndarray:
    """Log returns of an ordered vector of positive finite prices.

    r[t] = ln(prices[t+1] / prices[t]); the result is one shorter than the
    prices.
    """
    p = np.ascontiguousarray(prices, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise DataError("need at least 2 prices for returns")
    if not np.all((p > 0) & (p < np.inf)):
        raise DataError("prices must be positive and finite")
    return np.diff(np.log(p))


def session_log_returns(bars: BarSeries) -> np.ndarray:
    """Close-to-close log returns aligned with the bars, never across a
    session break: NaN at the first bar of each session."""
    c = bars.close
    r = np.full(len(bars) + 1, np.nan)
    r[1:-1] = np.log(c[1:] / c[:-1])
    # the first bar at or after each session open starts a session
    r[np.searchsorted(bars.ts, _each_day(bars.ts, SESSION_OPENS_NS))] = np.nan
    return r[:-1]


def resample(ticks: TickSeries, interval_ns: int) -> BarSeries:
    """Aggregate ticks into bars of the given interval, each closing at the
    price of its last tick.

    Each day the ticks span gets the bars of `bar_offsets`, and a bar takes
    the ticks from its start to the next bar's, so a tick stamped on a close
    joins its session's last bar. Bars that hold no tick are left out. This
    is the one place a bar's extent is decided: a decision at a bar's
    `end_ts` sees the bar's ticks, through `last`, and every tick before.
    """
    if len(ticks) == 0:
        raise DataError("cannot resample an empty tick series")
    grid = _each_day(ticks.ts, bar_offsets(interval_ns).ravel())
    start, end_ts = grid.reshape(-1, 2).T
    first = np.searchsorted(ticks.ts, start)
    end = np.r_[first[1:], len(ticks)]
    held = end > first
    last = end[held] - 1
    return BarSeries(start[held], ticks.price[last], end_ts[held], last)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic tick generator.

    Log returns follow a conditional-heteroscedasticity recursion
    h_t = omega + alpha * eps_{t-1}^2 + beta * h_{t-1} with Gaussian shocks,
    an optional AR(1) term phi in the mean, and log-normal volumes rounded up
    to at least 1 contract. Output is deterministic given the seed.
    """

    omega: float = 1e-6
    alpha: float = 0.05
    beta: float = 0.90
    mu: float = 0.0
    phi: float = 0.0
    count: int = 10_000
    seed: int = 0
    start_price: float = 3000.0
    tick_interval_ms: int = 500
    spread: float = 0.2
    volume_log_mean: float = 1.0
    volume_log_sigma: float = 1.0
    start_day: int = 17_000

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise DataError("omega must be positive")
        # negated comparisons, so that NaN fails them
        if not (self.alpha >= 0 and self.beta >= 0):
            raise DataError("alpha and beta must be non-negative")
        if not self.alpha + self.beta < 1:
            raise DataError(f"alpha + beta must be < 1, got {self.alpha + self.beta}")
        if not abs(self.phi) < 1:
            raise DataError("phi must satisfy |phi| < 1")
        if self.count < 2:
            raise DataError("count must be >= 2")
        if not (self.start_price > 0 and self.spread >= 0 and self.tick_interval_ms > 0):
            raise DataError("invalid start_price, spread, or tick interval")
        if self.tick_interval_ms * 1_000_000 > np.min(SESSION_CLOSES_NS - SESSION_OPENS_NS):
            raise DataError(f"tick_interval_ms {self.tick_interval_ms} is longer than "
                            "a session, which then has no tick slot")
        if not all(map(math.isfinite, (self.mu, self.volume_log_mean,
                                       self.volume_log_sigma))):
            raise DataError("mu and the volume parameters must be finite")


def simulate_garch(z: np.ndarray, omega: float, alpha: float, beta: float,
                   leverage: float = 0.0, mu: float = 0.0,
                   phi: float = 0.0) -> np.ndarray:
    """Returns of a GARCH(1,1) model driven by the standardized shocks `z`.

    h_t = omega + (alpha + leverage 1[eps_{t-1} < 0]) eps_{t-1}^2 + beta h_{t-1}
    starts at the unconditional variance, eps_t = z_t sqrt(h_t), and the mean
    is r_t = mu + eps_t + phi r_{t-1} with r_{-1} = 0. One return per shock.
    """
    if not (omega > 0 and alpha + beta + leverage / 2.0 < 1):
        raise DataError("simulation parameters must be stationary")
    # Sequential variance recursion; eps_t^2 = z_t^2 h_t keeps it scalar.
    coef = alpha * z * z + beta
    if leverage != 0.0:
        coef = coef + leverage * z * z * (z < 0)
    hv = omega / (1.0 - alpha - beta - leverage / 2.0)
    h = []
    for c in coef.tolist():
        h.append(hv)
        hv = omega + c * hv
    r = mu + z * np.sqrt(h)
    if phi != 0.0:
        # AR(1) mean r_t = x_t + phi r_{t-1} over x = mu + eps, in place: the
        # operations lfilter([1], [1, -phi], x) performs, in the same order
        rs, p = r.tolist(), 0.0
        for t, x in enumerate(rs):
            p = x + phi * p
            rs[t] = p
        r = np.array(rs)
    return r


def synth_ticks(spec: SynthSpec) -> TickSeries:
    """Generate a deterministic synthetic TickSeries from a SynthSpec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.count
    r = simulate_garch(rng.standard_normal(n - 1), spec.omega, spec.alpha,
                       spec.beta, mu=spec.mu, phi=spec.phi)
    prices = spec.start_price * np.exp(np.cumsum(np.r_[0.0, r]))
    if np.any(prices <= spec.spread / 2):
        raise DataError("synthetic path hit non-positive quotes; lower spread or variance")

    volumes = np.ceil(rng.lognormal(spec.volume_log_mean, spec.volume_log_sigma, n))
    volumes = np.maximum(volumes, 1.0).astype(np.int64)

    interval_ns = spec.tick_interval_ms * 1_000_000
    slots_per_sess = ((SESSION_CLOSES_NS - SESSION_OPENS_NS) // interval_ns).tolist()
    per_day = sum(slots_per_sess)
    cum = np.cumsum([0] + slots_per_sess)
    idx = np.arange(n, dtype=np.int64)
    day = spec.start_day + idx // per_day
    within = idx % per_day
    sess = np.searchsorted(cum, within, side="right") - 1
    offset = within - cum[sess]
    ts = day * NS_PER_DAY + SESSION_OPENS_NS[sess] + offset * interval_ns

    half = spec.spread / 2.0
    bid = prices - half if spec.spread > 0 else None
    ask = prices + half if spec.spread > 0 else None
    return TickSeries(ts, prices, volumes, bid, ask)

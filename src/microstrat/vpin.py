"""Volume buckets, bulk volume classification, and the VPIN estimator.

Ticks are folded into equal-volume buckets; a tick spanning a boundary is
split pro-rata and its price change applies to both fragments. Each fragment
is classified as buy volume v * Phi(dP / sigma_dP) and the order imbalance
|V_B - V_S| averaged over a rolling window of n buckets, divided by the
bucket volume V, gives VPIN.

Integer bucket volumes keep all boundary arithmetic exact in float64 (tick
volumes are integer contracts), so volume conservation holds bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DataError
from .marketdata import TickSeries

DEFAULT_BUCKETS_PER_DAY = 50
DEFAULT_WINDOW = 50


# ---------------------------------------------------------------------------
# Bucket containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawBucket:
    """An unclassified bucket: fragment volumes with their price changes.

    `index` is 1-based. Fragment arrays are aligned; `total` equals the
    configured bucket volume for complete buckets.
    """

    index: int
    start_ts: int
    end_ts: int
    delta_p: np.ndarray
    volume: np.ndarray
    complete: bool

    @property
    def total(self) -> float:
        return float(self.volume.sum())


@dataclass(frozen=True)
class VolumeBucket:
    """A classified bucket; sell volume is defined as total minus buy volume."""

    index: int
    buy_volume: float
    sell_volume: float
    total: float
    start_ts: int
    end_ts: int

    def __post_init__(self) -> None:
        if not self.total > 0:
            raise DataError("bucket total must be positive")
        if not (-1e-9 <= self.buy_volume <= self.total + 1e-9):
            raise DataError(f"buy volume {self.buy_volume} outside [0, {self.total}]")
        if abs(self.buy_volume + self.sell_volume - self.total) > 1e-9 * max(self.total, 1.0):
            raise DataError("buy + sell volume must equal the bucket total")

    @property
    def order_imbalance(self) -> float:
        return abs(self.buy_volume - self.sell_volume)


@dataclass(frozen=True)
class VpinSeries:
    """Rolling VPIN values; value j covers buckets up to 1-based index
    bucket_indices[j], the first window ending at bucket n."""

    values: np.ndarray
    bucket_indices: np.ndarray
    end_ts: np.ndarray
    window: int
    bucket_volume: float

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bucket_indices",
                           np.ascontiguousarray(self.bucket_indices, dtype=np.int64))
        object.__setattr__(self, "end_ts", np.ascontiguousarray(self.end_ts, dtype=np.int64))
        if not (values.shape[0] == self.bucket_indices.shape[0] == self.end_ts.shape[0]):
            raise DataError("vpin columns must have equal length")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise DataError("vpin values must lie in [0, 1]")
        if self.window < 1 or not self.bucket_volume > 0:
            raise DataError("bad vpin window or bucket volume")

    def __len__(self) -> int:
        return int(self.values.shape[0])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def default_bucket_volume(ticks: TickSeries,
                          buckets_per_day: int = DEFAULT_BUCKETS_PER_DAY) -> float:
    """Mean daily volume split into `buckets_per_day` parts, whole contracts."""
    if len(ticks) == 0:
        raise DataError("cannot size buckets from an empty tick series")
    if buckets_per_day < 1:
        raise DataError("buckets_per_day must be >= 1")
    days = np.unique(ticks.day_index()).shape[0]
    per_day = float(ticks.volume.sum()) / days
    return max(1.0, round(per_day / buckets_per_day))


def bucket_fill(ticks: TickSeries, bucket_volume: float) -> list[RawBucket]:
    """Partition ticks into equal-volume buckets, splitting boundary ticks.

    The trailing partial bucket, when present, is returned with
    `complete=False`; VPIN must ignore it.
    """
    if not bucket_volume > 0:
        raise DataError(f"bucket volume must be positive, got {bucket_volume}")
    if len(ticks) == 0:
        raise DataError("cannot bucket an empty tick series")
    v = float(bucket_volume)
    cv = np.cumsum(ticks.volume).astype(np.float64)
    total = cv[-1]
    m = int(total // v)
    edges = np.arange(1, m + 1, dtype=np.float64) * v
    # elementary segments: cut ticks at every bucket edge
    uppers = np.unique(np.concatenate([cv, edges]))
    seg_vol = np.diff(uppers, prepend=0.0)
    tick_id = np.searchsorted(cv, uppers, side="left")
    bucket_id = np.searchsorted(edges, uppers, side="left")
    dp = np.diff(ticks.price, prepend=ticks.price[0])
    seg_dp = dp[tick_id]
    seg_ts = ticks.ts[tick_id]

    counts = np.bincount(bucket_id, minlength=m + 1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    buckets = []
    n_buckets = m + (1 if (counts.shape[0] > m and counts[m] > 0) else 0)
    for k in range(n_buckets):
        lo, hi = offsets[k], offsets[k + 1]
        buckets.append(RawBucket(
            index=k + 1,
            start_ts=int(seg_ts[lo]),
            end_ts=int(seg_ts[hi - 1]),
            delta_p=seg_dp[lo:hi],
            volume=seg_vol[lo:hi],
            complete=k < m,
        ))
    return buckets


def sigma_delta_p(ticks: TickSeries) -> float:
    """Population standard deviation of tick-to-tick price changes."""
    if len(ticks) < 3:
        raise DataError("need at least 2 price changes to estimate sigma_dp")
    dp = np.diff(ticks.price)
    sigma = float(np.std(dp))
    if sigma == 0.0:
        raise DataError("price changes are constant; sigma_dp is degenerate")
    return sigma


def classify_buckets(buckets: list[RawBucket], sigma_dp: float) -> list[VolumeBucket]:
    """Apply the classification split to every complete bucket's fragments."""
    if not sigma_dp > 0:
        raise DataError(f"sigma_dp must be positive, got {sigma_dp}")
    complete = [b for b in buckets if b.complete]
    if not complete:
        return []
    dp = np.concatenate([b.delta_p for b in complete])
    vol = np.concatenate([b.volume for b in complete])
    buy = vol * ndtr(dp / sigma_dp)
    offsets = np.concatenate([[0], np.cumsum([b.volume.shape[0] for b in complete])])
    out = []
    for k, b in enumerate(complete):
        v_b = float(buy[offsets[k]:offsets[k + 1]].sum())
        total = b.total
        v_b = min(max(v_b, 0.0), total)
        out.append(VolumeBucket(index=b.index, buy_volume=v_b,
                                sell_volume=total - v_b, total=total,
                                start_ts=b.start_ts, end_ts=b.end_ts))
    return out


def compute_vpin(buckets: list[VolumeBucket], window: int,
                 bucket_volume: float) -> VpinSeries:
    """Rolling mean of order imbalance over `window` buckets, divided by V."""
    if window < 1:
        raise DataError("window must be >= 1")
    if len(buckets) < window:
        raise DataError(f"need at least {window} complete buckets, got {len(buckets)}")
    v = float(bucket_volume)
    if not v > 0:
        raise DataError("bucket volume must be positive")
    oi = np.array([b.order_imbalance for b in buckets])
    sums = np.convolve(oi, np.ones(window), mode="valid")
    values = np.clip(sums / (window * v), 0.0, 1.0)
    indices = np.array([b.index for b in buckets[window - 1:]], dtype=np.int64)
    end_ts = np.array([b.end_ts for b in buckets[window - 1:]], dtype=np.int64)
    return VpinSeries(values=values, bucket_indices=indices, end_ts=end_ts,
                      window=window, bucket_volume=v)


def vpin_from_ticks(ticks: TickSeries, bucket_volume: float | None = None,
                    window: int = DEFAULT_WINDOW,
                    buckets_per_day: int = DEFAULT_BUCKETS_PER_DAY) -> VpinSeries:
    """Full pipeline: size buckets, fill, classify, and roll up VPIN."""
    if bucket_volume is None:
        bucket_volume = default_bucket_volume(ticks, buckets_per_day)
    sigma = sigma_delta_p(ticks)
    raw = bucket_fill(ticks, bucket_volume)
    classified = classify_buckets(raw, sigma)
    return compute_vpin(classified, window=window, bucket_volume=bucket_volume)

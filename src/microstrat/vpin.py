"""Volume buckets, bulk volume classification, and the VPIN estimator.

Ticks are folded into equal-volume buckets; a tick spanning a boundary is
split pro-rata and its price change applies to both fragments. Each fragment
is classified as buy volume v * Phi(dP / sigma_dP) and the order imbalance
|V_B - V_S| averaged over a rolling window of n buckets, divided by the
bucket volume V, gives VPIN.

The buckets stay columns from fill to VPIN: `bucket_fill` returns the
fragments with per-bucket offsets and end times, `classify_buckets` one buy
volume per complete bucket, and a bucket's sell volume is V minus its buy
volume.

A bucket volume is a whole number of contracts, at least 1: with integer
tick volumes that keeps all boundary arithmetic exact in float64, so volume
conservation holds bit-exactly.

Phi is scipy's `ndtr` ufunc, from `_scipy.special`, which loads it without
the `scipy.special` package's imports wherever scipy keeps it in a
standalone compiled module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import DataError
from .marketdata import NS_PER_DAY, TickSeries

DEFAULT_BUCKETS_PER_DAY = 50
DEFAULT_WINDOW = 50


@dataclass(frozen=True)
class Buckets:
    """Ticks cut into equal-volume buckets, held as columns.

    Bucket k holds the fragments ``offsets[k]:offsets[k + 1]`` of `volume`
    and `delta_p` and ends at ``end_ts[k]``, the timestamp of its last
    fragment's tick. The first `complete` buckets hold `bucket_volume`
    (exactly, for whole contracts); a trailing partial bucket, when present,
    is the last one and VPIN ignores it.
    """

    volume: np.ndarray
    delta_p: np.ndarray
    offsets: np.ndarray
    end_ts: np.ndarray
    complete: int
    bucket_volume: float


@dataclass(frozen=True)
class VpinSeries:
    """Rolling VPIN values, each with the end time of the last bucket in its
    window; the first window ends at bucket n."""

    values: np.ndarray
    end_ts: np.ndarray


def default_bucket_volume(ts: np.ndarray, volume: np.ndarray,
                          buckets_per_day: int = DEFAULT_BUCKETS_PER_DAY) -> float:
    """Mean daily volume split into `buckets_per_day` parts, whole contracts.

    `ts` and `volume` are aligned tick columns; days are calendar days.
    """
    if volume.shape[0] == 0:
        raise DataError("cannot size buckets from an empty tick series")
    if buckets_per_day < 1:
        raise DataError("buckets_per_day must be >= 1")
    days = np.unique(ts // NS_PER_DAY).shape[0]
    per_day = float(volume.sum()) / days
    return max(1.0, round(per_day / buckets_per_day))


def bucket_fill(ticks: TickSeries, bucket_volume: float) -> Buckets:
    """Partition ticks into equal-volume buckets, splitting boundary ticks.

    `bucket_volume` must be a whole number of contracts, at least 1.
    """
    if not (bucket_volume >= 1 and float(bucket_volume).is_integer()):
        raise DataError(f"bucket volume must be a whole number of contracts, "
                        f"at least 1, got {bucket_volume}")
    if len(ticks) == 0:
        raise DataError("cannot bucket an empty tick series")
    v = float(bucket_volume)
    cv = np.cumsum(ticks.volume).astype(np.float64)
    m = int(cv[-1] // v)
    edges = np.arange(1, m + 1, dtype=np.float64) * v
    # elementary segments: cut ticks at every bucket edge
    uppers = np.unique(np.concatenate([cv, edges]))
    tick_id = np.searchsorted(cv, uppers, side="left")
    counts = np.bincount(np.searchsorted(edges, uppers, side="left"),
                         minlength=m + 1)
    n_buckets = m + int(counts[m] > 0)
    offsets = np.concatenate([[0], np.cumsum(counts[:n_buckets])])
    dp = np.diff(ticks.price, prepend=ticks.price[0])
    return Buckets(volume=np.diff(uppers, prepend=0.0), delta_p=dp[tick_id],
                   offsets=offsets, end_ts=ticks.ts[tick_id[offsets[1:] - 1]],
                   complete=m, bucket_volume=v)


def sigma_delta_p(price: np.ndarray) -> float:
    """Population standard deviation of tick-to-tick price changes."""
    if price.shape[0] < 3:
        raise DataError("need at least 2 price changes to estimate sigma_dp")
    sigma = float(np.std(np.diff(price)))
    if sigma == 0.0:
        raise DataError("price changes are constant; sigma_dp is degenerate")
    return sigma


def classify_buckets(buckets: Buckets, sigma_dp: float) -> np.ndarray:
    """Buy volume of every complete bucket, clipped to [0, bucket_volume]."""
    if not sigma_dp > 0:
        raise DataError(f"sigma_dp must be positive, got {sigma_dp}")
    ndtr = _scipy.special("ndtr")
    offsets = buckets.offsets[:buckets.complete + 1]
    n = offsets[-1]
    buy = buckets.volume[:n] * ndtr(buckets.delta_p[:n] / sigma_dp)
    # one pairwise sum per bucket; np.add.reduceat sums in another order and
    # moves the last bits of most bucket sums
    sums = np.empty(buckets.complete)
    for k in range(buckets.complete):
        sums[k] = buy[offsets[k]:offsets[k + 1]].sum()
    return np.clip(sums, 0.0, buckets.bucket_volume)


def compute_vpin(buy: np.ndarray, end_ts: np.ndarray, window: int,
                 bucket_volume: float) -> VpinSeries:
    """Rolling mean of order imbalance over `window` buckets, divided by V.

    `buy` holds each complete bucket's buy volume and `end_ts` its end time.
    """
    if window < 1:
        raise DataError("window must be >= 1")
    if buy.shape[0] != end_ts.shape[0]:
        raise DataError("buy volumes and end times must be aligned")
    if buy.shape[0] < window:
        raise DataError(f"need at least {window} complete buckets, got {buy.shape[0]}")
    v = float(bucket_volume)
    if not v > 0:
        raise DataError("bucket volume must be positive")
    oi = np.abs(buy - (v - buy))
    sums = np.convolve(oi, np.ones(window), mode="valid")
    return VpinSeries(values=np.clip(sums / (window * v), 0.0, 1.0),
                      end_ts=end_ts[window - 1:])


def vpin_from_ticks(ticks: TickSeries, bucket_volume: float | None = None,
                    window: int = DEFAULT_WINDOW,
                    buckets_per_day: int = DEFAULT_BUCKETS_PER_DAY) -> VpinSeries:
    """Full pipeline: size buckets, fill, classify, and roll up VPIN."""
    if bucket_volume is None:
        bucket_volume = default_bucket_volume(ticks.ts, ticks.volume, buckets_per_day)
    sigma = sigma_delta_p(ticks.price)
    buckets = bucket_fill(ticks, bucket_volume)
    buy = classify_buckets(buckets, sigma)
    return compute_vpin(buy, buckets.end_ts[:buckets.complete], window, bucket_volume)

"""Trading decision layers.

Direction comes from thresholding the standardized one-step mean forecast at
+-delta1; delta1 is re-picked by grid search on the trailing window and pulled
toward its daily extremes whenever VPIN crosses the warning thresholds
(delta2, delta3), themselves fit to two one-sided fluctuation rules. A trained
classifier may veto either side. The engine owns sequencing; everything here
is a pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DataError

SIDE_BUY = "buy"
SIDE_SELL = "sell"
SIDE_NONE = "none"

SVM_FEATURE_LAGS = 5


@dataclass(frozen=True)
class StrategyConfig:
    """Thresholds, sizing rules and layer switches for the decision stack."""

    delta1_lo: float = 0.02
    delta1_hi: float = 2.0
    delta1_step: float = 0.02
    delta2: float = 0.9
    delta3: float = 0.1
    fluct_hi: float = 0.0015
    fluct_lo: float = 0.0005
    basket_delay: int = 2
    position_fraction: float = 0.10
    size_reduce: float = 0.5
    size_boost: float = 1.5
    size_cap: float = 0.20
    stop_loss_sigmas: float = 2.0
    use_vpin: bool = True
    use_svm: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.delta3 <= self.delta2 <= 1.0):
            raise DataError(f"need 0 <= delta3 <= delta2 <= 1, "
                            f"got {self.delta3}, {self.delta2}")
        if not (0 < self.delta1_lo < self.delta1_hi) or self.delta1_step <= 0:
            raise DataError("bad delta1 grid")
        if not 0.0 < self.position_fraction <= 1.0:
            raise DataError("position_fraction must be in (0, 1]")
        if not 0.0 < self.size_cap <= 1.0:
            raise DataError("size_cap must be in (0, 1]")
        if self.size_reduce <= 0 or self.size_boost <= 0:
            raise DataError("sizing factors must be positive")
        if self.stop_loss_sigmas <= 0:
            raise DataError("stop_loss_sigmas must be positive")
        if self.basket_delay < 0:
            raise DataError("basket_delay must be >= 0")

    def delta1_grid(self) -> np.ndarray:
        n = int(round((self.delta1_hi - self.delta1_lo) / self.delta1_step)) + 1
        return self.delta1_lo + self.delta1_step * np.arange(n)


_QUOTES = {SIDE_BUY: "bid1", SIDE_SELL: "ask1", SIDE_NONE: None}


@dataclass(frozen=True)
class Signal:
    """One trading decision and the layers that shaped it."""

    side: str
    layer_trace: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.side not in _QUOTES:
            raise DataError(f"unknown side {self.side!r}")

    @property
    def quote(self) -> str | None:
        """The book side the order would hit."""
        return _QUOTES[self.side]


@dataclass(frozen=True)
class VpinThresholds:
    delta2: float
    delta3: float
    misclassified: int
    flat_objective: bool = False


def garch_signal(forecast: tuple[float, float], delta1: float) -> Signal:
    """Buy above +delta1, sell below -delta1 on the (mean, variance) forecast."""
    mean, variance = map(float, forecast)
    if not (math.isfinite(mean) and math.isfinite(variance) and variance > 0):
        raise DataError(f"bad forecast mean={mean} variance={variance}")
    if not (math.isfinite(delta1) and delta1 > 0):
        raise DataError(f"delta1 must be positive, got {delta1}")
    z = mean / math.sqrt(variance)
    if z > delta1:
        return Signal(SIDE_BUY, ("garch:buy",))
    if z < -delta1:
        return Signal(SIDE_SELL, ("garch:sell",))
    return Signal(SIDE_NONE, ("garch:none",))


def calibrate_delta1(std_forecasts: np.ndarray, next_returns: np.ndarray,
                     config: StrategyConfig | None = None) -> float:
    """Grid threshold maximizing the trailing window's directional return.

    `next_returns[t]` is the return realized over the period after the
    forecast `std_forecasts[t]` was issued; the current instant is excluded
    by construction. Ties go to the smallest threshold.
    """
    cfg = config if config is not None else StrategyConfig()
    f = np.asarray(std_forecasts, dtype=np.float64).ravel()
    r = np.asarray(next_returns, dtype=np.float64).ravel()
    if f.shape[0] != r.shape[0]:
        raise DataError("forecasts and returns must be aligned")
    if f.shape[0] < 30:
        raise DataError(f"need at least 30 decision points, got {f.shape[0]}")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(r))):
        raise DataError("non-finite calibration inputs")
    grid = cfg.delta1_grid()
    longs = f[None, :] > grid[:, None]
    shorts = f[None, :] < -grid[:, None]
    window_return = (r[None, :] * longs).sum(axis=1) - (r[None, :] * shorts).sum(axis=1)
    return float(grid[int(np.argmax(window_return))])


def _misclass_curves(v, hi_mask, lo_mask, grid):
    # rule 1: VPIN above delta2 should coincide with large coming fluctuation
    a = ((v[None, :] > grid[:, None]) != hi_mask[None, :]).sum(axis=1)
    # rule 2: VPIN below delta3 should coincide with small coming fluctuation
    b = ((v[None, :] < grid[:, None]) != lo_mask[None, :]).sum(axis=1)
    return a, b


def calibrate_vpin_thresholds(vpin, future_fluct, fluct_hi: float = 0.0015,
                              fluct_lo: float = 0.0005) -> VpinThresholds:
    """Fit (delta2, delta3) to the two one-sided fluctuation rules.

    Minimizes the total misclassification count over delta3 <= delta2 on a
    0.01 grid, then runs a short projected random descent with a fixed seed
    around the winner. A flat objective falls back to (0.9, 0.1) and flags it.
    """
    v = np.asarray(vpin, dtype=np.float64).ravel()
    f = np.asarray(future_fluct, dtype=np.float64).ravel()
    if v.shape[0] == 0:
        raise DataError("empty VPIN series")
    if v.shape[0] != f.shape[0]:
        raise DataError("VPIN and fluctuation series must be aligned")
    if np.all(v == v[0]):
        raise DataError("constant VPIN series cannot be thresholded")
    hi_mask = f > fluct_hi
    lo_mask = f < fluct_lo
    grid = np.arange(101) / 100.0
    a, b = _misclass_curves(v, hi_mask, lo_mask, grid)
    if a.max() == a.min() and b.max() == b.min():
        return VpinThresholds(0.9, 0.1, int(a[0] + b[0]), flat_objective=True)

    # delta3 is constrained below delta2: prefix argmin folds the constraint in
    best_b = np.empty(101, dtype=np.int64)
    best_j = np.empty(101, dtype=np.int64)
    run, run_j = b[0], 0
    for j in range(101):
        if b[j] < run:
            run, run_j = b[j], j
        best_b[j], best_j[j] = run, run_j
    i2 = int(np.argmin(a + best_b))
    d2, d3 = float(grid[i2]), float(grid[best_j[i2]])
    obj = int(a[i2] + best_b[i2])

    def count(c2, c3):
        return int(((v > c2) != hi_mask).sum() + ((v < c3) != lo_mask).sum())

    rng = np.random.default_rng(0)
    for _ in range(200):
        c2, c3 = np.clip((d2, d3) + rng.normal(0.0, 0.005, 2), 0.0, 1.0)
        c3 = min(c3, c2)
        cand = count(c2, c3)
        if cand < obj:
            d2, d3, obj = float(c2), float(c3), cand
    return VpinThresholds(d2, d3, obj, flat_objective=False)


def adjust_delta1(delta1: float, vpin_now: float, delta2: float, delta3: float,
                  day_max_d1: float, day_min_d1: float) -> float:
    """Pull delta1 halfway to its daily extreme when VPIN leaves the band."""
    if not day_min_d1 <= delta1 <= day_max_d1:
        raise DataError(f"delta1 {delta1} outside [{day_min_d1}, {day_max_d1}]")
    if vpin_now > delta2:
        return (delta1 + day_max_d1) / 2.0
    if vpin_now < delta3:
        return (delta1 + day_min_d1) / 2.0
    return delta1


def svm_gate(pred: int, proposed: Signal) -> Signal:
    """Veto a buy on a -1 prediction and a sell on +1; pass anything else."""
    if proposed.side == SIDE_NONE:
        return proposed
    if pred not in (-1, 1):
        raise DataError(f"SVM prediction must be -1 or +1, got {pred!r}")
    veto = (pred == -1 and proposed.side == SIDE_BUY) or \
           (pred == 1 and proposed.side == SIDE_SELL)
    if veto:
        return Signal(SIDE_NONE, proposed.layer_trace + ("svm-veto",))
    return Signal(proposed.side, proposed.layer_trace + ("svm-pass",))


def position_size(available_funds: float, vpin_now: float, delta2: float,
                  delta3: float, *, fraction: float = 0.10,
                  reduce_factor: float = 0.5, boost_factor: float = 1.5,
                  cap_fraction: float = 0.20, vpin_layer: bool = True) -> float:
    """Funds committed to the next entry, scaled down or up by the VPIN band."""
    if available_funds < 0:
        raise DataError("available funds cannot be negative")
    base = fraction * available_funds
    if not vpin_layer:
        return base
    if vpin_now > delta2:
        return reduce_factor * base
    if vpin_now < delta3:
        return min(boost_factor * base, cap_fraction * available_funds)
    return base


def stop_loss_check(entry_price: float, current_price: float,
                    sigma_price: float, k: float = 2.0,
                    side: str = SIDE_BUY) -> bool:
    if sigma_price <= 0:
        raise DataError(f"sigma_price must be positive, got {sigma_price}")
    if k <= 0:
        raise DataError("k must be positive")
    if side == SIDE_BUY:
        excursion = entry_price - current_price
    elif side == SIDE_SELL:
        excursion = current_price - entry_price
    else:
        raise DataError(f"stop loss needs an open side, got {side!r}")
    return excursion > k * sigma_price


def make_svm_dataset(std_forecasts, std_returns, vpin, next_returns,
                     lags: int = SVM_FEATURE_LAGS):
    """Feature rows: `lags` trailing forecasts, `lags` trailing returns, VPIN.

    The label is the sign of the next return; a flat bar counts as down so
    labels stay in {-1, +1}. Rows touching non-finite values are dropped.
    """
    arrs = [np.asarray(a, dtype=np.float64).ravel()
            for a in (std_forecasts, std_returns, vpin, next_returns)]
    n = arrs[0].shape[0]
    if any(a.shape[0] != n for a in arrs):
        raise DataError("svm dataset inputs must be aligned")
    if lags < 1 or n < lags:
        raise DataError(f"need at least {max(lags, 1)} rows, got {n}")
    fz, rz, vp, nxt = arrs
    rows, labels = [], []
    for t in range(lags - 1, n):
        feat = np.concatenate([fz[t - lags + 1:t + 1], rz[t - lags + 1:t + 1],
                               [vp[t]]])
        if not (np.all(np.isfinite(feat)) and np.isfinite(nxt[t])):
            continue
        rows.append(feat)
        labels.append(1.0 if nxt[t] > 0 else -1.0)
    if not rows:
        raise DataError("no usable rows after dropping non-finite data")
    return np.vstack(rows), np.asarray(labels)

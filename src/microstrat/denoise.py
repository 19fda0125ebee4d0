"""Orthonormal Haar wavelet transform with fixed-form soft thresholding.

The forward transform halves the series per level via pairwise sums and
differences scaled by 1/sqrt(2); odd lengths are padded by repeating the
final sample (symmetric extension), recorded per level and stripped on the
inverse. Thresholding shrinks detail coefficients toward zero; the universal
threshold sqrt(2 ln N) comes either unscaled (noise scale one) or scaled by
a median-based noise estimate from the finest details.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

DEFAULT_LEVEL = 6
SQRT2 = math.sqrt(2.0)
# Phi^-1(0.75): scales the median absolute deviation to a Gaussian sigma
MAD_TO_SIGMA = 0.6744897501960817


@dataclass(frozen=True)
class WaveletDecomposition:
    """Approximation at the deepest level plus details for levels 1..L.

    `details[0]` is the finest level. `padded[k]` records whether the input
    to level k+1 was extended by one sample, which it is exactly when that
    input has odd length.
    """

    level: int
    approximation: np.ndarray
    details: tuple[np.ndarray, ...]
    original_length: int
    padded: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.level < 1 or len(self.details) != self.level or len(self.padded) != self.level:
            raise DataError("decomposition level disagrees with coefficient layout")
        n = self.original_length
        for k in range(self.level):
            if self.padded[k] != (n % 2 == 1):
                raise DataError(f"level {k + 1} padded flag {self.padded[k]} does not "
                                f"match its input length {n}")
            n = (n + 1) // 2
            if self.details[k].shape[0] != n:
                raise DataError(f"level {k + 1} detail length {self.details[k].shape[0]}"
                                f" does not match expected {n}")
        if self.approximation.shape[0] != n:
            raise DataError("approximation length does not match the level")

    def coefficient_energy(self) -> float:
        total = float(self.approximation @ self.approximation)
        for d in self.details:
            total += float(d @ d)
        return total


def max_level(n: int) -> int:
    """Deepest usable level for a series of length n."""
    if n < 2:
        raise DataError("need at least 2 samples for a wavelet transform")
    return int(math.floor(math.log2(n)))


def haar_dwt(signal: np.ndarray, level: int = DEFAULT_LEVEL) -> WaveletDecomposition:
    """Multi-level orthonormal Haar analysis: (a+b)/sqrt2 and (a-b)/sqrt2."""
    x = np.asarray(signal, dtype=np.float64).ravel()
    n = x.shape[0]
    if level < 1:
        raise DataError("level must be >= 1")
    if level > max_level(n):
        raise DataError(f"level {level} too deep for length {n} "
                        f"(max {max_level(n)})")
    details = []
    padded = []
    current = x
    for _ in range(level):
        odd = current.shape[0] % 2 == 1
        if odd:
            current = np.concatenate([current, current[-1:]])
        a = current[0::2]
        b = current[1::2]
        details.append((a - b) / SQRT2)
        current = (a + b) / SQRT2
        padded.append(odd)
    return WaveletDecomposition(level=level, approximation=current,
                                details=tuple(details), original_length=n,
                                padded=tuple(padded))


def haar_idwt(dec: WaveletDecomposition) -> np.ndarray:
    """Exact inverse of haar_dwt; padding is stripped. The decomposition's
    layout check guarantees every level's lengths."""
    current = dec.approximation
    for k in range(dec.level - 1, -1, -1):
        d = dec.details[k]
        out = np.empty(2 * current.shape[0])
        out[0::2] = (current + d) / SQRT2
        out[1::2] = (current - d) / SQRT2
        if dec.padded[k]:
            out = out[:-1]
        current = out
    return current


def soft_threshold(dec: WaveletDecomposition, thr: float) -> WaveletDecomposition:
    """Shrink every detail toward zero by thr; the approximation is kept."""
    if not thr >= 0:
        raise DataError(f"threshold must be non-negative, got {thr}")
    shrunk = tuple(np.sign(d) * np.maximum(np.abs(d) - thr, 0.0) for d in dec.details)
    return WaveletDecomposition(level=dec.level, approximation=dec.approximation,
                                details=shrunk, original_length=dec.original_length,
                                padded=dec.padded)


def universal_threshold(dec: WaveletDecomposition, mode: str = "unscaled") -> float:
    """sqrt(2 ln N), either with unit noise scale or a level-1 MAD estimate."""
    base = math.sqrt(2.0 * math.log(dec.original_length))
    if mode == "unscaled":
        return base
    if mode == "estimated":
        d1 = dec.details[0]
        sigma = float(np.median(np.abs(d1))) / MAD_TO_SIGMA
        return sigma * base
    raise DataError(f"unknown threshold mode {mode!r}")


def denoise(signal: np.ndarray, level: int = DEFAULT_LEVEL, mode: str = "unscaled",
            threshold: float | None = None) -> tuple[np.ndarray, float]:
    """Transform, soft-threshold, reconstruct; returns (denoised, threshold).

    The level is capped to what the series length supports.
    """
    x = np.asarray(signal, dtype=np.float64).ravel()
    cap = max_level(x.shape[0])
    if level > cap:
        log.warning("wavelet level %d capped at %d for length %d", level, cap, x.shape[0])
        level = cap
    dec = haar_dwt(x, level)
    thr = float(threshold) if threshold is not None else universal_threshold(dec, mode)
    return haar_idwt(soft_threshold(dec, thr)), thr

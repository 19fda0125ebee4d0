"""Haar transform identities, thresholding rules, and denoising efficacy."""
import math

import numpy as np
import pytest

from microstrat.denoise import (
    WaveletDecomposition,
    denoise,
    haar_dwt,
    haar_idwt,
    max_level,
    soft_threshold,
    universal_threshold,
)
from microstrat.errors import DataError

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Forward transform
# ---------------------------------------------------------------------------


def test_dwt_constant_block_hand_trace():
    dec = haar_dwt(np.array([1.0, 1.0, 1.0, 1.0]), level=1)
    np.testing.assert_allclose(dec.approximation, [SQRT2, SQRT2], atol=1e-15)
    np.testing.assert_allclose(dec.details[0], [0.0, 0.0], atol=1e-15)


def test_dwt_alternating_pair_hand_trace():
    dec = haar_dwt(np.array([1.0, -1.0]), level=1)
    np.testing.assert_allclose(dec.approximation, [0.0], atol=1e-15)
    np.testing.assert_allclose(dec.details[0], [SQRT2], atol=1e-15)


def test_dwt_annihilates_constants_at_any_level():
    x = np.full(64, 7.25)
    for level in (1, 3, 6):
        dec = haar_dwt(x, level)
        for d in dec.details:
            np.testing.assert_allclose(d, 0.0, atol=1e-12)


def test_dwt_rejects_too_deep_level():
    with pytest.raises(DataError, match="too deep"):
        haar_dwt(np.arange(8.0), level=4)
    assert max_level(8) == 3


def test_dwt_detail_lengths_halve_with_padding():
    dec = haar_dwt(np.arange(11.0), level=3)
    assert [d.shape[0] for d in dec.details] == [6, 3, 2]
    assert dec.approximation.shape[0] == 2
    assert dec.padded == (True, False, True)


# ---------------------------------------------------------------------------
# Inverse transform
# ---------------------------------------------------------------------------


def test_idwt_is_exact_inverse_for_all_short_lengths():
    rng = np.random.default_rng(31)
    for n in range(2, 130):
        x = rng.standard_normal(n)
        level = min(4, max_level(n))
        np.testing.assert_allclose(haar_idwt(haar_dwt(x, level)), x,
                                   rtol=0, atol=1e-10)


def test_idwt_is_exact_inverse_for_longer_lengths():
    rng = np.random.default_rng(32)
    for n in (513, 1000, 2048, 4095, 4096):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(haar_idwt(haar_dwt(x, 6)), x, rtol=0, atol=1e-10)


def test_approximation_only_reconstruction_is_pairwise_mean():
    dec = haar_dwt(np.array([1.0, 3.0]), level=1)
    zeroed = soft_threshold(dec, thr=float(np.abs(dec.details[0]).max()))
    np.testing.assert_allclose(haar_idwt(zeroed), [2.0, 2.0], atol=1e-12)


def test_tampered_detail_length_is_rejected():
    dec = haar_dwt(np.arange(16.0), level=2)
    with pytest.raises(DataError):
        WaveletDecomposition(level=dec.level, approximation=dec.approximation,
                             details=(dec.details[0][:-1], dec.details[1]),
                             original_length=dec.original_length, padded=dec.padded)
    with pytest.raises(DataError):
        WaveletDecomposition(level=dec.level, approximation=dec.approximation[:-1],
                             details=dec.details,
                             original_length=dec.original_length, padded=dec.padded)


def test_padded_flag_must_match_the_level_input_length():
    dec = haar_dwt(np.arange(10.0), level=2)  # level inputs of length 10 and 5
    assert dec.padded == (False, True)
    with pytest.raises(DataError, match="level 2 padded flag False"):
        WaveletDecomposition(level=dec.level, approximation=dec.approximation,
                             details=dec.details, original_length=dec.original_length,
                             padded=(False, False))


# ---------------------------------------------------------------------------
# Thresholding
# ---------------------------------------------------------------------------


def test_soft_threshold_zero_is_identity():
    dec = haar_dwt(np.random.default_rng(33).standard_normal(64), level=3)
    out = soft_threshold(dec, 0.0)
    for a, b in zip(out.details, dec.details):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(out.approximation, dec.approximation)


def test_soft_threshold_shrinkage_values():
    dec = haar_dwt(np.arange(4.0), level=1)
    forced = WaveletDecomposition(level=1, approximation=dec.approximation,
                                  details=(np.array([3.0, -0.5]),),
                                  original_length=4, padded=(False,))
    out = soft_threshold(forced, 1.0)
    np.testing.assert_allclose(out.details[0], [2.0, 0.0], atol=1e-15)


def test_soft_threshold_rejects_negative():
    dec = haar_dwt(np.arange(4.0), level=1)
    for thr in (-0.1, math.nan):
        with pytest.raises(DataError):
            soft_threshold(dec, thr)


def test_universal_threshold_values():
    dec = haar_dwt(np.zeros(1024), level=2)
    assert universal_threshold(dec, "unscaled") == pytest.approx(3.723, abs=1e-3)
    forced = WaveletDecomposition(level=1, approximation=np.zeros(512),
                                  details=(np.resize([0.6744897501960817,
                                                      -0.6744897501960817], 512),),
                                  original_length=1024, padded=(False,))
    est = universal_threshold(forced, "estimated")
    assert est == pytest.approx(math.sqrt(2.0 * math.log(1024)), rel=1e-12)
    with pytest.raises(DataError):
        universal_threshold(dec, "hard")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_energy_is_conserved_without_padding():
    rng = np.random.default_rng(34)
    for n in (2, 8, 64, 512, 4096):
        x = rng.standard_normal(n)
        dec = haar_dwt(x, max_level(n))
        assert not any(dec.padded)
        energy = float(x @ x)
        assert abs(dec.coefficient_energy() - energy) <= 1e-9 * energy


def test_constant_shift_moves_only_the_approximation():
    rng = np.random.default_rng(35)
    x = rng.standard_normal(256)
    a = haar_dwt(x, 4)
    b = haar_dwt(x + 123.456, 4)
    for da, db in zip(a.details, b.details):
        np.testing.assert_allclose(da, db, rtol=0, atol=1e-12)
    assert not np.allclose(a.approximation, b.approximation)


def test_denoise_cuts_mse_on_piecewise_constant_signal():
    rng = np.random.default_rng(36)
    clean = np.repeat([0.0, 4.0, -2.0, 3.0, 1.0, -3.0, 2.0, 0.5], 256)
    noise_sigma = math.sqrt(float(np.var(clean)) / 10.0)  # SNR 10
    noisy = clean + noise_sigma * rng.standard_normal(clean.shape[0])
    denoised, thr = denoise(noisy, level=6, mode="estimated")
    mse_before = float(np.mean((noisy - clean) ** 2))
    mse_after = float(np.mean((denoised - clean) ** 2))
    assert thr > 0
    assert mse_after <= 0.7 * mse_before


def test_denoise_caps_excessive_level():
    x = np.random.default_rng(37).standard_normal(16)
    denoised, _ = denoise(x, level=10, mode="unscaled")
    assert denoised.shape[0] == 16

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microstrat.backtest import _svm_training_rows
from microstrat.errors import DataError
from microstrat.strategy import (
    SIDE_BUY,
    SIDE_NONE,
    SIDE_SELL,
    Signal,
    StrategyConfig,
    adjust_delta1,
    calibrate_delta1,
    calibrate_vpin_thresholds,
    garch_signal,
    position_size,
    stop_loss_check,
    svm_gate,
)


# -- direction layer --------------------------------------------------------


def test_zero_forecast_never_trades():
    for d1 in (0.02, 0.5, 2.0):
        assert garch_signal(0.0, d1).side == SIDE_NONE


def test_signal_thresholds_and_quotes():
    sig = garch_signal(0.5, 0.4)
    assert sig.side == SIDE_BUY and sig.quote == "bid1"
    sig = garch_signal(-3.0, 2.0)
    assert sig.side == SIDE_SELL and sig.quote == "ask1"
    # the thresholds themselves do not trade
    assert garch_signal(0.4, 0.4).side == SIDE_NONE
    assert garch_signal(-0.4, 0.4).side == SIDE_NONE


def test_signal_rejects_bad_forecast():
    for z in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError):
            garch_signal(z, 0.5)
    for d1 in (0.0, -0.5, np.nan):
        with pytest.raises(DataError):
            garch_signal(0.1, d1)


def test_signal_quote_invariant_enforced():
    assert Signal(SIDE_NONE).quote is None
    with pytest.raises(DataError):
        Signal("hold")


# -- delta1 calibration -----------------------------------------------------


def test_flat_window_returns_smallest_grid_point():
    f = np.zeros(40)
    r = np.zeros(40)
    assert calibrate_delta1(f, r) == pytest.approx(0.02)


def test_all_losing_window_prefers_not_trading():
    # magnitudes fill (0, 0.5]; every threshold below 0.5 trades and loses
    mags = np.linspace(0.03, 0.5, 60)
    f = mags * np.where(np.arange(60) % 2 == 0, 1.0, -1.0)
    r = -0.01 * np.sign(f)
    assert calibrate_delta1(f, r) == pytest.approx(0.5)


def test_uptrend_captured_by_smallest_threshold():
    rng = np.random.default_rng(5)
    f = rng.uniform(0.3, 1.5, 50)
    r = rng.uniform(0.001, 0.01, 50)
    assert calibrate_delta1(f, r) == pytest.approx(0.02)


def test_calibration_is_deterministic_grid_point():
    rng = np.random.default_rng(9)
    f = rng.standard_normal(200)
    r = 0.01 * rng.standard_normal(200)
    cfg = StrategyConfig()
    d1 = calibrate_delta1(f, r, cfg)
    assert d1 == calibrate_delta1(f, r, cfg)
    assert np.min(np.abs(cfg.delta1_grid() - d1)) < 1e-12


@pytest.mark.parametrize("grid", [
    {"delta1_step": 1e-9}, {"delta1_hi": 1e9}, {"delta1_hi": float("inf")},
    {"delta1_hi": 1e308, "delta1_step": 1e-300},
    {"delta1_lo": 1.0, "delta1_hi": 10_001.0, "delta1_step": 1.0}])
def test_an_oversized_delta1_grid_fails_before_it_is_built(grid):
    with pytest.raises(DataError, match="delta1_lo, delta1_hi and delta1_step "
                                        "make a grid of .* more than 10,000"):
        StrategyConfig(**grid)


def test_a_delta1_grid_of_ten_thousand_points_is_allowed():
    cfg = StrategyConfig(delta1_lo=1.0, delta1_hi=10_000.0, delta1_step=1.0)
    assert len(cfg.delta1_grid()) == 10_000


def test_calibration_needs_thirty_points():
    with pytest.raises(DataError):
        calibrate_delta1(np.zeros(29), np.zeros(29))
    with pytest.raises(DataError):
        calibrate_delta1(np.zeros(40), np.zeros(39))


# -- VPIN thresholds --------------------------------------------------------


def separable_rows():
    rng = np.random.default_rng(11)
    v = np.concatenate([rng.uniform(0.0, 1.0, 500),
                        [0.295, 0.305, 0.695, 0.705]])
    f = np.full(v.shape[0], 0.001)  # neutral band by default
    f[v > 0.7] = 0.002
    f[v < 0.3] = 0.0002
    return v, f


def test_separable_vpin_recovers_both_thresholds():
    v, f = separable_rows()
    th = calibrate_vpin_thresholds(v, f)
    assert 0.69 < th.delta2 < 0.71
    assert 0.29 < th.delta3 < 0.31
    assert th.misclassified == 0
    assert not th.flat_objective


def test_delta3_is_where_the_lowest_rule_two_count_is_first_reached():
    # quiet rows at 0.1 and neutral rows at 0.5: every delta3 in (0.1, 0.5]
    # scores 0 on rule two, and of those grid points 0.11 comes first
    v = np.repeat([0.1, 0.5], 3)
    f = np.repeat([0.0002, 0.001], 3)
    th = calibrate_vpin_thresholds(v, f)
    assert (th.delta2, th.delta3, th.misclassified) == (0.5, 0.11, 0)


def test_flat_objective_falls_back():
    # four rows per VPIN level, two on each side of both rules: moving either
    # threshold across a level swaps equal counts, so the objective is flat
    levels = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], 4)
    fluct = np.tile([0.002, 0.002, 0.0002, 0.0002], 5)
    th = calibrate_vpin_thresholds(levels, fluct)
    assert th.flat_objective
    assert th.delta2 == 0.9 and th.delta3 == 0.1


def test_flat_objective_falls_back_to_the_configured_thresholds():
    levels = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], 4)
    fluct = np.tile([0.002, 0.002, 0.0002, 0.0002], 5)
    th = calibrate_vpin_thresholds(levels, fluct,
                                   StrategyConfig(delta2=0.8, delta3=0.2))
    assert th.flat_objective
    assert (th.delta2, th.delta3) == (0.8, 0.2)


def test_fluctuation_bounds_come_from_the_config():
    v, f = separable_rows()
    # every row is volatile under a zero upper bound, so delta2 goes to 0
    th = calibrate_vpin_thresholds(v, f, StrategyConfig(fluct_hi=0.0))
    assert th.delta2 == 0.0


def test_always_volatile_drives_delta2_to_zero():
    rng = np.random.default_rng(3)
    v = rng.uniform(0.05, 0.95, 300)
    th = calibrate_vpin_thresholds(v, np.full(300, 0.01))
    assert th.delta2 == 0.0


def test_vpin_threshold_input_validation():
    with pytest.raises(DataError):
        calibrate_vpin_thresholds(np.array([]), np.array([]))
    with pytest.raises(DataError):
        calibrate_vpin_thresholds(np.full(50, 0.5), np.full(50, 0.001))
    with pytest.raises(DataError):
        calibrate_vpin_thresholds(np.array([0.2, 0.4]), np.array([0.001]))


def test_vpin_threshold_determinism():
    rng = np.random.default_rng(21)
    v = rng.uniform(0, 1, 400)
    f = rng.uniform(0, 0.003, 400)
    a = calibrate_vpin_thresholds(v, f)
    b = calibrate_vpin_thresholds(v, f)
    assert (a.delta2, a.delta3, a.misclassified) == (b.delta2, b.delta3,
                                                     b.misclassified)


# -- delta1 adaptation ------------------------------------------------------


def test_adjustment_moves_halfway():
    assert adjust_delta1(0.4, 0.95, 0.9, 0.1, 1.0, 0.2) == pytest.approx(0.7)
    assert adjust_delta1(0.4, 0.05, 0.9, 0.1, 1.0, 0.2) == pytest.approx(0.3)
    assert adjust_delta1(0.4, 0.5, 0.9, 0.1, 1.0, 0.2) == 0.4


def test_adjustment_stays_in_daily_range():
    rng = np.random.default_rng(2)
    for _ in range(200):
        lo, span = rng.uniform(0.02, 0.5), rng.uniform(0.01, 1.0)
        hi = lo + span
        d1 = rng.uniform(lo, hi)
        out = adjust_delta1(d1, rng.uniform(0, 1), 0.6, 0.3, hi, lo)
        assert lo <= out <= hi


# below half the largest float, so no sum of two overflows
_HALF_MAX = sys.float_info.max / 2


@given(st.lists(st.floats(-_HALF_MAX, _HALF_MAX), min_size=3, max_size=3),
       st.floats(0.0, 1.0), st.sampled_from(["low", "mid", "high"]))
def test_adjustment_never_leaves_the_extremes(values, vpin_now, where):
    """Halfway between delta1 and a daily extreme stays within the extremes,
    also with equal extremes and delta1 at either one; the replay relies on
    it and does not widen the extremes after an adjustment."""
    lo, d1, hi = sorted(values)
    d1 = {"low": lo, "mid": d1, "high": hi}[where]
    out = adjust_delta1(d1, vpin_now, 0.6, 0.3, hi, lo)
    assert lo <= out <= hi


def test_adjustment_rejects_out_of_range_delta1():
    with pytest.raises(DataError):
        adjust_delta1(0.1, 0.5, 0.9, 0.1, 1.0, 0.2)


# -- SVM veto ---------------------------------------------------------------


def test_gate_vetoes_buy_on_negative_prediction():
    proposed = garch_signal(0.5, 0.4)
    out = svm_gate(-1, proposed)
    assert out.side == SIDE_NONE and out.quote is None
    assert "svm-veto" in out.layer_trace


def test_gate_passes_agreeing_prediction():
    proposed = garch_signal(0.5, 0.4)
    out = svm_gate(1, proposed)
    assert out.side == SIDE_BUY and out.quote == "bid1"
    assert "svm-pass" in out.layer_trace


def test_gate_vetoes_sell_on_positive_prediction():
    proposed = garch_signal(-0.5, 0.4)
    assert svm_gate(1, proposed).side == SIDE_NONE
    assert svm_gate(-1, proposed).side == SIDE_SELL


def test_gate_never_creates_trades():
    quiet = garch_signal(0.0, 0.5)
    assert svm_gate(1, quiet) is quiet
    for pred in (0, 2):
        with pytest.raises(DataError):
            svm_gate(pred, garch_signal(0.5, 0.4))


# -- sizing and stops -------------------------------------------------------


def test_position_size_bands():
    cfg = StrategyConfig()
    assert position_size(1_000_000.0, 0.5, 0.9, 0.1, cfg) == pytest.approx(100_000.0)
    assert position_size(1_000_000.0, 0.95, 0.9, 0.1, cfg) == pytest.approx(50_000.0)
    assert position_size(1_000_000.0, 0.05, 0.9, 0.1, cfg) == pytest.approx(150_000.0)
    assert position_size(0.0, 0.5, 0.9, 0.1, cfg) == 0.0


def test_position_size_cap_and_layer_switch():
    capped = position_size(1_000_000.0, 0.05, 0.9, 0.1,
                           StrategyConfig(position_fraction=0.15))
    assert capped == pytest.approx(200_000.0)
    flat = position_size(1_000_000.0, 0.95, 0.9, 0.1, StrategyConfig(use_vpin=False))
    assert flat == pytest.approx(100_000.0)
    scaled = StrategyConfig(size_reduce=0.25, size_boost=1.2, size_cap=1.0)
    assert position_size(1_000_000.0, 0.95, 0.9, 0.1, scaled) == pytest.approx(25_000.0)
    assert position_size(1_000_000.0, 0.05, 0.9, 0.1, scaled) == pytest.approx(120_000.0)
    with pytest.raises(DataError):
        position_size(-1.0, 0.5, 0.9, 0.1, StrategyConfig())


def test_stop_loss_rule():
    cfg = StrategyConfig()
    assert not stop_loss_check(100.0, 100.0, 0.5, SIDE_BUY, cfg)
    assert stop_loss_check(100.0, 98.9, 0.5, SIDE_BUY, cfg)
    assert not stop_loss_check(100.0, 100.9, 0.5, SIDE_SELL, cfg)
    assert stop_loss_check(100.0, 101.1, 0.5, SIDE_SELL, cfg)
    # the boundary itself does not trigger
    assert not stop_loss_check(100.0, 99.0, 0.5, SIDE_BUY, cfg)
    # the width is the config's stop_loss_sigmas
    assert stop_loss_check(100.0, 99.0, 0.5, SIDE_BUY,
                           StrategyConfig(stop_loss_sigmas=1.5))


def test_stop_loss_validation():
    with pytest.raises(DataError):
        stop_loss_check(100.0, 99.0, 0.0, SIDE_BUY, StrategyConfig())
    with pytest.raises(DataError):
        stop_loss_check(100.0, 99.0, 0.5, SIDE_NONE, StrategyConfig())


# -- feature encoding -------------------------------------------------------


def test_svm_dataset_layout():
    n = 12
    fz = np.arange(n, dtype=float)
    rz = np.arange(n, dtype=float) + 100.0
    vp = np.linspace(0.1, 0.9, n)
    nxt = np.where(np.arange(n) % 2 == 0, 0.01, -0.01)
    X, y = _svm_training_rows(fz, rz, vp, nxt)
    assert X.shape == (n - 4, 11)
    # first row covers t=4: forecasts 0..4, returns 100..104, vpin[4]
    expected = np.concatenate([np.arange(5.0), np.arange(5.0) + 100.0, [vp[4]]])
    assert np.array_equal(X[0], expected)
    assert set(np.unique(y)) <= {-1.0, 1.0}
    assert y[0] == 1.0 and y[1] == -1.0


def test_svm_dataset_flat_bar_counts_as_down():
    fz = rz = np.ones(6)
    vp = np.full(6, 0.5)
    X, y = _svm_training_rows(fz, rz, vp, np.zeros(6))
    assert np.all(y == -1.0)

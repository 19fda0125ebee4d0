"""Bucket construction, bulk volume classification, and VPIN values."""
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from microstrat import _scipy
from microstrat.errors import DataError
from microstrat.marketdata import SynthSpec, TickSeries, synth_ticks
from microstrat.vpin import (
    Buckets,
    bucket_fill,
    classify_buckets,
    compute_vpin,
    default_bucket_volume,
    sigma_delta_p,
    vpin_from_ticks,
)

NS_PER_SEC = 1_000_000_000
NS_PER_DAY = 86_400 * NS_PER_SEC
DAY = 17_000


def make_ticks(prices, volumes):
    """Ticks one second apart inside the morning session."""
    n = len(prices)
    ts = DAY * NS_PER_DAY + (34_200 + np.arange(n, dtype=np.int64)) * NS_PER_SEC
    return TickSeries(ts, np.asarray(prices, float), np.asarray(volumes, np.int64))


def totals(buckets):
    """Volume held by each bucket, summed from its fragments."""
    return np.array([float(buckets.volume[lo:hi].sum()) for lo, hi in
                     zip(buckets.offsets[:-1], buckets.offsets[1:])])


def fragments(buckets, k):
    """(volume, delta_p) fragments of bucket k."""
    lo, hi = buckets.offsets[k], buckets.offsets[k + 1]
    return buckets.volume[lo:hi], buckets.delta_p[lo:hi]


# ---------------------------------------------------------------------------
# bucket_fill
# ---------------------------------------------------------------------------


def test_bucket_fill_splits_boundary_tick():
    ticks = make_ticks([100.0, 101.0], [30, 30])
    buckets = bucket_fill(ticks, 40.0)
    assert buckets.end_ts.shape[0] == 2 and buckets.complete == 1
    first_vol, first_dp = fragments(buckets, 0)
    second_vol, second_dp = fragments(buckets, 1)
    np.testing.assert_array_equal(first_vol, [30.0, 10.0])
    np.testing.assert_array_equal(first_dp, [0.0, 1.0])
    np.testing.assert_array_equal(second_vol, [20.0])
    np.testing.assert_array_equal(second_dp, [1.0])
    # the split tick closes the first bucket and opens the second
    np.testing.assert_array_equal(buckets.end_ts, [ticks.ts[1], ticks.ts[1]])


def test_bucket_fill_exact_single_tick():
    buckets = bucket_fill(make_ticks([100.0], [40]), 40.0)
    assert buckets.end_ts.shape[0] == 1
    assert buckets.complete == 1
    assert totals(buckets).tolist() == [40.0]


def test_bucket_fill_underfill_gives_no_complete_bucket():
    buckets = bucket_fill(make_ticks([100.0, 100.5], [10, 10]), 40.0)
    assert buckets.end_ts.shape[0] == 1 and buckets.complete == 0
    assert totals(buckets).tolist() == [20.0]


def test_bucket_fill_rejects_bad_inputs():
    ticks = make_ticks([100.0], [10])
    with pytest.raises(DataError):
        bucket_fill(ticks, 0.0)
    with pytest.raises(DataError):
        bucket_fill(TickSeries(np.empty(0, np.int64), np.empty(0),
                               np.empty(0, np.int64)), 40.0)


@pytest.mark.parametrize("v", [0.5, 2.5, 1e-9, float("inf"), float("nan")])
def test_bucket_fill_rejects_sub_and_fractional_contract_volumes(v):
    ticks = make_ticks([100.0, 100.1], [10, 10])
    with pytest.raises(DataError, match=rf"a whole number of contracts, at least 1, "
                                        rf"got {v}$"):
        bucket_fill(ticks, v)


def test_bucket_fill_conserves_volume_exactly():
    ticks = synth_ticks(SynthSpec(count=100_000, seed=21))
    v = default_bucket_volume(ticks.ts, ticks.volume)
    assert v == float(int(v))
    buckets = bucket_fill(ticks, v)
    t = totals(buckets)
    assert float(t.sum()) == float(ticks.volume.sum())
    assert buckets.complete >= t.shape[0] - 1
    assert np.all(t[:-1] == v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 500), min_size=1, max_size=60),
       st.integers(1, 300))
def test_bucket_fill_conserves_volume_property(volumes, bucket_volume):
    ticks = make_ticks(100.0 + np.arange(len(volumes)) % 3, volumes)
    buckets = bucket_fill(ticks, float(bucket_volume))
    t = totals(buckets)
    n_complete = buckets.complete
    assert t.sum() == sum(volumes)
    assert n_complete in (t.shape[0], t.shape[0] - 1)
    assert np.all(t[:n_complete] == bucket_volume)
    # a trailing partial bucket holds the remainder, short of a full bucket
    assert n_complete == t.shape[0] or 0 < t[-1] < bucket_volume


def test_bucket_fill_handles_tick_larger_than_bucket():
    buckets = bucket_fill(make_ticks([100.0], [100]), 30.0)
    assert buckets.complete == 3
    assert totals(buckets).tolist() == [30.0, 30.0, 30.0, 10.0]


# ---------------------------------------------------------------------------
# Bulk volume classification of one fragment
# ---------------------------------------------------------------------------


def one_bucket(delta_p, v):
    """One complete bucket of volume v holding a single fragment."""
    return Buckets(volume=np.array([v]), delta_p=np.array([delta_p]),
                   offsets=np.array([0, 1]), end_ts=np.array([0]),
                   complete=1, bucket_volume=v)


def classify_one(delta_p, sigma_dp, v):
    """(buy, sell) of a one-fragment bucket classified by classify_buckets."""
    (buy,) = classify_buckets(one_bucket(delta_p, v), sigma_dp)
    return buy, v - buy


def test_bvc_split_even_on_zero_change():
    v_b, v_s = classify_one(0.0, 1.0, 80.0)
    assert v_b == pytest.approx(40.0, abs=1e-12)
    assert v_s == pytest.approx(40.0, abs=1e-12)


def test_bvc_split_saturates_in_the_tail():
    v_b, _ = classify_one(10.0, 1.0, 1.0)
    assert v_b > 0.999999


def test_bvc_split_one_sigma_table_value():
    v_b, v_s = classify_one(0.5, 0.5, 100.0)
    assert v_b == pytest.approx(84.1345, abs=1e-3)
    assert v_b + v_s == 100.0


def test_bvc_split_rejects_degenerate_sigma():
    with pytest.raises(DataError):
        classify_one(0.1, 0.0, 10.0)
    with pytest.raises(DataError):
        classify_one(0.1, -1.0, 10.0)


# ---------------------------------------------------------------------------
# sigma_delta_p
# ---------------------------------------------------------------------------


def test_sigma_delta_p_alternating_unit_changes():
    ticks = make_ticks([10.0, 11.0, 10.0, 11.0, 10.0], [1, 1, 1, 1, 1])
    assert sigma_delta_p(ticks.price) == pytest.approx(1.0, abs=1e-12)


def test_sigma_delta_p_degenerate_inputs():
    with pytest.raises(DataError):
        sigma_delta_p(np.array([10.0, 10.0, 10.0]))
    with pytest.raises(DataError):
        sigma_delta_p(np.array([10.0, 10.2]))


# ---------------------------------------------------------------------------
# classification and VPIN
# ---------------------------------------------------------------------------


def test_classify_buckets_invariants():
    ticks = synth_ticks(SynthSpec(count=20_000, seed=22))
    buckets = bucket_fill(ticks, 500.0)
    buy = classify_buckets(buckets, sigma_delta_p(ticks.price))
    assert buy.shape == (buckets.complete,) and buckets.complete > 0
    assert np.all((0.0 <= buy) & (buy <= 500.0))
    assert np.all(totals(buckets)[:buckets.complete] == 500.0)
    # the unclipped fragment split of each bucket agrees with its buy volume
    for k in range(buckets.complete):
        vol, dp = fragments(buckets, k)
        split = float(np.sum(vol * ndtr(dp / sigma_delta_p(ticks.price))))
        assert buy[k] == pytest.approx(split, abs=1e-9)


@pytest.mark.parametrize("standalone", ["missing", "without-ndtr"])
def test_classify_through_scipy_special_is_the_same(standalone, monkeypatch):
    """Where scipy has no standalone ndtr, classify_buckets takes
    scipy.special's and gives the same buy volumes bit for bit."""
    import scipy.special

    ticks = synth_ticks(SynthSpec(count=20_000, seed=22))
    buckets, sigma = bucket_fill(ticks, 500.0), sigma_delta_p(ticks.price)
    loaded = classify_buckets(buckets, sigma)

    def extension(name):
        if standalone == "missing":
            raise ImportError(f"scipy has no module {name}", name=name)
        return types.SimpleNamespace()

    calls = []

    def special_ndtr(x):
        calls.append(x.shape)
        return ndtr(x)

    monkeypatch.setattr(_scipy, "extension", extension)
    monkeypatch.setattr(scipy.special, "ndtr", special_ndtr)
    # past the accessor's cache, so each call searches again
    monkeypatch.setattr(_scipy, "special", _scipy.special.__wrapped__)
    assert _scipy.special("ndtr") is special_ndtr
    imported = classify_buckets(buckets, sigma)
    assert calls == [(buckets.offsets[buckets.complete],)]
    assert imported.tobytes() == loaded.tobytes()


def test_vpin_zero_when_perfectly_balanced():
    # constant prices give dP = 0 everywhere; classify at an external sigma
    ticks = make_ticks([100.0] * 40, [10] * 40)
    buckets = bucket_fill(ticks, 50.0)
    buy = classify_buckets(buckets, sigma_dp=1.0)
    series = compute_vpin(buy, buckets.end_ts[:buckets.complete], window=4,
                          bucket_volume=50.0)
    np.testing.assert_allclose(series.values, 0.0, atol=1e-12)


def test_vpin_one_when_all_volume_buys():
    # strictly rising prices with a tiny sigma saturate the classifier; the
    # very first tick has no prior price, so its dP=0 fragment dilutes only
    # the windows containing bucket 1
    prices = 100.0 + np.arange(40.0)
    buckets = bucket_fill(make_ticks(prices, [10] * 40), 50.0)
    buy = classify_buckets(buckets, sigma_dp=1e-6)
    series = compute_vpin(buy, buckets.end_ts[:buckets.complete], window=4,
                          bucket_volume=50.0)
    assert series.values[0] > 0.9
    assert np.all(series.values[1:] > 1.0 - 1e-6)
    assert np.all(series.values <= 1.0)


def test_vpin_direct_formula_two_buckets():
    # buy 25 and 35 of 40: imbalances 10 and 30, so VPIN = 40 / (2 * 40)
    series = compute_vpin(np.array([25.0, 35.0]), np.array([1, 2]), window=2,
                          bucket_volume=40.0)
    assert series.values[0] == pytest.approx(0.5, abs=1e-12)
    assert series.values.shape == (1,) and series.end_ts.tolist() == [2]


def test_vpin_needs_enough_buckets():
    with pytest.raises(DataError):
        compute_vpin(np.array([1.0]), np.array([1]), window=2, bucket_volume=2.0)
    with pytest.raises(DataError):
        compute_vpin(np.array([1.0, 1.0]), np.array([1]), window=1,
                     bucket_volume=2.0)


def test_vpin_series_layout_and_range():
    ticks = synth_ticks(SynthSpec(count=60_000, seed=23))
    series = vpin_from_ticks(ticks, window=50)
    assert np.all(series.values >= 0.0) and np.all(series.values <= 1.0)
    # one value per complete bucket from the 50th on, stamped with its end
    buckets = bucket_fill(ticks, default_bucket_volume(ticks.ts, ticks.volume))
    np.testing.assert_array_equal(series.end_ts,
                                  buckets.end_ts[49:buckets.complete])
    assert np.all(np.diff(series.end_ts) >= 0)


def test_vpin_monotone_in_price_change_scale_for_one_sided_buckets():
    # a monotone price path keeps every fragment's dP sign non-negative, so
    # scaling dP up (equivalently shrinking sigma) can only push VPIN up
    rng = np.random.default_rng(24)
    prices = 100.0 + np.cumsum(rng.uniform(0.0, 0.1, 500))
    volumes = rng.integers(1, 20, 500)
    raw = bucket_fill(make_ticks(prices, volumes), 200.0)
    end_ts = raw.end_ts[:raw.complete]
    lo = compute_vpin(classify_buckets(raw, sigma_dp=0.10), end_ts, window=5,
                      bucket_volume=200.0)
    hi = compute_vpin(classify_buckets(raw, sigma_dp=0.05), end_ts, window=5,
                      bucket_volume=200.0)
    assert np.all(hi.values >= lo.values - 1e-12)


def test_vpin_pipeline_is_deterministic():
    ticks = synth_ticks(SynthSpec(count=30_000, seed=25))
    a = vpin_from_ticks(ticks)
    b = vpin_from_ticks(ticks)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.end_ts, b.end_ts)

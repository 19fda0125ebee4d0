"""Container validation, CSV round trips, resampling, and the synthetic generator."""
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microstrat.errors import DataError
from microstrat.marketdata import (
    SESSION_OPENS_NS,
    SynthSpec,
    TickSeries,
    load_ticks,
    log_returns,
    resample,
    save_ticks,
    session_index,
    session_log_returns,
    simulate_garch,
    synth_ticks,
)

NS_PER_SEC = 1_000_000_000
NS_PER_DAY = 86_400 * NS_PER_SEC
DAY = 17_000


def ts_of(sod_sec, day=DAY):
    """Epoch-ns timestamp for a seconds-of-day offset on the given day."""
    return day * NS_PER_DAY + int(sod_sec * NS_PER_SEC)


def series(rows):
    """TickSeries from (sod_sec, price, volume) triples on day DAY."""
    ts = np.array([ts_of(s) for s, _, _ in rows], dtype=np.int64)
    px = np.array([p for _, p, _ in rows], dtype=float)
    vol = np.array([v for _, _, v in rows], dtype=np.int64)
    return TickSeries(ts, px, vol)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_tick_rejects_bad_fields():
    ts = np.array([ts_of(34200)])
    with pytest.raises(DataError, match="price"):
        TickSeries(ts, np.array([-1.0]), np.array([1]))
    with pytest.raises(DataError, match="volume"):
        TickSeries(ts, np.array([100.0]), np.array([0]))
    with pytest.raises(DataError, match="crossed"):
        TickSeries(ts, np.array([100.0]), np.array([1]),
                   np.array([101.0]), np.array([100.0]))


def test_tick_series_requires_time_order():
    with pytest.raises(DataError, match="decrease"):
        series([(34201, 100.0, 1), (34200, 100.0, 1)])


def test_tick_series_allows_equal_timestamps():
    s = series([(34200, 100.0, 1), (34200, 100.5, 2)])
    assert len(s) == 2


def test_tick_series_rejects_out_of_session_ticks():
    # 12:00 falls in the lunch break
    with pytest.raises(DataError, match="session"):
        series([(43200, 100.0, 1)])


def test_tick_series_rejects_non_finite_values():
    ts = np.array([ts_of(34200), ts_of(34201)])
    vol = np.array([1, 1], dtype=np.int64)
    with pytest.raises(DataError, match="price"):
        TickSeries(ts, np.array([100.0, math.inf]), vol)
    # a quote that is present must be positive as well as finite
    for bad in (math.inf, -math.inf, -5.0, 0.0):
        with pytest.raises(DataError, match="bid1"):
            TickSeries(ts, np.array([100.0, 100.0]), vol,
                       np.array([99.9, bad]), np.array([100.1, 100.1]))
        with pytest.raises(DataError, match="ask1"):
            TickSeries(ts, np.array([100.0, 100.0]), vol,
                       np.array([99.9, 99.9]), np.array([bad, 100.1]))
    # NaN still marks a missing quote
    s = TickSeries(ts, np.array([100.0, 100.0]), vol,
                   np.array([math.nan, 99.9]), np.array([100.1, math.nan]))
    assert np.isnan(s.bid1[0]) and np.isnan(s.ask1[1])


def test_tick_series_rejects_ragged_columns():
    with pytest.raises(DataError):
        TickSeries(np.array([ts_of(34200)]), np.array([100.0, 101.0]),
                   np.array([1], dtype=np.int64))


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_tick_csv_round_trip(tmp_path):
    spec = SynthSpec(count=500, seed=7)
    ticks = synth_ticks(spec)
    path = tmp_path / "ticks.csv"
    save_ticks(str(path), ticks)
    loaded = load_ticks(str(path))
    assert np.array_equal(loaded.ts, ticks.ts)
    assert np.array_equal(loaded.volume, ticks.volume)
    np.testing.assert_allclose(loaded.price, ticks.price, rtol=1e-11)
    np.testing.assert_allclose(loaded.bid1, ticks.bid1, rtol=1e-11)
    np.testing.assert_allclose(loaded.ask1, ticks.ask1, rtol=1e-11)
    # an empty quote field is a missing quote
    path.write_text("ts_ns,price,volume,bid1,ask1\n"
                    f"{ts_of(34200)},100.0,5,,100.1\n"
                    f"{ts_of(34201)},100.0,5,99.9,\n")
    loaded = load_ticks(str(path))
    assert np.isnan(loaded.bid1[0]) and loaded.ask1[0] == 100.1
    assert loaded.bid1[1] == 99.9 and np.isnan(loaded.ask1[1])


def test_lone_quote_column_survives_a_round_trip(tmp_path):
    bid = np.array([99.9, math.nan, 100.0])
    ticks = TickSeries(ts_of(34200) + np.arange(3) * NS_PER_SEC,
                       np.full(3, 100.1), np.full(3, 5), bid)
    path = tmp_path / "ticks.csv"
    save_ticks(str(path), ticks)
    loaded = load_ticks(str(path))
    np.testing.assert_array_equal(loaded.bid1, bid)
    # the ask column that was not given is all missing
    assert np.isnan(ticks.ask1).all() and np.isnan(loaded.ask1).all()


def test_all_missing_quotes_save_as_three_columns(tmp_path):
    ticks = TickSeries(ts_of(34200) + np.arange(2) * NS_PER_SEC,
                       np.full(2, 100.0), np.full(2, 5),
                       np.full(2, math.nan), np.full(2, math.nan))
    path = tmp_path / "ticks.csv"
    save_ticks(str(path), ticks)
    assert path.read_text().splitlines()[0] == "ts_ns,price,volume"
    assert np.isnan(load_ticks(str(path)).bid1).all()


def test_load_ticks_reports_failing_line(tmp_path):
    path = tmp_path / "bad.csv"
    good = f"{ts_of(34200)},100.0,5\n"
    head = "ts_ns,price,volume\n" + good
    quoted = "ts_ns,price,volume,bid1,ask1\n" + f"{ts_of(34200)},100.0,5,99.9,100.1\n"
    for text, line in ((head + f"{ts_of(34201)},not-a-price,5\n", 3),
                       # blank lines count, and do not hide the bad row
                       (head + "\n" + f"{ts_of(34201)},not-a-price,5\n", 4),
                       # a comment marker is not special
                       (head + f"#{ts_of(34201)},100.0,5\n", 3),
                       (head + f"{ts_of(34201)},100.0\n", 3),
                       (head + good + f"{ts_of(34201)},100.0,5,1\n", 4),
                       (quoted + f"{ts_of(34201)},100.0,5,0,100.1\n", 3)):
        path.write_text(text)
        with pytest.raises(DataError, match=f"line {line}:"):
            load_ticks(str(path))
    path.write_bytes(head.encode() + b"\xff\n")
    with pytest.raises(DataError, match="line 3:"):
        load_ticks(str(path))


def test_load_ticks_rejects_infinite_price(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ts_ns,price,volume\n"
                    f"{ts_of(34200)},100.0,5\n"
                    f"{ts_of(34201)},inf,5\n")
    with pytest.raises(DataError, match="line 3"):
        load_ticks(str(path))


def test_bad_row_after_an_empty_quote_reports_its_own_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ts_ns,price,volume,bid1,ask1\n"
                    f"{ts_of(34200)},100.0,5,99.9,100.1\n"
                    f"{ts_of(34201)},100.0,5,,100.1\n"
                    f"{ts_of(34202)},100.0,5,99.9,100.1\n"
                    f"{ts_of(34203)},100.0,5,99.9,1_0x\n")
    with pytest.raises(DataError, match="line 5:"):
        load_ticks(str(path))


# values the %.12g tick format writes without loss
_csv_floats = st.floats(min_value=1e-3, max_value=1e6).map(lambda v: float(f"{v:.12g}"))


@st.composite
def tick_columns(draw):
    n = draw(st.integers(1, 40))
    offsets = sorted(draw(st.lists(st.integers(0, 7200 * NS_PER_SEC),
                                   min_size=n, max_size=n)))
    ts = ts_of(34200) + np.array(offsets, dtype=np.int64)
    price = np.array(draw(st.lists(_csv_floats, min_size=n, max_size=n)))
    volume = np.array(draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n)),
                      dtype=np.int64)
    if not draw(st.booleans()):
        return ts, price, volume, None, None
    quote = st.one_of(st.just(math.nan), _csv_floats)
    pairs = draw(st.lists(st.tuples(quote, quote), min_size=n, max_size=n))
    # an uncrossed book: the lower quote is the bid
    bid = np.array([b if math.isnan(a) or b <= a else a for b, a in pairs])
    ask = np.array([a if math.isnan(b) or b <= a else b for b, a in pairs])
    return ts, price, volume, bid, ask


@settings(max_examples=60, deadline=None)
@given(tick_columns())
def test_tick_csv_round_trip_is_exact(cols):
    ticks = TickSeries(*cols)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ticks.csv")
        save_ticks(path, ticks)
        loaded = load_ticks(path)
    np.testing.assert_array_equal(loaded.ts, ticks.ts)
    np.testing.assert_array_equal(loaded.price, ticks.price)
    np.testing.assert_array_equal(loaded.volume, ticks.volume)
    for name in ("bid1", "ask1"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(ticks, name))
    assert int(loaded.volume.sum()) == int(ticks.volume.sum())


def test_load_ticks_rejects_non_positive_volume(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ts_ns,price,volume\n"
                    f"{ts_of(34200)},100.0,0\n")
    with pytest.raises(DataError, match="line 2"):
        load_ticks(str(path))
    # a blank line before the bad row still counts
    path.write_text("ts_ns,price,volume\n"
                    f"{ts_of(34200)},100.0,5\n\n"
                    f"{ts_of(34201)},100.0,0\n")
    with pytest.raises(DataError, match="line 4: volume 0"):
        load_ticks(str(path))


def test_load_ticks_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,px,qty\n1,2,3\n")
    with pytest.raises(DataError, match="header"):
        load_ticks(str(path))


# ---------------------------------------------------------------------------
# Returns
# ---------------------------------------------------------------------------


def test_log_returns_oracle():
    r = log_returns(np.array([100.0, 110.0, 99.0]))
    assert len(r) == 2
    np.testing.assert_allclose(
        r, [0.09531017980432486, -0.10536051565782628], rtol=0, atol=1e-15)


def test_log_returns_rejects_degenerate_input():
    with pytest.raises(DataError):
        log_returns(np.array([100.0]))
    with pytest.raises(DataError):
        log_returns(np.array([100.0, -1.0]))
    with pytest.raises(DataError):
        log_returns(np.array([100.0, np.inf]))


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def test_resample_hand_trace():
    ticks = series([
        (34200, 100.0, 1),
        (34230, 101.0, 2),
        (34270, 99.0, 3),
        (41399, 102.0, 4),
        (46805, 103.0, 5),
    ])
    bars = resample(ticks, 60 * NS_PER_SEC)
    assert len(bars) == 4
    assert list(bars.ts) == [ts_of(34200), ts_of(34260), ts_of(41340), ts_of(46800)]
    np.testing.assert_array_equal(bars.close, [101.0, 99.0, 102.0, 103.0])


def test_resample_anchors_at_session_open():
    ticks = synth_ticks(SynthSpec(count=30_000, seed=3))
    interval = 300 * NS_PER_SEC
    bars = resample(ticks, interval)
    sod = bars.ts % NS_PER_DAY
    sess = session_index(bars.ts)
    assert np.all(sess >= 0)
    assert np.all((sod - SESSION_OPENS_NS[sess]) % interval == 0)


def test_session_log_returns_skip_breaks():
    ticks = series([
        (34200, 100.0, 1),
        (34230, 101.0, 2),
        (34270, 99.0, 3),
        (41399, 102.0, 4),
        (46805, 103.0, 5),
    ])
    bars = resample(ticks, 60 * NS_PER_SEC)
    r = session_log_returns(bars)
    # aligned with the bars: NaN at each session's first bar, so the 13:00
    # bar after the 11:29 bar across the lunch break has no return
    assert len(r) == len(bars) == 4
    assert math.isnan(r[0]) and math.isnan(r[3])
    np.testing.assert_allclose(
        r[1:3], [math.log(99.0 / 101.0), math.log(102.0 / 99.0)], atol=1e-15)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def test_synth_is_deterministic_per_seed():
    a = synth_ticks(SynthSpec(count=2_000, seed=11))
    b = synth_ticks(SynthSpec(count=2_000, seed=11))
    c = synth_ticks(SynthSpec(count=2_000, seed=12))
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.price, b.price)
    assert np.array_equal(a.volume, b.volume)
    assert not np.array_equal(a.price, c.price)


def test_synth_layout_and_quotes():
    spec = SynthSpec(count=40_000, seed=5, spread=0.2)
    ticks = synth_ticks(spec)
    assert len(ticks) == spec.count
    assert ticks.ts[0] == DAY * NS_PER_DAY + 34200 * NS_PER_SEC
    assert np.all(np.diff(ticks.ts) > 0)
    assert np.all(ticks.volume >= 1)
    np.testing.assert_allclose(ticks.ask1 - ticks.bid1, spec.spread, atol=1e-12)
    # constructor already enforced session containment; spot-check the break
    sod = ticks.ts % NS_PER_DAY
    assert not np.any((sod > 41400 * NS_PER_SEC) & (sod < 46800 * NS_PER_SEC))


def test_synth_matches_unconditional_variance():
    spec = SynthSpec(omega=1e-6, alpha=0.05, beta=0.90, count=200_001, seed=2)
    r = log_returns(synth_ticks(spec).price)
    target = spec.omega / (1.0 - spec.alpha - spec.beta)
    assert abs(np.var(r) / target - 1.0) < 0.15


def test_synth_ar1_mean_shows_up_in_autocorrelation():
    spec = SynthSpec(phi=0.5, count=100_001, seed=4)
    r = log_returns(synth_ticks(spec).price)
    d = r - r.mean()
    rho1 = float(np.dot(d[1:], d[:-1]) / np.dot(d, d))
    assert 0.44 < rho1 < 0.56


@pytest.mark.parametrize("phi", [0.15, -0.6, 0.95])
@pytest.mark.parametrize("mu", [0.0, 3e-5])
def test_synth_ar1_mean_matches_lfilter_bit_for_bit(phi, mu):
    from scipy.signal import lfilter

    spec = SynthSpec(omega=1e-9, phi=phi, mu=mu, count=100_000, seed=6)
    # the generator's shocks, drawn and scaled as synth_ticks does
    z = np.random.default_rng(spec.seed).standard_normal(spec.count - 1)
    coef = spec.alpha * z * z + spec.beta
    h = np.empty(spec.count - 1)
    h[0] = spec.omega / (1.0 - spec.alpha - spec.beta)
    for t in range(1, spec.count - 1):
        h[t] = spec.omega + coef[t - 1] * h[t - 1]
    r = lfilter([1.0], [1.0, -phi], mu + z * np.sqrt(h))
    expected = spec.start_price * np.exp(np.cumsum(np.r_[0.0, r]))
    assert np.array_equal(synth_ticks(spec).price, expected)


def test_synth_rejects_non_stationary_parameters():
    with pytest.raises(DataError):
        SynthSpec(alpha=0.5, beta=0.5)
    with pytest.raises(DataError):
        SynthSpec(phi=1.0)


@pytest.mark.parametrize("omega, alpha, beta, leverage", [
    (1e-6, 0.5, 0.5, 0.0), (1e-6, 0.05, 0.90, 0.1), (0.0, 0.05, 0.90, 0.0),
    (-1e-6, 0.05, 0.90, 0.0), (math.nan, 0.05, 0.90, 0.0)])
def test_simulate_garch_rejects_non_stationary_parameters(omega, alpha, beta, leverage):
    z = np.random.default_rng(0).standard_normal(10)
    with pytest.raises(DataError, match="stationary"):
        simulate_garch(z, omega, alpha, beta, leverage=leverage)


def test_simulate_garch_with_leverage_matches_unconditional_variance():
    # a down shock adds leverage * eps^2, on half the shocks on average
    r = simulate_garch(np.random.default_rng(9).standard_normal(200_000),
                       1e-6, 0.05, 0.85, leverage=0.08)
    target = 1e-6 / (1.0 - 0.05 - 0.85 - 0.08 / 2.0)
    assert abs(np.var(r) / target - 1.0) < 0.15

"""Container validation, CSV round trips, resampling, and the synthetic generator."""
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microstrat import marketdata
from microstrat.errors import DataError
from microstrat.marketdata import (
    CSI300_SESSIONS,
    SESSION_CLOSES_NS,
    SESSION_OPENS_NS,
    BarSeries,
    SynthSpec,
    TickError,
    TickSeries,
    bar_offsets,
    load_ticks,
    log_returns,
    resample,
    save_ticks,
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
# The blocked parse
# ---------------------------------------------------------------------------

QUOTED_HEADER = "ts_ns,price,volume,bid1,ask1\n"
_QUOTE_CONVERTERS = {3: marketdata._quote, 4: marketdata._quote}

_PADDING = st.sampled_from(["", " ", "\t", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f"])
_SPELLINGS = st.one_of(
    st.sampled_from(["", " ", "nan", "NaN", "-nan", "+nan", "inf", "-inf",
                     "+Infinity", "1_0", "1_000.5", "١", "٢.٥",
                     "１", "１２.5e１", "0x10", "1e", "--1", "1d5"]),
    st.builds(lambda sign, digits, exp: sign + digits + exp,
              st.sampled_from(["", "+", "-"]),
              st.from_regex(r"[0-9]{1,5}(\.[0-9]{0,4})?|\.[0-9]{1,4}", fullmatch=True),
              st.sampled_from(["", "e0", "E+2", "e-3", "e05", "E", "e+"])))
_quote_fields = st.builds(lambda left, text, right: left + text + right,
                          _PADDING, _SPELLINGS, _PADDING)


def _row(k, bid="99.9", ask="100.1", volume=5):
    return f"{ts_of(34200 + k)},100.0,{volume},{bid},{ask}\n"


def _parse_or_none(line, converters):
    try:
        return marketdata._parse([line], 5, converters)
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(_quote_fields)
def test_numpy_parse_of_a_quote_is_the_converter_parse_or_fails(field):
    line = _row(0, bid=field, ask=field)
    fast = _parse_or_none(line, None)
    slow = _parse_or_none(line, _QUOTE_CONVERTERS)
    if fast is not None:
        assert slow is not None and fast.tobytes() == slow.tobytes(), repr(field)
    # a whole file with the field loads to the converter parse's value, or
    # fails naming the field's line
    for bid, ask, name in ((field, "", "bid1"), ("", field, "ask1")):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ticks.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(QUOTED_HEADER + _row(0) + _row(1, bid=bid, ask=ask))
            value = None if slow is None else slow[name][0]
            if value is not None and (math.isnan(value) or 0 < value < math.inf):
                loaded = getattr(load_ticks(path), name)
                assert loaded[1].tobytes() == value.tobytes(), repr(field)
            else:
                with pytest.raises(DataError, match=f"{path}: line 3: "):
                    load_ticks(path)


def test_bad_row_in_a_later_block_reports_its_own_line(tmp_path, monkeypatch):
    monkeypatch.setattr(marketdata, "_CSV_BLOCK_ROWS", 4)
    path = tmp_path / "bad.csv"
    bad = f"{ts_of(34205)},100.0,5,99.9,1_0x"
    rows = [_row(k) for k in range(9)]
    rows[4] = _row(4, bid="")  # the second block also needs the converters
    rows[5] = bad + "\n"
    for newline in ("\n", "\r\n"):
        path.write_bytes((QUOTED_HEADER + "".join(rows)).replace("\n", newline).encode())
        with pytest.raises(DataError) as info:
            load_ticks(str(path))
        assert str(info.value) == (f"{path}: line 7: {bad!r} is not 5 numbers "
                                   "ts_ns,price,volume,bid1,ask1")
    # in a 3-column file, on the third block's first line
    rows = [f"{ts_of(34200 + k)},100.0,5\n" for k in range(9)]
    rows[8] = "x\n"
    path.write_text("ts_ns,price,volume\n" + "".join(rows))
    with pytest.raises(DataError) as info:
        load_ticks(str(path))
    assert str(info.value) == f"{path}: line 10: 'x' is not 3 numbers ts_ns,price,volume"


def test_empty_quotes_at_block_ends_are_missing_quotes(tmp_path, monkeypatch):
    path = tmp_path / "ticks.csv"
    rows = [_row(k) for k in range(10)]
    rows[3] = _row(3, bid="")  # the first block's last row
    rows[9] = _row(9, ask="")  # the file's last row, alone in its block
    path.write_text(QUOTED_HEADER + "".join(rows))
    whole = load_ticks(str(path))
    monkeypatch.setattr(marketdata, "_CSV_BLOCK_ROWS", 4)
    blocked = load_ticks(str(path))
    bid = np.full(10, 99.9)
    ask = np.full(10, 100.1)
    bid[3] = ask[9] = math.nan
    for loaded in (whole, blocked):
        np.testing.assert_array_equal(loaded.bid1, bid)
        np.testing.assert_array_equal(loaded.ask1, ask)
        assert loaded.ts.tobytes() == whole.ts.tobytes()


def test_blank_lines_around_a_block_boundary_keep_line_numbers(tmp_path, monkeypatch):
    monkeypatch.setattr(marketdata, "_CSV_BLOCK_ROWS", 4)
    path = tmp_path / "bad.csv"
    head = QUOTED_HEADER + _row(0) + _row(1) + _row(2) + "\n" + "\n" + _row(3)
    # lines 5 and 6, on either side of the boundary, are blank
    path.write_text(head + _row(4, volume=0))
    with pytest.raises(DataError) as info:
        load_ticks(str(path))
    assert str(info.value) == f"{path}: line 8: volume 0 is below 1"
    path.write_text(head + "x\n")
    with pytest.raises(DataError, match=f"{path}: line 8: 'x' is not 5 numbers"):
        load_ticks(str(path))
    path.write_text(head)
    assert len(load_ticks(str(path))) == 4


def test_files_of_one_block_and_one_block_and_a_row(tmp_path, monkeypatch):
    path = tmp_path / "ticks.csv"
    for n in (4, 5):
        for header, row in ((QUOTED_HEADER, _row),
                            ("ts_ns,price,volume\n",
                             lambda k: f"{ts_of(34200 + k)},100.0,5\n")):
            path.write_text(header + "".join(row(k) for k in range(n)))
            monkeypatch.setattr(marketdata, "_CSV_BLOCK_ROWS", 8192)
            whole = load_ticks(str(path))
            monkeypatch.setattr(marketdata, "_CSV_BLOCK_ROWS", 4)
            blocked = load_ticks(str(path))
            assert len(blocked) == n
            for name in ("ts", "price", "volume", "bid1", "ask1"):
                col = getattr(blocked, name)
                assert col.flags.c_contiguous
                assert col.dtype == getattr(whole, name).dtype
                assert col.tobytes() == getattr(whole, name).tobytes()
    # a header and blank lines, over more than one block, have no data rows
    for text in (QUOTED_HEADER, QUOTED_HEADER + "\n" * 9):
        path.write_text(text)
        with pytest.raises(DataError, match=f"{path}: no data rows"):
            load_ticks(str(path))


def test_load_ticks_holds_about_one_copy_of_the_columns(tmp_path):
    n = 200_000
    ticks = synth_ticks(SynthSpec(count=n, seed=5))
    path = tmp_path / "ticks.csv"
    save_ticks(str(path), ticks)
    tracemalloc.start()
    try:
        loaded = load_ticks(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == n
    columns = 5 * 8 * n
    assert peak <= 1.6 * columns, peak / columns


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


def _session_index_by_search(ts):
    # the session slot of each stamp, or -1 outside every session: the
    # per-tick lookup that TickSeries and resample made before the bar grid
    sod = np.asarray(ts, dtype=np.int64) % NS_PER_DAY
    idx = np.searchsorted(SESSION_OPENS_NS, sod, side="right") - 1
    ok = (idx >= 0) & (sod <= SESSION_CLOSES_NS[np.clip(idx, 0, None)])
    return np.where(ok, idx, -1)


def _resample_by_key(ticks, interval_ns):
    # resample as it was written before the bar grid: each tick keyed by its
    # day, its session and its bar within the session; a bar ends an interval
    # after its start or at its session's close, whichever is sooner
    sod = ticks.ts % NS_PER_DAY
    sess_idx = _session_index_by_search(ticks.ts)
    open_ns = SESSION_OPENS_NS[sess_idx]
    bar_in_sess = (sod - open_ns) // interval_ns
    day = ticks.ts // NS_PER_DAY
    key = ((day * len(CSI300_SESSIONS) + sess_idx) * (NS_PER_DAY // interval_ns + 1)
           + bar_in_sess)
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(ticks)]
    bar_ts = day[starts] * NS_PER_DAY + open_ns[starts] + bar_in_sess[starts] * interval_ns
    close_ts = day[starts] * NS_PER_DAY + SESSION_CLOSES_NS[sess_idx[starts]]
    return BarSeries(bar_ts, ticks.price[ends - 1],
                     np.minimum(bar_ts + interval_ns, close_ts), ends - 1)


def test_resample_anchors_at_session_open():
    ticks = synth_ticks(SynthSpec(count=30_000, seed=3))
    interval = 300 * NS_PER_SEC
    bars = resample(ticks, interval)
    sod = bars.ts % NS_PER_DAY
    sess = _session_index_by_search(bars.ts)
    assert np.all(sess >= 0)
    assert np.all((sod - SESSION_OPENS_NS[sess]) % interval == 0)
    # no bar starts on a close
    assert np.all(sod < SESSION_CLOSES_NS[sess])


def test_bar_grid_starts_at_each_open_and_stops_before_each_close():
    minute = 60 * NS_PER_SEC
    grid = bar_offsets(minute)
    starts = np.r_[np.arange(34200, 41400, 60), np.arange(46800, 54000, 60)] * NS_PER_SEC
    np.testing.assert_array_equal(grid, np.c_[starts, starts + minute])
    # 7 minutes do not divide a session: each session's 18th bar is 1 minute
    # and ends at its close
    grid = bar_offsets(7 * minute)
    assert grid.shape == (36, 2)
    np.testing.assert_array_equal(grid[[17, 35]],
                                  np.c_[SESSION_CLOSES_NS - minute, SESSION_CLOSES_NS])
    np.testing.assert_array_equal(grid[:17, 1] - grid[:17, 0], 7 * minute)
    # an interval of a session or more up to a day: one bar per session
    for interval in (7200 * NS_PER_SEC, NS_PER_DAY):
        np.testing.assert_array_equal(bar_offsets(interval),
                                      np.c_[SESSION_OPENS_NS, SESSION_CLOSES_NS])
    for interval in (100_000_000 - 1, 1_000_000, 1, 0, -minute):
        with pytest.raises(DataError, match="bar_interval_ns must be >= 100000000"):
            bar_offsets(interval)
    # intervals above a day, where an int64 grid would overflow or be refused
    for interval in (NS_PER_DAY + 1, 2**63 - 1, 2**63, 10**30):
        with pytest.raises(DataError, match="bar_interval_ns must be <= 86400000000000"):
            bar_offsets(interval)
    with pytest.raises(DataError, match="bar_interval_ns"):
        resample(series([(34200, 100.0, 1)]), 1_000_000)


def test_ticks_on_a_close_fall_in_the_sessions_last_bar():
    ticks = series([
        (41340.5, 100.0, 1),
        (41400, 101.0, 1),  # 11:30:00.000
        (53999.5, 102.0, 1),
        (54000, 103.0, 1),  # 15:00:00.000
    ])
    bars = resample(ticks, 60 * NS_PER_SEC)
    assert list(bars.ts) == [ts_of(41340), ts_of(53940)]  # 11:29 and 14:59
    np.testing.assert_array_equal(bars.close, [101.0, 103.0])


# intervals that divide a 2-hour session (100 ms to the whole session), then
# intervals that leave each session a short last bar, or only one bar
_DIVIDING = (100_000_000, NS_PER_SEC, 60 * NS_PER_SEC, 300 * NS_PER_SEC,
             1800 * NS_PER_SEC, 7200 * NS_PER_SEC)
_NOT_DIVIDING = (700_000_000, 4_999_000_000, 7 * NS_PER_SEC, 420 * NS_PER_SEC,
                 10_800 * NS_PER_SEC)
_SESSION_EDGES = np.r_[SESSION_OPENS_NS, SESSION_CLOSES_NS, SESSION_CLOSES_NS - 1]
_in_session = st.one_of(
    st.sampled_from(_SESSION_EDGES.tolist()),
    st.sampled_from(CSI300_SESSIONS).flatmap(
        lambda s: st.integers(s[0] * NS_PER_SEC, s[1] * NS_PER_SEC)))


@st.composite
def in_session_stamps(draw):
    stamps = draw(st.lists(st.tuples(st.integers(-3, 3), _in_session,
                                     st.integers(1, 3)), min_size=1, max_size=60))
    # each stamp once to three times, so some ticks share an instant
    return np.array(sorted(day * NS_PER_DAY + sod for day, sod, times in stamps
                           for _ in range(times)), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(in_session_stamps(), st.sampled_from(_DIVIDING + _NOT_DIVIDING))
def test_resample_matches_the_keyed_reference(ts, interval):
    n = ts.shape[0]
    ticks = TickSeries(ts, 100.0 + np.arange(n), np.ones(n, dtype=np.int64))
    bars = resample(ticks, interval)
    # the one difference: where a close is a bar boundary, the reference
    # opens a bar at the close for a tick stamped on it, and the grid puts
    # that tick in the session's last bar, where the reference puts a tick
    # 1 ns earlier
    ref_ts = ts.copy()
    if 7200 * NS_PER_SEC % interval == 0:
        ref_ts[np.isin(ts % NS_PER_DAY, SESSION_CLOSES_NS)] -= 1
    ref = _resample_by_key(TickSeries(ref_ts, ticks.price, ticks.volume), interval)
    for name in ("ts", "close", "end_ts", "last"):
        np.testing.assert_array_equal(getattr(bars, name), getattr(ref, name), name)


# the first and last days whose sessions int64 nanoseconds hold
_INT64_DAYS = (-(2**63) // NS_PER_DAY, (2**63 - 1) // NS_PER_DAY)
_EDGES_AND_NEIGHBOURS = np.r_[_SESSION_EDGES, SESSION_OPENS_NS - 1,
                              SESSION_CLOSES_NS + 1, 0, NS_PER_DAY - 1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((-2, -1, 0, 1, DAY) + _INT64_DAYS),
                          st.one_of(_in_session,
                                    st.sampled_from(_EDGES_AND_NEIGHBOURS.tolist()),
                                    st.integers(0, NS_PER_DAY - 1)))
                .map(lambda t: t[0] * NS_PER_DAY + t[1])
                .filter(lambda v: -(2**63) <= v < 2**63),
                min_size=1, max_size=40))
def test_tick_series_session_check_matches_the_per_tick_reference(stamps):
    ts = np.array(sorted(stamps), dtype=np.int64)
    n = ts.shape[0]
    cols = (ts, np.full(n, 100.0), np.ones(n, dtype=np.int64))
    outside = np.flatnonzero(_session_index_by_search(ts) < 0)
    if outside.shape[0] == 0:
        assert len(TickSeries(*cols)) == n
        return
    i = int(outside[0])
    with pytest.raises(TickError) as info:
        TickSeries(*cols)
    assert info.value.index == i
    assert str(info.value) == f"tick {i}: timestamp {ts[i]} falls outside every session interval"


def test_tick_series_validates_in_less_than_one_column_of_temporaries():
    # 8 days of 500 ms ticks; a per-tick session lookup held two int64
    # arrays per tick
    ticks = synth_ticks(SynthSpec(count=8 * 28_800, seed=5))
    tracemalloc.start()
    try:
        TickSeries(ticks.ts, ticks.price, ticks.volume, ticks.bid1, ticks.ask1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(ticks), peak / len(ticks)


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

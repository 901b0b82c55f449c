"""Tests for parsing and writing series CSVs, alignment, splitting, fault
removal, standardization and window construction, including brute-force
oracles for the invariants."""

import contextlib
import dataclasses
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwatch import data
from beamwatch.errors import (BeamwatchError, ConfigError, DataError, OrderError,
                              ParseError, ShapeError)
from beamwatch.faults import FaultEvent

import oracles


def csv_text(series):
    out = io.StringIO()
    data.format_series_csv(series, out)
    return out.getvalue()


def traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def frame_of(timestamps, values, channels=None):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if values.shape[0] != len(timestamps):
        values = values.T
    channels = tuple(channels or [f"ch{j}" for j in range(values.shape[1])])
    return data.AlignedFrame(channels, np.asarray(timestamps, dtype=np.int64), values)


class TestParseSeriesCsv:
    def test_two_rows(self):
        s = data.parse_series_csv("timestamp,value\n0,1.5\n2.5,3.0\n", "cur")
        assert len(s) == 2
        assert s.channel_name == "cur"
        assert np.array_equal(s.timestamps, [0.0, 2.5])
        assert np.array_equal(s.values, [1.5, 3.0])

    def test_malformed_number_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            data.parse_series_csv("timestamp,value\nabc,1.0\n")

    def test_non_monotonic_rejected(self):
        with pytest.raises(OrderError, match="line 3"):
            data.parse_series_csv("timestamp,value\n10,1.0\n5,2.0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            data.parse_series_csv("time,value\n0,1\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            data.parse_series_csv("timestamp,value\n0,1,2\n")

    def test_series_csv_round_trip(self):
        s = data.parse_series_csv("timestamp,value\n0,1.5\n2.5,3.25\n")
        again = data.parse_series_csv(csv_text(s))
        assert np.array_equal(again.timestamps, s.timestamps)
        assert np.array_equal(again.values, s.values)


def parse_outcome(parse, text):
    """What a series parser makes of `text`: the arrays' dtype and bytes, or
    the error's type and message."""
    try:
        s = parse(text, "ch")
    except BeamwatchError as exc:
        return type(exc), str(exc)
    return s.timestamps.dtype, s.timestamps.tobytes(), s.values.dtype, s.values.tobytes()


# Lossless ways to write a double, as files in the wild do.
NUMBER_FORMATS = [
    repr,
    "{:.17g}".format,
    "{:+.16e}".format,
    "{:.16E}".format,
    lambda x: f" {x!r}\t",
    lambda x: str(int(x)) if x.is_integer() else repr(x),
]
finite = st.floats(allow_nan=False, allow_infinity=False)
stamps = st.one_of(finite, st.integers(-10**6, 10**12).map(float),
                   st.floats(0, 2e9, allow_nan=False))


@st.composite
def series_texts(draw, plain=False):
    """A valid series CSV: strictly increasing stamps and finite values over
    the whole double range. Unless `plain`, line endings are mixed and blank
    or whitespace-only lines sit between rows."""
    ts = sorted(draw(st.lists(stamps, unique=True, max_size=25)))
    eol = st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"])
    blanks = st.lists(st.sampled_from(["", " ", "\t "]), max_size=0 if plain else 2)
    fmt = st.sampled_from(NUMBER_FORMATS)
    parts = [data.SERIES_CSV_HEADER, draw(eol)]
    for t in ts:
        for blank in draw(blanks):
            parts += [blank, draw(eol)]
        parts += [f"{draw(fmt)(t)},{draw(fmt)(draw(finite))}", draw(eol)]
    if ts and draw(st.booleans()):
        parts.pop()
    return "".join(parts)


@st.composite
def mangled_series_texts(draw):
    """A series CSV with a few characters of its body inserted or
    overwritten: mostly number syntax, separators and line breaks, which the
    one-pass parse may still accept, and sometimes other text."""
    text = draw(st.one_of(series_texts(plain=True), series_texts()))
    junk = st.one_of(
        st.sampled_from("0123456789 \t"),
        st.text(alphabet="0123456789.,+-eE \t\r\n", min_size=1, max_size=3),
        st.text(alphabet="_xinfa#\"\x00\x0b\x0c\x1c\x1e\x85\u2028\u0661",
                min_size=1, max_size=2))
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(len(data.SERIES_CSV_HEADER) + 1, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(junk) + text[at + cut:]
    return text


class TestParseSeriesBulk:
    """The one-pass parse against the line loop it falls back to."""

    @settings(max_examples=300, deadline=None)
    @given(series_texts())
    def test_valid_text_bitwise_equal(self, text):
        want = parse_outcome(data._parse_series_lines, text)
        assert want[0] == np.float64, want
        assert parse_outcome(data.parse_series_csv, text) == want

    @settings(max_examples=500, deadline=None)
    @given(mangled_series_texts())
    def test_mangled_text_same_outcome(self, text):
        assert parse_outcome(data.parse_series_csv, text) == \
            parse_outcome(data._parse_series_lines, text)

    @pytest.mark.parametrize("text", [
        "timestamp,value\n0,1_000\n1,2\n",
        "timestamp,value\n0,1\n   \n1,2\n",
        "timestamp,value\r0,1\r1,2\r",
        "timestamp,value\n0,1\x0c1,2\n",
        "timestamp,value\n0,\x0c1\n",
        "\x0ctimestamp,value\n0,1\n",
        " timestamp,value \n0,1\n",
        "timestamp,value\n0,\u0661\n",
        "timestamp,value\n0,1e400\n",
        "timestamp,value\n0,nan\n",
        "timestamp,value\n0,1\n0,2\n",
        "timestamp,value\n0,1,2\n",
        "timestamp,value\n0\n1\n",
        "timestamp,value\n0,1\x002\n",
        "timestamp,value\n",
        "timestamp,value",
        "",
    ])
    def test_edge_cases_same_outcome(self, text):
        assert parse_outcome(data.parse_series_csv, text) == \
            parse_outcome(data._parse_series_lines, text)

    def test_random_doubles_bitwise_equal(self, rng):
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                            size=20_000, dtype=np.int64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        series = data.RawSeries("ch", np.arange(len(values)) * 0.25, values)
        text = csv_text(series)
        assert parse_outcome(data.parse_series_csv, text) == \
            parse_outcome(data._parse_series_lines, text)

    def test_plain_text_skips_line_loop(self, monkeypatch):
        text = "timestamp,value\r\n0,1.5\r\n\r\n2.5,-3e-300\r\n"
        want = parse_outcome(data.parse_series_csv, text)
        monkeypatch.setattr(data, "_parse_series_lines", None)
        assert parse_outcome(data.parse_series_csv, text) == want

    @pytest.mark.parametrize("text", [
        "timestamp,value\r\r\n0,1\n1,2\n",
        "timestamp,value\r\n\r\n0,1\n",
        "timestamp,value\n\n\n",
        "timestamp,value\n \t\r\n",
        "timestamp,valuee\n0,1\n",
        "timestamp,value,\n0,1\n",
        "timestamp,value\r0,1\n1,2\n",
        "timestamp,value\n0,1\nvalue\n",
    ])
    def test_header_and_blank_body_variants_same_outcome(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body with no rows
            got = parse_outcome(data.parse_series_csv, text)
        assert got == parse_outcome(data._parse_series_lines, text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(series_texts(), mangled_series_texts()))
    def test_bytes_parse_like_text(self, text):
        # files reach the parser as their bytes
        assert parse_outcome(data.parse_series_csv, text.encode("utf-8")) == \
            parse_outcome(data.parse_series_csv, text)

    def test_plain_bytes_skip_line_loop(self, monkeypatch):
        raw = b"timestamp,value\r\n0,1.5\r\n\r\n2.5,-3e-300\r\n"
        want = parse_outcome(data.parse_series_csv, raw.decode())
        monkeypatch.setattr(data, "_parse_series_lines", None)
        assert parse_outcome(data.parse_series_csv, raw) == want

    def test_undecodable_bytes_raise_decode_error(self):
        with pytest.raises(UnicodeDecodeError):
            data.parse_series_csv(b"timestamp,value\n0,1\n# \xff\n")

    def test_parse_memory_bounded_by_text(self, rng):
        n = 100_000
        series = data.RawSeries("ch", np.arange(n, dtype=np.float64) + 1.6e9,
                                rng.standard_normal(n))
        text = csv_text(series)
        parsed, peak = traced_peak(lambda: data.parse_series_csv(text, "ch"))
        assert np.array_equal(parsed.values, series.values)
        assert peak < 3.5 * len(text), peak / len(text)


B = data._FORMAT_BLOCK_ROWS
F8_MAX = np.finfo(np.float64).max
# -0.0, subnormals and +-max, besides arbitrary finite doubles
F8_EDGES = [0.0, -0.0, 5e-324, -2.5e-310, F8_MAX, -F8_MAX]


@st.composite
def format_cases(draw):
    """A RawSeries whose length sits around the block size, with stamps on an
    integer, fractional, subnormal or huge grid (1e296 steps reach 8e299,
    where str(int(t)) runs to 300 digits), or int64 stamps out to about
    -2**62, and values over the whole double range."""
    n = draw(st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]) | st.integers(0, 40))
    shift = draw(st.integers(0, n))
    if draw(st.integers(0, 3)) == 0:
        step = draw(st.sampled_from([1, 7, 2**40]))
        base = draw(st.sampled_from([0, 1_600_000_000, -2**62]))
        ts = base + (np.arange(n, dtype=np.int64) - shift) * step
    else:
        scale = draw(st.sampled_from([1.0, 0.1, 0.375, 3.0, 2.5e-310, 1e296]))
        jitter = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.1, 0.49]),
                               min_size=1, max_size=7))
        ts = (np.arange(n) - shift) * scale + scale * np.resize(jitter, n)
        if draw(st.booleans()):
            ts[ts == 0.0] = -0.0
    pool = draw(st.lists(finite | st.sampled_from(F8_EDGES), min_size=1, max_size=20))
    return data.RawSeries("ch", ts, np.resize(np.array(pool, dtype=np.float64), n))


class _Discard:
    def write(self, text):
        return len(text)


class TestFormatSeriesCsv:
    """The block writer against the row-at-a-time reference."""

    @settings(max_examples=120, deadline=None)
    @given(format_cases())
    def test_equals_row_writer(self, series):
        assert csv_text(series) == oracles.format_series_csv(series)

    def test_hand_picked_rows(self):
        series = data.RawSeries("ch", np.array([-0.0, 1.5, 1e300]),
                                np.array([-0.0, 5e-324, -F8_MAX]))
        assert csv_text(series) == ("timestamp,value\n0,-0.0\n1.5,5e-324\n"
                                    f"{int(1e300)},-1.7976931348623157e+308\n")

    def test_memory_bounded_by_block(self, rng):
        n = 200_000
        series = data.RawSeries("ch", np.arange(n, dtype=np.float64) * 0.25,
                                rng.standard_normal(n))
        _, peak = traced_peak(lambda: data.format_series_csv(series, _Discard()))
        assert peak < 2_000_000, peak


@st.composite
def fill_channels(draw):
    """1-3 channels of strictly increasing stamps around one base second (0,
    negative, or about 2**40), each over its own support, with fractional
    stamps and any finite values; sometimes one channel but the first ends
    with a stamp far past every grid. Sometimes every channel, or one of
    several, has exactly the grid's stamps, which `align_and_fill` takes as
    they are."""
    base = draw(st.sampled_from([0, -1000, -2**40, 2**40, 1_600_000_000]))
    frac = st.sampled_from([0.0, 0.25, 0.5, 1 - 2**-10]) | \
        st.floats(0, 1, exclude_max=True)
    channels = []
    for _ in range(draw(st.integers(1, 3))):
        seconds = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=20, unique=True))
        ts = sorted({float(base + sec) + draw(frac) for sec in seconds})
        channels.append(ts)
    if len(channels) > 1 and draw(st.booleans()):
        channels[-1].append(1e300)
    on_grid = draw(st.sampled_from(["none", "all", "one"]))
    if on_grid == "all":
        first = draw(st.integers(-30, 30))
        seconds = range(first, draw(st.integers(first, 30)) + 1)
        channels = [[float(base + sec) for sec in seconds] for _ in channels]
    elif on_grid == "one" and len(channels) > 1:
        # inside the others' grid, this channel's seconds are the grid
        j = draw(st.integers(0, len(channels) - 1))
        others = channels[:j] + channels[j + 1:]
        start = max(math.ceil(ts[0]) for ts in others)
        end = min([math.ceil(ts[-1]) for ts in others] + [start + 30])
        if start <= end:
            first = draw(st.integers(start, end))
            channels[j] = [float(sec) for sec in range(first, draw(st.integers(first, end)) + 1)]
    return [(ts, draw(st.lists(finite | st.just(-0.0), min_size=len(ts), max_size=len(ts))))
            for ts in channels]


class TestAlignAndFill:
    def test_forward_fill_by_hand(self):
        s = data.RawSeries("a", np.array([0.0, 2.5]), np.array([1.0, 3.0]))
        frame = data.align_and_fill([s])
        assert np.array_equal(frame.timestamps, [0, 1, 2, 3])
        assert np.array_equal(frame.values[:, 0], [1.0, 1.0, 1.0, 3.0])

    def test_mixed_rates_no_missing_cells(self):
        fast = data.RawSeries("fast", np.arange(10, dtype=float), np.arange(10, dtype=float))
        slow = data.RawSeries("slow", np.array([0.5, 4.0, 8.2]), np.array([10.0, 20.0, 30.0]))
        frame = data.align_and_fill([fast, slow])
        assert frame.channels == ("fast", "slow")
        assert np.array_equal(frame.timestamps, np.arange(1, 10))
        assert np.all(np.isfinite(frame.values))
        assert np.array_equal(frame.values[:, 1],
                              [10, 10, 10, 20, 20, 20, 20, 20, 30])

    def test_single_observation_single_row(self):
        s = data.RawSeries("a", np.array([5.5]), np.array([2.0]))
        frame = data.align_and_fill([s])
        assert frame.n_rows == 1
        assert frame.timestamps[0] == 6
        assert frame.values[0, 0] == 2.0

    def test_no_overlap_rejected(self):
        a = data.RawSeries("a", np.array([0.0, 10.0]), np.array([1.0, 1.0]))
        b = data.RawSeries("b", np.array([20.0, 30.0]), np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            data.align_and_fill([a, b])

    def test_idempotent_on_aligned_data(self, rng):
        ts = np.arange(50, dtype=float)
        series = [data.RawSeries(f"c{j}", ts, rng.standard_normal(50)) for j in range(3)]
        frame = data.align_and_fill(series)
        again = data.align_and_fill([
            data.RawSeries(name, frame.timestamps.astype(float), frame.values[:, j])
            for j, name in enumerate(frame.channels)
        ])
        assert np.array_equal(again.timestamps, frame.timestamps)
        assert np.array_equal(again.values, frame.values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(-50, 50).map(float) |
                                       st.floats(-50, 50, allow_nan=False),
                                       st.floats(allow_nan=False, allow_infinity=False)),
                             min_size=1, max_size=15, unique_by=lambda p: p[0]),
                    min_size=1, max_size=3))
    def test_forward_fill_matches_bruteforce(self, channels):
        observations = [sorted(obs) for obs in channels]
        series = [data.RawSeries(f"c{j}", np.array([t for t, _ in obs]),
                                 np.array([v for _, v in obs]))
                  for j, obs in enumerate(observations)]
        # oracle: the grid runs from the latest ceil of the first stamps to
        # the earliest ceil of the last stamps; each cell holds the channel's
        # last observation at or before that second
        start = max(math.ceil(obs[0][0]) for obs in observations)
        end = min(math.ceil(obs[-1][0]) for obs in observations)
        if start > end:
            with pytest.raises(DataError, match="do not overlap"):
                data.align_and_fill(series)
            return
        frame = data.align_and_fill(series)
        assert frame.channels == tuple(s.channel_name for s in series)
        assert frame.timestamps.dtype == np.int64
        assert frame.timestamps.tolist() == list(range(start, end + 1))
        for row, second in enumerate(range(start, end + 1)):
            for j, obs in enumerate(observations):
                seen = [v for t, v in obs if t <= second]
                assert seen
                assert frame.values[row, j] == seen[-1]

    @settings(max_examples=300, deadline=None)
    @given(fill_channels())
    def test_fill_bitwise_equals_per_second_oracle(self, channels):
        series = [data.RawSeries(f"c{j}", np.array(ts), np.array(vals))
                  for j, (ts, vals) in enumerate(channels)]
        start = max(math.ceil(ts[0]) for ts, _ in channels)
        end = min(math.ceil(ts[-1]) for ts, _ in channels)
        if start > end:
            with pytest.raises(DataError, match="do not overlap"):
                data.align_and_fill(series)
            return
        frame = data.align_and_fill(series)
        want = np.array([[vals[max(i for i, t in enumerate(ts) if t <= second)]
                          for ts, vals in channels]
                         for second in range(start, end + 1)], dtype=np.float64)
        assert frame.timestamps.tobytes() == np.arange(start, end + 1, dtype=np.int64).tobytes()
        assert frame.values.tobytes() == want.reshape(frame.values.shape).tobytes()
        if len(series) == 1 and np.array_equal(series[0].timestamps, frame.timestamps):
            # a lone on-grid channel is viewed, not copied
            assert np.shares_memory(frame.values, series[0].values)

    def test_on_grid_float_channel_peaks_near_the_grid(self):
        # the frame's int64 grid is the one archive-sized array it needs
        n = 200_000
        s = data.RawSeries("a", np.arange(n, dtype=np.float64) + 7.0, np.ones(n))
        frame, peak = traced_peak(lambda: data.align_and_fill([s]))
        assert np.shares_memory(frame.values, s.values)
        assert peak < 10 * n, peak / n


class TestChronologicalSplit:
    def test_even_split(self, rng):
        frame = frame_of(np.arange(100), rng.standard_normal((100, 2)))
        train, test = data.chronological_split(frame, 0.5)
        assert train.n_rows == 50 and test.n_rows == 50
        assert np.array_equal(train.timestamps, np.arange(50))
        assert np.array_equal(test.timestamps, np.arange(50, 100))

    def test_fraction_one_leaves_empty_test(self, rng):
        frame = frame_of(np.arange(10), rng.standard_normal((10, 1)))
        train, test = data.chronological_split(frame, 1.0)
        assert train.n_rows == 10 and test.n_rows == 0

    def test_odd_count_floors(self, rng):
        frame = frame_of(np.arange(101), rng.standard_normal((101, 1)))
        train, test = data.chronological_split(frame, 0.5)
        assert train.n_rows == 50 and test.n_rows == 51

    def test_partition_exact(self, rng):
        frame = frame_of(np.arange(37), rng.standard_normal((37, 2)))
        train, test = data.chronological_split(frame, 0.3)
        assert np.array_equal(np.concatenate([train.timestamps, test.timestamps]),
                              frame.timestamps)
        assert np.array_equal(np.vstack([train.values, test.values]), frame.values)

    def test_bad_inputs(self, rng):
        frame = frame_of(np.arange(10), rng.standard_normal((10, 1)))
        with pytest.raises(ConfigError):
            data.chronological_split(frame, 0.0)
        with pytest.raises(ConfigError):
            data.chronological_split(frame, 1.5)
        empty = frame_of(np.empty(0, dtype=np.int64), np.empty((0, 1)))
        with pytest.raises(DataError):
            data.chronological_split(empty, 0.5)

    def test_allocates_nothing_archive_sized(self):
        n = 200_000
        frame = frame_of(np.arange(n), np.zeros((n, 1)))
        (train, test), peak = traced_peak(lambda: data.chronological_split(frame, 0.5))
        assert np.shares_memory(train.values, frame.values)
        assert np.shares_memory(test.timestamps, frame.timestamps)
        assert peak < 10_000, peak


class TestRemoveFaultNeighborhoods:
    def test_point_fault_margin_ten(self, rng):
        frame = frame_of(np.arange(80, 131), rng.standard_normal((51, 1)))
        out = data.remove_fault_neighborhoods(frame, [FaultEvent(100, 100)], margin=10)
        removed = set(range(90, 111))
        assert set(out.timestamps.tolist()) == set(range(80, 131)) - removed

    def test_empty_fault_list(self, rng):
        frame = frame_of(np.arange(20), rng.standard_normal((20, 2)))
        out = data.remove_fault_neighborhoods(frame, [], margin=10)
        assert np.array_equal(out.timestamps, frame.timestamps)
        assert np.array_equal(out.values, frame.values)

    def test_overlapping_margins_union(self, rng):
        frame = frame_of(np.arange(80, 141), rng.standard_normal((61, 1)))
        out = data.remove_fault_neighborhoods(
            frame, [FaultEvent(100, 100), FaultEvent(115, 115)], margin=10)
        removed = set(range(90, 126))
        assert set(out.timestamps.tolist()) == set(range(80, 141)) - removed

    def test_removal_creates_segment_boundary(self, rng):
        frame = frame_of(np.arange(0, 60), rng.standard_normal((60, 1)))
        out = data.remove_fault_neighborhoods(frame, [FaultEvent(30, 30)], margin=2)
        # exactly one gap, where seconds 28..32 were removed
        assert np.flatnonzero(np.diff(out.timestamps) > 1).tolist() == [27]
        assert out.timestamps[27:29].tolist() == [27, 33]

    def test_negative_margin_rejected(self, rng):
        frame = frame_of(np.arange(5), rng.standard_normal((5, 1)))
        with pytest.raises(ConfigError):
            data.remove_fault_neighborhoods(frame, [], margin=-1)

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.integers(1, 4), max_size=60), start=st.integers(-10**6, 10**9),
           spans=st.lists(st.tuples(st.integers(-8, 248), st.integers(0, 5)), max_size=4),
           margin=st.integers(0, 6), m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_second_oracle(self, steps, start, spans, margin, m, seed):
        # stamps with gaps of up to 3 missing seconds; events reach past both ends
        ts = (start + np.cumsum(steps, dtype=np.int64)).tolist()
        values = np.random.default_rng(seed).standard_normal((len(ts), m))
        frame = frame_of(ts, values)
        events = [FaultEvent(start + s, start + s + d) for s, d in spans]
        out = data.remove_fault_neighborhoods(frame, events, margin)
        # oracle: a second is kept, with its row, iff no event's margin covers it
        kept = [j for j, t in enumerate(ts)
                if not any(e.start - margin <= t <= e.end + margin for e in events)]
        assert out.channels == frame.channels
        assert out.timestamps.tolist() == [ts[j] for j in kept]
        assert np.array_equal(out.values, values[kept])


class TestChannelStats:
    def test_constant_channel_floored(self):
        frame = frame_of(np.arange(10), np.full((10, 1), 3.25))
        stats = data.compute_channel_stats(frame)
        assert stats.std[0] == 1.0
        standardized = data.standardize(frame, stats)
        assert np.all(standardized.values == 0.0)

    def test_standardized_train_has_unit_moments(self, rng):
        frame = frame_of(np.arange(500), 5.0 + 2.5 * rng.standard_normal((500, 3)))
        stats = data.compute_channel_stats(frame)
        out = data.standardize(frame, stats)
        assert np.all(np.abs(out.values.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.values.std(axis=0) - 1.0) < 1e-9)

    def test_empty_frame_rejected(self):
        empty = frame_of(np.empty(0, dtype=np.int64), np.empty((0, 2)))
        with pytest.raises(DataError):
            data.compute_channel_stats(empty)

    @pytest.mark.parametrize("mean,std", [([np.nan, 0.0], [1.0, 1.0]),
                                          ([0.0, np.inf], [1.0, 1.0]),
                                          ([0.0, 0.0], [1.0, np.inf])])
    def test_non_finite_stats_rejected(self, mean, std):
        with pytest.raises(DataError):
            data.ChannelStats(("a", "b"), np.array(mean), np.array(std))


class TestStandardize:
    def test_identity_stats(self, rng):
        frame = frame_of(np.arange(10), rng.standard_normal((10, 2)))
        stats = data.ChannelStats(frame.channels, np.zeros(2), np.ones(2))
        out = data.standardize(frame, stats)
        assert np.array_equal(out.values, frame.values)

    def test_round_trip(self, rng):
        frame = frame_of(np.arange(30), rng.standard_normal((30, 2)) * 7 + 3)
        stats = data.compute_channel_stats(frame)
        back = data.standardize(frame, stats).values * stats.std + stats.mean
        assert np.allclose(back, frame.values, rtol=0, atol=1e-12)

    def test_hand_computed(self):
        frame = frame_of([0, 1], [[2.0], [4.0]])
        stats = data.ChannelStats(frame.channels, np.array([3.0]), np.array([1.0]))
        out = data.standardize(frame, stats)
        assert np.array_equal(out.values[:, 0], [-1.0, 1.0])

    def test_channel_mismatch(self, rng):
        frame = frame_of(np.arange(5), rng.standard_normal((5, 2)))
        stats = data.ChannelStats(("x", "y"), np.zeros(2), np.ones(2))
        with pytest.raises(ConfigError):
            data.standardize(frame, stats)


class TestMakeWindows:
    def test_exact_fit_single_window(self, rng):
        frame = frame_of(np.arange(30), rng.standard_normal((30, 2)))
        ws = data.make_windows(frame, k=30)
        assert len(ws) == 1
        assert ws.end_timestamps[0] == 29

    def test_count_is_length_minus_k_plus_one(self, rng):
        frame = frame_of(np.arange(32), rng.standard_normal((32, 2)))
        ws = data.make_windows(frame, k=30)
        assert len(ws) == 3
        assert np.array_equal(ws.end_timestamps, [29, 30, 31])

    def test_short_segments_rejected(self, rng):
        ts = np.concatenate([np.arange(20), np.arange(100, 120)])
        frame = frame_of(ts, rng.standard_normal((40, 1)))
        with pytest.raises(DataError):
            data.make_windows(frame, k=30)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
           gaps=st.lists(st.integers(2, 6), min_size=3, max_size=3),
           start=st.integers(-10**6, 10**9), m=st.integers(1, 3), k=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_windows_never_cross_boundaries(self, lengths, gaps, start, m, k, seed):
        ts, t = [], start
        for length, gap in zip(lengths, gaps + [0]):
            ts.extend(range(t, t + length))
            t += length - 1 + gap
        values = np.random.default_rng(seed).standard_normal((len(ts), m))
        frame = frame_of(ts, values)
        # oracle: every start row whose k timestamps are consecutive seconds
        starts = [j for j in range(len(ts) - k + 1) if ts[j + k - 1] - ts[j] == k - 1]
        if not starts:
            with pytest.raises(DataError):
                data.make_windows(frame, k=k)
            return
        ws = data.make_windows(frame, k=k)
        assert np.array_equal(ws.windows, np.stack([values[j:j + k] for j in starts]))
        assert ws.end_timestamps.tolist() == [ts[j + k - 1] for j in starts]

    def test_windows_are_fresh_float64_copies(self, rng):
        frame = frame_of([0, 1, 2, 3, 5, 6, 7, 8], rng.standard_normal((8, 2)))
        before = frame.values.copy()
        ws = data.make_windows(frame, k=3)
        assert ws.windows.shape == (4, 3, 2) and ws.windows.dtype == np.float64
        assert ws.windows.flags.c_contiguous and ws.windows.flags.writeable
        assert not np.shares_memory(ws.windows, frame.values)
        assert ws.end_timestamps.dtype == np.int64
        assert ws.end_timestamps.tolist() == [2, 3, 7, 8]
        ws.windows[...] = 0.0
        assert np.array_equal(frame.values, before)

    @pytest.mark.parametrize("n_rows,k", [(0, 1), (0, 30), (3, 4), (29, 30), (1, 10**6)])
    def test_too_few_rows_rejected(self, rng, n_rows, k):
        frame = frame_of(np.arange(n_rows), rng.standard_normal((n_rows, 2)))
        with pytest.raises(DataError,
                           match=f"^{re.escape(f'no contiguous segment of length >= {k}')}$"):
            data.make_windows(frame, k=k)

    def test_window_contents(self, rng):
        frame = frame_of(np.arange(8), rng.standard_normal((8, 2)))
        ws = data.make_windows(frame, k=3)
        for j in range(len(ws)):
            assert np.array_equal(ws.windows[j], frame.values[j:j + 3])

    def test_invalid_params(self, rng):
        frame = frame_of(np.arange(10), rng.standard_normal((10, 1)))
        with pytest.raises(ConfigError):
            data.make_windows(frame, k=0)


# Strictly increasing int64 stamps whose difference wraps to -1.
INT64_EXTREMES = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])


class TestRawSeriesValidation:
    def test_int64_extremes_accepted(self):
        data.RawSeries("a", INT64_EXTREMES, np.zeros(2))
        with pytest.raises(OrderError, match="^channel 'a': timestamps not strictly increasing$"):
            data.RawSeries("a", INT64_EXTREMES[::-1], np.zeros(2))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_timestamp_rejected(self, bad):
        with pytest.raises(DataError, match="'a': non-finite timestamps"):
            data.RawSeries("a", np.array([0.0, bad]), np.array([1.0, 2.0]))

    def test_non_finite_value_message_kept(self):
        with pytest.raises(DataError, match="^channel 'a': non-finite values$"):
            data.RawSeries("a", np.array([0.0, 1.0]), np.array([1.0, math.inf]))


class TestFrameValidation:
    def test_int64_extremes_accepted(self):
        data.AlignedFrame(("a",), INT64_EXTREMES, np.zeros((2, 1)))
        with pytest.raises(OrderError, match="^frame timestamps not strictly increasing$"):
            data.AlignedFrame(("a",), INT64_EXTREMES[::-1], np.zeros((2, 1)))

    def test_non_monotonic_rejected(self, rng):
        with pytest.raises(OrderError):
            frame_of([3, 2, 1], rng.standard_normal((3, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            data.AlignedFrame(("a",), np.arange(3, dtype=np.int64), np.zeros((4, 1)))

    def test_duplicate_channels_rejected(self):
        with pytest.raises(DataError):
            data.AlignedFrame(("a", "a"), np.arange(2, dtype=np.int64), np.zeros((2, 2)))

    def test_segments_derived_from_gaps(self, rng):
        frame = frame_of([0, 1, 2, 10, 11, 30], rng.standard_normal((6, 1)))
        # rows 3 and 5 start new runs of consecutive seconds, and only they
        assert (np.flatnonzero(np.diff(frame.timestamps) > 1) + 1).tolist() == [3, 5]
        assert data.make_windows(frame, k=2).end_timestamps.tolist() == [1, 2, 11]
        assert data.make_windows(frame, k=3).end_timestamps.tolist() == [2]


class TestWindowSetValidation:
    def test_int64_extremes_accepted(self):
        data.WindowSet(np.zeros((2, 1, 1)), INT64_EXTREMES)
        with pytest.raises(OrderError, match="^window end timestamps not strictly increasing$"):
            data.WindowSet(np.zeros((2, 1, 1)), INT64_EXTREMES[::-1])


def assert_rebuilds(obj):
    """The public constructor accepts `obj`'s fields and keeps them as they are."""
    names = [f.name for f in dataclasses.fields(obj)]
    again = type(obj)(*(getattr(obj, name) for name in names))
    for name in names:
        a, b = getattr(obj, name), getattr(again, name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b


class TestDerivedFrames:
    """Frames and window sets the library derives from checked data skip the
    constructor checks; the checks must have nothing to reject in them."""

    @settings(max_examples=200, deadline=None)
    @given(channels=fill_channels(), fraction=st.floats(0.05, 1.0),
           spans=st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 5)), max_size=3),
           margin=st.integers(0, 3), k=st.integers(1, 6),
           mean=st.floats(-10, 10), std=st.floats(1, 100))
    def test_public_constructors_accept_them(self, channels, fraction, spans, margin, k,
                                             mean, std):
        series = [data.RawSeries(f"c{j}", np.array(ts), np.array(vals))
                  for j, (ts, vals) in enumerate(channels)]
        try:
            frame = data.align_and_fill(series)
        except DataError:  # supports that do not overlap
            return
        t0 = int(frame.timestamps[0])
        events = [FaultEvent(t0 + s, t0 + s + d) for s, d in spans]
        frames = [frame, *data.chronological_split(frame, fraction),
                  data.remove_fault_neighborhoods(frame, events, margin)]
        m = len(frame.channels)
        stats = data.ChannelStats(frame.channels, np.full(m, mean), np.full(m, std))
        frames += [data.standardize(f, stats) for f in frames]
        derived = list(frames)
        for f in frames:
            with contextlib.suppress(DataError):  # no run of k consecutive seconds
                derived.append(data.make_windows(f, k))
        for obj in derived:
            assert_rebuilds(obj)

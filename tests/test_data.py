"""Tests for parsing, alignment, splitting, fault removal, standardization,
and window construction, including brute-force oracles for the invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwatch import data
from beamwatch.errors import (BeamwatchError, ConfigError, DataError, OrderError,
                              ParseError, ShapeError)
from beamwatch.faults import FaultEvent


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
        again = data.parse_series_csv(data.format_series_csv(s))
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
        text = data.format_series_csv(series)
        assert parse_outcome(data.parse_series_csv, text) == \
            parse_outcome(data._parse_series_lines, text)

    def test_plain_text_skips_line_loop(self, monkeypatch):
        text = "timestamp,value\r\n0,1.5\r\n\r\n2.5,-3e-300\r\n"
        want = parse_outcome(data.parse_series_csv, text)
        monkeypatch.setattr(data, "_parse_series_lines", None)
        assert parse_outcome(data.parse_series_csv, text) == want


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

    def test_forward_fill_matches_bruteforce(self, rng):
        # oracle: per grid second, last observation at or before it
        for _ in range(25):
            n_obs = int(rng.integers(1, 15))
            ts = np.sort(rng.uniform(0, 40, n_obs))
            ts = ts[np.concatenate([[True], np.diff(ts) > 1e-9])]
            vals = rng.standard_normal(len(ts))
            s = data.RawSeries("x", ts, vals)
            frame = data.align_and_fill([s])
            for row, second in enumerate(frame.timestamps):
                eligible = np.flatnonzero(ts <= second)
                assert len(eligible) > 0
                assert frame.values[row, 0] == vals[eligible[-1]]


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
        assert len(out.segments()) == 2

    def test_negative_margin_rejected(self, rng):
        frame = frame_of(np.arange(5), rng.standard_normal((5, 1)))
        with pytest.raises(ConfigError):
            data.remove_fault_neighborhoods(frame, [], margin=-1)

    def test_matches_per_second_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 60))
            start = int(rng.integers(0, 50))
            frame = frame_of(np.arange(start, start + n), rng.standard_normal((n, 1)))
            events = [
                FaultEvent(int(s), int(s + rng.integers(0, 4)))
                for s in rng.integers(start - 5, start + n + 5, size=int(rng.integers(0, 4)))
            ]
            margin = int(rng.integers(0, 6))
            out = data.remove_fault_neighborhoods(frame, events, margin)
            kept = set(out.timestamps.tolist())
            for second in frame.timestamps.tolist():
                in_neighborhood = any(
                    e.start - margin <= second <= e.end + margin for e in events)
                assert (second not in kept) == in_neighborhood


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

    def test_window_contents(self, rng):
        frame = frame_of(np.arange(8), rng.standard_normal((8, 2)))
        ws = data.make_windows(frame, k=3)
        for j in range(len(ws)):
            assert np.array_equal(ws.windows[j], frame.values[j:j + 3])

    def test_invalid_params(self, rng):
        frame = frame_of(np.arange(10), rng.standard_normal((10, 1)))
        with pytest.raises(ConfigError):
            data.make_windows(frame, k=0)


class TestFrameValidation:
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
        assert frame.segments() == [(0, 3), (3, 5), (5, 6)]
        assert frame.segment_boundaries.tolist() == [3, 5]

"""Tests for fault-file parsing, the beam-current-drop heuristic, and
event-list merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwatch import faults
from beamwatch.data import RawSeries
from beamwatch.errors import ConfigError, DataError, ParseError, RangeError
from beamwatch.faults import FaultEvent

from conftest import traced_peak


LABEL_CHARS = st.sampled_from("abcxyzABCXYZ0189_-.:")

EVENT = st.builds(lambda start, length, source: FaultEvent(start, start + length, source),
                  st.integers(-50, 200), st.integers(0, 15),
                  st.sampled_from(["recorded", "current_drop", "other"]))


def seconds(events):
    return {t for e in events for t in range(e.start, e.end + 1)}


@st.composite
def fault_files(draw):
    """The events of one to three fault files: rows in any order, some of
    them repeated, with their own label or another."""
    files = []
    for _ in range(draw(st.integers(1, 3))):
        events = draw(st.lists(EVENT, max_size=8))
        if events:
            again = st.sampled_from(events).flatmap(
                lambda e: st.sampled_from([e, FaultEvent(e.start, e.end, "other")]))
            events += draw(st.lists(again, max_size=4))
        files.append(draw(st.permutations(events)))
    return files


def sorted_unique(events):
    """`events` sorted by (start, end), keeping the first of equal intervals."""
    kept = []
    for e in sorted(events, key=lambda e: (e.start, e.end)):
        if not kept or (e.start, e.end) != (kept[-1].start, kept[-1].end):
            kept.append(e)
    return kept


def current_series(values, start=0):
    values = np.asarray(values, dtype=np.float64)
    ts = np.arange(start, start + len(values), dtype=np.float64)
    return RawSeries("current", ts, values)


class TestParseFaultEvents:
    def test_start_only_row(self):
        events = faults.parse_fault_events("start\n100\n")
        assert events == [FaultEvent(100, 100, "recorded")]

    def test_empty_file(self):
        assert faults.parse_fault_events("start,end,label\n") == []

    # the parser keeps rows as the file has them; the ground truth that
    # merge_event_lists makes of them is the same as when it sorted them by
    # (start, end) and kept the first of equal intervals
    @settings(deadline=None)
    @given(files=fault_files(), values=st.lists(st.sampled_from([0.0, 90.0]), min_size=1,
                                                max_size=40),
           first=st.integers(-50, 200), gap=st.integers(0, 3))
    def test_merge_sorts_and_folds_what_the_parser_keeps(self, files, values, first, gap):
        lists = [faults.parse_fault_events(faults.format_fault_csv(events)) for events in files]
        assert lists == files
        drops = faults.detect_current_drops(current_series(values, first), 10.0)
        assert faults.merge_event_lists([*lists, drops], gap) == \
            faults.merge_event_lists([*map(sorted_unique, lists), drops], gap)

    def test_end_and_label_columns(self):
        events = faults.parse_fault_events("start,end,label\n50,60,current_drop\n")
        assert events == [FaultEvent(50, 60, "current_drop")]

    def test_end_before_start(self):
        with pytest.raises(RangeError, match="line 2"):
            faults.parse_fault_events("start,end\n100,90\n")

    def test_malformed_row(self):
        with pytest.raises(ParseError, match="line 3"):
            faults.parse_fault_events("start\n10\nxyz\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            faults.parse_fault_events("begin,end\n1,2\n")

    def test_round_trip(self):
        events = [FaultEvent(10, 20, "recorded"), FaultEvent(40, 40, "current_drop")]
        assert faults.parse_fault_events(faults.format_fault_csv(events)) == events

    def test_stamps_beyond_float_precision(self):
        events = faults.parse_fault_events("start,end\n9007199254740993,9007199254740995\n")
        assert events == [FaultEvent(2**53 + 1, 2**53 + 3, "recorded")]

    def test_float_forms_of_integer_stamps(self):
        events = faults.parse_fault_events("start,end\n1.0,2e0\n")
        assert events == [FaultEvent(1, 2, "recorded")]

    def test_blank_lines_skipped(self):
        events = faults.parse_fault_events("start\n100\n\n \t\n200\n")
        assert events == [FaultEvent(100, 100), FaultEvent(200, 200)]

    def test_fractional_stamp_rejected(self):
        with pytest.raises(ParseError, match="^line 2: malformed timestamp in '1.5'$"):
            faults.parse_fault_events("start\n1.5\n")

    # stamps across the int64 range, far beyond 2**53, where float() would round
    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 100), st.integers(0, 99),
                                   st.text(LABEL_CHARS, min_size=1, max_size=12))))
    def test_round_trip_property(self, rows):
        # in file order, duplicates included
        events = [FaultEvent(start, start + length, label) for start, length, label in rows]
        assert faults.parse_fault_events(faults.format_fault_csv(events)) == events

    def test_event_invariant(self):
        with pytest.raises(RangeError):
            FaultEvent(10, 5)


class TestDetectCurrentDrops:
    def test_single_run(self):
        events = faults.detect_current_drops(current_series([90, 90, 0, 0, 90]), 10.0)
        assert events == [FaultEvent(2, 3, "current_drop")]

    def test_all_above_threshold(self):
        assert faults.detect_current_drops(current_series([90, 80, 70]), 10.0) == []

    def test_run_open_at_end(self):
        events = faults.detect_current_drops(current_series([90, 0, 0]), 10.0)
        assert events == [FaultEvent(1, 2, "current_drop")]

    def test_empty_series(self):
        with pytest.raises(DataError):
            faults.detect_current_drops(current_series([]), 10.0)

    def test_nonpositive_threshold(self):
        with pytest.raises(ConfigError):
            faults.detect_current_drops(current_series([1.0]), 0.0)

    @pytest.mark.parametrize("stamps", [[0.0, 2.0], [0.5, 1.5, 2.5]])
    def test_non_1hz_rejected(self, stamps):
        # a gap, or a step of one second off the integral grid
        s = RawSeries("c", np.array(stamps), np.ones(len(stamps)))
        with pytest.raises(DataError):
            faults.detect_current_drops(s, 10.0)

    @given(values=st.lists(st.sampled_from([0.0, 9.999, 10.0, 90.0]), min_size=1, max_size=40),
           start=st.integers(-2**40, 2**40))
    def test_int64_stamps_give_the_events_of_their_float_copy(self, values, start):
        floats = current_series(values, start=start)
        ints = RawSeries("current", floats.timestamps.astype(np.int64), floats.values)
        assert faults.detect_current_drops(ints, 10.0) == \
            faults.detect_current_drops(floats, 10.0)

    @pytest.mark.parametrize("gap_at", [1, 3, 5])
    def test_int64_stamps_with_a_gap_rejected(self, gap_at):
        ts = np.arange(6, dtype=np.int64) + 1_600_000_000
        ts[gap_at:] += 1
        for stamps in (ts, ts.astype(np.float64)):
            with pytest.raises(DataError, match="^current series must be aligned at 1 Hz$"):
                faults.detect_current_drops(RawSeries("current", stamps, np.ones(6)), 10.0)

    def test_peaks_at_a_few_bytes_per_sample(self):
        n = 200_000
        values = np.full(n, 90.0)
        values[1000:1010] = values[150_000:150_100] = 0.0
        series = RawSeries("current", np.arange(n, dtype=np.int64), values)
        events, peak = traced_peak(lambda: faults.detect_current_drops(series, 10.0))
        assert events == [FaultEvent(1000, 1009, "current_drop"),
                          FaultEvent(150_000, 150_099, "current_drop")]
        assert peak < 4 * n, peak / n

    def test_threshold_is_strict(self):
        events = faults.detect_current_drops(current_series([10.0, 9.999, 10.0]), 10.0)
        assert events == [FaultEvent(1, 1, "current_drop")]

    def test_matches_per_second_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 60))
            start = int(rng.integers(0, 100))
            values = rng.choice([0.0, 5.0, 50.0, 90.0], size=n)
            series = current_series(values, start=start)
            threshold = float(rng.choice([1.0, 10.0, 60.0]))
            events = faults.detect_current_drops(series, threshold)
            # oracle: per-second membership
            flagged = set()
            for e in events:
                flagged |= set(range(e.start, e.end + 1))
            expected = {start + i for i in range(n) if values[i] < threshold}
            assert flagged == expected
            # disjoint and maximal: consecutive events separated by > 1 s
            for a, b in zip(events, events[1:]):
                assert b.start > a.end + 1

    @given(values=st.lists(st.sampled_from([0.0, 9.999, 10.0, 10.001, 90.0]), min_size=1,
                           max_size=80),
           start=st.integers(-10**6, 10**9))
    def test_matches_per_second_oracle_property(self, values, start):
        events = faults.detect_current_drops(current_series(values, start=start), 10.0)
        below = [start + i for i, v in enumerate(values) if v < 10.0]
        runs = []
        for t in below:
            if runs and runs[-1][1] == t - 1:
                runs[-1][1] = t
            else:
                runs.append([t, t])
        assert events == [FaultEvent(a, b, "current_drop") for a, b in runs]


class TestMergeEventLists:
    def test_disjoint_union_sorted(self):
        a = [FaultEvent(100, 105)]
        b = [FaultEvent(10, 12), FaultEvent(300, 300)]
        merged = faults.merge_event_lists([a, b])
        assert [(e.start, e.end) for e in merged] == [(10, 12), (100, 105), (300, 300)]

    def test_gap_coalescing(self):
        merged = faults.merge_event_lists(
            [[FaultEvent(100, 105)], [FaultEvent(107, 110)]], coalesce_gap=2)
        assert [(e.start, e.end) for e in merged] == [(100, 110)]

    def test_empty_list_is_identity(self):
        x = [FaultEvent(5, 6), FaultEvent(50, 51)]
        assert faults.merge_event_lists([[], x]) == x

    def test_overlap_always_merges(self):
        merged = faults.merge_event_lists(
            [[FaultEvent(10, 20)], [FaultEvent(15, 30), FaultEvent(18, 19)]])
        assert [(e.start, e.end) for e in merged] == [(10, 30)]

    def test_merged_event_keeps_earliest_source(self):
        merged = faults.merge_event_lists(
            [[FaultEvent(10, 12, "recorded")], [FaultEvent(11, 15, "current_drop")]])
        assert merged[0].source == "recorded"

    def test_idempotent(self, rng):
        for _ in range(20):
            events = []
            t = 0
            for _ in range(int(rng.integers(0, 8))):
                t += int(rng.integers(0, 20))
                end = t + int(rng.integers(0, 5))
                events.append(FaultEvent(t, end))
                t = end + 1
            gap = int(rng.integers(0, 4))
            merged = faults.merge_event_lists([events], gap)
            assert faults.merge_event_lists([merged, merged], gap) == merged

    @settings(deadline=None)
    @given(lists=st.lists(st.lists(EVENT, max_size=8), min_size=1, max_size=4),
           gap=st.integers(0, 6))
    def test_pairwise_separation_property(self, lists, gap):
        merged = faults.merge_event_lists(lists, gap)
        # sorted, and neighbours more than coalesce_gap apart
        for a, b in zip(merged, merged[1:]):
            assert b.start - a.end > gap
        # per-second coverage: the union, with holes between covered seconds
        # at most coalesce_gap apart filled in
        union = sorted(seconds(e for lst in lists for e in lst))
        expected = set(union)
        for s1, s2 in zip(union, union[1:]):
            if s2 - s1 <= gap:
                expected.update(range(s1 + 1, s2))
        assert seconds(merged) == expected
        # each input lies in one merged event, whose source is that of its
        # earliest contributor (by start, then end, then input order)
        pool = [e for lst in lists for e in lst]
        for e in pool:
            assert sum(m.start <= e.start and e.end <= m.end for m in merged) == 1
        for m in merged:
            members = [e for e in pool if m.start <= e.start and e.end <= m.end]
            first = min(members, key=lambda e: (e.start, e.end))
            assert (m.start, m.end) == (first.start, max(e.end for e in members))
            assert m.source == first.source

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigError):
            faults.merge_event_lists([[]], coalesce_gap=-1)

"""Tests for threshold calibration, anomaly flagging/merging, the
event-matching scorer, including the independent exhaustive matcher, and
the anomaly CSV, including its one-pass parse against the line loop."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwatch import detect
from beamwatch.detect import AnomalyPoint
from beamwatch.errors import (BeamwatchError, ConfigError, DataError, OrderError,
                              ParseError, ShapeError)
from beamwatch.faults import FaultEvent


class TestComputeThreshold:
    def test_constant_errors(self):
        thr = detect.compute_threshold(np.full(10, 0.75))
        assert thr.std == 0.0
        assert thr.value == 0.75

    def test_hand_computed(self):
        thr = detect.compute_threshold(np.array([1.0, 2.0, 3.0]))
        assert thr.mean == pytest.approx(2.0, abs=1e-15)
        assert thr.value == pytest.approx(2.0 + 3.0 * math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_no_flags_on_training_data_when_value_above_max(self, rng):
        errors = rng.uniform(0, 1, 200)
        thr = detect.compute_threshold(errors)
        if thr.value >= errors.max():
            flagged = detect.flag_anomalies(errors, np.arange(200), thr.value)
            assert columns(flagged) == ([], [])

    def test_value_identity_property(self, rng):
        for _ in range(50):
            errors = rng.uniform(0, 5, int(rng.integers(1, 40)))
            mult = float(rng.uniform(0.5, 4.0))
            thr = detect.compute_threshold(errors, multiplier=mult)
            assert thr.value == thr.mean + thr.multiplier * thr.std

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            detect.compute_threshold(np.array([]))

    def test_negative_errors_rejected(self):
        with pytest.raises(DataError):
            detect.compute_threshold(np.array([0.5, -0.1]))


class TestFlagAnomalies:
    def test_all_below_threshold(self):
        thr = detect.DetectorThreshold(mean=1.0, std=0.0)
        table = detect.flag_anomalies(np.array([0.1, 0.9]), np.array([5, 6]), thr.value)
        assert table.dtype == detect.ANOMALY_DTYPE and columns(table) == ([], [])

    def test_tie_not_flagged(self):
        thr = detect.DetectorThreshold(mean=1.0, std=0.0)
        assert columns(detect.flag_anomalies(np.array([1.0]), np.array([5]), thr.value)) == ([], [])
        assert columns(detect.flag_anomalies(np.array([1.0 + 1e-12]), np.array([5]),
                                             thr.value)) == \
            ([5], [(1.0 + 1e-12).hex()])

    def test_timestamp_is_window_end(self):
        # a window covering seconds 0..29 is flagged at second 29
        thr = detect.DetectorThreshold(mean=0.0, std=0.0)
        table = detect.flag_anomalies(np.array([2.0]), np.array([29]), thr.value)
        assert columns(table) == ([29], [(2.0).hex()])

    def test_accepts_plain_float_threshold(self):
        table = detect.flag_anomalies(np.array([0.5, 2.0]), np.array([1, 2]), 1.0)
        assert columns(table) == ([2], [(2.0).hex()])

    def test_matches_bruteforce_filter(self, rng):
        for _ in range(30):
            n = int(rng.integers(0, 50))
            errors = rng.uniform(0, 2, n)
            ts = np.cumsum(rng.integers(1, 5, n)) if n else np.array([], dtype=int)
            thr = detect.DetectorThreshold(float(rng.uniform(0, 2)), 0.0)
            got = detect.flag_anomalies(errors, ts, thr.value)
            hits = [i for i in range(n) if errors[i] > thr.value]
            assert got.dtype == detect.ANOMALY_DTYPE
            assert columns(got) == ([int(ts[i]) for i in hits],
                                    [float(errors[i]).hex() for i in hits])

    def test_scaling_invariance(self, rng):
        # power-of-two scaling is exact in floating point
        errors = rng.uniform(0, 1, 100)
        ts = np.arange(100)
        thr = detect.compute_threshold(errors)
        scaled_thr = detect.compute_threshold(errors * 2.0)
        assert scaled_thr.value == 2.0 * thr.value
        base = detect.flag_anomalies(errors, ts, thr.value)["timestamp"]
        scaled = detect.flag_anomalies(errors * 2.0, ts, scaled_thr.value)["timestamp"]
        assert base.tolist() == scaled.tolist()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            detect.flag_anomalies(np.zeros(3), np.zeros(4), 1.0)


class TestMergeConsecutiveAnomalies:
    def test_empty(self):
        events = detect.merge_consecutive_anomalies([], 2)
        assert events.dtype == detect.EVENT_DTYPE and len(events) == 0

    def test_gap_two_example(self):
        points = [AnomalyPoint(10, 1.0), AnomalyPoint(11, 3.0),
                  AnomalyPoint(12, 2.0), AnomalyPoint(30, 5.0)]
        events = detect.merge_consecutive_anomalies(points, max_gap=2)
        assert events.dtype == detect.EVENT_DTYPE
        assert events.tolist() == [(10, 12, 3.0), (30, 30, 5.0)]

    def test_gap_zero_merges_adjacent_only(self):
        points = [AnomalyPoint(1, 1.0), AnomalyPoint(2, 1.5), AnomalyPoint(4, 0.5)]
        events = detect.merge_consecutive_anomalies(points, max_gap=0)
        assert events.tolist() == [(1, 2, 1.5), (4, 4, 0.5)]

    def test_int64_extremes_stay_apart(self):
        # the gap between the two is beyond int64: it must not wrap to a merge
        points = [AnomalyPoint(int(INT64.min), 1.0), AnomalyPoint(int(INT64.max), 2.0)]
        assert detect.merge_consecutive_anomalies(points, 0).tolist() == \
            [(INT64.min, INT64.min, 1.0), (INT64.max, INT64.max, 2.0)]

    @pytest.mark.parametrize("stamps", [(5, 3), (1, 3, 2)])
    def test_unsorted_rejected(self, stamps):
        with pytest.raises(OrderError, match="^anomaly points must be sorted by timestamp$"):
            detect.merge_consecutive_anomalies([AnomalyPoint(t, 1.0) for t in stamps], 5)

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-100, 300),
                                   st.floats(0, 10, allow_nan=False)), max_size=40),
           gap=st.integers(0, 6))
    def test_properties_against_bruteforce(self, rows, gap):
        points = [AnomalyPoint(t, e) for t, e in sorted(rows, key=lambda r: r[0])]
        events = detect.merge_consecutive_anomalies(points, gap).tolist()
        for (_, a_end, _), (b_start, _, _) in zip(events, events[1:]):
            assert b_start - a_end - 1 > gap
        # per-second coverage: the points' seconds, with runs of at most
        # max_gap empty seconds between neighbouring points filled in
        stamps = sorted({p.timestamp for p in points})
        expected = set(stamps)
        for s1, s2 in zip(stamps, stamps[1:]):
            if s2 - s1 - 1 <= gap:
                expected.update(range(s1 + 1, s2))
        assert {t for start, end, _ in events for t in range(start, end + 1)} == expected
        # each point in one event; an event spans its points and peaks at their maximum
        for p in points:
            assert sum(start <= p.timestamp <= end for start, end, _ in events) == 1
        for start, end, peak in events:
            members = [p for p in points if start <= p.timestamp <= end]
            assert (start, end) == (members[0].timestamp, members[-1].timestamp)
            assert peak == max(p.error for p in members)

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigError):
            detect.merge_consecutive_anomalies([], -1)


def bruteforce_score(anomalies, faults, lead, mode, span):
    """Independent exhaustive matcher: nested loops and per-second sets."""
    intervals = [(a.timestamp, a.timestamp) for a in anomalies]
    match_of = {}
    for f in faults:
        hi = f.start if mode == "lead_only" else f.end
        match_of[f] = (f.start - lead, hi)
    detected = [f for f in faults
                if any(s <= match_of[f][1] and e >= match_of[f][0] for s, e in intervals)]
    matched = [iv for iv in intervals
               if any(iv[0] <= hi and iv[1] >= lo for lo, hi in match_of.values())]
    tp, fn = len(detected), len(faults) - len(detected)
    fp = len(intervals) - len(matched)
    pred_seconds = set()
    for s, e in intervals:
        pred_seconds |= set(range(s, e + 1))
    truth_seconds = set()
    for lo, hi in match_of.values():
        truth_seconds |= set(range(max(lo, span[0]), min(hi, span[1]) + 1))
    agree = sum(1 for s in range(span[0], span[1] + 1)
                if (s in pred_seconds) == (s in truth_seconds))
    accuracy = agree / (span[1] - span[0] + 1)
    return tp, fp, fn, len(matched), accuracy


def random_case(rng, trial):
    """Random unsorted anomaly points, sorted faults, lead window, mode and
    span for the scorer."""
    span = (0, int(rng.integers(50, 400)))
    n_faults = int(rng.integers(0, 21))
    n_anoms = int(rng.integers(0, 51))
    faults = []
    for _ in range(n_faults):
        s = int(rng.integers(span[0], span[1] + 1))
        faults.append(FaultEvent(s, min(span[1], s + int(rng.integers(0, 20)))))
    faults.sort(key=lambda f: (f.start, f.end))
    anoms = [AnomalyPoint(int(rng.integers(span[0], span[1] + 1)),
                          float(rng.uniform(0, 3))) for _ in range(n_anoms)]
    lead = int(rng.integers(0, 15))
    mode = "lead_only" if trial % 2 == 0 else "lead_plus_duration"
    return anoms, faults, lead, mode, span


class TestScoreDetections:
    def test_lead_window_match(self):
        report = detect.score_detections([AnomalyPoint(95, 2.0)], [FaultEvent(100, 100)],
                                         lead_window=10, mode="lead_only",
                                         frame_span=(0, 200))
        assert report.true_positives == 1
        assert report.false_negatives == 0
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.matched_faults == [[100, 100]]

    def test_anomaly_after_fault_is_fp_in_lead_only(self):
        report = detect.score_detections([AnomalyPoint(111, 2.0)], [FaultEvent(100, 105)],
                                         lead_window=10, mode="lead_only",
                                         frame_span=(0, 200))
        assert report.false_positives == 1
        assert report.true_positives == 0
        assert report.recall == 0.0

    def test_during_fault_matches_in_duration_mode(self):
        report = detect.score_detections([AnomalyPoint(103, 2.0)], [FaultEvent(100, 105)],
                                         lead_window=10, mode="lead_plus_duration",
                                         frame_span=(0, 200))
        assert report.true_positives == 1 and report.false_positives == 0

    def test_no_anomalies_one_fault(self):
        report = detect.score_detections([], [FaultEvent(100, 100)],
                                         lead_window=10, mode="lead_only",
                                         frame_span=(0, 200))
        assert report.recall == 0.0
        assert report.precision == 0.0
        assert report.false_negatives == 1
        assert report.f1 == 0.0

    def test_vacuous_case(self):
        report = detect.score_detections([], [], 10, "lead_only", (0, 10))
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.accuracy == 1.0

    def test_accuracy_by_hand(self):
        # span 0..9; fault at 5 with lead 1 -> truth seconds {4, 5};
        # anomaly at 4 -> pred {4}; agreement on all but second 5
        report = detect.score_detections([AnomalyPoint(4, 1.0)], [FaultEvent(5, 5)],
                                         lead_window=1, mode="lead_only",
                                         frame_span=(0, 9))
        assert report.accuracy == pytest.approx(0.9)

    @pytest.mark.parametrize("mode", detect.SCORING_MODES)
    def test_lead_beyond_int64_scores_as_the_span_length(self, mode):
        # any lead of at least the span's 100 s reaches back to its first second
        span, faults = (100, 199), [FaultEvent(150, 160), FaultEvent(190, 250)]
        anomalies = [AnomalyPoint(101, 1.0), AnomalyPoint(185, 1.0)]
        report = detect.score_detections(anomalies, faults, 10**20, mode, span)
        assert report.lead_window == 10**20 and report.true_positives == 2
        assert replace(report, lead_window=100) == \
            detect.score_detections(anomalies, faults, 100, mode, span)

    def test_matches_exhaustive_matcher(self, rng):
        for trial in range(120):
            anoms, faults, lead, mode, span = random_case(rng, trial)
            report = detect.score_detections(anoms, faults, lead, mode, span)
            tp, fp, fn, matched, acc = bruteforce_score(anoms, faults, lead, mode, span)
            assert (report.true_positives, report.false_positives,
                    report.false_negatives, report.matched_anomalies) == (tp, fp, fn, matched)
            assert report.accuracy == pytest.approx(acc, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), span_len=st.integers(1, 300), lead=st.integers(0, 40),
           mode=st.sampled_from(detect.SCORING_MODES))
    def test_matches_exhaustive_matcher_property(self, data, span_len, lead, mode):
        span = (1000, 1000 + span_len - 1)
        second = st.integers(*span)
        faults = []
        for start in data.draw(st.lists(second, max_size=12)):
            end = data.draw(st.integers(start, min(span[1], start + 30)))
            faults.append(FaultEvent(start, end))
        faults.sort()
        stamps = sorted(data.draw(st.sets(second, max_size=60)))
        anomalies = [AnomalyPoint(t, 1.0) for t in stamps]
        report = detect.score_detections(anomalies, faults, lead, mode, span)
        tp, fp, fn, matched, acc = bruteforce_score(anomalies, faults, lead, mode, span)
        assert (report.true_positives, report.false_positives,
                report.false_negatives, report.matched_anomalies) == (tp, fp, fn, matched)
        assert report.accuracy == acc
        last = (lambda f: f.start) if mode == "lead_only" else (lambda f: f.end)
        assert report.matched_faults == [
            [f.start, f.end] for f in faults
            if set(stamps) & set(range(f.start - lead, last(f) + 1))]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), span_len=st.integers(1, 120), lead=st.integers(0, 40),
           mode=st.sampled_from(detect.SCORING_MODES))
    def test_faults_are_clipped_to_the_span(self, data, span_len, lead, mode):
        # faults inside the span, straddling either end, around it or wholly
        # outside it score as the hand-clipped parts that overlap it
        span = (1000, 1000 + span_len - 1)
        faults = []
        for start in data.draw(st.lists(st.integers(span[0] - 80, span[1] + 80), max_size=12)):
            faults.append(FaultEvent(start, data.draw(st.integers(start, start + 200))))
        stamps = sorted(data.draw(st.sets(st.integers(*span), max_size=60)))
        anomalies = [AnomalyPoint(t, 1.0) for t in stamps]
        clipped = [FaultEvent(max(f.start, span[0]), min(f.end, span[1]))
                   for f in faults if f.end >= span[0] and f.start <= span[1]]
        report = detect.score_detections(anomalies, faults, lead, mode, span)
        assert report == detect.score_detections(anomalies, clipped, lead, mode, span)
        tp, fp, fn, matched, acc = bruteforce_score(anomalies, clipped, lead, mode, span)
        assert (report.total_faults, report.true_positives, report.false_positives,
                report.false_negatives, report.matched_anomalies) == \
            (len(clipped), tp, fp, fn, matched)
        assert report.accuracy == acc
        assert report.frame_span == list(span)
        assert (report.mode, report.lead_window) == (mode, lead)

    def test_table_scores_like_points(self, rng):
        for trial in range(120):
            anoms, faults, lead, mode, span = random_case(rng, trial)
            table = detect.parse_anomaly_csv(detect.format_anomaly_csv(anoms))
            assert detect.score_detections(table, faults, lead, mode, span) == \
                detect.score_detections(anoms, faults, lead, mode, span)

    def test_span_error_names_first_row_in_file_order(self):
        table = detect.parse_anomaly_csv("timestamp,error\n5,1.0\n50,1.0\n-3,1.0\n11,1.0\n")
        for anomalies in (table, [AnomalyPoint(int(t), float(e)) for t, e in table.tolist()]):
            with pytest.raises(DataError, match=r"^anomaly \[50, 50\] outside frame span$"):
                detect.score_detections(anomalies, [], 10, "lead_only", (0, 10))

    def test_benchmark_counts_read_the_table(self):
        # The benchmark counts len() of the flag and parse results as its
        # flagged and parsed rows and of `anomalies` in score_detections'
        # pairs; each must be the row count. Its rescore set-up writes the
        # CSV from a generator of AnomalyPoints, and its tests score a list.
        errors = np.array([0.5, 0.1, 0.5, 0.5, 0.1, 0.5, 0.5])
        flagged = detect.flag_anomalies(errors, np.array([3, 4, 9, 11, 15, 20, 21]), 0.25)
        assert len(flagged) == 5
        rows = [(t, 0.5) for t in (3, 9, 11, 20, 21)]
        text = detect.format_anomaly_csv(AnomalyPoint(t, e) for t, e in rows)
        assert text == "timestamp,error\n3,0.5\n9,0.5\n11,0.5\n20,0.5\n21,0.5\n"
        assert text == detect.format_anomaly_csv(flagged)
        table = detect.parse_anomaly_csv(text)
        assert len(table) == len(rows)
        report = detect.score_detections(table, [FaultEvent(10, 12)], 10, "lead_only", (0, 30))
        assert report.total_anomalies == len(table)
        points = [AnomalyPoint(t, e) for t, e in rows]
        assert report == detect.score_detections(points, [FaultEvent(10, 12)], 10,
                                                 "lead_only", (0, 30))

    def test_validation(self):
        with pytest.raises(ConfigError):
            detect.score_detections([], [], -1, "lead_only", (0, 1))
        with pytest.raises(ConfigError):
            detect.score_detections([], [], 10, "bogus", (0, 1))
        with pytest.raises(DataError):
            detect.score_detections([], [], 10, "lead_only", (5, 4))
        with pytest.raises(DataError):
            detect.score_detections([AnomalyPoint(50, 1.0)], [], 10, "lead_only", (0, 10))
        # a fault wholly outside the span is ground truth for other seconds,
        # even one whose stamps int64 cannot hold
        assert detect.score_detections([], [FaultEvent(50, 50), FaultEvent(2**64, 2**64)],
                                       10, "lead_only", (0, 10)).total_faults == 0


def anomaly_outcome(parse, text):
    """What an anomaly parser makes of `text`: the table's dtype and bytes,
    or the error's type and message."""
    try:
        table = parse(text)
    except BeamwatchError as exc:
        return type(exc), str(exc)
    return table.dtype, table.tobytes()


def columns(table):
    """A table's stamps and its errors' bits (float.hex keeps the sign of -0.0)."""
    return table["timestamp"].tolist(), [e.hex() for e in table["error"].tolist()]


INT64 = np.iinfo(np.int64)
stamps64 = st.integers(int(INT64.min), int(INT64.max))
finite = st.floats(allow_nan=False, allow_infinity=False)


class TestAnomalyCsv:
    def test_round_trip(self):
        points = [AnomalyPoint(10, 0.5), AnomalyPoint(42, 1.2345678901234567)]
        table = detect.parse_anomaly_csv(detect.format_anomaly_csv(points))
        assert table.dtype == detect.ANOMALY_DTYPE
        assert columns(table) == ([10, 42], [(0.5).hex(), (1.2345678901234567).hex()])

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(stamps64, finite)))
    def test_round_trip_property(self, rows):
        points = [AnomalyPoint(t, e) for t, e in rows]
        text = detect.format_anomaly_csv(points)
        back = detect.parse_anomaly_csv(text)
        assert columns(back) == ([t for t, _ in rows], [e.hex() for _, e in rows])
        # the table is written back byte for byte
        assert detect.format_anomaly_csv(back) == text

    def test_empty(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body with no rows
            for text in ("timestamp,error\n", b"timestamp,error\n", "timestamp,error"):
                table = detect.parse_anomaly_csv(text)
                assert table.dtype == detect.ANOMALY_DTYPE and len(table) == 0

    def test_malformed(self):
        with pytest.raises(ParseError, match="line 2"):
            detect.parse_anomaly_csv("timestamp,error\nx,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            detect.parse_anomaly_csv("bogus\n")

    @pytest.mark.parametrize("stamp", ["99999999999999999999", str(2**63), str(-2**63 - 1)])
    def test_stamp_beyond_int64_rejected(self, stamp):
        text = f"timestamp,error\n1,0.5\n{stamp},0.5\n"
        for source in (text, text.encode()):
            with pytest.raises(ParseError, match=f"^line 3: timestamp outside int64 in '{stamp},0.5'$"):
                detect.parse_anomaly_csv(source)

    def test_int64_bounds_accepted(self):
        text = f"timestamp,error\n{INT64.min},0.5\n{INT64.max},1.5\n"
        assert columns(detect.parse_anomaly_csv(text))[0] == [INT64.min, INT64.max]
        assert anomaly_outcome(detect.parse_anomaly_csv, text) == \
            anomaly_outcome(detect._parse_anomaly_lines, text)

    def test_event_csv_format(self):
        events = np.array([(1, 5, 2.5), (7, 7, -0.0)], dtype=detect.EVENT_DTYPE)
        assert detect.format_event_csv(events) == "start,end,peak_error\n1,5,2.5\n7,7,-0.0\n"

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-2**62, 2**62), finite)))
    def test_numpy_scalars_round_trip(self, rows):
        # numpy >= 2 reprs a float64 as `np.float64(0.5)`; the writer must not
        points = [AnomalyPoint(np.int64(t), np.float64(e)) for t, e in rows]
        text = detect.format_anomaly_csv(points)
        assert text == detect.format_anomaly_csv([AnomalyPoint(t, e) for t, e in rows])
        assert columns(detect.parse_anomaly_csv(text)) == \
            ([t for t, _ in rows], [float(e).hex() for _, e in rows])

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(stamps64, st.floats(0, allow_infinity=False))),
           threshold=st.floats(0, 1e300))
    def test_flagged_table_round_trip(self, rows, threshold):
        stamps = np.array([t for t, _ in rows], dtype=np.int64)
        errors = np.array([e for _, e in rows], dtype=np.float64)
        table = detect.flag_anomalies(errors, stamps, threshold)
        text = detect.format_anomaly_csv(table)
        back = detect.parse_anomaly_csv(text)
        assert back.dtype == table.dtype and back.tobytes() == table.tobytes()
        # the text of the per-row writer that detect used before the table
        assert text == "".join([f"{detect.ANOMALY_CSV_HEADER}\n"] + [
            f"{int(t)},{float(e)!r}\n" for t, e in zip(stamps, errors) if e > threshold])

    def test_numpy_scalar_rows(self):
        assert detect.format_anomaly_csv([AnomalyPoint(3, np.float64(0.5))]) == \
            "timestamp,error\n3,0.5\n"

    def test_parses_bytes_like_text(self):
        text = "timestamp,error\r\n10,0.5\r\n\r\n42,1.25\n"
        assert anomaly_outcome(detect.parse_anomaly_csv, text.encode()) == \
            anomaly_outcome(detect.parse_anomaly_csv, text)
        with pytest.raises(UnicodeDecodeError):
            detect.parse_anomaly_csv(b"timestamp,error\n1,\xff\n")


# Ways to write an int64 stamp and a double that Python's int() and float()
# read back exactly.
STAMP_FORMATS = [str, "{:+d}".format, "{:05d}".format, lambda t: f" {t}\t"]
ERROR_FORMATS = [repr, "{:.17g}".format, "{:+.16e}".format, "{:.16E}".format,
                 lambda x: f" {x!r}\t"]


@st.composite
def anomaly_texts(draw, plain=False):
    """A valid anomaly CSV: int64 stamps (any order) and finite errors over
    the whole double range. Unless `plain`, line endings are mixed and blank
    or whitespace-only lines sit between rows."""
    rows = draw(st.lists(st.tuples(st.one_of(stamps64, st.integers(-10**6, 10**10)), finite),
                         max_size=25))
    eol = st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"])
    blanks = st.lists(st.sampled_from(["", " ", "\t "]), max_size=0 if plain else 2)
    parts = [detect.ANOMALY_CSV_HEADER, draw(eol)]
    for t, e in rows:
        for blank in draw(blanks):
            parts += [blank, draw(eol)]
        parts += [f"{draw(st.sampled_from(STAMP_FORMATS))(t)},"
                  f"{draw(st.sampled_from(ERROR_FORMATS))(e)}", draw(eol)]
    if rows and draw(st.booleans()):
        parts.pop()
    return "".join(parts)


@st.composite
def mangled_anomaly_texts(draw):
    """An anomaly CSV with a few characters of its body inserted or
    overwritten: mostly number syntax, separators and line breaks, which the
    one-pass parse may still accept (a digit more can push a stamp past
    int64, a point or exponent makes it a float), and sometimes other text."""
    text = draw(st.one_of(anomaly_texts(plain=True), anomaly_texts()))
    junk = st.one_of(
        st.sampled_from("0123456789 \t"),
        st.text(alphabet="0123456789.,+-eE \t\r\n", min_size=1, max_size=3),
        st.text(alphabet="_xinfa#\"\x00\x0b\x0c\x1c\x1e\x85\u2028\u0661",
                min_size=1, max_size=2))
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(len(detect.ANOMALY_CSV_HEADER) + 1, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(junk) + text[at + cut:]
    return text


class TestParseAnomalyBulk:
    """The one-pass parse against the line loop it falls back to."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(anomaly_texts(plain=True), anomaly_texts()))
    def test_valid_text_bitwise_equal(self, text):
        want = anomaly_outcome(detect._parse_anomaly_lines, text)
        assert want[0] == detect.ANOMALY_DTYPE, want
        assert anomaly_outcome(detect.parse_anomaly_csv, text) == want
        assert anomaly_outcome(detect.parse_anomaly_csv, text.encode()) == want

    @settings(max_examples=500, deadline=None)
    @given(mangled_anomaly_texts())
    def test_mangled_text_same_outcome(self, text):
        want = anomaly_outcome(detect._parse_anomaly_lines, text)
        assert anomaly_outcome(detect.parse_anomaly_csv, text) == want
        assert anomaly_outcome(detect.parse_anomaly_csv, text.encode("utf-8")) == want

    @pytest.mark.parametrize("text", [
        "timestamp,error\n1.0,0.5\n",
        "timestamp,error\n1e3,0.5\n",
        "timestamp,error\n1.,0.5\n",
        "timestamp,error\n+5,0.5\n",
        "timestamp,error\n 5\t,\t0.5 \n",
        "timestamp,error\n0005,0.5\n",
        "timestamp,error\n-0,-0.0\n",
        "timestamp,error\n1_000,0.5\n",
        "timestamp,error\n\u0661,0.5\n",
        "timestamp,error\n5,1e400\n",
        "timestamp,error\n5,nan\n",
        "timestamp,error\n5,0.5,1\n",
        "timestamp,error\n5\n",
        "timestamp,error\n,0.5\n",
        "timestamp,error\n5,\n",
        "timestamp,error\n5,0.5\n   \n6,0.5\n",
        "timestamp,error\r5,0.5\r6,0.5\r",
        "timestamp,error\n5,0.5\x0c6,0.5\n",
        "timestamp,error\n99999999999999999999,0.5\n",
        "timestamp,error\n99999999999999999999,inf\n",
        "timestamp,error\n\n\n",
        "timestamp,error\n",
        " timestamp,error \n5,0.5\n",
        "timestamp,errors\n5,0.5\n",
        "",
    ])
    def test_edge_cases_same_outcome(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body with no rows
            got = anomaly_outcome(detect.parse_anomaly_csv, text)
        assert got == anomaly_outcome(detect._parse_anomaly_lines, text)

    def test_detect_output_skips_line_loop(self, monkeypatch):
        points = [AnomalyPoint(INT64.min, -0.0), AnomalyPoint(7, 5e-324),
                  AnomalyPoint(8, 1.7976931348623157e308), AnomalyPoint(INT64.max, -2.5)]
        text = detect.format_anomaly_csv(points)
        want = anomaly_outcome(detect.parse_anomaly_csv, text)
        assert want == anomaly_outcome(detect._parse_anomaly_lines, text)
        monkeypatch.setattr(detect, "_parse_anomaly_lines", None)
        assert anomaly_outcome(detect.parse_anomaly_csv, text) == want
        assert anomaly_outcome(detect.parse_anomaly_csv, text.encode()) == want

    def test_loadtxt_warning_sends_file_to_line_loop(self, monkeypatch):
        # an older numpy may read "1.0" into an int field and only warn
        text = "timestamp,error\n1,0.5\n2,0.25\n"
        load, lines = np.loadtxt, detect._parse_anomaly_lines
        seen = []

        def warning_load(*args, **kwargs):
            warnings.warn("a float read as an int", DeprecationWarning)
            return load(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_load)
        monkeypatch.setattr(detect, "_parse_anomaly_lines",
                            lambda text: seen.append(text) or lines(text))
        assert anomaly_outcome(detect.parse_anomaly_csv, text) == \
            anomaly_outcome(lines, text)
        assert seen == [text]

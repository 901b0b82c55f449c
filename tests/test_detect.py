"""Tests for threshold calibration, anomaly flagging/merging, and the
event-matching scorer, including the independent exhaustive matcher."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwatch import detect
from beamwatch.detect import AnomalyEvent, AnomalyPoint
from beamwatch.errors import ConfigError, DataError, OrderError, ParseError, ShapeError
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
            flagged = detect.flag_anomalies(errors, np.arange(200), thr)
            assert flagged == []

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
        assert detect.flag_anomalies(np.array([0.1, 0.9]), np.array([5, 6]), thr) == []

    def test_tie_not_flagged(self):
        thr = detect.DetectorThreshold(mean=1.0, std=0.0)
        assert detect.flag_anomalies(np.array([1.0]), np.array([5]), thr) == []
        assert detect.flag_anomalies(np.array([1.0 + 1e-12]), np.array([5]), thr) != []

    def test_timestamp_is_window_end(self):
        # a window covering seconds 0..29 is flagged at second 29
        thr = detect.DetectorThreshold(mean=0.0, std=0.0)
        points = detect.flag_anomalies(np.array([2.0]), np.array([29]), thr)
        assert points == [AnomalyPoint(29, 2.0)]

    def test_accepts_plain_float_threshold(self):
        points = detect.flag_anomalies(np.array([0.5, 2.0]), np.array([1, 2]), 1.0)
        assert points == [AnomalyPoint(2, 2.0)]

    def test_matches_bruteforce_filter(self, rng):
        for _ in range(30):
            n = int(rng.integers(0, 50))
            errors = rng.uniform(0, 2, n)
            ts = np.cumsum(rng.integers(1, 5, n)) if n else np.array([], dtype=int)
            thr = detect.DetectorThreshold(float(rng.uniform(0, 2)), 0.0)
            got = detect.flag_anomalies(errors, ts, thr)
            expected = [AnomalyPoint(int(ts[i]), float(errors[i]))
                        for i in range(n) if errors[i] > thr.value]
            assert got == expected

    def test_scaling_invariance(self, rng):
        # power-of-two scaling is exact in floating point
        errors = rng.uniform(0, 1, 100)
        ts = np.arange(100)
        thr = detect.compute_threshold(errors)
        scaled_thr = detect.compute_threshold(errors * 2.0)
        assert scaled_thr.value == 2.0 * thr.value
        base = [p.timestamp for p in detect.flag_anomalies(errors, ts, thr)]
        scaled = [p.timestamp for p in detect.flag_anomalies(errors * 2.0, ts, scaled_thr)]
        assert base == scaled

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            detect.flag_anomalies(np.zeros(3), np.zeros(4), 1.0)


class TestMergeConsecutiveAnomalies:
    def test_empty(self):
        assert detect.merge_consecutive_anomalies([], 2) == []

    def test_gap_two_example(self):
        points = [AnomalyPoint(10, 1.0), AnomalyPoint(11, 3.0),
                  AnomalyPoint(12, 2.0), AnomalyPoint(30, 5.0)]
        events = detect.merge_consecutive_anomalies(points, max_gap=2)
        assert events == [AnomalyEvent(10, 12, 3.0), AnomalyEvent(30, 30, 5.0)]

    def test_gap_zero_merges_adjacent_only(self):
        points = [AnomalyPoint(1, 1.0), AnomalyPoint(2, 1.5), AnomalyPoint(4, 0.5)]
        events = detect.merge_consecutive_anomalies(points, max_gap=0)
        assert events == [AnomalyEvent(1, 2, 1.5), AnomalyEvent(4, 4, 0.5)]

    def test_unsorted_rejected(self):
        with pytest.raises(OrderError):
            detect.merge_consecutive_anomalies(
                [AnomalyPoint(5, 1.0), AnomalyPoint(3, 1.0)], 1)

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-100, 300),
                                   st.floats(0, 10, allow_nan=False)), max_size=40),
           gap=st.integers(0, 6))
    def test_properties_against_bruteforce(self, rows, gap):
        points = [AnomalyPoint(t, e) for t, e in sorted(rows, key=lambda r: r[0])]
        events = detect.merge_consecutive_anomalies(points, gap)
        for a, b in zip(events, events[1:]):
            assert b.start - a.end - 1 > gap
        # per-second coverage: the points' seconds, with runs of at most
        # max_gap empty seconds between neighbouring points filled in
        stamps = sorted({p.timestamp for p in points})
        expected = set(stamps)
        for s1, s2 in zip(stamps, stamps[1:]):
            if s2 - s1 - 1 <= gap:
                expected.update(range(s1 + 1, s2))
        assert {t for e in events for t in range(e.start, e.end + 1)} == expected
        # each point in one event; an event spans its points and peaks at their maximum
        for p in points:
            assert sum(e.start <= p.timestamp <= e.end for e in events) == 1
        for e in events:
            members = [p for p in points if e.start <= p.timestamp <= e.end]
            assert (e.start, e.end) == (members[0].timestamp, members[-1].timestamp)
            assert e.peak_error == max(p.error for p in members)

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigError):
            detect.merge_consecutive_anomalies([], -1)


def bruteforce_score(anomalies, faults, lead, mode, span):
    """Independent exhaustive matcher: nested loops and per-second sets."""
    intervals = []
    for a in anomalies:
        if isinstance(a, AnomalyPoint):
            intervals.append((a.timestamp, a.timestamp))
        else:
            intervals.append((a.start, a.end))
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


class TestScoreDetections:
    def test_lead_window_match(self):
        report = detect.score_detections([AnomalyPoint(95, 2.0)], [FaultEvent(100, 100)],
                                         lead_window=10, mode="lead_only",
                                         frame_span=(0, 200))
        assert report.true_positives == 1
        assert report.false_negatives == 0
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.matched_faults == (FaultEvent(100, 100),)

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
        report = detect.score_detections([], [], frame_span=(0, 10))
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.accuracy == 1.0

    def test_accuracy_by_hand(self):
        # span 0..9; fault at 5 with lead 1 -> truth seconds {4, 5};
        # anomaly at 4 -> pred {4}; agreement on all but second 5
        report = detect.score_detections([AnomalyPoint(4, 1.0)], [FaultEvent(5, 5)],
                                         lead_window=1, mode="lead_only",
                                         frame_span=(0, 9))
        assert report.accuracy == pytest.approx(0.9)

    def test_merged_events_as_input(self):
        events = [AnomalyEvent(90, 96, 2.0)]
        report = detect.score_detections(events, [FaultEvent(100, 100)],
                                         lead_window=10, mode="lead_only",
                                         frame_span=(0, 200))
        assert report.true_positives == 1

    def test_matches_exhaustive_matcher(self, rng):
        for trial in range(120):
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
            report = detect.score_detections(anoms, faults, lead, mode, span)
            tp, fp, fn, matched, acc = bruteforce_score(anoms, faults, lead, mode, span)
            assert (report.true_positives, report.false_positives,
                    report.false_negatives, report.matched_anomalies) == (tp, fp, fn, matched)
            assert report.accuracy == pytest.approx(acc, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), span_len=st.integers(1, 300), lead=st.integers(0, 40),
           mode=st.sampled_from(detect.SCORING_MODES), merge_gap=st.none() | st.integers(0, 6))
    def test_matches_exhaustive_matcher_property(self, data, span_len, lead, mode, merge_gap):
        span = (1000, 1000 + span_len - 1)
        second = st.integers(*span)
        faults = []
        for start in data.draw(st.lists(second, max_size=12)):
            end = data.draw(st.integers(start, min(span[1], start + 30)))
            faults.append(FaultEvent(start, end))
        faults.sort()
        stamps = sorted(data.draw(st.sets(second, max_size=60)))
        anomalies = [AnomalyPoint(t, 1.0) for t in stamps]
        if merge_gap is not None:
            anomalies = detect.merge_consecutive_anomalies(anomalies, merge_gap)
        report = detect.score_detections(anomalies, faults, lead, mode, span)
        tp, fp, fn, matched, acc = bruteforce_score(anomalies, faults, lead, mode, span)
        assert (report.true_positives, report.false_positives,
                report.false_negatives, report.matched_anomalies) == (tp, fp, fn, matched)
        assert report.accuracy == acc
        if merge_gap is None:
            covered = set(stamps)
        else:
            covered = {t for e in anomalies for t in range(e.start, e.end + 1)}
        last = (lambda f: f.start) if mode == "lead_only" else (lambda f: f.end)
        assert report.matched_faults == tuple(
            f for f in faults if covered & set(range(f.start - lead, last(f) + 1)))

    def test_validation(self):
        with pytest.raises(ConfigError):
            detect.score_detections([], [], lead_window=-1, frame_span=(0, 1))
        with pytest.raises(ConfigError):
            detect.score_detections([], [], mode="bogus", frame_span=(0, 1))
        with pytest.raises(DataError):
            detect.score_detections([], [], frame_span=(5, 4))
        with pytest.raises(DataError):
            detect.score_detections([AnomalyPoint(50, 1.0)], [], frame_span=(0, 10))
        with pytest.raises(DataError):
            detect.score_detections([], [FaultEvent(50, 50)], frame_span=(0, 10))


class TestAnomalyCsv:
    def test_round_trip(self):
        points = [AnomalyPoint(10, 0.5), AnomalyPoint(42, 1.2345678901234567)]
        text = detect.format_anomaly_csv(points)
        assert detect.parse_anomaly_csv(text) == points

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-2**70, 2**70),
                                   st.floats(allow_nan=False, allow_infinity=False))))
    def test_round_trip_property(self, rows):
        points = [AnomalyPoint(t, e) for t, e in rows]
        back = detect.parse_anomaly_csv(detect.format_anomaly_csv(points))
        assert [p.timestamp for p in back] == [p.timestamp for p in points]
        # bitwise: float.hex keeps every bit, the sign of -0.0 included
        assert [p.error.hex() for p in back] == [p.error.hex() for p in points]

    def test_empty(self):
        assert detect.parse_anomaly_csv("timestamp,error\n") == []

    def test_malformed(self):
        with pytest.raises(ParseError, match="line 2"):
            detect.parse_anomaly_csv("timestamp,error\nx,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            detect.parse_anomaly_csv("bogus\n")

    def test_event_csv_format(self):
        text = detect.format_event_csv([AnomalyEvent(1, 5, 2.5)])
        assert text == "start,end,peak_error\n1,5,2.5\n"

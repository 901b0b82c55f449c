"""Threshold calibration, anomaly flagging, consecutive-anomaly merging, and
event-based scoring against fault ground truth.

A fault counts as detected when at least one anomaly falls inside its match
interval: the `lead_window` seconds before the fault start (mode
"lead_only"), optionally extended through the fault itself (mode
"lead_plus_duration"). Precision is anomaly-based, recall is fault-based,
and accuracy is per-second agreement over the evaluated span.

Anomalies travel as one table of `ANOMALY_DTYPE` rows: `flag_anomalies`
builds it, `format_anomaly_csv` writes it and `parse_anomaly_csv` reads it
back, a plain file in one `loadtxt` pass and any other through the line
loop. `score_detections` counts everything from two per-second masks over
the evaluated span, so a plain file reaches the report with no per-row
Python object. Merged `AnomalyEvent`s are only written, to the event CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import plain_csv_table
from .errors import ConfigError, DataError, OrderError, ParseError, ShapeError
from .faults import FaultEvent
from .ioutil import as_text

SCORING_MODES = ("lead_only", "lead_plus_duration")

ANOMALY_CSV_HEADER = "timestamp,error"
EVENT_CSV_HEADER = "start,end,peak_error"

# One row of an anomaly CSV, as `parse_anomaly_csv` returns it.
ANOMALY_DTYPE = np.dtype([("timestamp", "<i8"), ("error", "<f8")])


@dataclass(frozen=True)
class DetectorThreshold:
    """Reconstruction-error threshold mean + multiplier * std."""

    mean: float
    std: float
    multiplier: float = 3.0

    def __post_init__(self):
        if self.std < 0:
            raise ConfigError(f"threshold std must be >= 0, got {self.std}")

    @property
    def value(self) -> float:
        return self.mean + self.multiplier * self.std


class AnomalyPoint(NamedTuple):
    """A single flagged window: its last-row epoch second and its error; one
    row of an anomaly table, for callers that build anomalies by hand."""

    timestamp: int
    error: float


@dataclass(frozen=True)
class AnomalyEvent:
    """A merged run of anomaly points, inclusive interval with peak error."""

    start: int
    end: int
    peak_error: float

    def __post_init__(self):
        if self.end < self.start:
            raise OrderError(f"anomaly event end {self.end} before start {self.start}")


@dataclass(frozen=True)
class EvalReport:
    """Event-matching counts and the derived metrics."""

    true_positives: int       # faults with at least one matching anomaly
    false_positives: int      # anomalies matching no fault
    false_negatives: int      # faults with no matching anomaly
    matched_anomalies: int    # anomalies matching at least one fault
    total_faults: int
    total_anomalies: int
    precision: float
    recall: float
    accuracy: float
    f1: float
    matched_faults: tuple[FaultEvent, ...]


def compute_threshold(training_errors: np.ndarray, multiplier: float = 3.0) -> DetectorThreshold:
    """Calibrate the threshold from training reconstruction errors."""
    errors = np.asarray(training_errors, dtype=np.float64)
    if errors.size == 0:
        raise DataError("cannot calibrate a threshold from zero errors")
    if not np.all(np.isfinite(errors)) or np.any(errors < 0):
        raise DataError("training errors must be finite and nonnegative")
    return DetectorThreshold(mean=float(errors.mean()),
                             std=float(errors.std()),
                             multiplier=multiplier)


def flag_anomalies(errors: np.ndarray,
                   end_timestamps: np.ndarray,
                   threshold: DetectorThreshold | float) -> np.ndarray:
    """The `ANOMALY_DTYPE` table of the windows whose error strictly exceeds
    the threshold value, stamped with the window's last-row epoch second."""
    errors = np.asarray(errors, dtype=np.float64)
    end_timestamps = np.asarray(end_timestamps)
    if errors.shape != end_timestamps.shape:
        raise ShapeError(
            f"errors shape {errors.shape} != timestamps shape {end_timestamps.shape}"
        )
    value = threshold.value if isinstance(threshold, DetectorThreshold) else float(threshold)
    hits = errors > value
    table = np.empty(np.count_nonzero(hits), dtype=ANOMALY_DTYPE)
    table["timestamp"] = end_timestamps[hits]
    table["error"] = errors[hits]
    return table


def _anomaly_table(anomalies: np.ndarray | Iterable[AnomalyPoint]) -> np.ndarray:
    """`anomalies` as an `ANOMALY_DTYPE` table: a table itself, or the rows
    of an iterable of AnomalyPoints."""
    if isinstance(anomalies, np.ndarray):
        return anomalies
    return np.fromiter(anomalies, dtype=ANOMALY_DTYPE)


def merge_consecutive_anomalies(points: np.ndarray | Iterable[AnomalyPoint],
                                max_gap: int = 0) -> list[AnomalyEvent]:
    """Join runs of anomaly points whose inter-timestamp gap is <= max_gap.

    The gap between two points is the number of seconds strictly between
    them, so adjacent-second points merge even at max_gap = 0.
    """
    if max_gap < 0:
        raise ConfigError(f"max_gap must be >= 0, got {max_gap}")
    table = _anomaly_table(points)
    stamps = table["timestamp"]
    if np.any(stamps[1:] < stamps[:-1]):
        raise OrderError("anomaly points must be sorted by timestamp")
    events: list[AnomalyEvent] = []
    for t, error in table.tolist():
        if events and t - events[-1].end - 1 <= max_gap:
            prev = events[-1]
            events[-1] = AnomalyEvent(prev.start, t, max(prev.peak_error, error))
        else:
            events.append(AnomalyEvent(t, t, error))
    return events


def score_detections(anomalies: np.ndarray | Sequence[AnomalyPoint],
                     faults: Sequence[FaultEvent],
                     lead_window: int = 10,
                     mode: str = "lead_only",
                     frame_span: tuple[int, int] | None = None) -> EvalReport:
    """Score anomalies against fault ground truth.

    Args:
        anomalies: flagged points, as an anomaly table or a sequence of
            AnomalyPoints, within frame_span.
        faults: ground-truth fault intervals, within frame_span.
        lead_window: seconds before a fault start that still count as
            detecting it.
        mode: "lead_only" matches anomalies in [start - lead, start];
            "lead_plus_duration" extends the match interval to the fault end.
        frame_span: inclusive (first, last) epoch second of the evaluated
            data; the denominator of per-second accuracy.

    A fault is detected if any anomaly falls in its match interval (counted
    once); an anomaly matching no fault is a false positive. Accuracy is the
    per-second agreement between flagged seconds and match-interval seconds
    over the span. All three are read from two masks over the span's
    seconds: `predicted`, the flagged seconds, and `truth`, the match
    intervals clipped to the span; a fault's hit is a search of the sorted
    flagged seconds. The clip changes no count, since every anomaly and
    fault lies in the span.

    Zero-division conventions: with no anomalies, precision is 0 when faults
    exist and 1 otherwise; with no faults, recall is 1 (nothing was missed);
    f1 is 0 when precision + recall is 0. An empty ground truth with no
    anomalies therefore scores as the vacuous perfect case.
    """
    if lead_window < 0:
        raise ConfigError(f"lead_window must be >= 0, got {lead_window}")
    if mode not in SCORING_MODES:
        raise ConfigError(f"mode must be one of {SCORING_MODES}, got {mode!r}")
    if frame_span is None or frame_span[1] < frame_span[0]:
        raise DataError(f"empty frame span: {frame_span}")
    span_start, span_end = int(frame_span[0]), int(frame_span[1])
    stamps = _anomaly_table(anomalies)["timestamp"]
    outside = (stamps < span_start) | (stamps > span_end)
    if outside.any():
        s = int(stamps[np.argmax(outside)])
        raise DataError(f"anomaly [{s}, {s}] outside frame span")
    for f in faults:
        if f.start < span_start or f.end > span_end:
            raise DataError(f"fault [{f.start}, {f.end}] outside frame span")

    n_seconds = span_end - span_start + 1
    seconds = stamps - span_start
    predicted = np.zeros(n_seconds, dtype=bool)
    predicted[seconds] = True
    # match intervals [lo, hi] as offsets into the span; `truth` is their
    # union, painted one interval at a time
    starts = np.array([f.start for f in faults], dtype=np.int64)
    ends = starts if mode == "lead_only" else np.array([f.end for f in faults], dtype=np.int64)
    lo = np.maximum(starts - lead_window - span_start, 0)
    hi = ends - span_start
    truth = np.zeros(n_seconds, dtype=bool)
    for a, b in zip(lo.tolist(), hi.tolist()):
        truth[a:b + 1] = True
    # a fault is hit when a flagged second lies in its match interval
    flagged = np.flatnonzero(predicted)
    fault_hit = np.searchsorted(flagged, hi, "right") > np.searchsorted(flagged, lo)
    matched_faults = [f for f, hit in zip(faults, fault_hit) if hit]
    matched_anoms = int(np.count_nonzero(truth[seconds]))

    tp = len(matched_faults)
    fn = len(faults) - tp
    n_anoms = len(stamps)
    fp = n_anoms - matched_anoms

    if n_anoms:
        precision = matched_anoms / n_anoms
    else:
        precision = 0.0 if faults else 1.0
    recall = tp / len(faults) if faults else 1.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = np.count_nonzero(predicted == truth) / n_seconds

    return EvalReport(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        matched_anomalies=matched_anoms,
        total_faults=len(faults),
        total_anomalies=n_anoms,
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        f1=f1,
        matched_faults=tuple(matched_faults),
    )


def format_anomaly_csv(points: np.ndarray | Iterable[AnomalyPoint]) -> str:
    """The anomaly CSV of an anomaly table or of AnomalyPoints; errors are
    written by `repr`, so parsing gives back the same doubles."""
    lines = [ANOMALY_CSV_HEADER]
    lines += [f"{t},{e!r}" for t, e in _anomaly_table(points).tolist()]
    return "\n".join(lines) + "\n"


def parse_anomaly_csv(text: str | bytes) -> np.ndarray:
    """Parse a `timestamp,error` CSV, given as text or as UTF-8 bytes, into
    one array of `ANOMALY_DTYPE` rows in file order.

    A stamp is a Python `int` within int64, an error a finite Python
    `float`; blank lines are skipped and any line ending is accepted. Any
    malformed row is rejected with its line number.

    A valid file written only with ASCII digits, signs, points, exponents,
    commas, blanks and line ends is parsed in one C-level pass. Any other
    text, and every invalid file, goes through the line loop, which decides
    acceptance and names the offending line; both give bitwise equal tables.
    """
    table = plain_csv_table(text, ANOMALY_CSV_HEADER, ANOMALY_DTYPE)
    if table is not None and np.all(np.isfinite(table["error"])):
        return table
    return _parse_anomaly_lines(as_text(text))


_INT64 = np.iinfo(np.int64)


def _parse_anomaly_lines(text: str) -> np.ndarray:
    """Line-by-line parse of an anomaly CSV; the reference for the bulk path."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != ANOMALY_CSV_HEADER:
        raise ParseError(f"line 1: expected header {ANOMALY_CSV_HEADER!r}")
    rows: list[tuple[int, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'timestamp,error'")
        try:
            ts = int(parts[0])
            err = float(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed number in {line!r}") from None
        if not math.isfinite(err):
            raise ParseError(f"line {lineno}: non-finite error in {line!r}")
        if not _INT64.min <= ts <= _INT64.max:
            raise ParseError(f"line {lineno}: timestamp outside int64 in {line!r}")
        rows.append((ts, err))
    return np.array(rows, dtype=ANOMALY_DTYPE)


def format_event_csv(events: Iterable[AnomalyEvent]) -> str:
    lines = [EVENT_CSV_HEADER]
    lines += [f"{e.start},{e.end},{float(e.peak_error)!r}" for e in events]
    return "\n".join(lines) + "\n"

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
Python object. `merge_consecutive_anomalies` joins the rows into a table of
`EVENT_DTYPE` rows, which is only written, to the event CSV; both CSVs come
from one row writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import _is_header, _plain_rows
from .errors import ConfigError, DataError, OrderError, ParseError, ShapeError
from .faults import FaultEvent
from .ioutil import as_text

SCORING_MODES = ("lead_only", "lead_plus_duration")

ANOMALY_CSV_HEADER = "timestamp,error"
EVENT_CSV_HEADER = "start,end,peak_error"

# One row of an anomaly CSV, as `parse_anomaly_csv` returns it, and one
# merged run of anomalies, an inclusive interval with its peak error.
ANOMALY_DTYPE = np.dtype([("timestamp", "<i8"), ("error", "<f8")])
EVENT_DTYPE = np.dtype([("start", "<i8"), ("end", "<i8"), ("peak_error", "<f8")])


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
class EvalReport:
    """What `eval` reports, field for field: the keys of `eval_report.json`
    in their order."""

    mode: str
    lead_window: int
    frame_span: list[int]     # [first, last] scored epoch second
    total_faults: int         # faults overlapping the span
    total_anomalies: int
    true_positives: int       # faults with at least one matching anomaly
    false_positives: int      # anomalies matching no fault
    false_negatives: int      # faults with no matching anomaly
    matched_anomalies: int    # anomalies matching at least one fault
    precision: float
    recall: float
    accuracy: float
    f1: float
    matched_faults: list[list[int]]  # [start, end] of each hit fault, clipped


def compute_threshold(training_errors: np.ndarray,
                      multiplier: float = DetectorThreshold.multiplier) -> DetectorThreshold:
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
                   threshold: float) -> np.ndarray:
    """The `ANOMALY_DTYPE` table of the windows whose error strictly exceeds
    the threshold value, stamped with the window's last-row epoch second."""
    errors = np.asarray(errors, dtype=np.float64)
    end_timestamps = np.asarray(end_timestamps)
    if errors.shape != end_timestamps.shape:
        raise ShapeError(
            f"errors shape {errors.shape} != timestamps shape {end_timestamps.shape}"
        )
    hits = errors > threshold
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
                                max_gap: int) -> np.ndarray:
    """The `EVENT_DTYPE` table of the runs of anomaly points whose
    inter-timestamp gap is <= max_gap, in time order.

    The gap between two points is the number of seconds strictly between
    them, so adjacent-second points merge even at max_gap = 0.
    """
    if max_gap < 0:
        raise ConfigError(f"max_gap must be >= 0, got {max_gap}")
    table = _anomaly_table(points)
    stamps = table["timestamp"]
    if np.any(stamps[1:] < stamps[:-1]):
        raise OrderError("anomaly points must be sorted by timestamp")
    # Python ints: a gap between int64 stamps can wrap
    events: list[tuple[int, int, float]] = []
    for t, error in table.tolist():
        if events and t - events[-1][1] - 1 <= max_gap:
            start, _, peak = events[-1]
            events[-1] = (start, t, max(peak, error))
        else:
            events.append((t, t, error))
    return np.array(events, dtype=EVENT_DTYPE)


def score_detections(anomalies: np.ndarray | Sequence[AnomalyPoint],
                     faults: Iterable[FaultEvent],
                     lead_window: int,
                     mode: str,
                     frame_span: tuple[int, int]) -> EvalReport:
    """Score anomalies against fault ground truth over the evaluated span.

    Args:
        anomalies: flagged points, as an anomaly table or a sequence of
            AnomalyPoints, within frame_span.
        faults: ground-truth fault intervals, anywhere; each is scored as
            its part inside frame_span, and one wholly outside is ignored.
        lead_window: seconds before a fault start that still count as
            detecting it.
        mode: "lead_only" matches anomalies in [start - lead, start];
            "lead_plus_duration" extends the match interval to the fault end.
        frame_span: inclusive (first, last) epoch second of the evaluated
            data; the denominator of per-second accuracy.

    A fault clipped at the span start is scored as starting there. An
    anomaly outside the span raises DataError: the anomalies were flagged
    over another span.

    A fault is detected if any anomaly falls in its match interval (counted
    once); an anomaly matching no fault is a false positive. Accuracy is the
    per-second agreement between flagged seconds and match-interval seconds
    over the span. All three are read from two masks over the span's
    seconds: `predicted`, the flagged seconds, and `truth`, the match
    intervals clipped to the span; a fault's hit is a search of the sorted
    flagged seconds.

    Zero-division conventions: with no anomalies, precision is 0 when faults
    exist and 1 otherwise; with no faults, recall is 1 (nothing was missed);
    f1 is 0 when precision + recall is 0. An empty ground truth with no
    anomalies therefore scores as the vacuous perfect case.

    Returns the report `eval` writes: the settings, the counts, the metrics
    and the clipped [start, end] of each detected fault.
    """
    if lead_window < 0:
        raise ConfigError(f"lead_window must be >= 0, got {lead_window}")
    if mode not in SCORING_MODES:
        raise ConfigError(f"mode must be one of {SCORING_MODES}, got {mode!r}")
    if frame_span[1] < frame_span[0]:
        raise DataError(f"empty frame span: {frame_span}")
    span_start, span_end = int(frame_span[0]), int(frame_span[1])
    stamps = _anomaly_table(anomalies)["timestamp"]
    outside = (stamps < span_start) | (stamps > span_end)
    if outside.any():
        s = int(stamps[np.argmax(outside)])
        raise DataError(f"anomaly [{s}, {s}] outside frame span")
    # each fault's part inside the span, clipped before any stamp meets int64
    bounds = np.array([(max(f.start, span_start), min(f.end, span_end)) for f in faults
                       if f.end >= span_start and f.start <= span_end],
                      dtype=np.int64).reshape(-1, 2)

    n_seconds = span_end - span_start + 1
    seconds = stamps - span_start
    predicted = np.zeros(n_seconds, dtype=bool)
    predicted[seconds] = True
    # match intervals [lo, hi] as offsets into the span; `truth` is their
    # union, painted one interval at a time. Any lead of at least the span's
    # length gives lo = 0, so the lead is clamped to it to fit int64.
    lo = np.maximum(bounds[:, 0] - min(lead_window, n_seconds) - span_start, 0)
    hi = bounds[:, 0 if mode == "lead_only" else 1] - span_start
    truth = np.zeros(n_seconds, dtype=bool)
    for a, b in zip(lo.tolist(), hi.tolist()):
        truth[a:b + 1] = True
    # a fault is hit when a flagged second lies in its match interval
    flagged = np.flatnonzero(predicted)
    fault_hit = np.searchsorted(flagged, hi, "right") > np.searchsorted(flagged, lo)
    matched_anoms = int(np.count_nonzero(truth[seconds]))

    n_faults = len(bounds)
    tp = int(np.count_nonzero(fault_hit))
    n_anoms = len(stamps)
    if n_anoms:
        precision = matched_anoms / n_anoms
    else:
        precision = 0.0 if n_faults else 1.0
    recall = tp / n_faults if n_faults else 1.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0

    return EvalReport(
        mode=mode,
        lead_window=lead_window,
        frame_span=[span_start, span_end],
        total_faults=n_faults,
        total_anomalies=n_anoms,
        true_positives=tp,
        false_positives=n_anoms - matched_anoms,
        false_negatives=n_faults - tp,
        matched_anomalies=matched_anoms,
        precision=precision,
        recall=recall,
        accuracy=np.count_nonzero(predicted == truth) / n_seconds,
        f1=f1,
        matched_faults=bounds[fault_hit].tolist(),
    )


def _format_csv(header: str, table: np.ndarray) -> str:
    """`header`, then one line per row of `table`, every field by `repr`
    (an int's is its digits), so parsing gives back the same doubles."""
    row = ",".join(["%r"] * len(table.dtype))
    lines = [header]
    lines += [row % fields for fields in table.tolist()]
    return "\n".join(lines) + "\n"


def format_anomaly_csv(points: np.ndarray | Iterable[AnomalyPoint]) -> str:
    """The anomaly CSV of an anomaly table or of AnomalyPoints."""
    return _format_csv(ANOMALY_CSV_HEADER, _anomaly_table(points))


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
    raw = text.encode("utf-8") if isinstance(text, str) else text
    head = ANOMALY_CSV_HEADER.encode("ascii")
    table = _plain_rows(raw, ANOMALY_DTYPE, head) if _is_header(raw, head) else None
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


def format_event_csv(events: np.ndarray) -> str:
    """The event CSV of an `EVENT_DTYPE` table."""
    return _format_csv(EVENT_CSV_HEADER, events)

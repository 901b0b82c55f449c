"""Fault ground truth: recorded fault files plus the beam-current-drop
heuristic, and interval merging of event lists."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import RawSeries
from .errors import ConfigError, DataError, ParseError, RangeError
from .ioutil import as_text

SOURCE_RECORDED = "recorded"
SOURCE_CURRENT_DROP = "current_drop"


@dataclass(frozen=True, order=True)
class FaultEvent:
    """Ground-truth fault interval in epoch seconds, inclusive on both ends.

    Point events have end == start.
    """

    start: int
    end: int
    source: str = SOURCE_RECORDED

    def __post_init__(self):
        if self.end < self.start:
            raise RangeError(f"fault end {self.end} before start {self.start}")


def parse_fault_events(text: str | bytes) -> list[FaultEvent]:
    """Parse a fault CSV with header `start[,end][,label]`.

    Point events (no end column) get end = start. Events with identical
    start and end are deduplicated. Output is sorted by start.
    """
    lines = as_text(text).splitlines()
    if not lines or lines[0].split(",")[0].strip() != "start":
        raise ParseError("line 1: expected header 'start[,end][,label]'")
    events: list[FaultEvent] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) > 3:
            raise ParseError(f"line {lineno}: too many fields in {line!r}")
        try:
            start = _epoch_second(parts[0])
            end = _epoch_second(parts[1]) if len(parts) > 1 and parts[1] else start
        except ValueError:
            raise ParseError(f"line {lineno}: malformed timestamp in {line!r}") from None
        if end < start:
            raise RangeError(f"line {lineno}: end {end} before start {start}")
        source = parts[2] if len(parts) > 2 and parts[2] else SOURCE_RECORDED
        events.append(FaultEvent(start, end, source))
    events.sort(key=lambda e: (e.start, e.end))
    deduped: list[FaultEvent] = []
    for e in events:
        if deduped and (e.start, e.end) == (deduped[-1].start, deduped[-1].end):
            continue
        deduped.append(e)
    return deduped


def _epoch_second(field: str) -> int:
    # int() first: float() would round a stamp beyond 2**53
    try:
        return int(field)
    except ValueError:
        pass
    value = float(field)
    if not (math.isfinite(value) and value.is_integer()):
        raise ValueError(field)
    return int(value)


def format_fault_csv(events: Iterable[FaultEvent]) -> str:
    """Serialize events to the `start,end,label` CSV format."""
    lines = ["start,end,label"]
    lines += [f"{e.start},{e.end},{e.source}" for e in events]
    return "\n".join(lines) + "\n"


def detect_current_drops(current: RawSeries, threshold: float) -> list[FaultEvent]:
    """Find maximal runs where beam current sits below `threshold`.

    The series must already be aligned at 1 Hz. A run still open at the end
    of the series is closed at the last sample.
    """
    if threshold <= 0:
        raise ConfigError(f"current threshold must be positive, got {threshold}")
    if len(current) == 0:
        raise DataError("empty current series")
    ts = current.timestamps
    # RawSeries stamps strictly increase, so integral stamps spanning n - 1
    # seconds are exactly n consecutive ones; int64 stamps need no O(n) test.
    integral = np.issubdtype(ts.dtype, np.integer) or np.all(ts == np.floor(ts))
    if not (integral and ts[-1] - ts[0] == len(ts) - 1):
        raise DataError("current series must be aligned at 1 Hz")
    # the padded mask flips at the first row of each run and after its last
    below = np.concatenate(([False], current.values < threshold, [False]))
    flips = np.flatnonzero(below[1:] != below[:-1])
    return [FaultEvent(int(a), int(b), SOURCE_CURRENT_DROP)
            for a, b in zip(ts[flips[0::2]].tolist(), ts[flips[1::2] - 1].tolist())]


def merge_event_lists(lists: Sequence[Iterable[FaultEvent]],
                      coalesce_gap: int = 0) -> list[FaultEvent]:
    """Union event lists, merging intervals that overlap or sit within
    `coalesce_gap` seconds of each other.

    A merged event takes the earliest start, the latest end, and the source
    of its earliest contributor. Output is sorted by start and pairwise
    separated by more than coalesce_gap.
    """
    if coalesce_gap < 0:
        raise ConfigError(f"coalesce_gap must be >= 0, got {coalesce_gap}")
    pool = sorted((e for lst in lists for e in lst), key=lambda e: (e.start, e.end))
    merged: list[FaultEvent] = []
    for e in pool:
        if merged and e.start - merged[-1].end <= coalesce_gap:
            prev = merged[-1]
            merged[-1] = FaultEvent(prev.start, max(prev.end, e.end), prev.source)
        else:
            merged.append(e)
    return merged

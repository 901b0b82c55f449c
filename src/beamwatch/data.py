"""Ingestion and preprocessing of monitor time series.

Raw per-channel series are aligned onto a shared 1 Hz integer-second grid
with forward fill, split chronologically, cleaned of fault neighborhoods,
standardized with training-set statistics, and cut into stride-1 sliding
windows that never cross a gap left by removed or missing seconds. Series
CSVs are the only text format here; aligned frames live in memory only.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, OrderError, ParseError, ShapeError

if TYPE_CHECKING:
    from .faults import FaultEvent

SERIES_CSV_HEADER = "timestamp,value"


@dataclass(frozen=True)
class RawSeries:
    """One channel's raw samples: strictly increasing timestamps (epoch
    seconds, fractions allowed) and finite values."""

    channel_name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.timestamps.shape != self.values.shape or self.timestamps.ndim != 1:
            raise ShapeError("timestamps and values must be 1-D arrays of equal length")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise OrderError(f"channel {self.channel_name!r}: timestamps not strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"channel {self.channel_name!r}: non-finite values")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class AlignedFrame:
    """Multi-channel series on a uniform 1 Hz grid.

    Rows keep their original epoch-second timestamps after removals, so a
    jump of more than one second between consecutive rows marks a segment
    boundary. Windows are only built inside segments.
    """

    channels: tuple[str, ...]
    timestamps: np.ndarray  # int64 [n], strictly increasing
    values: np.ndarray      # float64 [n, m]

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape != (len(self.timestamps), len(self.channels)):
            raise ShapeError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.timestamps)} rows x {len(self.channels)} channels"
            )
        if len(set(self.channels)) != len(self.channels):
            raise DataError(f"duplicate channel names: {self.channels}")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise OrderError("frame timestamps not strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("frame contains non-finite values")

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    @property
    def segment_boundaries(self) -> np.ndarray:
        """Row indices that start a new segment (index 0 excluded)."""
        if self.n_rows < 2:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(np.diff(self.timestamps) > 1) + 1

    def segments(self) -> list[tuple[int, int]]:
        """Half-open (start, stop) row-index ranges of contiguous 1 Hz runs."""
        if self.n_rows == 0:
            return []
        cuts = [0, *self.segment_boundaries.tolist(), self.n_rows]
        return [(cuts[j], cuts[j + 1]) for j in range(len(cuts) - 1)]


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and (floored) population std from training rows."""

    channels: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = len(self.channels)
        if self.mean.shape != (m,) or self.std.shape != (m,):
            raise ShapeError("stats arrays must have one entry per channel")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise DataError("channel mean and std must be finite")
        if not np.all(self.std > 0):
            raise DataError("channel std must be positive")


@dataclass(frozen=True)
class WindowSet:
    """Sliding windows [n, k, m] with each window's last-row epoch second."""

    windows: np.ndarray
    end_timestamps: np.ndarray

    def __post_init__(self):
        if self.windows.ndim != 3:
            raise ShapeError(f"windows must be [n, k, m], got {self.windows.shape}")
        if self.end_timestamps.shape != (self.windows.shape[0],):
            raise ShapeError("one end timestamp per window required")
        if len(self.end_timestamps) > 1 and not np.all(np.diff(self.end_timestamps) > 0):
            raise OrderError("window end timestamps not strictly increasing")

    def __len__(self) -> int:
        return self.windows.shape[0]


def parse_series_csv(text: str, channel_name: str = "series") -> RawSeries:
    """Parse a `timestamp,value` CSV into a RawSeries.

    Numbers use Python `float` syntax, blank lines are skipped and any line
    ending is accepted. Timestamps must be strictly increasing; any malformed
    row is rejected with its line number.

    A valid file written only with ASCII digits, signs, points, exponents,
    commas, blanks and line ends is parsed in one C-level pass. Any other
    text, and every invalid file, goes through the line loop, which decides
    acceptance and names the offending line; both give bitwise equal arrays.
    """
    table = _parse_plain_series(text)
    if table is None:
        return _parse_series_lines(text, channel_name)
    return RawSeries(channel_name, table[0], table[1])


# Bytes a series body may hold for the one-pass parse. Left out: characters
# that str.splitlines() breaks lines on but np.loadtxt strips as blanks
# (\v, \f, \x1c-\x1e), digit underscores, and the inf/nan words.
_PLAIN_SERIES_BYTES = b"0123456789.,+-eE \t\r\n"


def _parse_plain_series(text: str) -> np.ndarray | None:
    """Timestamps and values ([2, n]) of a plain, valid series CSV, or None
    when the line loop must decide."""
    head, _, body = text.partition("\n")
    if (head.rstrip("\r") != SERIES_CSV_HEADER or not text.isascii()
            or not body or body.isspace()
            or body.encode("ascii").translate(None, _PLAIN_SERIES_BYTES)):
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 2 or not np.all(np.isfinite(table)):
        return None
    if len(table) > 1 and not np.all(np.diff(table[:, 0]) > 0):
        return None
    return np.ascontiguousarray(table.T)


def _parse_series_lines(text: str, channel_name: str) -> RawSeries:
    """Line-by-line parse of a series CSV; the reference for the bulk path."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != SERIES_CSV_HEADER:
        raise ParseError(f"line 1: expected header {SERIES_CSV_HEADER!r}")
    timestamps: list[float] = []
    values: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'timestamp,value', got {line!r}")
        try:
            ts = float(parts[0])
            val = float(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed number in {line!r}") from None
        if not (math.isfinite(ts) and math.isfinite(val)):
            raise ParseError(f"line {lineno}: non-finite number in {line!r}")
        if timestamps and ts <= timestamps[-1]:
            raise OrderError(f"line {lineno}: timestamp {ts} not after {timestamps[-1]}")
        timestamps.append(ts)
        values.append(val)
    return RawSeries(channel_name, np.array(timestamps, dtype=np.float64),
                     np.array(values, dtype=np.float64))


def format_series_csv(series: RawSeries) -> str:
    """Serialize a RawSeries to the `timestamp,value` CSV format."""
    lines = [SERIES_CSV_HEADER]
    for ts, val in zip(series.timestamps, series.values):
        ts_text = str(int(ts)) if float(ts).is_integer() else repr(float(ts))
        lines.append(f"{ts_text},{float(val)!r}")
    return "\n".join(lines) + "\n"


def align_and_fill(series: Sequence[RawSeries]) -> AlignedFrame:
    """Merge channels onto a shared integer-second grid with forward fill.

    The grid spans the intersection of the channels' time supports; every
    grid cell takes the most recent observation at or before it, so no cell
    is missing. Seconds before a channel's first observation are dropped.
    """
    if not series:
        raise DataError("no series to align")
    names = [s.channel_name for s in series]
    if len(set(names)) != len(names):
        raise DataError(f"duplicate channel names: {names}")
    for s in series:
        if len(s) == 0:
            raise DataError(f"channel {s.channel_name!r} has no samples")
    start = max(math.ceil(float(s.timestamps[0])) for s in series)
    end = min(math.ceil(float(s.timestamps[-1])) for s in series)
    if start > end:
        raise DataError("channel supports do not overlap")
    grid = np.arange(start, end + 1, dtype=np.int64)
    cols = []
    for s in series:
        idx = np.searchsorted(s.timestamps, grid, side="right") - 1
        cols.append(s.values[idx])
    return AlignedFrame(tuple(names), grid, np.column_stack(cols))


def chronological_split(frame: AlignedFrame, train_fraction: float = 0.5
                        ) -> tuple[AlignedFrame, AlignedFrame]:
    """Split rows in time order: earliest floor(fraction*n) rows to train."""
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1], got {train_fraction}")
    if frame.n_rows == 0:
        raise DataError("cannot split an empty frame")
    n_train = math.floor(train_fraction * frame.n_rows)
    train = AlignedFrame(frame.channels, frame.timestamps[:n_train], frame.values[:n_train])
    test = AlignedFrame(frame.channels, frame.timestamps[n_train:], frame.values[n_train:])
    return train, test


def remove_fault_neighborhoods(frame: AlignedFrame,
                               faults: Iterable["FaultEvent"],
                               margin: int = 10) -> AlignedFrame:
    """Drop every second within `margin` of a fault interval (inclusive).

    Each removal leaves a timestamp gap, which later operations treat as a
    segment boundary; overlapping removal intervals simply union.
    """
    if margin < 0:
        raise ConfigError(f"margin must be >= 0, got {margin}")
    remove = np.zeros(frame.n_rows, dtype=bool)
    for event in faults:
        remove |= (frame.timestamps >= event.start - margin) & \
                  (frame.timestamps <= event.end + margin)
    keep = ~remove
    return AlignedFrame(frame.channels, frame.timestamps[keep], frame.values[keep])


def compute_channel_stats(frame: AlignedFrame) -> ChannelStats:
    """Per-channel mean and population std over training rows only.

    A near-zero std (constant channel) is floored to 1.0 so standardizing
    maps the channel to all zeros instead of blowing up.
    """
    if frame.n_rows == 0:
        raise DataError("cannot compute stats on an empty frame")
    mean = frame.values.mean(axis=0)
    std = frame.values.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return ChannelStats(frame.channels, mean, std)


def standardize(frame: AlignedFrame, stats: ChannelStats) -> AlignedFrame:
    """Apply (value - mean) / std per channel; timestamps unchanged."""
    if stats.channels != frame.channels:
        raise ConfigError(
            f"stats channels {stats.channels} do not match frame channels {frame.channels}"
        )
    return AlignedFrame(frame.channels, frame.timestamps,
                        (frame.values - stats.mean) / stats.std)


def make_windows(frame: AlignedFrame, k: int = 30) -> WindowSet:
    """Cut every window of k consecutive rows inside each contiguous segment.

    Windows never span a segment boundary. Each window is tagged with the
    epoch second of its last row.
    """
    if k < 1:
        raise ConfigError(f"window size must be >= 1, got {k}")
    windows = []
    ends = []
    for seg_start, seg_stop in frame.segments():
        for s in range(seg_start, seg_stop - k + 1):
            windows.append(frame.values[s:s + k])
            ends.append(int(frame.timestamps[s + k - 1]))
    if not windows:
        raise DataError(f"no contiguous segment of length >= {k}")
    return WindowSet(np.stack(windows), np.array(ends, dtype=np.int64))

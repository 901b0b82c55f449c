"""Ingestion and preprocessing of monitor time series.

Raw per-channel series are aligned onto a shared 1 Hz integer-second grid
with forward fill, split chronologically, cleaned of fault neighborhoods,
standardized with training-set statistics, and cut into stride-1 sliding
windows: rows s..s+k-1 form a window exactly when ts[s+k-1] - ts[s] == k-1,
so none crosses a gap left by removed or missing seconds. Series CSVs are
the only text format here, written to an open file a block of rows at a
time; aligned frames live in memory only. `plain_csv_table` is the one-pass
reader of plain CSV bytes that the series and anomaly parsers share.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError, OrderError, ParseError, ShapeError
from .ioutil import as_text

if TYPE_CHECKING:
    from .faults import FaultEvent

SERIES_CSV_HEADER = "timestamp,value"


@dataclass(frozen=True)
class RawSeries:
    """One channel's raw samples: finite, strictly increasing timestamps
    (epoch seconds, fractions allowed) and finite values."""

    channel_name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.timestamps.shape != self.values.shape or self.timestamps.ndim != 1:
            raise ShapeError("timestamps and values must be 1-D arrays of equal length")
        if not np.all(np.isfinite(self.timestamps)):
            raise DataError(f"channel {self.channel_name!r}: non-finite timestamps")
        if not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise OrderError(f"channel {self.channel_name!r}: timestamps not strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"channel {self.channel_name!r}: non-finite values")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class AlignedFrame:
    """Multi-channel series on a uniform 1 Hz grid.

    Rows keep their original epoch-second timestamps after removals. The
    stamps are strictly increasing integers, so rows s..s+k-1 are k
    consecutive seconds, a window, exactly when ts[s+k-1] - ts[s] == k-1.
    """

    channels: tuple[str, ...]
    timestamps: np.ndarray  # int64 [n], strictly increasing
    values: np.ndarray      # float64 [n, m]

    def __post_init__(self):
        if self.timestamps.ndim != 1:
            raise ShapeError(f"frame timestamps must be 1-D, got shape {self.timestamps.shape}")
        if not np.issubdtype(self.timestamps.dtype, np.integer):
            raise DataError(f"frame timestamps must be integers, got {self.timestamps.dtype}")
        if self.values.ndim != 2 or self.values.shape != (len(self.timestamps), len(self.channels)):
            raise ShapeError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.timestamps)} rows x {len(self.channels)} channels"
            )
        if len(set(self.channels)) != len(self.channels):
            raise DataError(f"duplicate channel names: {self.channels}")
        if not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise OrderError("frame timestamps not strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("frame contains non-finite values")

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)


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
        if not np.all(self.end_timestamps[1:] > self.end_timestamps[:-1]):
            raise OrderError("window end timestamps not strictly increasing")

    def __len__(self) -> int:
        return self.windows.shape[0]


def _unchecked(cls, *values):
    """`cls(*values)` without its `__post_init__` checks: the one path for a
    series, frame or window set derived in the library from checked data."""
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values):
        object.__setattr__(obj, field.name, value)
    return obj


def parse_series_csv(text: str | bytes, channel_name: str = "series") -> RawSeries:
    """Parse a `timestamp,value` CSV, given as text or as UTF-8 bytes, into
    a RawSeries.

    Numbers use Python `float` syntax, blank lines are skipped and any line
    ending is accepted. Timestamps must be strictly increasing; any malformed
    row is rejected with its line number.

    A valid file written only with ASCII digits, signs, points, exponents,
    commas, blanks and line ends is parsed in one C-level pass. Any other
    text, and every invalid file, goes through the line loop, which decides
    acceptance and names the offending line; both give bitwise equal arrays.
    """
    table = plain_csv_table(text, SERIES_CSV_HEADER, _SERIES_DTYPE)
    if table is not None:
        # RawSeries checks the values; a table that fails goes to the line loop.
        with contextlib.suppress(DataError, OrderError):
            return RawSeries(channel_name, np.ascontiguousarray(table["timestamp"]),
                             np.ascontiguousarray(table["value"]))
    return _parse_series_lines(as_text(text), channel_name)


_SERIES_DTYPE = np.dtype([("timestamp", "<f8"), ("value", "<f8")])

# Bytes a CSV body may hold for the one-pass parse. Left out: characters
# that str.splitlines() breaks lines on but np.loadtxt strips as blanks
# (\v, \f, \x1c-\x1e), digit underscores, the inf/nan words and every
# non-ASCII byte.
_PLAIN_CSV_BYTES = b"0123456789.,+-eE \t\r\n"


def plain_csv_table(source: str | bytes, header: str, dtype: np.dtype) -> np.ndarray | None:
    """The rows of a plain CSV as one structured array of `dtype`, one
    field per column, or None when the caller's line loop must decide.

    A plain CSV starts with the line `header` and holds nothing but
    `_PLAIN_CSV_BYTES` after it. `loadtxt` reads its bytes past the header
    in one pass, with no decoded text, body copy or UCS-4 buffer. A wrong
    field count, a number that does not parse as its field's type (an int64
    field takes no point, exponent or out-of-range value) and any warning,
    such as the one for a body with no rows, give None, so the caller
    checks only the values.
    """
    if isinstance(source, str):
        if not source.isascii():
            return None
        source = source.encode("ascii")
    head = header.encode("ascii")
    nl = source.find(b"\n")
    if nl < 0 or source[:nl].rstrip(b"\r") != head:
        return None
    # The header is checked, so any residue beyond its own comes from the body.
    if source.translate(None, _PLAIN_CSV_BYTES) != head.translate(None, _PLAIN_CSV_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.BytesIO(source), dtype=dtype, delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
    except (ValueError, Warning):
        return None


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


# Rows formatted per write, so the text in memory is bounded by a block.
_FORMAT_BLOCK_ROWS = 4096


def format_series_csv(series: RawSeries, out: TextIO) -> None:
    """Write a RawSeries to `out` as a `timestamp,value` CSV."""
    out.write(SERIES_CSV_HEADER + "\n")
    write_series_rows(series.timestamps, series.values, out)


def write_series_rows(timestamps: np.ndarray, values: np.ndarray, out: TextIO) -> None:
    """Write series CSV rows to `out`, one `join` per `_FORMAT_BLOCK_ROWS`
    rows, so a series may go out in several calls. Integral stamps (of an
    integer or a float dtype) are written as integers, others and all
    values by `repr`, so parsing the text gives back the same doubles."""
    int_stamps = timestamps.dtype.kind in "iu"
    for lo in range(0, len(timestamps), _FORMAT_BLOCK_ROWS):
        hi = lo + _FORMAT_BLOCK_ROWS
        rows = zip(timestamps[lo:hi].tolist(), values[lo:hi].tolist())
        out.write("".join([f"{ts},{val!r}\n" for ts, val in rows] if int_stamps else [
            f"{str(int(ts)) if ts.is_integer() else repr(ts)},{val!r}\n" for ts, val in rows]))


def align_and_fill(series: Sequence[RawSeries]) -> AlignedFrame:
    """Merge channels onto a shared integer-second grid with forward fill.

    The grid spans the intersection of the channels' time supports; every
    grid cell takes the most recent observation at or before it, so no cell
    is missing. Seconds before a channel's first observation are dropped.
    A channel whose stamps already are the grid is taken as it is, and a
    lone such channel's values are viewed, not copied, as the frame's.
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
    n = end - start + 1
    grid = np.arange(start, end + 1, dtype=np.int64)
    cols = []
    for s in series:
        if len(s) == n and np.array_equal(s.timestamps, grid):
            cols.append(s.values)
            continue
        # For an integer second g, ts <= g exactly when ceil(ts) <= g, so the
        # number of samples at or before grid cell j is a running count of
        # ceil(ts) - start (stamps before the grid land in cell 0, after it
        # in the dropped cell n); that count less one is the fill index.
        cells = np.clip(np.ceil(s.timestamps) - start, 0, n).astype(np.intp)
        idx = np.cumsum(np.bincount(cells, minlength=n + 1)[:n]) - 1
        cols.append(s.values[idx])
    values = cols[0][:, None] if len(cols) == 1 else np.column_stack(cols)
    return _unchecked(AlignedFrame, tuple(names), grid, values)


def chronological_split(frame: AlignedFrame, train_fraction: float
                        ) -> tuple[AlignedFrame, AlignedFrame]:
    """Split rows in time order: earliest floor(fraction*n) rows to train."""
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1], got {train_fraction}")
    if frame.n_rows == 0:
        raise DataError("cannot split an empty frame")
    n_train = math.floor(train_fraction * frame.n_rows)
    ts, values = frame.timestamps, frame.values
    return (_unchecked(AlignedFrame, frame.channels, ts[:n_train], values[:n_train]),
            _unchecked(AlignedFrame, frame.channels, ts[n_train:], values[n_train:]))


def remove_fault_neighborhoods(frame: AlignedFrame,
                               faults: Iterable["FaultEvent"],
                               margin: int) -> AlignedFrame:
    """Drop every second within `margin` of a fault interval (inclusive).

    Each removal leaves a timestamp gap, so no window of `make_windows`
    spans a removed second; overlapping removal intervals simply union.
    """
    if margin < 0:
        raise ConfigError(f"margin must be >= 0, got {margin}")
    remove = np.zeros(frame.n_rows, dtype=bool)
    for event in faults:
        remove |= (frame.timestamps >= event.start - margin) & \
                  (frame.timestamps <= event.end + margin)
    keep = ~remove
    return _unchecked(AlignedFrame, frame.channels, frame.timestamps[keep], frame.values[keep])


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


def make_windows(frame: AlignedFrame, k: int) -> WindowSet:
    """Copy out every k rows s..s+k-1 with ts[s+k-1] - ts[s] == k-1 (k
    consecutive seconds, so no gap inside), each tagged with its last stamp.
    """
    if k < 1:
        raise ConfigError(f"window size must be >= 1, got {k}")
    ts = frame.timestamps
    n = max(frame.n_rows - k + 1, 0)
    starts = np.flatnonzero(ts[k - 1:k - 1 + n] - ts[:n] == k - 1)
    if len(starts) == 0:
        raise DataError(f"no contiguous segment of length >= {k}")
    rows = np.lib.stride_tricks.sliding_window_view(frame.values, (k, frame.values.shape[1]))
    return _unchecked(WindowSet, rows[starts, 0], ts[starts + k - 1])

"""Ingestion and preprocessing of monitor time series.

Raw per-channel series are aligned onto a shared 1 Hz integer-second grid
with forward fill, split chronologically, cleaned of fault neighborhoods,
standardized with training-set statistics, and cut into stride-1 sliding
windows: rows s..s+k-1 form a window exactly when ts[s+k-1] - ts[s] == k-1,
so none crosses a gap left by removed or missing seconds. Series CSVs are
the only text format here, written to an open file a block of rows at a
time and read from one by `read_series` a block of lines at a time, each
block also handed to a writer (the parse cache keeps the bytes it parsed);
aligned frames live in memory only. `_plain_rows` reads the plain CSV rows
of the series blocks and of the anomaly parser."""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import BeamwatchError, ConfigError, DataError, OrderError, ParseError, ShapeError

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
    """Sliding windows with each window's last-row epoch second.

    `frame_windows` [r, k, m] holds every k rows of a frame, and `starts`
    the rows of it that are this set's windows, in order. `make_windows`
    gives a read-only strided view of the frame's values there, so the set
    copies no window. Training and inference gather the windows they need
    from the two, a minibatch or a chunk at a time; `windows` builds the
    set's [n, k, m] array, a fresh copy on each read.
    """

    frame_windows: np.ndarray
    end_timestamps: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        if self.frame_windows.ndim != 3:
            raise ShapeError(f"frame windows must be [r, k, m], got {self.frame_windows.shape}")
        starts = self.starts
        if starts.ndim != 1 or not np.issubdtype(starts.dtype, np.integer):
            raise ShapeError(f"window starts must be a 1-D integer array, "
                             f"got {starts.dtype} of shape {starts.shape}")
        if not (np.all(starts[1:] > starts[:-1]) and
                np.all((starts >= 0) & (starts < len(self.frame_windows)))):
            raise OrderError("window starts must be strictly increasing rows "
                             "of frame_windows")
        if self.end_timestamps.shape != (len(self),):
            raise ShapeError("one end timestamp per window required")
        if not np.all(self.end_timestamps[1:] > self.end_timestamps[:-1]):
            raise OrderError("window end timestamps not strictly increasing")

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def windows(self) -> np.ndarray:
        """The [n, k, m] windows, a fresh copy built on each read."""
        return self.frame_windows[self.starts]


def _unchecked(cls, *values):
    """`cls(*values)` without its `__post_init__` checks: the one path for a
    series, frame or window set derived in the library from checked data."""
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values):
        object.__setattr__(obj, field.name, value)
    return obj


def parse_series_csv(text: str | bytes, channel_name: str = "series") -> RawSeries:
    """Parse a `timestamp,value` CSV, given as text or as UTF-8 bytes, into
    a RawSeries with `read_series`. Numbers use Python `float` syntax, blank
    lines are skipped and any line ending is accepted. Timestamps must be
    strictly increasing; a malformed row fails with its line number."""
    raw = text.encode("utf-8") if isinstance(text, str) else text
    return read_series(io.BytesIO(raw), channel_name)


_SERIES_DTYPE = np.dtype([("timestamp", "<f8"), ("value", "<f8")])

# Bytes a CSV body may hold for the one-pass parse. Left out: characters
# that str.splitlines() breaks lines on but np.loadtxt strips as blanks
# (\v, \f, \x1c-\x1e), digit underscores, the inf/nan words and every
# non-ASCII byte.
_PLAIN_CSV_BYTES = b"0123456789.,+-eE \t\r\n"

# Bytes of a series CSV body that `read_series` reads and parses at a time,
# so it never holds a whole input besides the table it fills.
_PARSE_BLOCK_BYTES = 1 << 16


def _is_header(source: bytes, head: bytes) -> bool:
    """Whether the first line of `source` ends in "\n" and is `head`, less
    any trailing "\r"s."""
    nl = source.find(b"\n")
    return nl >= 0 and source[:nl].rstrip(b"\r") == head


def _plain_rows(source: bytes, dtype: np.dtype, head: bytes = b"") -> np.ndarray | None:
    """The CSV rows of `source`, after its header line `head` if one is
    given (the caller has checked it), as one structured array of `dtype`,
    or None when the caller's line loop must decide.

    The rows must hold nothing but `_PLAIN_CSV_BYTES`. `loadtxt` reads them
    in one pass, with no decoded text, body copy or UCS-4 buffer. A wrong
    field count, a number that does not parse as its field's type (an int64
    field takes no point, exponent or out-of-range value) and any warning,
    such as the one for no rows, give None.
    """
    # Any residue beyond the header's own comes from the rows.
    if source.translate(None, _PLAIN_CSV_BYTES) != head.translate(None, _PLAIN_CSV_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.BytesIO(source), dtype=dtype, delimiter=",",
                              comments=None, skiprows=1 if head else 0, ndmin=1)
    except (ValueError, Warning):
        return None


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The first line of `fh`, even if empty, then `_PARSE_BLOCK_BYTES` blocks
    run on to a "\n", so a file whose lines end in "\r" alone is one block."""
    yield fh.readline()
    while block := fh.read(_PARSE_BLOCK_BYTES):
        yield block if block.endswith(b"\n") else block + fh.readline()


class _BlockDecodeError(UnicodeDecodeError):
    """The decode error of a block `at` bytes into a file, worded as the file's."""

    def __str__(self) -> str:
        start, end = self.start + self.at, self.end - 1 + self.at
        where = (f"byte 0x{self.object[self.start]:02x} in position {start}"
                 if start == end else f"bytes in position {start}-{end}")
        return f"'{self.encoding}' codec can't decode {where}: {self.reason}"


def read_series(fh: BinaryIO, channel_name: str,
                copy: Callable[[bytes], object] = lambda block: None) -> RawSeries:
    """The series of the series CSV in the binary file `fh`, at its start.
    A first pass counts line ends to size the [2, rows] float64 table
    (stamps, then values) of a cache entry, which doubles if they fall
    short. A second parses each `_line_blocks` into it alone, after handing
    it to `copy`: plain, finite rows after the last stamp with
    `loadtxt`, others with the line loop, which names an error's line. A
    decode error comes first, as for the whole file."""
    table = np.empty((2, sum(np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
                             for chunk in iter(lambda: fh.read(_PARSE_BLOCK_BYTES), b""))))
    fh.seek(0)
    n, lineno = 0, 1
    blocks = _line_blocks(fh)
    try:
        for block in blocks:
            copy(block)
            last = float(table[0, n - 1]) if n else -math.inf
            rows = None
            if (_is_header(block, SERIES_CSV_HEADER.encode("ascii")) if lineno == 1
                    else not block.lstrip(b" \t\r\n")):
                rows = table[:, :0]  # the header line, or blank lines only
            elif lineno > 1 and (plain := _plain_rows(block, _SERIES_DTYPE)) is not None:
                rows = plain.view(np.float64).reshape(-1, 2).T
                ts = rows[0]
                if not (np.isfinite(rows).all() and ts[0] > last and np.all(ts[1:] > ts[:-1])):
                    rows = None
            if rows is not None:  # plain bytes end lines with "\n", "\r\n" and a lone "\r"
                codes = np.frombuffer(block, np.uint8)
                lf = codes == 10
                lineno += np.count_nonzero(lf)
                if b"\r" in block:  # a "\r" that ends a block ends the file
                    lineno += np.count_nonzero((codes[:-1] == 13) > lf[1:])
            else:
                try:
                    rows, lineno = _parse_series_lines(block.decode("utf-8"), lineno, last)
                except BeamwatchError:
                    for block in blocks:  # a decode error in a later block comes first
                        block.decode("utf-8")
                    raise
            if n + rows.shape[1] > table.shape[1]:  # more rows than line ends counted
                table = np.hstack((table[:, :n], np.empty((2, max(n, rows.shape[1])))))
            table[:, n:n + rows.shape[1]] = rows
            n += rows.shape[1]
    except UnicodeDecodeError as exc:
        error = _BlockDecodeError(*exc.args)
        error.at = fh.tell() - len(block)
        raise error from None
    return _unchecked(RawSeries, channel_name, table[0, :n], table[1, :n])


def _parse_series_lines(text: str, first: int = 1, last: float = -math.inf
                        ) -> tuple[np.ndarray, int]:
    """Line-by-line parse of series CSV text from line `first` of its file
    (the header, if 1), after the stamp `last`: the [2, rows] stamps, then
    values, and the next line's number. On a whole text, the reference."""
    lines = text.splitlines()
    if first == 1 and (not lines or lines[0].strip() != SERIES_CSV_HEADER):
        raise ParseError(f"line 1: expected header {SERIES_CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines, start=first):
        if lineno == 1 or not line.strip():
            continue  # the header, or a blank line
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'timestamp,value', got {line!r}")
        try:
            ts, val = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed number in {line!r}") from None
        if not (math.isfinite(ts) and math.isfinite(val)):
            raise ParseError(f"line {lineno}: non-finite number in {line!r}")
        if ts <= last:
            raise OrderError(f"line {lineno}: timestamp {ts} not after {last}")
        rows.append((ts, val))
        last = ts
    return np.array(rows, dtype=np.float64).reshape(-1, 2).T, first + len(lines)


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
    try:
        if start < -2**63 or end + 1 >= 2**63:  # past int64, arange gives [], no error
            raise ValueError
        grid = np.arange(start, end + 1, dtype=np.int64)
    except (MemoryError, ValueError):
        raise DataError(f"channel supports span {start:.10g} to {end:.10g} s, "
                        "too long for a 1 Hz grid of int64 seconds") from None
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
    with np.errstate(over="ignore", invalid="ignore"):  # ChannelStats rejects inf and nan
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
    with np.errstate(over="ignore", invalid="ignore"):  # AlignedFrame rejects inf
        values = (frame.values - stats.mean) / stats.std
    return AlignedFrame(frame.channels, frame.timestamps, values)


def make_windows(frame: AlignedFrame, k: int) -> WindowSet:
    """Every k rows s..s+k-1 with ts[s+k-1] - ts[s] == k-1 (k consecutive
    seconds, so no gap inside), each tagged with its last stamp.

    The set keeps a read-only strided view of the frame's values and the
    start rows, not the windows: its memory is per row, not per window row.
    """
    if k < 1:
        raise ConfigError(f"window size must be >= 1, got {k}")
    ts = frame.timestamps
    n = max(frame.n_rows - k + 1, 0)
    starts = np.flatnonzero(ts[k - 1:k - 1 + n] - ts[:n] == k - 1)
    if len(starts) == 0:
        raise DataError(f"no contiguous segment of length >= {k}")
    rows = np.lib.stride_tricks.sliding_window_view(frame.values, (k, frame.values.shape[1]))
    return _unchecked(WindowSet, rows[:, 0], ts[starts + k - 1], starts)

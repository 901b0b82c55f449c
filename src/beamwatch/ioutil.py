"""Small file helpers: every input is parsed through `read_input`, or
through its parse-cache entry with `read_cached`, so an error in it names
the file, and every output is written atomically, so a failing run never
leaves a partial file behind (`remove_file` deletes an output that a run
makes stale). `read_cached` owns the entry's location, layout and checks:
a hit compares the input with the copy in its entry a chunk at a time and
maps the entry read-only, and a miss hands the parse the input as it is
read, so neither holds a whole file in memory."""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import tempfile
from pathlib import Path
from typing import IO, Iterator

from .errors import BeamwatchError, ParseError


def _umask() -> int:
    # The mask can only be read by setting it, so put it straight back.
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _errors_name(path: str | Path) -> Iterator[None]:
    """Re-raise an error of the block with `path` in front: any
    BeamwatchError as its own type, a failed UTF-8 decode as ParseError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except BeamwatchError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_input(path: str | Path, parse, *args):
    """Return `parse(raw, *args)` for the bytes `raw` of `path`.

    A parser that needs text decodes the bytes with `as_text`, so an
    undecodable file raises ParseError here; any BeamwatchError from `parse`
    is re-raised with the path in front, so every input error names its file.
    """
    with _errors_name(path):
        return parse(Path(path).read_bytes(), *args)


def as_text(source: str | bytes) -> str:
    """`source` itself, or its bytes decoded as UTF-8."""
    return source if isinstance(source, str) else source.decode("utf-8")


# A cache hit compares an input with its entry's copy through two buffers
# of this many bytes.
_COMPARE_CHUNK = 1 << 16


def read_cached(path: str | Path, cache_dir: str | Path, tag: bytes, view, parse):
    """The value of the input `path` through its parse-cache entry
    `<cache_dir>/<stem of path>`.

    An entry is `tag`, the length L of a copy of the input and a count n
    (uint64 LE each), the L bytes, zero padding to a multiple of 8, then a
    table of 16·n bytes. A hit is an entry of `tag` whose copy equals the
    input and whose read-only mapped table `view(n, table)` turns into the
    value, not None. Else `parse(src, copy)` reads the input, rewound, from
    the same buffered file, hands its bytes to `copy` and returns the value
    and the table's arrays, which follow them into the entry's temp file,
    discarded if the parse fails; any error names `path`, as `read_input`'s
    do.
    """
    entry_path = Path(cache_dir) / Path(path).stem
    with open(path, "rb") as src:  # buffered: a parse may read a line at a time
        cached = _mapped_table(entry_path, src, tag)
        if cached is not None and (value := view(*cached)) is not None:
            return value
        src.seek(0)
        head = len(tag) + 16
        with atomic_writer(entry_path, binary=True) as entry, _errors_name(path):
            entry.write(bytes(head))  # the header goes in once the parse is done
            value, tables = parse(src, entry.write)
            size = entry.tell() - head
            entry.writelines([bytes(-size % 8), *tables])
            entry.seek(0)
            entry.write(tag + size.to_bytes(8, "little") + len(tables[0]).to_bytes(8, "little"))
    return value


def _mapped_table(entry_path: Path, src: IO[bytes], tag: bytes
                  ) -> tuple[int, memoryview] | None:
    """The count n and the read-only mapped table of the entry `entry_path`,
    or None unless it holds a copy of the bytes of `src`.

    The copy is read through the entry's file, never its map, and compared
    with `src` a chunk at a time as both are read; a missing entry, a short
    read, a length that differs, a byte that differs, padding that is not
    zero and a table that is not 16·n bytes each give None. Map only files
    that are replaced by rename, never rewritten in place: reading a page
    that a truncation removed kills the process (SIGBUS). The map closes
    when the last object viewing it is freed.
    """
    try:
        entry = open(entry_path, "rb", buffering=0)
    except FileNotFoundError:
        return None
    with entry:
        head = entry.read(len(tag) + 16)
        if len(head) != len(tag) + 16 or head[:len(tag)] != tag:
            return None
        size, n = (int.from_bytes(head[at:at + 8], "little") for at in (len(tag), len(tag) + 8))
        left, buf, copy = size, bytearray(_COMPARE_CHUNK), memoryview(bytearray(_COMPARE_CHUNK))
        while k := src.readinto(buf):
            del buf[k:]  # a short read shrinks the buffer, so == is one memcmp
            if entry.readinto(copy[:k]) != k or buf != copy[:k]:
                return None
            left -= k
        if left or entry.read(-size % 8) != bytes(-size % 8):  # left < 0: a longer input
            return None
        # map from the page of the byte before the table: the copy stays out of RSS
        at = (entry.tell() - 1) // mmap.ALLOCATIONGRANULARITY * mmap.ALLOCATIONGRANULARITY
        mapped = mmap.mmap(entry.fileno(), 0, access=mmap.ACCESS_READ, offset=at)
        table = memoryview(mapped)[entry.tell() - at:]
        return (n, table) if len(table) == 16 * n else None


@contextlib.contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Yield a UTF-8 text file (a binary one if `binary`) that replaces
    `path` when the block exits.

    The file is a temp file in the same directory. On a clean exit its data
    is fsynced and it is renamed over `path`; on an exception it is removed,
    with any directory made for it, and `path` is left as it was. It gets
    the mode that `open()` would give a new file (0o666 less the umask), not
    mkstemp's 0o600.
    """
    path = Path(path)
    made = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with (os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8")) as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for directory in made:  # innermost first
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` through `atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text)


def remove_file(path: str | Path) -> None:
    """Delete `path`; a path that does not exist is left as it is."""
    Path(path).unlink(missing_ok=True)

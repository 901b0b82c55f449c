"""Small file helpers: every input is parsed through `read_input`, or read
as it is parsed through `stream_input`, so an error in it names the file,
and every output is written atomically, so a failing run never leaves a
partial file behind (`remove_file` deletes an output that a run makes
stale). The parse cache also hashes inputs in fixed chunks (`file_sha256`)
and maps its own entries read-only (`map_optional_bytes`), so a cache hit
never holds a whole file in memory."""

from __future__ import annotations

import contextlib
import hashlib
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


def stream_input(path: str | Path, parse, *args):
    """Return `parse(fh, *args)` for `path` open as a binary file, which
    `parse` reads as it goes, so the file need not be held whole; errors
    name the file as `read_input`'s do."""
    with _errors_name(path), open(path, "rb") as fh:
        return parse(fh, *args)


def as_text(source: str | bytes) -> str:
    """`source` itself, or its bytes decoded as UTF-8."""
    return source if isinstance(source, str) else source.decode("utf-8")


# `file_sha256` reads a file through one buffer of this many bytes.
_DIGEST_CHUNK = 1 << 18


def file_sha256(path: str | Path) -> bytes:
    """The sha256 digest of the bytes of `path`, read in fixed chunks into
    one reused buffer (`hashlib.file_digest` needs Python 3.11)."""
    digest = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.digest()


def map_optional_bytes(path: str | Path) -> mmap.mmap | None:
    """A read-only map of the bytes of `path`, or None when it does not
    exist or is empty (an empty file cannot be mapped).

    The map closes when the last object viewing it is freed. Map only files
    that are replaced by rename, never rewritten in place: reading a page
    that a truncation removed kills the process (SIGBUS).
    """
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == 0:
                return None
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        return None


@contextlib.contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Yield a UTF-8 text file (a binary one if `binary`) that replaces
    `path` when the block exits.

    The file is a temp file in the same directory. On a clean exit its data
    is fsynced and it is renamed over `path`; on an exception it is removed
    and `path` is left as it was. It gets the mode that `open()` would give
    a new file (0o666 less the umask), not mkstemp's 0o600.
    """
    path = Path(path)
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
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` through `atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text)


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the bytes-like `chunks`, in order, to `path` through
    `atomic_writer`."""
    with atomic_writer(path, binary=True) as fh:
        for chunk in chunks:
            fh.write(chunk)


def remove_file(path: str | Path) -> None:
    """Delete `path`; a path that does not exist is left as it is."""
    Path(path).unlink(missing_ok=True)

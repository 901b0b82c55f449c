"""Small file helpers: outputs are written atomically so a failing run
never leaves a partial file behind."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Iterator, TextIO


def _umask() -> int:
    # The mask can only be read by setting it, so put it straight back.
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Yield a UTF-8 text file that replaces `path` when the block exits.

    The file is a temp file in the same directory. On a clean exit its data
    is fsynced and it is renamed over `path`; on an exception it is removed
    and `path` is left as it was. It gets the mode that `open()` would give
    a new file (0o666 less the umask), not mkstemp's 0o600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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

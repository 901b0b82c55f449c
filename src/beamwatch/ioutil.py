"""Small file helpers: outputs are written atomically so a failing run
never leaves a partial file behind."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def _umask() -> int:
    # The mask can only be read by setting it, so put it straight back.
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to `path` via a temp file + rename in the same directory.

    The data is fsynced before the rename, and the file gets the mode that
    `open()` would give a new file (0o666 less the umask), not mkstemp's 0o600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

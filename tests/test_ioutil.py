"""Tests for the atomic text writer: content, encoding, replacement, file
mode and clean-up after a failure inside the `with` block."""

import os
import stat

import pytest

from beamwatch.ioutil import atomic_write_text, atomic_writer


@pytest.fixture
def umask():
    """Set the process umask for one test and restore it afterwards."""
    saved = os.umask(0o022)
    yield lambda mask: os.umask(mask)
    os.umask(saved)


@pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=oct)
def test_new_file_mode_follows_umask(tmp_path, umask, mask, mode):
    umask(mask)
    path = tmp_path / "out" / "report.json"
    atomic_write_text(path, "{}\n")
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "{}\n"


def test_replaces_existing_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "model.json"
    atomic_write_text(path, "old")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "x.txt"
    with pytest.raises(TypeError):
        atomic_write_text(path, None)
    assert list(tmp_path.iterdir()) == []


def test_writes_utf8(tmp_path):
    path = tmp_path / "report.txt"
    atomic_write_text(path, "lead 5 \u00b5s\n")
    assert path.read_bytes() == "lead 5 \u00b5s\n".encode("utf-8")


def test_exception_after_partial_writes_keeps_old_target(tmp_path):
    path = tmp_path / "wiresum.csv"
    atomic_write_text(path, "old\n")
    with pytest.raises(RuntimeError, match="stopped"):
        with atomic_writer(path) as fh:
            for _ in range(100):
                fh.write("timestamp,value\n" * 1000)
            fh.flush()
            raise RuntimeError("stopped mid-file")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["wiresum.csv"]

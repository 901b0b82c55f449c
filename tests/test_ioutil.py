"""Tests for the input reader, which hands parsers bytes, the parse cache's
chunked digest and read-only map, and the atomic writers: content, encoding,
replacement, file mode and clean-up after a failure inside the `with`
block."""

import hashlib
import os
import stat

import pytest

import numpy as np

from beamwatch import ioutil
from beamwatch.errors import DataError, ParseError
from beamwatch.ioutil import (as_text, atomic_write_bytes, atomic_write_text, atomic_writer,
                              file_sha256, map_optional_bytes, read_input, stream_input)


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


def test_binary_writes_chunks_in_order_with_the_text_mode(tmp_path, umask):
    umask(0o027)
    path = tmp_path / "cache" / "entry"
    table = np.array([[0.0, 1.0], [-0.0, 2.5]])
    atomic_write_bytes(path, b"tag", memoryview(b"12"), table)
    assert path.read_bytes() == b"tag12" + table.tobytes()
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert [p.name for p in path.parent.iterdir()] == ["entry"]


def test_failed_binary_write_keeps_old_target(tmp_path):
    path = tmp_path / "entry"
    atomic_write_bytes(path, b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, b"new", "not bytes")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["entry"]


def test_map_optional_bytes(tmp_path):
    assert map_optional_bytes(tmp_path / "missing") is None
    (tmp_path / "empty").write_bytes(b"")
    assert map_optional_bytes(tmp_path / "empty") is None
    (tmp_path / "there").write_bytes(b"\x00\xff" * 5000)
    mapped = map_optional_bytes(tmp_path / "there")
    assert mapped[:] == b"\x00\xff" * 5000
    with pytest.raises(TypeError):
        mapped[0] = 1


@pytest.mark.parametrize("size", [0, 1, ioutil._DIGEST_CHUNK - 1, ioutil._DIGEST_CHUNK,
                                  3 * ioutil._DIGEST_CHUNK + 5])
def test_file_sha256_equals_the_digest_of_the_bytes(tmp_path, size):
    raw = np.random.default_rng(size).bytes(size)
    (tmp_path / "in").write_bytes(raw)
    assert file_sha256(tmp_path / "in") == hashlib.sha256(raw).digest()


def test_read_input_hands_over_the_bytes(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"a\r\nb\xc2\xb5\r")
    assert read_input(path, lambda raw, tail: raw + tail, b"!") == b"a\r\nb\xc2\xb5\r!"
    assert read_input(path, as_text) == "a\r\nb\u00b5\r"


def test_read_input_names_the_file(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"ok\xff")
    with pytest.raises(ParseError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff"):
        read_input(path, as_text)

    def reject(raw):
        raise DataError("no rows")

    with pytest.raises(DataError, match=f"^{path}: no rows$"):
        read_input(path, reject)


def test_stream_input_hands_over_the_open_file(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"a\r\nb\xc2\xb5\r")
    handles = []

    def parse(fh, size):
        handles.append(fh)
        return fh.read(size), fh.read()

    assert stream_input(path, parse, 3) == (b"a\r\n", b"b\xc2\xb5\r")
    assert handles[0].closed


def test_stream_input_names_the_file(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"ok\xff")
    with pytest.raises(ParseError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff"):
        stream_input(path, lambda fh: fh.read().decode("utf-8"))

    def reject(fh):
        raise DataError("no rows")

    with pytest.raises(DataError, match=f"^{path}: no rows$"):
        stream_input(path, reject)

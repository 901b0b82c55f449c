"""Tests for the input reader, which hands parsers bytes, the parse cache
(its byte comparison, read-only map, and a miss's rewound input and entry),
and the atomic writers: content, encoding, replacement, file mode and
clean-up after a failure inside the `with` block."""

import mmap
import os
import stat

import pytest

import numpy as np

from beamwatch import ioutil
from beamwatch.errors import DataError, ParseError
from beamwatch.ioutil import as_text, atomic_write_text, atomic_writer, read_cached, read_input


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


def test_binary_writes_in_order_with_the_text_mode(tmp_path, umask):
    umask(0o027)
    path = tmp_path / "cache" / "entry"
    table = np.array([[0.0, 1.0], [-0.0, 2.5]])
    with atomic_writer(path, binary=True) as fh:
        for chunk in (b"tag", memoryview(b"12"), table):
            fh.write(chunk)
    assert path.read_bytes() == b"tag12" + table.tobytes()
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert [p.name for p in path.parent.iterdir()] == ["entry"]


def test_failed_binary_write_keeps_old_target(tmp_path):
    path = tmp_path / "entry"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        with atomic_writer(path, binary=True) as fh:
            fh.write(b"new")
            fh.write("not bytes")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["entry"]


def test_failed_write_removes_the_directories_it_made(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "kept").write_text("")
    for path in (tmp_path / "out" / ".cache" / "a" / "entry", tmp_path / "new" / "entry"):
        with pytest.raises(RuntimeError):
            with atomic_writer(path, binary=True) as fh:
                fh.write(b"partial")
                raise RuntimeError("parse failed")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept", "out"]


def entry_bytes(tag: bytes, copy: bytes, n: int, payload: bytes) -> bytes:
    return (tag + len(copy).to_bytes(8, "little") + n.to_bytes(8, "little") + copy
            + bytes(-len(copy) % 8) + payload)


class Miss(Exception):
    """What `hit_of`'s parse raises: the read was not a hit."""


def hit_of(tmp_path, tag: bytes):
    """(n, table) of the entry `tmp_path/cache/in` that `read_cached` views
    for the input `tmp_path/in`, or None on a miss."""
    def parse(src, copy):
        raise Miss

    try:
        return read_cached(tmp_path / "in", tmp_path / "cache", tag,
                           lambda n, table: (n, table), parse)
    except Miss:
        return None


def write_entry(tmp_path, raw: bytes):
    (tmp_path / "cache").mkdir(exist_ok=True)
    (tmp_path / "cache" / "in").write_bytes(raw)


SIZES = [0, 1, 7, ioutil._COMPARE_CHUNK - 1, ioutil._COMPARE_CHUNK,
         ioutil._COMPARE_CHUNK + 1, 3 * ioutil._COMPARE_CHUNK + 5]


@pytest.mark.parametrize("n", [3, 0], ids=["payload", "none"])
@pytest.mark.parametrize("size", SIZES + [2 * mmap.ALLOCATIONGRANULARITY - 24])
def test_hit_maps_the_table(tmp_path, size, n):
    raw = np.random.default_rng(size).bytes(size)
    payload = b"payload!" * 2 * n
    (tmp_path / "in").write_bytes(raw)
    write_entry(tmp_path, entry_bytes(b"8bytetag", raw, n, payload))
    got, mapped = hit_of(tmp_path, b"8bytetag")
    assert got == n and mapped.tobytes() == payload
    # the map holds no more than one page of the copy, even where the copy
    # ends on a page
    assert len(mapped.obj) - len(payload) <= mmap.ALLOCATIONGRANULARITY
    with pytest.raises(TypeError):
        mapped.obj[0] = 1


@pytest.mark.parametrize("size", SIZES[1:])
def test_any_other_input_or_entry_is_a_miss(tmp_path, size):
    raw = np.random.default_rng(size).bytes(size)
    entry = entry_bytes(b"tag", raw, 1, bytes(16))
    write_entry(tmp_path, entry)
    for other in (raw[:-1], raw + b"\0", b"\0" + raw[1:] if raw[0] else b"\1" + raw[1:],
                  raw[:-1] + bytes([raw[-1] ^ 128])):
        (tmp_path / "in").write_bytes(other)
        assert hit_of(tmp_path, b"tag") is None
    (tmp_path / "in").write_bytes(raw)
    # the copy cut short, the header cut short, a foreign tag, a table that
    # is not 16·n bytes and (where there is padding) padding that is not zero
    damaged = [entry[:len(entry) - 17 - -size % 8], b"tag", b"", b"gat" + entry[3:],
               entry[:-1], entry + bytes(16)]
    for damage in damaged + [entry[:-17] + b"\1" + entry[-16:]] * bool(size % 8):
        write_entry(tmp_path, damage)
        assert hit_of(tmp_path, b"tag") is None
    (tmp_path / "cache" / "in").unlink()
    assert hit_of(tmp_path, b"tag") is None
    write_entry(tmp_path, entry)
    assert hit_of(tmp_path, b"tag")[0] == 1


def test_a_copy_cut_short_is_a_miss(tmp_path):
    # the second chunk of the input equals the first, which the compare
    # buffer still holds when the entry's copy ends after one chunk
    chunk = np.random.default_rng(0).bytes(ioutil._COMPARE_CHUNK)
    (tmp_path / "in").write_bytes(chunk * 2)
    write_entry(tmp_path, entry_bytes(b"tag", chunk * 2, 0, b"")[:-len(chunk)])
    assert hit_of(tmp_path, b"tag") is None


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


@pytest.mark.parametrize("stale", [None, b"a\r\nb\xc2\xb5?", b"a\r\n"],
                         ids=["no entry", "compared to the last byte", "longer input"])
def test_miss_hands_the_parse_the_rewound_buffered_file(tmp_path, stale):
    raw = b"a\r\nb\xc2\xb5\r"
    (tmp_path / "in").write_bytes(raw)
    if stale is not None:  # the hit test reads the input before it fails
        write_entry(tmp_path, entry_bytes(b"tag", stale, 0, b""))
    handles = []

    def parse(src, copy):
        handles.append(src)
        line, rest = src.readline(), src.read()
        copy(line)
        copy(memoryview(rest))
        table = np.frombuffer(b"12345678" * 4, "<i8")
        return (line, rest), [table[:1], table[1:]]

    got = read_cached(tmp_path / "in", tmp_path / "cache", b"tag", None, parse)
    assert got == (b"a\r\n", b"b\xc2\xb5\r")
    assert handles[0].closed and hasattr(handles[0], "peek")  # a buffered file
    # the copy, the padding, then the tables, under the header
    assert (tmp_path / "cache" / "in").read_bytes() == \
        entry_bytes(b"tag", raw, 1, b"12345678" * 4)


def test_miss_names_the_file_and_caches_nothing(tmp_path):
    path = tmp_path / "in"
    path.write_bytes(b"ok\xff")

    with pytest.raises(ParseError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff"):
        read_cached(path, tmp_path / "cache", b"tag", None,
                    lambda src, copy: (src.read().decode("utf-8"), []))

    def reject(src, copy):
        copy(src.read())
        raise DataError("no rows")

    with pytest.raises(DataError, match=f"^{path}: no rows$"):
        read_cached(path, tmp_path / "cache", b"tag", None, reject)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

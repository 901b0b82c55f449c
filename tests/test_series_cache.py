"""The parse cache of series files under `<output_dir>/.series_cache`: a hit
gives the same arrays as a parse, any change to the input or damage to the
entry is a miss that re-parses and rewrites it, an invalid input is never
cached, and the CLI's outputs do not depend on the cache's state."""

import contextlib
import io
import itertools
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwatch import cli, data, detect, ioutil
from beamwatch.config import RunConfig
from beamwatch.errors import BeamwatchError, OrderError, ParseError

from conftest import traced_peak
from test_data import line_loop_series, mangled_series_texts, parse_outcome, series_texts

# 41 bytes, so its entry holds padding after the copy
TEXT = "timestamp,value\n0,1.5\n1,2.5\n2.75,-3e-300\n"
# the entry's tag, the copy's length L and the row count n
HEAD = len(cli._SERIES_TAG) + 16


def read(path: Path, out: Path) -> data.RawSeries:
    return cli._read_series_file(str(path), RunConfig(output_dir=str(out)))


def read_outcome(path: Path, out: Path) -> tuple:
    """What `read` makes of `path`: the arrays, or the error's type and its
    message less the path in front."""
    try:
        return arrays(read(path, out))
    except BeamwatchError as exc:
        assert str(exc).startswith(f"{path}: ")
        return type(exc), str(exc)[len(f"{path}: "):]


def entry_of(path: Path, out: Path) -> Path:
    return out / ".series_cache" / path.stem


def copy_in(entry: bytes) -> bytes:
    """The copy of the input bytes that a cache entry holds."""
    return entry[HEAD:HEAD + int.from_bytes(entry[8:16], "little")]


def arrays(s: data.RawSeries) -> tuple:
    return s.timestamps.dtype, s.timestamps.tobytes(), s.values.dtype, s.values.tobytes()


@contextlib.contextmanager
def no_parse():
    """Fail the block if it parses a series or an anomaly CSV: what it reads
    must be a hit."""
    with mock.patch.object(data, "parse_series_csv", side_effect=AssertionError("parsed")), \
            mock.patch.object(data, "read_series", side_effect=AssertionError("parsed")), \
            mock.patch.object(detect, "parse_anomaly_csv", side_effect=AssertionError("parsed")):
        yield


@contextlib.contextmanager
def no_line_loop():
    """Fail the block if a parse sends any of its blocks to the line loop."""
    with mock.patch.object(data, "_parse_series_lines", side_effect=AssertionError("line loop")):
        yield


@contextlib.contextmanager
def spies():
    """Count the block's `np.loadtxt` and line-loop calls."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(data, "_parse_series_lines",
                              wraps=data._parse_series_lines) as line_loop:
        yield loadtxt, line_loop


@pytest.fixture
def box(tmp_path):
    path = tmp_path / "wiresum.csv"
    path.write_text(TEXT)
    return path, tmp_path / "out"


@settings(max_examples=150, deadline=None)
@given(series_texts(plain=True) | series_texts(), st.booleans())
def test_hit_bitwise_equals_miss(text, line_loop):
    if line_loop:
        # a header with a trailing blank is valid but never plain
        text = text.replace(data.SERIES_CSV_HEADER, data.SERIES_CSV_HEADER + " ", 1)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "ch.csv", Path(tmp) / "out"
        path.write_bytes(text.encode())
        miss = read(path, out)
        with no_parse():
            hit = read(path, out)
    want = parse_outcome(data.parse_series_csv, text)
    assert arrays(miss) == arrays(hit) == want
    assert hit.channel_name == miss.channel_name == "ch"


@settings(max_examples=200, deadline=None)
@given(series_texts(plain=True), st.sampled_from([1, 2, 5, 16, 64, 1 << 16]))
def test_streamed_parse_bitwise_equals_whole_and_line_loop(text, block):
    # small blocks cut rows, "\r\n" pairs and runs of empty lines at their
    # edges; a last line may lack its line end
    raw = text.encode()
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(data, "_PARSE_BLOCK_BYTES", block)
        whole = parse_outcome(data.parse_series_csv, raw)
        path, out = Path(tmp) / "ch.csv", Path(tmp) / "out"
        path.write_bytes(raw)
        copied = []
        with no_line_loop():
            streamed = data.read_series(io.BytesIO(raw), "ch", copied.append)
            miss = read(path, out)
        entry = entry_of(path, out).read_bytes()
    want = parse_outcome(line_loop_series, text)
    assert arrays(streamed) == arrays(miss) == whole == want
    assert b"".join(copied) == copy_in(entry) == raw


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 8, 64, 1 << 16])
@pytest.mark.parametrize("head, ends, tail", [
    ("\n", ["\n", "\r\n"], ""),
    ("\r\n", ["\r\n", "\r\r\n", "\n"], ""),
    ("\r\r\n", ["\n", "\r\n\r\n", "\n\r\r\n", "\r\n\n"], "\r"),
    ("\n", ["\r\n", "\n\r\n", " \r\r\n", "\r\n\t\r\n"], "\r\n\r"),
], ids=["lf and crlf", "lone cr ends a row", "lone cr blank lines", "blank lines at the end"])
@pytest.mark.parametrize("bad", [None, "60,9O"], ids=["valid", "late malformed row"])
def test_mixed_line_ends_count_lines_as_the_line_loop(monkeypatch, block, head, ends, tail, bad):
    # with blocks of 4 bytes the read of "0,1\r\n" ends between "\r" and "\n"
    rows = [f"{t},1" for t in range(80)]
    if bad:
        rows[60] = bad
    text = (data.SERIES_CSV_HEADER + head +
            "".join(row + end for row, end in zip(rows, itertools.cycle(ends))) + tail)
    monkeypatch.setattr(data, "_PARSE_BLOCK_BYTES", block)
    want = parse_outcome(line_loop_series, text)
    assert want[0] == (ParseError if bad else np.float64)
    assert parse_outcome(data.parse_series_csv, text) == want


@settings(max_examples=200, deadline=None)
@given(mangled_series_texts(), st.sampled_from([1, 7, 64, 1 << 16]))
def test_cold_read_of_any_text_matches_the_line_loop(text, block):
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(data, "_PARSE_BLOCK_BYTES", block)
        path, out = Path(tmp) / "ch.csv", Path(tmp) / "out"
        path.write_bytes(text.encode())
        got = read_outcome(path, out)
        entry = entry_of(path, out)
        # a valid file alone is cached, with a copy of its bytes, whichever
        # blocks the line loop read
        assert (copy_in(entry.read_bytes()) if entry.exists() else None) == \
            (text.encode() if got[0] == np.float64 else None)
    assert got == parse_outcome(line_loop_series, text)


class GrowsOnRewind(io.BytesIO):
    """A file that gains two rows on its first rewind, after the pass that
    counts its line ends."""

    grown = False

    def seek(self, pos, whence=0):
        if not self.grown:
            self.grown = True
            super().seek(0, io.SEEK_END)
            self.write(b"5,1\n6,1\n")
        return super().seek(pos, whence)


def test_more_rows_than_counted_grow_the_table():
    grown = GrowsOnRewind(b"timestamp,value\n0,1\n")
    copied = []
    with no_line_loop():
        series = data.read_series(grown, "ch", copied.append)
    assert series.timestamps.tolist() == [0, 5, 6] and series.values.tolist() == [1] * 3
    # a copy of the bytes that were parsed, not those the first pass counted
    assert b"".join(copied) == grown.getvalue()


class Recorded(io.BytesIO):
    """A file that records its seeks and the size asked of each read."""

    def __init__(self, raw):
        super().__init__(raw)
        self.calls = []

    def seek(self, pos, whence=0):
        self.calls.append(("seek", pos, whence))
        return super().seek(pos, whence)

    def read(self, size=-1):
        self.calls.append(("read", size))
        return super().read(size)


@pytest.mark.parametrize("row", ["150,90.0", "150, 9_0.0", "150,9O.0", "149,90.0"],
                         ids=["plain", "non-plain", "malformed", "order"])
def test_read_is_two_passes_with_one_rewind(monkeypatch, row):
    monkeypatch.setattr(data, "_PARSE_BLOCK_BYTES", 64)
    rows = [f"{t},90.0" for t in range(300)]
    rows[150] = row
    fh = Recorded("\n".join(["timestamp,value", *rows, ""]).encode())
    with contextlib.suppress(BeamwatchError):
        data.read_series(fh, "ch")
    # one rewind, between the counting pass and the parse, and no read
    # without a size
    assert [call for call in fh.calls if call[0] == "seek"] == [("seek", 0, 0)]
    assert all(call[1] == 64 for call in fh.calls if call[0] == "read")


LATE = [f"{t},90.0" for t in range(200)]


@pytest.mark.parametrize("row, error", [
    ("188,9O.0", ParseError),
    ("188,90.0,1", ParseError),
    ("187,90.0", OrderError),
    ("188,nan", ParseError),
], ids=["number", "fields", "order", "non-finite"])
def test_bad_row_in_a_late_block_names_its_line(tmp_path, capsys, monkeypatch, row, error):
    monkeypatch.setattr(data, "_PARSE_BLOCK_BYTES", 64)
    text = "\n".join(["timestamp,value", *LATE[:188], row, *LATE[189:]]) + "\n"
    kind, message = parse_outcome(line_loop_series, text)
    assert kind is error and message.startswith("line 190: ")
    (tmp_path / "run.cfg").write_text("")
    (tmp_path / "current.csv").write_text(text)
    (tmp_path / "faults.csv").write_text("start\n150\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "anomalies.csv").write_text("timestamp,error\n145,2.5\n")
    assert cli.main(["eval", "--config", str(tmp_path / "run.cfg")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'current.csv'}: {message}\n"
    assert not entry_of(tmp_path / "current.csv", tmp_path / "out").exists()


def test_valid_non_plain_late_block_alone_goes_to_the_line_loop(box):
    # a late row the blocks cannot read but the line loop accepts: its block
    # alone goes to the line loop, told its first line and the last stamp
    path, out = box
    n = 200_000
    rows = [f"{t},90.0" for t in range(n)]
    rows[150_000] = "150000, 9_0.0"
    raw = "\n".join(["timestamp,value", *rows]).encode() + b"\n"
    path.write_bytes(raw)
    blocks = list(data._line_blocks(io.BytesIO(raw)))[1:]
    bad = next(i for i, block in enumerate(blocks) if b"_" in block)
    with spies() as (loadtxt, line_loop):
        miss = read(path, out)
    # one loadtxt on each of the other blocks (34 of 35)
    assert loadtxt.call_count == len(blocks) - 1
    assert line_loop.call_count == 1
    first = 2 + sum(block.count(b"\n") for block in blocks[:bad])
    assert line_loop.call_args.args == (blocks[bad].decode(), first, first - 3.0)
    assert arrays(miss) == parse_outcome(line_loop_series, raw.decode())
    assert copy_in(entry_of(path, out).read_bytes()) == raw
    with no_parse():
        assert read(path, out).values[150_000] == 90.0
    # no more than twice the [2, n] table that the entry holds
    _, peak = traced_peak(lambda: read(path, out.parent / "cold"))
    table = 16 * (n + 1)
    assert peak < 2 * table, (peak, table)


@pytest.mark.parametrize("bad, message", [
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 150000: invalid start byte"),
    (b"\xe2\x82", "'utf-8' codec can't decode bytes in position 150000-150001: "
                  "invalid continuation byte"),
], ids=["start byte", "continuation"])
@pytest.mark.parametrize("early", ["", "1,90.0"], ids=["alone", "after a bad row"])
def test_decode_error_past_the_first_block_names_its_file_position(box, bad, message, early):
    path, out = box
    rows = [f"{t},90.0" for t in range(30_000)]
    if early:
        rows[2] = early  # an order error, which a decode of the whole file pre-empts
    raw = "\n".join(["timestamp,value", *rows, ""]).encode()
    raw = raw[:150_000] + bad + raw[150_000 + len(bad):]
    with pytest.raises(UnicodeDecodeError) as whole:
        raw.decode("utf-8")
    assert str(whole.value) == message
    with pytest.raises(UnicodeDecodeError) as direct:
        data.parse_series_csv(raw)
    assert str(direct.value) == message
    path.write_bytes(raw)
    with pytest.raises(ParseError) as info:
        read(path, out)
    assert str(info.value) == f"{path}: {message}"


def test_entry_layout(box):
    path, out = box
    series = read(path, out)
    entry = entry_of(path, out).read_bytes()
    size = len(TEXT)
    assert entry[:8] == cli._SERIES_TAG and HEAD == 24
    assert int.from_bytes(entry[8:16], "little") == size == 41
    assert int.from_bytes(entry[16:24], "little") == 3
    assert entry[24:24 + size] == TEXT.encode()
    assert entry[24 + size:72] == bytes(7)  # zero padding to a multiple of 8
    assert entry[72:] == np.stack([series.timestamps, series.values]).astype("<f8").tobytes()


def test_hit_arrays_are_read_only_views(box):
    path, out = box
    read(path, out)
    with no_parse():
        hit = read(path, out)
    assert not hit.timestamps.flags.writeable and not hit.values.flags.writeable
    # off the grid, alignment fills a fresh array
    frame = data.align_and_fill([hit])
    assert frame.values.flags.writeable
    assert frame.values[:, 0].tolist() == [1.5, 2.5, 2.5, -3e-300]


def test_on_grid_hit_is_aligned_in_place(box):
    path, out = box
    path.write_text("timestamp,value\n7,1.5\n8,2.5\n9,-3e-300\n")
    read(path, out)
    with no_parse():
        hit = read(path, out)
    frame = data.align_and_fill([hit])
    # the frame views the mapped entry; no later stage writes into it
    assert np.shares_memory(frame.values, hit.values) and not frame.values.flags.writeable
    assert frame.timestamps.tolist() == [7, 8, 9]
    assert frame.values[:, 0].tolist() == [1.5, 2.5, -3e-300]


def test_hit_never_holds_the_file_in_memory(tmp_path):
    path, out = tmp_path / "current.csv", tmp_path / "out"
    n = 200_000
    series = data.RawSeries("current", np.arange(1.6e9, 1.6e9 + n),
                            np.random.default_rng(5).uniform(0, 100, n))
    with path.open("w") as fh:
        data.format_series_csv(series, fh)
    miss = read(path, out)
    with no_parse():
        hit, peak = traced_peak(lambda: read(path, out))
    assert arrays(hit) == arrays(miss)
    # the two compare buffers, then RawSeries's checks' one-byte-a-row masks
    assert peak < 4 * ioutil._COMPARE_CHUNK < path.stat().st_size / 20, \
        (peak, path.stat().st_size)


def test_cold_read_never_holds_the_file_in_memory(tmp_path, rng):
    path, out = tmp_path / "current.csv", tmp_path / "out"
    n = 100_000
    series = data.RawSeries("current", np.arange(n) + 1.6e9, rng.standard_normal(n))
    with path.open("w") as fh:
        data.format_series_csv(series, fh)
    with no_line_loop():
        miss, peak = traced_peak(lambda: read(path, out))
    assert arrays(miss) == arrays(series)
    # the [2, n] table of the entry, plus a few blocks in flight
    table = 16 * (n + 1)
    assert peak < table + 8 * data._PARSE_BLOCK_BYTES < path.stat().st_size, \
        (peak, table, path.stat().st_size)


def test_one_changed_byte_reparses(box):
    path, out = box
    read(path, out)
    before = entry_of(path, out).read_bytes()
    path.write_text(TEXT.replace("2.75,-3e-300", "2.75,-4e-300"))
    series = read(path, out)
    assert series.values[-1] == -4e-300
    after = entry_of(path, out).read_bytes()
    assert after[:24] == before[:24] and copy_in(after) == path.read_bytes()
    assert after[72:] != before[72:]
    with no_parse():
        assert read(path, out).values[-1] == -4e-300


# a valid file of a little over three compare chunks
ROWS = "".join(f"{t},{t / 7!r}\n" for t in range(10_000))
assert 3 * ioutil._COMPARE_CHUNK < len(ROWS) < 4 * ioutil._COMPARE_CHUNK


@st.composite
def changed_inputs(draw):
    """A compare chunk size, the bytes of a valid series file and a change
    to them: one flipped bit at any offset, at a chunk edge or in the last
    chunk, a truncation or appended bytes."""
    chunk = draw(st.sampled_from([3, 8, 64, ioutil._COMPARE_CHUNK]))
    text = data.SERIES_CSV_HEADER + "\n" + ROWS if chunk == ioutil._COMPARE_CHUNK else \
        draw(series_texts(plain=True) | series_texts())
    raw = text.encode()
    kind = draw(st.sampled_from(["flip", "edge", "last", "truncate", "append"]))
    if kind == "truncate":
        return chunk, raw, raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return chunk, raw, raw + draw(st.binary(min_size=1, max_size=2 * min(chunk, 64)) |
                                      st.sampled_from([b"\n", b"\r\n", b"1e300,0\n"]))
    at = draw(st.integers(0, len(raw) - 1))
    if kind == "edge":
        at = draw(st.integers(1, max(1, (len(raw) - 1) // chunk))) * chunk
        at = min(max(at + draw(st.sampled_from([-1, 0, 1])), 0), len(raw) - 1)
    elif kind == "last":
        at = draw(st.integers((len(raw) - 1) // chunk * chunk, len(raw) - 1))
    changed = raw[:at] + bytes([raw[at] ^ 1 << draw(st.integers(0, 7))]) + raw[at + 1:]
    return chunk, raw, changed


@settings(max_examples=300, deadline=None)
@given(changed_inputs())
def test_changed_input_reparses_as_a_cold_read(case):
    chunk, raw, changed = case
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(ioutil, "_COMPARE_CHUNK", chunk)
        path, out = Path(tmp) / "ch.csv", Path(tmp) / "out"
        path.write_bytes(raw)
        cached = read_outcome(path, out)
        assert cached[0] == np.float64
        with no_parse():  # unchanged bytes hit
            assert read_outcome(path, out) == cached
        path.write_bytes(changed)
        with mock.patch.object(data, "read_series", wraps=data.read_series) as parse:
            got = read_outcome(path, out)
        assert parse.call_count == 1
        assert got == read_outcome(path, Path(tmp) / "cold")
        if got[0] == np.float64:  # a valid change replaces the entry
            assert copy_in(entry_of(path, out).read_bytes()) == changed


def _flip(b: bytes, at: int) -> bytes:
    return b[:at] + bytes([b[at] ^ 1]) + b[at + 1:]


def _payload(b: bytes, row: int, column: int, value: float) -> bytes:
    size, n = (int.from_bytes(b[at:at + 8], "little") for at in (8, 16))
    at = HEAD + size + -size % 8 + 8 * (column * n + row)
    return b[:at] + np.float64(value).astype("<f8").tobytes() + b[at + 8:]


DAMAGE = {
    "empty": lambda b: b"",
    "short": lambda b: b[:20],
    "header only": lambda b: b[:HEAD],
    "copy cut short": lambda b: b[:HEAD + 30],
    "truncated byte": lambda b: b[:-1],
    "truncated row": lambda b: b[:-16],
    "extra bytes": lambda b: b + b"\0" * 16,
    "garbage": lambda b: b"timestamp,value\n" * 8,
    "foreign tag": lambda b: _flip(b, 0),
    "shorter copy length": lambda b: _flip(b, 8),
    "longer copy length": lambda b: _flip(b, 9),
    "row count": lambda b: _flip(b, 16),
    "copy byte": lambda b: _flip(b, HEAD + 20),
    "last copy byte": lambda b: _flip(b, HEAD + len(TEXT) - 1),
    "padding": lambda b: _flip(b, HEAD + len(TEXT) + 3),
    "nan value": lambda b: _payload(b, 1, 1, np.nan),
    "unordered stamps": lambda b: _payload(b, 2, 0, 0.5),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE)
def test_damaged_entry_is_a_miss_and_rewritten(box, damage):
    path, out = box
    good = arrays(read(path, out))
    entry = entry_of(path, out)
    intact = entry.read_bytes()
    entry.write_bytes(damage(intact))
    assert arrays(read(path, out)) == good
    assert entry.read_bytes() == intact


def test_deleted_cache_is_rebuilt(box):
    path, out = box
    read(path, out)
    intact = entry_of(path, out).read_bytes()
    shutil.rmtree(out / ".series_cache")
    read(path, out)
    assert entry_of(path, out).read_bytes() == intact


def test_same_stem_files_evict_each_other_but_stay_correct(tmp_path):
    out = tmp_path / "out"
    a, b = tmp_path / "a" / "ch.csv", tmp_path / "b" / "ch.csv"
    for path, value in ((a, "1"), (b, "2")):
        path.parent.mkdir()
        path.write_text(f"timestamp,value\n0,{value}\n")
    for path, value in ((a, 1.0), (b, 2.0), (a, 1.0), (b, 2.0)):
        assert read(path, out).values.tolist() == [value]


@pytest.mark.parametrize("text, error, message", [
    ("timestamp,value\n0,1\n1,9O.0\n", ParseError, "line 3: malformed number"),
    ("timestamp,value\n0,1.0\n0,2.0\n", OrderError, "line 3: timestamp 0.0"),
    ("time,value\n0,1\n", ParseError, "line 1: expected header"),
])
def test_invalid_input_is_never_cached(box, text, error, message):
    path, out = box
    path.write_text(text)
    errors = []
    for _ in range(2):
        with pytest.raises(error) as info:
            read(path, out)
        errors.append(str(info.value))
        # no entry, temp file or directory made for them
        assert not out.exists()
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{path}: {message}")


def test_invalid_input_keeps_the_entry_of_an_earlier_valid_one(box):
    path, out = box
    read(path, out)
    intact = entry_of(path, out).read_bytes()
    path.write_text(TEXT + "1,2\n")
    with pytest.raises(BeamwatchError):
        read(path, out)
    assert entry_of(path, out).read_bytes() == intact
    assert [p.name for p in entry_of(path, out).parent.iterdir()] == [path.stem]


SMALL = """
synth_duration = 600
synth_n_faults = 2
synth_seed = 11
window_k = 5
hidden_dim = 4
epochs = 1
merge_max_gap = 3
"""
OUTPUTS = ("model.json", "out/train_report.json", "out/train_report.txt",
           "out/anomalies.csv", "out/anomaly_events.csv", "out/eval_report.json",
           "out/eval_report.txt")


def _run_stages(root: Path) -> tuple[dict, list[str]]:
    printed = []
    for command in ("train", "detect", "eval"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([command, "--config", str(root / "run.cfg")]) == 0
        printed.append(stdout.getvalue())
    return {name: (root / name).read_bytes() for name in OUTPUTS}, printed


def test_cli_outputs_do_not_depend_on_the_cache(tmp_path):
    (tmp_path / "run.cfg").write_text(SMALL)
    assert cli.main(["synth", "--config", str(tmp_path / "run.cfg")]) == 0
    cache = tmp_path / "out" / ".series_cache"
    cold = _run_stages(tmp_path)
    assert sorted(p.name for p in cache.iterdir()) == \
        ["anomalies", "current", "wiresum", "xpos", "ypos"]
    with no_parse():
        warm = _run_stages(tmp_path)
    shutil.rmtree(cache)
    deleted = _run_stages(tmp_path)
    # the same bytes and the same stdout, which never mentions the cache
    assert cold == warm == deleted

"""The anomaly CSV's entry in the parse cache, `<output_dir>/.series_cache/
anomalies`: a hit is bitwise the parse and views the entry read-only, any
damage to the entry or change to the file is a miss that parses again, an
invalid file is never cached, and `eval` reports what the file holds."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from beamwatch import cli, detect
from beamwatch.config import RunConfig

from test_detect import anomaly_outcome, anomaly_texts
from test_series_cache import no_parse

# 29 bytes, so its entry holds padding after the copy
TEXT = "timestamp,error\n5,0.5\n7,-0.0\n"
HEAD = len(cli._ANOMALY_TAG) + 16


def read(path: Path, out: Path) -> np.ndarray:
    return cli._read_anomalies(path, RunConfig(output_dir=str(out)))


def entry_of(out: Path) -> Path:
    return out / ".series_cache" / "anomalies"


@pytest.fixture
def box(tmp_path):
    path = tmp_path / "out" / "anomalies.csv"
    path.parent.mkdir()
    path.write_text(TEXT)
    return path, tmp_path / "out"


@settings(max_examples=150, deadline=None)
@given(anomaly_texts(plain=True) | anomaly_texts())
def test_hit_bitwise_equals_parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "anomalies.csv", Path(tmp) / "out"
        path.write_bytes(text.encode())
        miss = read(path, out)
        with no_parse():
            hit = read(path, out)
    want = anomaly_outcome(detect.parse_anomaly_csv, text)
    assert (miss.dtype, miss.tobytes()) == (hit.dtype, hit.tobytes()) == want
    # a view of the read-only mapped entry, not a copy
    assert not hit.flags.writeable and not hit.flags.owndata


def test_entry_layout(box):
    path, out = box
    table = read(path, out)
    entry = entry_of(out).read_bytes()
    assert entry[:8] == cli._ANOMALY_TAG != cli._SERIES_TAG and HEAD == 24
    assert int.from_bytes(entry[8:16], "little") == len(TEXT) == 29
    assert int.from_bytes(entry[16:24], "little") == 2
    assert entry[24:53] == TEXT.encode()
    assert entry[53:56] == bytes(3)  # zero padding to a multiple of 8
    assert entry[56:] == table.tobytes() == \
        np.array([(5, 0.5), (7, -0.0)], dtype=detect.ANOMALY_DTYPE).tobytes()


def _flip(b: bytes, at: int) -> bytes:
    return b[:at] + bytes([b[at] ^ 1]) + b[at + 1:]


def _error(b: bytes, row: int, value: float) -> bytes:
    at = len(b) - 16 * int.from_bytes(b[16:24], "little") + 16 * row + 8
    return b[:at] + np.float64(value).astype("<f8").tobytes() + b[at + 8:]


DAMAGE = {
    "foreign tag": lambda b: _flip(b, 0),
    "series tag": lambda b: cli._SERIES_TAG + b[8:],
    "copy length": lambda b: _flip(b, 8),
    "row count": lambda b: _flip(b, 16),
    "copy byte": lambda b: _flip(b, HEAD + 20),
    "padding": lambda b: _flip(b, HEAD + len(TEXT) + 1),
    "table cut short": lambda b: b[:-1],
    "table row added": lambda b: b + bytes(16),
    "nan error": lambda b: _error(b, 1, np.nan),
    "infinite error": lambda b: _error(b, 0, -np.inf),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE)
def test_damaged_entry_is_a_miss_and_rewritten(box, damage):
    path, out = box
    good = read(path, out).tobytes()
    entry = entry_of(out)
    intact = entry.read_bytes()
    entry.write_bytes(damage(intact))
    with mock.patch.object(detect, "parse_anomaly_csv",
                           wraps=detect.parse_anomaly_csv) as parse:
        assert read(path, out).tobytes() == good
    assert parse.call_count == 1
    assert entry.read_bytes() == intact


@pytest.mark.parametrize("field, value", [("error", 9.5), ("timestamp", 3)])
def test_entry_edited_within_the_checked_invariants_is_served(box, field, value):
    # a hit checks only that every error is finite, as a parse makes it: an
    # edited stamp, or an error edited to another finite value, is served
    path, out = box
    size = read(path, out).nbytes  # the entry ends with the table
    entry = entry_of(out)
    intact = entry.read_bytes()
    table = np.frombuffer(intact[-size:], dtype=detect.ANOMALY_DTYPE).copy()
    table[field][0] = value
    edited = intact[:-size] + table.tobytes()
    entry.write_bytes(edited)
    with no_parse():
        assert read(path, out)[field][0] == value
    assert entry.read_bytes() == edited


def _eval(box: Path, capsys) -> tuple[int, dict | None, str]:
    code = cli.main(["eval", "--config", str(box / "run.cfg")])
    report = box / "out" / "eval_report.json"
    doc = json.loads(report.read_text()) if code == 0 else None
    return code, doc, capsys.readouterr().err


@pytest.fixture
def run(tmp_path):
    """An eval run: a fault at 150 in the test half [100, 199] and an
    anomaly 5 s before it."""
    (tmp_path / "run.cfg").write_text("scoring_mode = lead_only\n")
    (tmp_path / "current.csv").write_text(
        "timestamp,value\n" + "".join(f"{t},90.0\n" for t in range(200)))
    (tmp_path / "faults.csv").write_text("start\n150\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "anomalies.csv").write_text("timestamp,error\n145,2.5\n")
    return tmp_path


def test_one_byte_edit_is_reported(run, capsys):
    code, doc, _ = _eval(run, capsys)
    assert code == 0 and doc["true_positives"] == 1 and doc["precision"] == 1.0
    path = run / "out" / "anomalies.csv"
    path.write_text("timestamp,error\n185,2.5\n")
    code, doc, _ = _eval(run, capsys)
    assert code == 0 and doc["true_positives"] == 0 and doc["precision"] == 0.0
    assert entry_of(run / "out").read_bytes()[HEAD:HEAD + 24] == path.read_bytes()


@pytest.mark.parametrize("text, message", [
    ("timestamp,error\n145,2.5\n146,nan\n", "line 3: non-finite error"),
    ("timestamp,error\n145,2.5\n1.5,2.5\n", "line 3: malformed number"),
    ("time,error\n145,2.5\n", "line 1: expected header"),
])
def test_invalid_file_is_never_cached(run, capsys, text, message):
    path = run / "out" / "anomalies.csv"
    path.write_text(text)
    errors = []
    for _ in range(2):
        code, _, err = _eval(run, capsys)
        assert code == 1 and not entry_of(run / "out").exists()
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {path}: {message}") and errors[0].count("\n") == 1


def test_deleted_file_with_its_entry_left_names_the_file(run, capsys):
    path = run / "out" / "anomalies.csv"
    assert _eval(run, capsys)[0] == 0
    path.unlink()
    code, _, err = _eval(run, capsys)
    assert entry_of(run / "out").exists()
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    # the same line as with no entry at all
    entry_of(run / "out").unlink()
    assert _eval(run, capsys)[2] == err


"""Importing the package: it loads no numpy and defaults the BLAS thread
count to one without overriding a value already set. Each check runs in a
fresh interpreter, since the test process has numpy loaded already. A tiny
CLI run checks that every file is opened with an explicit encoding, and a
scan of the source checks that only `ioutil` opens, reads or writes files,
numpy's path-taking I/O included. A read of the benchmark's layer map
checks that every function it traces exists."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import beamwatch

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(beamwatch.__file__).resolve().parents[1])

PROBE = """
import json, os, sys
before = {v: os.environ.get(v) for v in %r}
import beamwatch
print(json.dumps({"numpy": "numpy" in sys.modules, "before": before,
                  "after": {v: os.environ.get(v) for v in %r}}))
""" % (BLAS_VARS, BLAS_VARS)


def probe(**preset: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


def test_import_loads_no_numpy():
    assert probe()["numpy"] is False


def test_import_defaults_blas_threads_to_one():
    result = probe()
    assert result["before"] == dict.fromkeys(BLAS_VARS)
    assert result["after"] == dict.fromkeys(BLAS_VARS, "1")


def test_import_keeps_a_preset_value():
    preset = {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": ""}
    assert probe(**preset)["after"] == preset
    result = probe(OMP_NUM_THREADS="3")
    assert result["after"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                               "MKL_NUM_THREADS": "1"}


TINY_RUN = """
synth_duration = 300
synth_n_faults = 1
window_k = 5
hidden_dim = 4
epochs = 1
"""


def test_cli_opens_every_file_with_an_encoding(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC)
    cli = "import sys; from beamwatch.cli import main; sys.exit(main(sys.argv[1:]))"
    load = "import sys; from beamwatch.autoencoder import load_model; load_model(sys.argv[1])"
    runs = [[cli, command, "--config", str(cfg)]
            for command in ("synth", "train", "detect", "eval")]
    runs.append([load, str(tmp_path / "model.json")])
    for code, *args in runs:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (args, proc.stderr)
    assert (tmp_path / "out" / "eval_report.json").is_file()


FILE_CALLS = {"open", "fdopen", "read_text", "read_bytes", "write_text", "write_bytes",
              "tofile", "mmap", "readinto", "unlink"}
# numpy's path-taking I/O; np.loadtxt is given a BytesIO, never a path
NUMPY_FILE_CALLS = {"save", "savez", "savez_compressed", "load", "fromfile", "savetxt",
                    "memmap"}


def file_calls(source: str) -> set[str]:
    """Names of the calls in `source` that can open, read or write a file;
    numpy's as `np.<name>`, also when imported bare."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in FILE_CALLS:
            found.add(name)
        elif name in NUMPY_FILE_CALLS and (
                isinstance(func, ast.Name)
                or isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            found.add(f"np.{name}")
    return found


def test_file_call_scan_sees_numpy_io():
    source = ("np.save(p, a)\nnumpy.load(p)\nnp.fromfile(p)\na.tofile(p)\n"
              "np.savetxt(p, a)\nmemmap(p)\nnp.loadtxt(io.BytesIO(b))\n"
              "json.loads(s)\nmodel.load(p)\nopen(p)\nmmap.mmap(fd, 0)\n"
              "fh.readinto(buf)\nPath(p).unlink()\n")
    assert file_calls(source) == {"np.save", "np.load", "np.fromfile", "tofile",
                                  "np.savetxt", "np.memmap", "open", "mmap", "readinto",
                                  "unlink"}


def test_only_ioutil_touches_files():
    # every input, cache entry and output goes through ioutil
    calls = set()
    for path in Path(beamwatch.__file__).parent.glob("*.py"):
        calls |= {(path.name, name) for name in file_calls(path.read_text(encoding="utf-8"))}
    assert {("ioutil.py", "read_bytes"), ("ioutil.py", "fdopen"), ("ioutil.py", "mmap"),
            ("ioutil.py", "readinto")} <= calls
    assert {module for module, _ in calls} == {"ioutil.py"}, sorted(calls)


def traced_targets(source: str) -> list[str]:
    """The `Target("module.function", ...)` names listed in the `TARGETS`
    assignment of `source`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [call.args[0].value for call in node.value.elts]
    raise AssertionError("no TARGETS assignment")


def test_benchmark_targets_exist():
    # The benchmark skips a name that no longer resolves and records it as
    # absent, so a moved or renamed function would vanish from its figures.
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    names = traced_targets(layers.read_text(encoding="utf-8"))
    assert names
    missing = []
    for name in names:
        module, _, attr = name.rpartition(".")
        if not hasattr(importlib.import_module(f"beamwatch.{module}"), attr):
            missing.append(name)
    assert missing == []

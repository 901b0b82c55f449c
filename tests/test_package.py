"""Importing the package: it loads no numpy and defaults the BLAS thread
count to one without overriding a value already set. Each check runs in a
fresh interpreter, since the test process has numpy loaded already."""

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

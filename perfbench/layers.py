"""Layer map, computed operation counts, micro-probes and machine facts.

`TARGETS` names the public beamwatch functions the traced run wraps, with
the counters taken from their arguments and results. The probes time one
training step, one inference chunk, a model save/load and a dgemm at fixed
sizes, so their figures are comparable across workloads.

Run as a script (`python3 perfbench/layers.py --step-probe`) it prints the
median training-step time under whatever BLAS thread count its environment
sets; the traced run uses that to measure the step at nproc BLAS threads.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from collections.abc import Sized
from pathlib import Path

from tracer import Target, Tracer

# The reference architecture (README defaults) that the probes and the
# computed FLOP counts use: batch n, window k, channels m, hidden h.
N, K, M, H = 64, 30, 3, 64
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STEP_PROBE_STEPS = 25
INFER_PROBE_WINDOWS = 64


def _sized(x) -> int:
    return len(x) if isinstance(x, Sized) else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


TARGETS = [
    # nn: per-window hot functions are aggregated, batch ops get spans
    Target("nn.lstm_cell_forward", aggregate=True),
    Target("nn.dense_forward", aggregate=True),
    Target("nn.dropout_mask", aggregate=True),
    Target("nn.lstm_forward_batch"),
    Target("nn.lstm_forward_repeat"),
    Target("nn.lstm_backward_repeat"),
    Target("nn.lstm_backward_batch"),
    Target("nn.mae_loss"),
    Target("nn.adam_step"),
    # autoencoder
    Target("autoencoder.init_model"),
    Target("autoencoder.train_epochs", counter=lambda a, kw, r: {
        "window_epochs": len(_arg(a, kw, 1, "windows")) * _arg(a, kw, 2, "tcfg").epochs,
    }),
    Target("autoencoder.batch_loss_and_grads"),
    Target("autoencoder.reconstruction_errors",
           counter=lambda a, kw, r: {"windows": len(r)}),
    Target("autoencoder.forward"),
    Target("autoencoder.save_model"),
    Target("autoencoder.load_model"),
    # data
    Target("data.parse_series_csv", counter=lambda a, kw, r: {"rows": len(r)}),
    Target("data.format_series_csv",
           counter=lambda a, kw, r: {"rows": len(_arg(a, kw, 0, "series"))}),
    Target("data.align_and_fill", counter=lambda a, kw, r: {
        "rows_in": sum(len(s) for s in _arg(a, kw, 0, "series")),
        "rows_out": r.n_rows,
    }),
    Target("data.chronological_split"),
    Target("data.remove_fault_neighborhoods", counter=lambda a, kw, r: {
        "rows_removed": _arg(a, kw, 0, "frame").n_rows - r.n_rows,
    }),
    Target("data.compute_channel_stats"),
    Target("data.standardize"),
    Target("data.make_windows", counter=lambda a, kw, r: {
        "windows": len(r),
        "bytes": r.windows.nbytes,
        "frame_bytes": _arg(a, kw, 0, "frame").values.nbytes,
    }),
    # faults
    Target("faults.parse_fault_events"),
    Target("faults.detect_current_drops",
           counter=lambda a, kw, r: {"samples": len(_arg(a, kw, 0, "current"))}),
    Target("faults.merge_event_lists", counter=lambda a, kw, r: {
        "events_in": sum(_sized(x) for x in _arg(a, kw, 0, "lists")),
        "events_out": len(r),
    }),
    Target("faults.format_fault_csv"),
    # detect
    Target("detect.compute_threshold"),
    Target("detect.flag_anomalies", counter=lambda a, kw, r: {"flagged": len(r)}),
    Target("detect.merge_consecutive_anomalies"),
    Target("detect.score_detections", counter=lambda a, kw, r: {
        "pairs": _sized(_arg(a, kw, 0, "anomalies")) * _sized(_arg(a, kw, 1, "faults")),
    }),
    Target("detect.parse_anomaly_csv", counter=lambda a, kw, r: {"rows": len(r)}),
    Target("detect.format_anomaly_csv"),
    Target("detect.format_event_csv"),
    # synth, ioutil, config
    Target("synth.generate_run"),
    Target("ioutil.atomic_write_text", counter=lambda a, kw, r: {
        "bytes": len(_arg(a, kw, 1, "text").encode()),
    }),
    Target("config.load_run_config"),
]


# ---------------------------------------------------------------------------
# Computed operation counts (matmul FLOPs from layer shapes; elementwise gate
# arithmetic is not counted)


def train_step_flops(n: int = N, k: int = K, m: int = M, h: int = H) -> int:
    """Matmul FLOPs of one training step on a batch of n windows."""
    g = 4 * h
    enc_fwd = 2 * k * n * m * g + 2 * k * n * h * g        # input + recurrent
    dec_fwd = 2 * n * h * g + 2 * k * n * h * g            # repeated input once
    dense_fwd = 2 * k * n * h * m
    dense_bwd = 2 * (2 * k * n * h * m)                   # weight grad + input grad
    dec_bwd = 2 * k * n * g * h                           # carry through recurrent kernel
    dec_bwd += 2 * k * n * g * h + 2 * n * g * h          # recurrent + input kernel grads
    dec_bwd += 2 * n * g * h                              # gradient into the latent
    enc_bwd = 2 * k * n * g * h                           # carry through recurrent kernel
    enc_bwd += 2 * k * n * g * h + 2 * k * n * g * m      # recurrent + input kernel grads
    return enc_fwd + dec_fwd + dense_fwd + dense_bwd + dec_bwd + enc_bwd


def infer_window_flops(k: int = K, m: int = M, h: int = H) -> int:
    """Matmul FLOPs of reconstructing one window on the serial cell path."""
    g = 4 * h
    encoder = k * (2 * g * m + 2 * g * h)
    decoder = k * (2 * g * h + 2 * g * h + 2 * m * h)
    return encoder + decoder


# ---------------------------------------------------------------------------
# Probes


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _probe_model_and_batch(n_windows: int):
    import numpy as np
    from beamwatch import autoencoder as ae
    model = ae.init_model(ae.AutoencoderConfig(window_k=K, feature_m=M, hidden_dim=H))
    windows = np.random.default_rng(0).standard_normal((n_windows, K, M))
    return model, windows


def step_probe_ms(steps: int = STEP_PROBE_STEPS) -> float:
    """Median wall time of one training step (one epoch over one batch),
    driven through the public train_epochs."""
    from beamwatch import autoencoder as ae
    model, batch = _probe_model_and_batch(N)
    tcfg = ae.TrainConfig(epochs=1, batch_size=N)
    ae.train_epochs(model, batch, tcfg)  # warm-up
    return 1e3 * _median_s(lambda: ae.train_epochs(model, batch, tcfg), steps)


def traced_step_probe(tracer: Tracer, steps: int = STEP_PROBE_STEPS) -> None:
    from beamwatch import autoencoder as ae
    model, batch = _probe_model_and_batch(N)
    tcfg = ae.TrainConfig(epochs=1, batch_size=N)
    with tracer.installed():
        for _ in range(steps):
            ae.train_epochs(model, batch, tcfg)


def infer_probe_windows_per_s(repeats: int = 3) -> float:
    from beamwatch import autoencoder as ae
    model, windows = _probe_model_and_batch(INFER_PROBE_WINDOWS)
    return INFER_PROBE_WINDOWS / _median_s(
        lambda: ae.reconstruction_errors(model, windows), repeats)


def model_io_probe(workdir: Path, repeats: int = 3) -> dict:
    from beamwatch import autoencoder as ae
    model, _ = _probe_model_and_batch(1)
    path = workdir / "probe_model.json"
    save_s = _median_s(lambda: ae.save_model(model, path), repeats)
    load_s = _median_s(lambda: ae.load_model(path), repeats)
    return {"save_ms": 1e3 * save_s, "load_ms": 1e3 * load_s,
            "bytes": path.stat().st_size}


def dgemm_gflops(size: int = 384, repeats: int = 15) -> float:
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    a @ b
    return 2 * size ** 3 / _median_s(lambda: a @ b, repeats) / 1e9


def step_probe_subprocess(threads: int, src: Path) -> float:
    """Median step time in a fresh process pinned to `threads` BLAS threads."""
    import subprocess
    env = dict(os.environ)
    for var in BLAS_ENV_VARS:
        env[var] = str(threads)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--step-probe", "--src", str(src)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["median_ms"])



def machine_facts() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV_VARS},
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--step-probe", action="store_true", required=True)
    parser.add_argument("--src", required=True, help="directory holding the beamwatch package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    print(json.dumps({"median_ms": step_probe_ms()}))

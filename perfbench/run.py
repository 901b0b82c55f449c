"""beamwatch benchmark: one workload per process, or every workload as a table.

    python3 perfbench/run.py --workload reference_run --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 they are the per-layer metrics from a
traced run. `--workload all` runs each workload in a fresh process (so peak
RSS is that workload's alone), untraced and then traced, and prints one row
per workload. Run from the root of a beamwatch checkout; the package is
imported from its `src/` directory.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1   # pinned before numpy loads; see README.md

# the benchmark's own modules import no numpy at module level
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def _pin_blas() -> None:
    for var in layers.BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _import_program() -> None:
    if not (SRC / "beamwatch" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'beamwatch'} not found; run from a beamwatch checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import beamwatch
    import beamwatch.cli  # noqa: F401
    if not Path(beamwatch.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: beamwatch imported from {beamwatch.__file__}, not {SRC}")


IMPORT_PROBE = "import time, numpy, beamwatch.cli; print(time.process_time())"
IMPORT_REPEATS = 5


def import_cpu_s() -> float:
    """Median, over fresh processes, of the CPU time from interpreter start
    to numpy and beamwatch imported: the import part of setup_s. One
    process's import is too short to time steadily on its own."""
    import subprocess
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # nearest-rank index, 1-based
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None


def run_ops(workload, ctx, seconds: float, traced_tracer=None) -> list[dict]:
    """Closed loop: run ops until the next one would end past `seconds`
    (always at least one). With a tracer, each untraced op is followed by
    the same op traced, and the pair is one step of the loop."""
    results = []
    t0 = time.perf_counter()
    i = 0
    while True:
        t_op, cpu_op = time.perf_counter(), ctx.cli_cpu_s
        r = workload.op(ctx, i)
        r["wall_s"] = time.perf_counter() - t_op
        r["report_cpu_s"] = ctx.cli_cpu_s - cpu_op
        if traced_tracer is not None:
            ctx.tracer = traced_tracer
            with traced_tracer.installed(), traced_tracer.span(f"op.{workload.name}"):
                t_op = time.perf_counter()
                r["traced"] = workload.op(ctx, i)
                r["traced"]["wall_s"] = time.perf_counter() - t_op
            ctx.tracer = None
        results.append(r)
        i += 1
        step = statistics.median(
            x["wall_s"] + x.get("traced", {}).get("wall_s", 0.0) for x in results)
        if time.perf_counter() - t0 + step > seconds:
            return results


END_TO_END_UNITS = {"setup_s": "s", "report_cpu_s": "s", "peak_rss_mb": "MB", "recall": "ratio"}


def summarize(results: list[dict], setup_s: float, setup_wall_s: float, ctx) -> dict:
    """Every figure the notes name, for the human-readable row; the gated
    end-to-end metrics are a subset of it. The gated times are process CPU
    seconds, which leave out the time the process waits for a core; the
    wall-clock figures beside them are printed, not gated."""
    q = next(r["quality"] for r in results if "quality" in r)
    evals = [1e3 * r["eval_s"] for r in results]
    row = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "report_cpu_s": statistics.median(r["report_cpu_s"] for r in results),
        "report_s": statistics.median(r["report_s"] for r in results),
        "train_s": statistics.median(r["train_s"] for r in results) if "train_s" in results[0] else None,
        "detect_windows_per_s": statistics.median(
            r["detect_windows"] / r["detect_s"] for r in results) if "detect_s" in results[0] else None,
        "eval_p50_ms": statistics.median(evals),
        "eval_n": len(evals),
        "recall": q["recall"], "precision": q["precision"], "f1": q["f1"],
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": ctx.failed / max(ctx.attempted, 1),
        "ops": len(results),
    }
    t = tail(evals)
    row["eval_tail_ms"], row["eval_tail_pct"] = (t[1], t[0]) if t else (None, None)
    return row


def run_untraced(workload, ctx, seconds, import_s, own_import_cpu_s):
    imports_cpu = import_cpu_s()
    setups, setups_cpu = [], []
    for _ in range(workload.setup_repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        workload.setup(ctx)
        setups.append(time.perf_counter() - t0)
        setups_cpu.append(time.process_time() - c0)
    results = run_ops(workload, ctx, seconds)
    row = summarize(results, imports_cpu + statistics.median(setups_cpu),
                    import_s + statistics.median(setups), ctx)
    metrics = {k: {"value": row[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, {"row": row, "setup_repeats_s": setups, "setup_repeats_cpu_s": setups_cpu,
                     "import_s": import_s, "own_import_cpu_s": own_import_cpu_s,
                     "import_cpu_s": imports_cpu, "ops": results}


def run_traced(workload, ctx, seconds, run_id):
    tracer = Tracer(layers.TARGETS, run_id=run_id)
    ctx.tracer = tracer
    with tracer.installed(), tracer.span(f"setup.{workload.name}"):
        workload.setup(ctx)
    ctx.tracer = None
    results = run_ops(workload, ctx, seconds, traced_tracer=tracer)
    probes = run_probes(ctx)
    metrics, extra = layer_metrics(tracer, results, probes)
    return metrics, {"probes": probes, "layers": extra, "trace": tracer}


def run_probes(ctx) -> dict:
    step_tracer = Tracer(layers.TARGETS, run_id="step-probe")
    layers.traced_step_probe(step_tracer)
    probes = {
        "step_ms_blas_1": layers.step_probe_ms(),
        "step_ms_blas_nproc": layers.step_probe_subprocess(os.cpu_count() or 1, SRC),
        "step_layers": step_tracer.summary(),
        "step_absent": sorted(step_tracer.absent),
        "infer_windows_per_s": layers.infer_probe_windows_per_s(),
        "model_io": layers.model_io_probe(ctx.workdir),
        "dgemm_gflops": layers.dgemm_gflops(),
    }
    return probes


def layer_metrics(tracer, results, probes) -> tuple[dict, dict]:
    s = tracer.summary()
    c = tracer.counts

    def busy(name):
        return s.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def rate(count, name):
        b = busy(name)
        return count / b if b > 0 else 0.0

    step = probes["step_layers"]

    def step_median(name, key="median_ms"):
        return (step.get(name) or {}).get(key) or 0.0

    train_flops = layers.train_step_flops()
    infer_flops = layers.infer_window_flops()
    untraced = statistics.median(r["wall_s"] for r in results)
    traced = statistics.median(r["traced"]["wall_s"] for r in results)
    windows_made = c.get("data.make_windows.windows", 0)
    frame_bytes = c.get("data.make_windows.frame_bytes", 0)
    window_epochs = c.get("autoencoder.train_epochs.window_epochs", 0)
    steps = calls("autoencoder.batch_loss_and_grads") if "autoencoder.train_epochs" in s else 0
    rec_windows = c.get("autoencoder.reconstruction_errors.windows", 0)

    m = {
        # train-step probe (reference sizes, every workload)
        "nn.lstm_forward_batch.median_ms": (step_median("nn.lstm_forward_batch"), "ms"),
        "nn.lstm_forward_repeat.median_ms": (step_median("nn.lstm_forward_repeat"), "ms"),
        "nn.lstm_backward_repeat.median_ms": (step_median("nn.lstm_backward_repeat"), "ms"),
        "nn.lstm_backward_batch.median_ms": (step_median("nn.lstm_backward_batch"), "ms"),
        "nn.adam_step.median_ms": (step_median("nn.adam_step"), "ms"),
        "nn.mae_loss.median_ms": (step_median("nn.mae_loss"), "ms"),
        "autoencoder.batch_loss_and_grads.self_median_ms":
            (step_median("autoencoder.batch_loss_and_grads", "self_median_ms"), "ms"),
        "nn.train_step.blas_1.median_ms": (probes["step_ms_blas_1"], "ms"),
        "nn.train_step.blas_nproc.median_ms": (probes["step_ms_blas_nproc"], "ms"),
        "nn.train_step.flops": (train_flops, "FLOP"),
        "nn.train_step.gflops": (train_flops / probes["step_ms_blas_1"] / 1e6, "GFLOP/s"),
        "nn.infer_window.flops": (infer_flops, "FLOP"),
        "nn.infer.gflops": (infer_flops * probes["infer_windows_per_s"] / 1e9, "GFLOP/s"),
        "machine.dgemm.gflops": (probes["dgemm_gflops"], "GFLOP/s"),
        "autoencoder.save_model.ms": (probes["model_io"]["save_ms"], "ms"),
        "autoencoder.load_model.ms": (probes["model_io"]["load_ms"], "ms"),
        "autoencoder.save_model.bytes": (probes["model_io"]["bytes"], "B"),
        # observed in this workload's traced set-up and ops
        "nn.lstm_cell_forward.calls": (calls("nn.lstm_cell_forward"), "count"),
        "nn.dense_forward.calls": (calls("nn.dense_forward"), "count"),
        "autoencoder.train_epochs.steps": (steps, "count"),
        "autoencoder.train_epochs.window_epochs_per_s":
            (rate(window_epochs, "autoencoder.train_epochs"), "windows/s"),
        "autoencoder.train_epochs.batch_fill": (
            window_epochs / (steps * layers.N) if steps else 0.0, "ratio"),
        "autoencoder.reconstruction_errors.windows": (rec_windows, "count"),
        "autoencoder.reconstruction_errors.windows_per_s":
            (rate(rec_windows, "autoencoder.reconstruction_errors"), "windows/s"),
        "data.parse_series_csv.rows": (c.get("data.parse_series_csv.rows", 0), "count"),
        "data.parse_series_csv.busy_s": (busy("data.parse_series_csv"), "s"),
        "data.parse_series_csv.rows_per_s":
            (rate(c.get("data.parse_series_csv.rows", 0), "data.parse_series_csv"), "rows/s"),
        "data.align_and_fill.rows_in": (c.get("data.align_and_fill.rows_in", 0), "count"),
        "data.align_and_fill.rows_out": (c.get("data.align_and_fill.rows_out", 0), "count"),
        "data.align_and_fill.busy_s": (busy("data.align_and_fill"), "s"),
        "data.format_series_csv.rows": (c.get("data.format_series_csv.rows", 0), "count"),
        "data.format_series_csv.busy_s": (busy("data.format_series_csv"), "s"),
        "synth.generate_run.busy_s": (busy("synth.generate_run"), "s"),
        "data.make_windows.windows": (windows_made, "count"),
        "data.make_windows.bytes": (c.get("data.make_windows.bytes", 0), "B"),
        "data.make_windows.copy_amplification": (
            c.get("data.make_windows.bytes", 0) / frame_bytes if frame_bytes else 0.0, "ratio"),
        "data.remove_fault_neighborhoods.rows_removed":
            (c.get("data.remove_fault_neighborhoods.rows_removed", 0), "count"),
        "faults.detect_current_drops.samples":
            (c.get("faults.detect_current_drops.samples", 0), "count"),
        "faults.detect_current_drops.busy_s": (busy("faults.detect_current_drops"), "s"),
        "faults.parse_fault_events.busy_s": (busy("faults.parse_fault_events"), "s"),
        "faults.merge_event_lists.events_in": (c.get("faults.merge_event_lists.events_in", 0), "count"),
        "faults.merge_event_lists.events_out": (c.get("faults.merge_event_lists.events_out", 0), "count"),
        "detect.score_detections.busy_s": (busy("detect.score_detections"), "s"),
        "detect.score_detections.pairs": (c.get("detect.score_detections.pairs", 0), "count"),
        "detect.parse_anomaly_csv.rows": (c.get("detect.parse_anomaly_csv.rows", 0), "count"),
        "detect.parse_anomaly_csv.busy_s": (busy("detect.parse_anomaly_csv"), "s"),
        "detect.format_anomaly_csv.busy_s": (busy("detect.format_anomaly_csv"), "s"),
        "detect.flag_anomalies.flagged": (c.get("detect.flag_anomalies.flagged", 0), "count"),
        "ioutil.atomic_write_text.calls": (calls("ioutil.atomic_write_text"), "count"),
        "ioutil.atomic_write_text.bytes": (c.get("ioutil.atomic_write_text.bytes", 0), "B"),
        "ioutil.atomic_write_text.busy_s": (busy("ioutil.atomic_write_text"), "s"),
        "config.load_run_config.busy_ms": (1e3 * busy("config.load_run_config"), "ms"),
        "cli.synth.self_s": (s.get("cli.synth", {}).get("self_s", 0.0), "s"),
        "cli.eval.self_s": (s.get("cli.eval", {}).get("self_s", 0.0), "s"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    # Busy and self times of layers some workloads never call: printed, not
    # in the metric set, since they read 0 where the layer is unused.
    extra = {name: {k: v for k, v in d.items() if v is not None} for name, d in s.items()}
    train_spans = tracer.by_name().get("cli.train", [])
    extra["train_stage_check"] = [
        {"stage_s": sp.duration, "self_sum_s": tracer.subtree_self_s(sp)} for sp in train_spans]
    extra["untraced_train_s"] = [r["train_s"] for r in results if "train_s" in r]
    extra["computed_not_measured"] = [
        "nn.train_step.flops", "nn.infer_window.flops", "data.make_windows.bytes",
        "data.make_windows.copy_amplification", "detect.score_detections.pairs"]
    extra["absent"] = sorted(tracer.absent | set(probes["step_absent"]))
    extra["counter_errors"] = tracer.counter_errors
    extra["untraced_op_s"], extra["traced_op_s"] = untraced, traced
    return metrics, extra


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload in this process; returns the result object and
    details. `sizes` (a name -> Size mapping) lets tests shrink inputs."""
    import_s = time.perf_counter() - PROCESS_T0
    own_import_cpu_s = time.process_time()  # this process's CPU time since it started
    size = (sizes or workloads.SIZES)[name]
    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    ctx = workloads.Context(workdir=workdir, seed=seed, size=size)
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "size": size.__dict__, "machine": layers.machine_facts()}
    metrics = {}
    try:
        if trace:
            metrics, extra = run_traced(workload, ctx, seconds, f"{name}-seed{seed}-{os.getpid()}")
            tracer = extra.pop("trace")
            details.update(extra)
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
            checks = details["layers"]["train_stage_check"]
            for c in checks:
                if abs(c["self_sum_s"] - c["stage_s"]) > 1e-6 * max(1.0, c["stage_s"]):
                    ctx.failures.append(f"train stage self times {c} do not add up")
        else:
            metrics, extra = run_untraced(workload, ctx, seconds, import_s, own_import_cpu_s)
            details.update(extra)
    except workloads.CheckFailed:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    correct = not ctx.failures and bool(metrics)
    details["failures"] = ctx.failures
    result = {"correct": correct, "attempted": max(ctx.attempted, 1),
              "failed": ctx.failed if ctx.attempted else 1, "metrics": metrics}
    return {"result": result, "details": details}


FIGURES = [  # name, unit, format
    ("setup_s", "s", "{:.3f}"), ("setup_wall_s", "s", "{:.3f}"),
    ("report_cpu_s", "s", "{:.3f}"), ("report_s", "s", "{:.3f}"), ("train_s", "s", "{:.2f}"),
    ("detect_windows_per_s", "windows/s", "{:.0f}"), ("eval_p50_ms", "ms", "{:.1f}"),
    ("eval_tail_ms", "ms", "{:.1f}"), ("recall", "ratio", "{:.4f}"),
    ("precision", "ratio", "{:.4f}"), ("f1", "ratio", "{:.4f}"),
    ("peak_rss_mb", "MB", "{:.1f}"), ("error_rate", "ratio", "{:.3f}"),
]


def print_table(rows: dict[str, dict]) -> None:
    header = ["workload"] + [f"{n} [{u}]" for n, u, _ in FIGURES]
    lines = [header]
    for name, row in rows.items():
        cells = [name]
        for key, _, fmt in FIGURES:
            v = row.get(key)
            cell = "n/a" if v is None else fmt.format(v)
            if key == "eval_tail_ms" and v is not None:
                cell += f" (p{row['eval_tail_pct']}, n={row['eval_n']})"
            if key == "eval_p50_ms":
                cell += f" (n={row['eval_n']})"
            if key == "report_cpu_s":
                cell += f" (n={row['ops']})"
            cells.append(cell)
        lines.append(cells)
    widths = [max(len(r[i]) for r in lines) for i in range(len(header))]
    for r in lines:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced."""
    import subprocess
    rows, layer_rows = {}, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            details = json.loads(lines[-2])["details"]
            result = json.loads(lines[-1])
            if trace:
                layer_rows[name] = result
            else:
                rows[name] = dict(details["row"], correct=result["correct"])
    print_table(rows)
    for name, result in layer_rows.items():
        print(f"\n{name} per-layer (traced run, correct={result['correct']}):")
        for key, v in result["metrics"].items():
            print(f"  {key:52s} {v['value']:>14.6g} {v['unit']}")
    ok = all(r["correct"] for r in [*rows.values(), *layer_rows.values()])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="beamwatch benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_blas()
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace and "row" in out["details"]:
        print_table({args.workload: out["details"]["row"]})
    for failure in out["details"]["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"details": out["details"]}, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

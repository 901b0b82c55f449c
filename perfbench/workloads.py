"""The benchmark's workloads: inputs made from a seed, set-up, the timed CLI
operation, and the output checks that count into the failure rate.

Every workload drives `beamwatch.cli.main` in-process, one call at a time
(closed loop, one client). Why each exists is in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# --set combinations that `rescore` cycles through; the first is the README
# default and is the one its quality figures are read from.
RESCORE_SETTINGS = [
    (lead, mode, gap)
    for gap in (0, 60)
    for mode in ("lead_plus_duration", "lead_only")
    for lead in (10, 30)
]
RECALL_FLOOR = 0.75  # acceptance criterion 5


@dataclass(frozen=True)
class Size:
    duration: int
    n_faults: int
    train_fraction: float
    epochs: int
    hidden_dim: int = 64
    window_k: int = 30


# reference_run is sized so that one op takes a few seconds and a run holds
# many; see README.md, "Workloads".
SIZES = {
    # README defaults (8 faults, k=30, h=64, dropout 0.2) on a 30 min run at 2 epochs
    "reference_run": Size(duration=1800, n_faults=8, train_fraction=0.5, epochs=2),
    # two-day archive scored repeatedly with changing settings; no nn code in the op
    "rescore": Size(duration=172800, n_faults=192, train_fraction=0.5, epochs=0),
}

# Small sizes for the benchmark's own tests.
TINY_SIZES = {
    "reference_run": Size(duration=1200, n_faults=4, train_fraction=0.5, epochs=1,
                          hidden_dim=8, window_k=10),
    "rescore": Size(duration=7200, n_faults=16, train_fraction=0.5, epochs=0),
}


class CheckFailed(Exception):
    pass


@dataclass
class Context:
    """Working directory, config and bookkeeping shared by set-up and ops."""

    workdir: Path
    seed: int
    size: Size
    tracer: object = None          # set while a traced stage runs
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # first outputs, for repeat checks
    cli_cpu_s: float = 0.0         # process CPU time spent in CLI calls so far
    expected: dict = field(default_factory=dict)  # rescore: generated truth

    @property
    def cfg(self) -> Path:
        return self.workdir / "run.cfg"

    @property
    def out(self) -> Path:
        return self.workdir / "out"

    def write_config(self) -> None:
        s = self.size
        pairs = {
            "synth_seed": self.seed, "synth_duration": s.duration,
            "synth_n_faults": s.n_faults, "train_fraction": s.train_fraction,
            "epochs": s.epochs, "hidden_dim": s.hidden_dim, "window_k": s.window_k,
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))

    def cli(self, command: str, *sets: str) -> float:
        """Run one CLI call; returns its wall time and adds its process CPU
        time to `cli_cpu_s`. A nonzero exit raises CheckFailed after
        counting the call as failed."""
        from beamwatch.cli import main
        argv = [command, "--config", str(self.cfg)]
        for pair in sets:
            argv += ["--set", pair]
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        stage = self.tracer.span(f"cli.{command}") if self.tracer else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with stage, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # an uncaught error is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.cli_cpu_s += time.process_time() - c0
        if code != 0:
            self.fail(f"{command} exited {code}: {err.getvalue().strip()}")
        return elapsed

    def fail(self, message: str) -> None:
        """Count the CLI call just made as failed and stop the workload."""
        self.failed += 1
        self.failures.append(message)
        raise CheckFailed(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def check_repeat(self, key: str, value) -> None:
        """Outputs of one seed must repeat exactly across ops of a run."""
        if key not in self.first:
            self.first[key] = value
        else:
            self.check(self.first[key] == value, f"{key} differs from its first value")

    def read_json(self, name: str) -> dict:
        try:
            return json.loads((self.out / name).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            self.fail(f"{name} unreadable: {exc}")

    # -- facts the checks need, computed from the inputs alone ----------

    @property
    def test_start(self) -> int:
        """First second of the test split on synth's 0-based 1 Hz grid."""
        return math.floor(self.size.train_fraction * self.size.duration)

    @property
    def test_windows(self) -> int:
        return self.size.duration - self.test_start - self.size.window_k + 1

    def check_eval(self, doc: dict) -> None:
        self.check(doc.get("frame_span", [None])[0] == self.test_start,
                   f"eval frame_span {doc.get('frame_span')} does not start at the "
                   f"first second detect scored ({self.test_start})")
        for key in ("recall", "precision", "f1"):
            self.check(isinstance(doc.get(key), (int, float)), f"eval report lacks {key}")

    def check_model_roundtrip(self) -> None:
        """model.json loads back to identical arrays and re-serializes to
        the same text."""
        import numpy as np
        from beamwatch import autoencoder as ae
        path = self.workdir / "model.json"
        text = path.read_text()
        model = ae.model_from_json(text)
        again = ae.model_from_json(ae.model_to_json(model))
        same = all(np.array_equal(a, again.parameters()[k])
                   for k, a in model.parameters().items())
        same = same and ae.model_to_json(model) == text
        self.check(same, "model.json does not load back to identical arrays")


def quality(doc: dict) -> dict:
    return {k: doc[k] for k in ("recall", "precision", "f1", "total_faults",
                                "total_anomalies", "true_positives")}


# ---------------------------------------------------------------------------
# rescore inputs


def read_fault_csv(text: str) -> list[tuple[int, int]]:
    rows = list(csv.reader(io.StringIO(text)))
    return [(int(r[0]), int(r[1])) for r in rows[1:] if r]


def make_anomalies(faults: list[tuple[int, int]], span: tuple[int, int], seed: int,
                   false_alarm_rate: float = 0.08) -> tuple[list[tuple[int, float]], dict]:
    """Seeded anomaly points over `span`: hits near 7 of every 8 faults that
    lie in the span, and false alarms kept at least 120 s from every fault.

    Each hit fault gets its first point within 5 s before its start (so it
    counts under every scoring mode and lead window used) and more points
    inside the fault. Returns the sorted points and the expected scoring
    counts for coalesce_gap 0.
    """
    rng = random.Random(seed)
    lo, hi = span
    eligible = [f for f in faults if f[0] >= lo + 10 and f[1] <= hi]
    counted = [f for f in faults if f[1] >= lo and f[0] <= hi]
    stamps: set[int] = set()
    hit = 0
    for g in range(0, len(eligible), 8):
        group = eligible[g:g + 8]
        miss = rng.randrange(len(group))
        for j, (start, end) in enumerate(group):
            if j == miss:
                continue
            hit += 1
            stamps.add(start - rng.randint(0, 5))
            for _ in range(rng.randint(4, 20)):
                stamps.add(rng.randint(start, end))
    quiet = [True] * (hi - lo + 1)
    for start, end in faults:
        for t in range(max(lo, start - 120), min(hi, end + 120) + 1):
            quiet[t - lo] = False
    for _ in range(int(false_alarm_rate * (hi - lo + 1))):
        t = rng.randint(lo, hi)
        if quiet[t - lo]:
            stamps.add(t)
    points = [(t, round(0.5 + rng.random(), 6)) for t in sorted(stamps)]
    return points, {"total_faults": len(counted), "true_positives": hit}


# ---------------------------------------------------------------------------
# Workloads: setup(ctx) prepares inputs, op(ctx, i) is one timed operation
# returning its measured parts. Checks run outside the timed calls. setup_s
# is the median of `setup_repeats` set-ups, so one slow moment of the host
# does not decide it.


class ReferenceRun:
    name = "reference_run"
    setup_repeats = 5

    def setup(self, ctx: Context) -> None:
        ctx.write_config()
        ctx.cli("synth")

    def op(self, ctx: Context, i: int) -> dict:
        train_s = ctx.cli("train")
        ctx.check_model_roundtrip()
        ctx.check_repeat("train_report.loss_history", ctx.read_json("train_report.json").get("loss_history"))
        detect_s = ctx.cli("detect")
        ctx.check_repeat("anomalies.csv", (ctx.out / "anomalies.csv").read_bytes())
        eval_s = ctx.cli("eval")
        doc = ctx.read_json("eval_report.json")
        ctx.check_eval(doc)
        ctx.check(doc["recall"] >= RECALL_FLOOR,
                  f"recall {doc['recall']} below the criterion-5 floor {RECALL_FLOOR}")
        ctx.check_repeat("eval_report", doc)
        return {"report_s": train_s + detect_s + eval_s, "train_s": train_s,
                "detect_s": detect_s, "detect_windows": ctx.test_windows,
                "eval_s": eval_s, "quality": quality(doc)}


class Rescore:
    name = "rescore"
    setup_repeats = 5

    def setup(self, ctx: Context) -> None:
        from beamwatch import detect
        ctx.write_config()
        ctx.cli("synth")
        faults = read_fault_csv((ctx.workdir / "faults.csv").read_text())
        span = (ctx.test_start, ctx.size.duration - 1)
        points, ctx.expected = make_anomalies(faults, span, ctx.seed)
        ctx.out.mkdir(exist_ok=True)
        (ctx.out / "anomalies.csv").write_text(detect.format_anomaly_csv(
            detect.AnomalyPoint(t, e) for t, e in points))

    def op(self, ctx: Context, i: int) -> dict:
        combo = i % len(RESCORE_SETTINGS)
        lead, mode, gap = RESCORE_SETTINGS[combo]
        eval_s = ctx.cli("eval", f"lead_window={lead}", f"scoring_mode={mode}",
                         f"coalesce_gap={gap}")
        doc = ctx.read_json("eval_report.json")
        ctx.check_eval(doc)
        ctx.check((doc["lead_window"], doc["mode"]) == (lead, mode),
                  "eval report does not echo the requested settings")
        ctx.check_repeat(f"eval_report[{combo}]", doc)
        if gap == 0:
            for key, want in ctx.expected.items():
                ctx.check(doc[key] == want, f"eval {key} {doc[key]} != generated {want}")
        result = {"report_s": eval_s, "eval_s": eval_s}
        if combo == 0:
            result["quality"] = quality(doc)
        return result


WORKLOADS = {w.name: w for w in (ReferenceRun(), Rescore())}

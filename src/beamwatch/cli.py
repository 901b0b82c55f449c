"""Command-line driver: synth -> train -> detect -> eval.

Each subcommand takes --config <path> plus repeatable --set key=value
overrides, exits 0 on success, and prints a single-line diagnostic to stderr
with a nonzero exit on failure. Reports are written in both human-readable
text and machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import autoencoder as ae
from . import data, detect, faults, synth
from .config import RunConfig, load_run_config
from .errors import BeamwatchError, ConfigError, DataError, ParseError
from .ioutil import atomic_write_text


def _parse_file(path, parse, *args):
    """Read and parse one input file; an error in its content names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except BeamwatchError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_series(cfg: RunConfig) -> list[data.RawSeries]:
    return [_parse_file(p, data.parse_series_csv, Path(p).stem) for p in cfg.series_files]


def _read_current(cfg: RunConfig) -> data.RawSeries:
    """Parse the beam-current file and align it to the 1 Hz grid."""
    series = _parse_file(cfg.current_file, data.parse_series_csv,
                         Path(cfg.current_file).stem)
    frame = data.align_and_fill([series])
    return data.RawSeries(series.channel_name,
                          frame.timestamps.astype(float), frame.values[:, 0])


def _ground_truth(cfg: RunConfig, current: data.RawSeries) -> list[faults.FaultEvent]:
    lists = [_parse_file(p, faults.parse_fault_events) for p in cfg.fault_files]
    lists.append(faults.detect_current_drops(current, cfg.current_drop_threshold))
    return faults.merge_event_lists(lists, cfg.coalesce_gap)


def _autoencoder_config(cfg: RunConfig, feature_m: int) -> ae.AutoencoderConfig:
    return ae.AutoencoderConfig(
        window_k=cfg.window_k,
        feature_m=feature_m,
        hidden_dim=cfg.hidden_dim,
        dropout_rate=cfg.dropout_rate,
        seed=cfg.model_seed,
    )


def cmd_synth(cfg: RunConfig) -> None:
    """Generate a synthetic run and write it to the configured input paths."""
    scfg = synth.SynthConfig(duration=cfg.synth_duration, seed=cfg.synth_seed,
                             n_faults=cfg.synth_n_faults)
    frame, current, truth = synth.generate_run(scfg)
    if len(cfg.series_files) != len(frame.channels):
        raise ConfigError(
            f"synth produces {len(frame.channels)} channels but config names "
            f"{len(cfg.series_files)} series files"
        )
    for idx, path in enumerate(cfg.series_files):
        series = data.RawSeries(frame.channels[idx],
                                frame.timestamps.astype(float), frame.values[:, idx])
        atomic_write_text(path, data.format_series_csv(series))
    atomic_write_text(cfg.current_file, data.format_series_csv(current))
    atomic_write_text(cfg.fault_files[0], faults.format_fault_csv(truth))
    print(f"synth: wrote {scfg.duration}s run with {len(truth)} faults "
          f"to {len(cfg.series_files) + 2} files")


def cmd_train(cfg: RunConfig) -> None:
    """Train on the cleaned chronological train split and save the artifact."""
    series = _read_series(cfg)
    frame = data.align_and_fill(series)
    train_frame, _ = data.chronological_split(frame, cfg.train_fraction)

    current = _read_current(cfg)
    truth = _ground_truth(cfg, current)
    clean = data.remove_fault_neighborhoods(train_frame, truth, cfg.fault_margin)
    stats = data.compute_channel_stats(clean)
    standardized = data.standardize(clean, stats)
    ws = data.make_windows(standardized, cfg.window_k)

    model = ae.init_model(_autoencoder_config(cfg, len(series)))
    tcfg = ae.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                          shuffle_seed=cfg.shuffle_seed)
    model, history = ae.train_epochs(model, ws.windows, tcfg)

    train_errors = ae.reconstruction_errors(model, ws.windows)
    thr = detect.compute_threshold(train_errors, cfg.threshold_multiplier)
    model = replace(model, channel_stats=stats, threshold=thr.value)
    ae.save_model(model, cfg.model_file)

    max_err = float(train_errors.max())
    report = {
        "n_train_rows": train_frame.n_rows,
        "n_rows_after_removal": clean.n_rows,
        "n_windows": len(ws),
        "epochs": tcfg.epochs,
        "loss_history": history,
        "threshold_mean": thr.mean,
        "threshold_std": thr.std,
        "threshold_multiplier": thr.multiplier,
        "threshold": thr.value,
        "max_training_error": max_err,
        "threshold_to_max_error_ratio": thr.value / max_err if max_err > 0 else None,
    }
    out = Path(cfg.output_dir)
    atomic_write_text(out / "train_report.json", json.dumps(report, indent=1) + "\n")
    atomic_write_text(out / "train_report.txt", _train_report_text(report))
    final = history[-1] if history else float("nan")
    print(f"train: {len(ws)} windows, final epoch loss {final:.6f}, "
          f"threshold {thr.value:.6f} -> {cfg.model_file}")


def _train_report_text(report: dict) -> str:
    lines = ["training report", "---------------"]
    for key in ("n_train_rows", "n_rows_after_removal", "n_windows", "epochs",
                "threshold_mean", "threshold_std", "threshold_multiplier",
                "threshold", "max_training_error", "threshold_to_max_error_ratio"):
        lines.append(f"{key:>30}: {report[key]}")
    lines.append(f"{'loss_history':>30}: " +
                 ", ".join(f"{x:.6f}" for x in report["loss_history"]))
    return "\n".join(lines) + "\n"


def cmd_detect(cfg: RunConfig) -> None:
    """Apply a trained model to the untouched test split and flag anomalies."""
    model = _parse_file(cfg.model_file, ae.model_from_json)
    if model.channel_stats is None or model.threshold is None:
        raise ConfigError(f"model {cfg.model_file} is not calibrated "
                          "(missing channel stats or threshold)")
    series = _read_series(cfg)
    if len(series) != model.config.feature_m:
        raise ConfigError(
            f"model was trained on {model.config.feature_m} channels but "
            f"config names {len(series)} series files"
        )
    frame = data.align_and_fill(series)
    _, test_frame = data.chronological_split(frame, cfg.train_fraction)
    if test_frame.n_rows == 0:
        raise DataError("test split is empty; lower train_fraction")
    standardized = data.standardize(test_frame, model.channel_stats)
    ws = data.make_windows(standardized, model.config.window_k)

    errors = ae.reconstruction_errors(model, ws.windows)
    points = detect.flag_anomalies(errors, ws.end_timestamps, model.threshold)
    out = Path(cfg.output_dir)
    atomic_write_text(out / "anomalies.csv", detect.format_anomaly_csv(points))
    message = f"detect: {len(points)} anomalies in {len(ws)} windows"
    if cfg.merge_max_gap is not None:
        events = detect.merge_consecutive_anomalies(points, cfg.merge_max_gap)
        atomic_write_text(out / "anomaly_events.csv", detect.format_event_csv(events))
        message += f", merged into {len(events)} events"
    print(message + f" -> {out}")


def cmd_eval(cfg: RunConfig) -> None:
    """Score the anomaly CSV against ground truth over the test span."""
    anomalies = _parse_file(Path(cfg.output_dir) / "anomalies.csv",
                            detect.parse_anomaly_csv)
    current = _read_current(cfg)
    truth = _ground_truth(cfg, current)

    n = len(current)
    n_train = int(cfg.train_fraction * n)
    if n_train >= n:
        raise DataError("test split is empty; lower train_fraction")
    span = (int(current.timestamps[n_train]), int(current.timestamps[-1]))
    clipped = [
        replace(f, start=max(f.start, span[0]), end=min(f.end, span[1]))
        for f in truth
        if f.end >= span[0] and f.start <= span[1]
    ]
    report = detect.score_detections(anomalies, clipped, cfg.lead_window,
                                     cfg.scoring_mode, span)

    doc = {
        "mode": cfg.scoring_mode,
        "lead_window": cfg.lead_window,
        "frame_span": list(span),
        "total_faults": report.total_faults,
        "total_anomalies": report.total_anomalies,
        "true_positives": report.true_positives,
        "false_positives": report.false_positives,
        "false_negatives": report.false_negatives,
        "matched_anomalies": report.matched_anomalies,
        "precision": report.precision,
        "recall": report.recall,
        "accuracy": report.accuracy,
        "f1": report.f1,
        "matched_faults": [[f.start, f.end] for f in report.matched_faults],
    }
    out = Path(cfg.output_dir)
    atomic_write_text(out / "eval_report.json", json.dumps(doc, indent=1) + "\n")
    atomic_write_text(out / "eval_report.txt", _eval_report_text(doc))
    print(f"eval: precision {report.precision:.3f} recall {report.recall:.3f} "
          f"accuracy {report.accuracy:.3f} f1 {report.f1:.3f}")


def _eval_report_text(doc: dict) -> str:
    lines = ["evaluation report", "-----------------"]
    for key in ("mode", "lead_window", "frame_span", "total_faults",
                "total_anomalies", "true_positives", "false_positives",
                "false_negatives", "matched_anomalies"):
        lines.append(f"{key:>20}: {doc[key]}")
    for key in ("precision", "recall", "accuracy", "f1"):
        lines.append(f"{key:>20}: {doc[key]:.6f}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "detect": cmd_detect,
    "eval": cmd_eval,
}


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamwatch",
        description="LSTM-autoencoder anomaly detection for beam-monitor time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, _parse_overrides(args.set))
        _COMMANDS[args.command](cfg)
        return 0
    except (BeamwatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line driver: synth -> train -> detect -> eval.

Each subcommand takes --config <path> plus repeatable --set key=value
overrides, exits 0 on success, and prints a single-line diagnostic to stderr
with a nonzero exit on failure. Reports are written in both human-readable
text and machine-readable JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import autoencoder as ae
from . import data, detect, faults, synth
from .config import RunConfig, load_run_config
from .errors import BeamwatchError, ConfigError, DataError
from .ioutil import (atomic_write_bytes, atomic_write_text, atomic_writer, file_sha256,
                     map_optional_bytes, read_input, remove_file)


# A parse-cache entry: this tag, the sha256 of the input bytes, the row
# count n (uint64), then the parsed [2, n] table (stamps, then values) as
# little-endian float64.
_CACHE_TAG = b"bwseries"
_CACHE_HEADER = len(_CACHE_TAG) + 32 + 8


def _cached_table(entry, digest: bytes) -> np.ndarray | None:
    """The [2, n] table, viewed in place, of a cache entry (any bytes-like
    object, or None) made from the input bytes with this `digest`, or None
    when the entry is missing, foreign or cut short."""
    key = _CACHE_TAG + digest
    if entry is None or len(entry) < _CACHE_HEADER or entry[:len(key)] != key:
        return None
    n = int.from_bytes(entry[_CACHE_HEADER - 8:_CACHE_HEADER], "little")
    if len(entry) != _CACHE_HEADER + 16 * n:
        return None
    return np.frombuffer(entry, dtype="<f8", offset=_CACHE_HEADER).reshape(2, n)


def _parse_and_cache(raw: bytes, entry_path: Path, name: str) -> data.RawSeries:
    """The series parsed from `raw`, written, once it is known to be valid,
    to the entry keyed by the digest of these very bytes."""
    series = data.parse_series_csv(raw, name)
    atomic_write_bytes(entry_path, _CACHE_TAG, hashlib.sha256(raw).digest(),
                       len(series).to_bytes(8, "little"),
                       np.ascontiguousarray(series.timestamps, dtype="<f8"),
                       np.ascontiguousarray(series.values, dtype="<f8"))
    return series


def _read_series_file(path: str, cfg: RunConfig) -> data.RawSeries:
    """Read one series file, named after its stem, through the parse cache
    in `<output_dir>/.series_cache/<stem>`.

    A hit hashes the file in chunks and views the read-only mapped entry,
    so the file is never held in memory whole; a miss reads and parses it.
    """
    name = Path(path).stem
    entry_path = Path(cfg.output_dir) / ".series_cache" / name
    digest = file_sha256(path)
    table = _cached_table(map_optional_bytes(entry_path), digest)
    if table is not None:
        # RawSeries checks the table again; an entry that fails is a miss.
        with contextlib.suppress(BeamwatchError):
            return data.RawSeries(name, table[0], table[1])
    return read_input(path, _parse_and_cache, entry_path, name)


def _read_series(cfg: RunConfig) -> list[data.RawSeries]:
    return [_read_series_file(p, cfg) for p in cfg.series_files]


def _read_current(cfg: RunConfig) -> data.AlignedFrame:
    """Parse the beam-current file and align it to the 1 Hz grid."""
    return data.align_and_fill([_read_series_file(cfg.current_file, cfg)])


def _ground_truth(cfg: RunConfig, current: data.AlignedFrame) -> list[faults.FaultEvent]:
    lists = [read_input(p, faults.parse_fault_events) for p in cfg.fault_files]
    series = data._unchecked(data.RawSeries, current.channels[0], current.timestamps,
                             current.values[:, 0])
    lists.append(faults.detect_current_drops(series, cfg.current_drop_threshold))
    return faults.merge_event_lists(lists, cfg.coalesce_gap)


def _test_split(frame: data.AlignedFrame, train_fraction: float) -> data.AlignedFrame:
    """The rows after the train split: what `detect` flags and `eval` scores."""
    _, test = data.chronological_split(frame, train_fraction)
    if test.n_rows == 0:
        raise DataError("test split is empty; lower train_fraction")
    return test


def _text_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(map(_text_value, value)) + "]"
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _write_report(out: Path, name: str, title: str, doc: dict) -> None:
    """Write `doc` to `<name>.json` and, one `key: value` line per key in
    the same order (floats at 6 decimals), to `<name>.txt`."""
    atomic_write_text(out / f"{name}.json", json.dumps(doc, indent=1) + "\n")
    lines = [title, "-" * len(title)]
    lines += [f"{key}: {_text_value(value)}" for key, value in doc.items()]
    atomic_write_text(out / f"{name}.txt", "\n".join(lines) + "\n")


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
    outputs = [(path, data.RawSeries(name, frame.timestamps, frame.values[:, idx]))
               for idx, (path, name) in enumerate(zip(cfg.series_files, frame.channels))]
    for path, series in outputs + [(cfg.current_file, current)]:
        with atomic_writer(path) as fh:
            data.format_series_csv(series, fh)
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

    model = ae.init_model(ae.AutoencoderConfig(
        window_k=cfg.window_k, feature_m=len(series), hidden_dim=cfg.hidden_dim,
        dropout_rate=cfg.dropout_rate, seed=cfg.model_seed))
    tcfg = ae.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                          shuffle_seed=cfg.shuffle_seed)
    model, history = ae.train_epochs(model, ws.windows, tcfg)

    train_errors = ae.reconstruction_errors(model, ws.windows)
    thr = detect.compute_threshold(train_errors, cfg.threshold_multiplier)
    span = (int(train_frame.timestamps[0]), int(train_frame.timestamps[-1]))
    provenance = ae.Provenance(__version__, span, len(ws))
    model = replace(model, channel_stats=stats, threshold=thr.value, provenance=provenance)
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
    _write_report(Path(cfg.output_dir), "train_report", "training report", report)
    final = history[-1] if history else float("nan")
    print(f"train: {len(ws)} windows, final epoch loss {final:.6f}, "
          f"threshold {thr.value:.6f} -> {cfg.model_file}")


def cmd_detect(cfg: RunConfig) -> None:
    """Apply a trained model to the untouched test split and flag anomalies."""
    model = ae.load_model(cfg.model_file)
    if model.channel_stats is None or model.threshold is None:
        raise ConfigError(f"model {cfg.model_file} is not calibrated "
                          "(missing channel stats or threshold)")
    series = _read_series(cfg)
    if len(series) != model.config.feature_m:
        raise ConfigError(
            f"model was trained on {model.config.feature_m} channels but "
            f"config names {len(series)} series files"
        )
    test_frame = _test_split(data.align_and_fill(series), cfg.train_fraction)
    standardized = data.standardize(test_frame, model.channel_stats)
    ws = data.make_windows(standardized, model.config.window_k)

    errors = ae.reconstruction_errors(model, ws.windows)
    flagged = detect.flag_anomalies(errors, ws.end_timestamps, model.threshold)
    # merge (which checks merge_max_gap) before writing, so that a failing
    # run leaves the earlier outputs as they were
    events = None if cfg.merge_max_gap is None else \
        detect.merge_consecutive_anomalies(flagged, cfg.merge_max_gap)
    out = Path(cfg.output_dir)
    atomic_write_text(out / "anomalies.csv", detect.format_anomaly_csv(flagged))
    message = f"detect: {len(flagged)} anomalies in {len(ws)} windows"
    if events is None:
        # an earlier run's events would not match these anomalies
        remove_file(out / "anomaly_events.csv")
    else:
        atomic_write_text(out / "anomaly_events.csv", detect.format_event_csv(events))
        message += f", merged into {len(events)} events"
    print(message + f" -> {out}")


def cmd_eval(cfg: RunConfig) -> None:
    """Score the anomaly CSV against ground truth over the test span."""
    out = Path(cfg.output_dir)
    anomalies = read_input(out / "anomalies.csv", detect.parse_anomaly_csv)
    current = _read_current(cfg)
    truth = _ground_truth(cfg, current)
    test = _test_split(current, cfg.train_fraction)
    span = (int(test.timestamps[0]), int(test.timestamps[-1]))
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
    _write_report(out, "eval_report", "evaluation report", doc)
    print(f"eval: precision {report.precision:.3f} recall {report.recall:.3f} "
          f"accuracy {report.accuracy:.3f} f1 {report.f1:.3f}")


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

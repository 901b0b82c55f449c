"""Command-line driver: synth -> train -> detect -> eval.

Each subcommand takes --config <path> plus repeatable --set key=value
overrides, exits 0 on success, and prints a single-line diagnostic to stderr
with a nonzero exit on failure. Reports are written in both human-readable
text and machine-readable JSON. The series files and the anomaly CSV are
read through the parse cache, `ioutil.read_cached`; this module gives it
only each kind's tag, a view of an entry's table and a parse.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
from .ioutil import atomic_write_text, atomic_writer, read_cached, read_input, remove_file


# Each kind of input read through the parse cache (see `ioutil.read_cached`),
# in `<output_dir>/.series_cache`, has its own tag, so neither is read as the
# other. A series entry's table is its [2, n] little-endian float64 stamps,
# then values; the anomaly CSV's is its n `detect.ANOMALY_DTYPE` rows.
_SERIES_TAG = b"bwcsvcpy"
_ANOMALY_TAG = b"bwanocpy"
_CACHE_DIR = ".series_cache"


def _read_series_file(path: str, cfg: RunConfig) -> data.RawSeries:
    """Read one series file, named after its stem, through the parse cache.

    A hit views the table in the read-only mapped entry. A miss reads the
    file with `data.read_series`, which parses it a block at a time into the
    table and streams those very blocks into the entry's temp file; a block
    that is not plain goes through the line loop by itself, which names any
    error's line. So neither holds the file in memory whole.
    """
    name = Path(path).stem

    def view(n, table):
        # RawSeries checks the table again; an entry that fails is a miss.
        with contextlib.suppress(BeamwatchError):
            return data.RawSeries(name, *np.frombuffer(table, dtype="<f8").reshape(2, n))

    def parse(src, copy):
        series = data.read_series(src, name, copy)
        return series, [np.ascontiguousarray(series.timestamps, dtype="<f8"),
                        np.ascontiguousarray(series.values, dtype="<f8")]

    return read_cached(path, Path(cfg.output_dir, _CACHE_DIR), _SERIES_TAG, view, parse)


def _read_anomalies(path: Path, cfg: RunConfig) -> np.ndarray:
    """The anomaly table of `path` through the parse cache: a hit views the
    mapped entry, whose errors must be finite as a parse's are; a miss reads
    the file once and parses it with `parse_anomaly_csv`."""
    def view(n, table):
        table = np.frombuffer(table, dtype=detect.ANOMALY_DTYPE)
        return table if np.isfinite(table["error"]).all() else None

    def parse(src, copy):
        raw = src.read()
        copy(raw)
        table = detect.parse_anomaly_csv(raw)
        return table, [table]

    return read_cached(path, Path(cfg.output_dir, _CACHE_DIR), _ANOMALY_TAG, view, parse)


def _read_aligned(cfg: RunConfig, paths: tuple[str, ...]) -> data.AlignedFrame:
    """Parse the series files `paths` and align them to the 1 Hz grid."""
    series = [_read_series_file(p, cfg) for p in paths]
    with _derived_from(*paths):
        return data.align_and_fill(series)


def _ground_truth(cfg: RunConfig, current: data.AlignedFrame) -> list[faults.FaultEvent]:
    lists = [read_input(p, faults.parse_fault_events) for p in cfg.fault_files]
    series = data._unchecked(data.RawSeries, current.channels[0], current.timestamps,
                             current.values[:, 0])
    lists.append(faults.detect_current_drops(series, cfg.current_drop_threshold))
    return faults.merge_event_lists(lists, cfg.coalesce_gap)


@contextlib.contextmanager
def _derived_from(*paths):
    """Put `paths`, the input files the block's data come from, in front of
    a DataError it raises, as `read_input` does for an error in one file."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{', '.join(map(str, paths))}: {exc}") from None


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
    if len(cfg.series_files) != len(synth.FRAME_CHANNELS):
        raise ConfigError(f"synth produces {len(synth.FRAME_CHANNELS)} channels but "
                          f"config names {len(cfg.series_files)} series files")
    scfg = synth.SynthConfig(duration=cfg.synth_duration, seed=cfg.synth_seed,
                             n_faults=cfg.synth_n_faults)
    truth = synth.place_faults(scfg)
    # One pass over the run's blocks; a failing pass replaces no file.
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(atomic_writer(path))
                 for path in (*cfg.series_files, cfg.current_file)]
        for fh in files:
            fh.write(data.SERIES_CSV_HEADER + "\n")
        for stamps, *columns in synth.generate_blocks(scfg, truth):
            for fh, values in zip(files, columns):
                data.write_series_rows(stamps, values, fh)
    atomic_write_text(cfg.fault_files[0], faults.format_fault_csv(truth))
    print(f"synth: wrote {scfg.duration}s run with {len(truth)} faults "
          f"to {len(cfg.series_files) + 2} files")


def cmd_train(cfg: RunConfig) -> None:
    """Train on the cleaned chronological train split and save the artifact."""
    frame = _read_aligned(cfg, cfg.series_files)
    train_frame, _ = data.chronological_split(frame, cfg.train_fraction)

    current = _read_aligned(cfg, (cfg.current_file,))
    truth = _ground_truth(cfg, current)
    clean = data.remove_fault_neighborhoods(train_frame, truth, cfg.fault_margin)
    with _derived_from(*cfg.series_files):
        stats = data.compute_channel_stats(clean)
        standardized = data.standardize(clean, stats)
        ws = data.make_windows(standardized, cfg.window_k)

    model = ae.init_model(ae.AutoencoderConfig(
        window_k=cfg.window_k, feature_m=len(frame.channels), hidden_dim=cfg.hidden_dim,
        dropout_rate=cfg.dropout_rate, seed=cfg.model_seed))
    tcfg = ae.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                          shuffle_seed=cfg.shuffle_seed)
    model, history = ae.train_epochs(model, ws, tcfg)

    train_errors = ae.reconstruction_errors(model, ws)
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
    frame = _read_aligned(cfg, cfg.series_files)
    if len(frame.channels) != model.config.feature_m:
        raise ConfigError(
            f"model was trained on {model.config.feature_m} channels but "
            f"config names {len(frame.channels)} series files"
        )
    test_frame = _test_split(frame, cfg.train_fraction)
    test_span = [int(test_frame.timestamps[0]), int(test_frame.timestamps[-1])]
    if model.provenance is not None:  # the model must not score seconds it trained on
        first, last = model.provenance.train_span
        if test_span[0] <= last and first <= test_span[1]:
            raise DataError(f"{cfg.model_file}: test span {test_span} overlaps the "
                            f"model's train span [{first}, {last}]")
    k = model.config.window_k
    with _derived_from(*cfg.series_files):
        standardized = data.standardize(test_frame, model.channel_stats)
        ws = data.make_windows(standardized, k)

    errors = ae.reconstruction_errors(model, ws)
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
    # what detect scored: its test span, whose first k-1 seconds end no
    # window and so can never be flagged
    record = {
        "test_span": test_span,
        "train_fraction": cfg.train_fraction,
        "window_k": k,
        "blind_leading_seconds": k - 1,
        "n_windows": len(ws),
        "n_anomalies": len(flagged),
    }
    _write_report(out, "detect_report", "detection report", record)
    print(message + f" -> {out}")


def cmd_eval(cfg: RunConfig) -> None:
    """Score the anomaly CSV against ground truth over the test span."""
    out = Path(cfg.output_dir)
    anomalies_path = out / "anomalies.csv"
    anomalies = _read_anomalies(anomalies_path, cfg)
    current = _read_aligned(cfg, (cfg.current_file,))
    truth = _ground_truth(cfg, current)
    test = _test_split(current, cfg.train_fraction)
    span = (int(test.timestamps[0]), int(test.timestamps[-1]))
    with _derived_from(anomalies_path):
        report = detect.score_detections(anomalies, truth, cfg.lead_window,
                                         cfg.scoring_mode, span)
    _write_report(out, "eval_report", "evaluation report", vars(report))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: `parse_args`
    keeps no state in it between calls."""
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
    args = _parser().parse_args(argv)
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

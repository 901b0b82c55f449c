"""Flat key = value run configuration shared by all CLI subcommands.

Every tunable of the workflow (window size, hidden units, dropout, the 10 s
fault margin and lead window, the 3-sigma multiplier, ...) is a config key
with the reference default, never a hard-coded constant. Relative paths are
resolved against the directory containing the config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .detect import SCORING_MODES
from .errors import ConfigError, ParseError


@dataclass(frozen=True)
class RunConfig:
    # input/output paths
    series_files: tuple[str, ...] = ("wiresum.csv", "xpos.csv", "ypos.csv")
    current_file: str = "current.csv"
    fault_files: tuple[str, ...] = ("faults.csv",)
    model_file: str = "model.json"
    output_dir: str = "out"
    # autoencoder architecture
    window_k: int = 30
    hidden_dim: int = 64
    dropout_rate: float = 0.2
    model_seed: int = 0
    # training
    epochs: int = 50
    batch_size: int = 64
    shuffle_seed: int = 0
    train_fraction: float = 0.5
    fault_margin: int = 10
    # detection and evaluation
    threshold_multiplier: float = 3.0
    current_drop_threshold: float = 45.0
    lead_window: int = 10
    scoring_mode: str = "lead_plus_duration"
    merge_max_gap: int | None = None
    coalesce_gap: int = 0
    # synthetic data generation
    synth_duration: int = 7200
    synth_seed: int = 7
    synth_n_faults: int = 8

    def __post_init__(self):
        if self.scoring_mode not in SCORING_MODES:
            raise ConfigError(
                f"scoring_mode must be one of {SCORING_MODES}, got {self.scoring_mode!r}"
            )
        if not self.series_files:
            raise ConfigError("series_files must name at least one file")
        if not self.fault_files:
            raise ConfigError("fault_files must name at least one file")


def _convert(key: str, value: str, target_type):
    value = value.strip()
    try:
        if target_type == "tuple[str, ...]":
            items = tuple(p.strip() for p in value.split(",") if p.strip())
            return items
        if target_type == "int":
            return int(value)
        if target_type == "int | None":
            return None if value == "" else int(value)
        if target_type == "float":
            return float(value)
        return value  # str
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from None


def parse_run_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse `key = value` lines (# comments allowed) into a RunConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    if overrides:
        raw.update(overrides)

    by_name = {f.name: f for f in fields(RunConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in by_name:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _convert(key, value, by_name[key].type)
    return RunConfig(**kwargs)


def load_run_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read a UTF-8 config file and resolve its relative paths against its
    parent; undecodable bytes raise ParseError naming the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    cfg = parse_run_config(text, overrides)
    base = path.parent

    def resolve(p: str) -> str:
        return str(base / p) if not Path(p).is_absolute() else p

    return RunConfig(
        **{
            **{f.name: getattr(cfg, f.name) for f in fields(RunConfig)},
            "series_files": tuple(resolve(p) for p in cfg.series_files),
            "current_file": resolve(cfg.current_file),
            "fault_files": tuple(resolve(p) for p in cfg.fault_files),
            "model_file": resolve(cfg.model_file),
            "output_dir": resolve(cfg.output_dir),
        }
    )

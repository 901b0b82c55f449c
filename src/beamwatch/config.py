"""Flat key = value run configuration shared by all CLI subcommands.

Every tunable of the workflow (window size, hidden units, dropout, the 10 s
fault margin and lead window, the 3-sigma multiplier, ...) is a config key
with the reference default, never a hard-coded constant. Relative paths are
resolved against the directory containing the config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .detect import SCORING_MODES
from .errors import ConfigError
from .ioutil import as_text, read_input


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


def _typed(raw: dict[str, str]) -> dict:
    """Convert `key = value` strings to the RunConfig field types."""
    types = {f.name: f.type for f in fields(RunConfig)}
    kwargs = {}
    for key, value in raw.items():
        value = value.strip()
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if types[key] == "tuple[str, ...]":
                kwargs[key] = tuple(p.strip() for p in value.split(",") if p.strip())
            elif types[key] == "int":
                kwargs[key] = int(value)
            elif types[key] == "int | None":
                kwargs[key] = None if value == "" else int(value)
            elif types[key] == "float":
                kwargs[key] = float(value)
                if not math.isfinite(kwargs[key]):
                    raise ConfigError(f"config key {key!r}: {value!r} is not finite")
            else:
                kwargs[key] = value
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from None
    return kwargs


def _with_overrides(cfg: RunConfig, overrides: dict[str, str] | None) -> RunConfig:
    """Apply `--set` pairs to a parsed config; their errors say `--set`."""
    try:
        return replace(cfg, **_typed(overrides or {}))
    except ConfigError as exc:
        raise ConfigError(f"--set: {exc}") from None


def parse_run_config(text: str | bytes) -> RunConfig:
    """Parse `key = value` lines (# comments allowed) into a RunConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(as_text(text).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return RunConfig(**_typed(raw))


def load_run_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read a config file through `read_input` (its errors name the file),
    apply the overrides and resolve relative paths against its parent."""
    path = Path(path)
    cfg = _with_overrides(read_input(path, parse_run_config), overrides)

    def resolve(p: str) -> str:
        return str(path.parent / p) if not Path(p).is_absolute() else p

    return replace(cfg, series_files=tuple(map(resolve, cfg.series_files)),
                   current_file=resolve(cfg.current_file),
                   fault_files=tuple(map(resolve, cfg.fault_files)),
                   model_file=resolve(cfg.model_file), output_dir=resolve(cfg.output_dir))

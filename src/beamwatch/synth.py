"""Deterministic generator of accelerator-like monitor runs.

Produces a beam-current series plus a wiresum/x/y frame with injected
faults: the current collapses during each fault, the wiresum tracks it, and
the positions pick up a step perturbation a few seconds before the fault
starts so that lead-window detection is actually exercised. Every channel
draws from its own seeded stream, so tweaking one channel's parameters
leaves the others untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AlignedFrame, RawSeries
from .errors import ConfigError
from .faults import SOURCE_RECORDED, FaultEvent

# stream indices (per-channel substreams of the run seed)
_STREAM_FAULTS = 0
_STREAM_CURRENT = 1
_STREAM_WIRESUM = 2
_STREAM_XPOS = 3
_STREAM_YPOS = 4


@dataclass(frozen=True)
class SynthConfig:
    duration: int = 7200
    seed: int = 0
    current_plateau: float = 90.0
    fault_current_level: float = 2.0
    current_noise_std: float = 0.4
    current_drift_amplitude: float = 0.0
    current_drift_period: float = 2400.0
    wiresum_gain: float = 12.0
    wiresum_noise_std: float = 5.0
    position_noise_std: float = 0.01
    n_faults: int = 8
    fault_duration_min: int = 5
    fault_duration_max: int = 30
    drift_amplitude: float = 0.05
    drift_period: float = 1800.0
    position_step: float = 0.5
    step_lead: int = 5

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.n_faults < 0:
            raise ConfigError(f"n_faults must be >= 0, got {self.n_faults}")
        if not 1 <= self.fault_duration_min <= self.fault_duration_max:
            raise ConfigError("fault duration range must satisfy 1 <= min <= max")
        if self.step_lead < 0:
            raise ConfigError(f"step_lead must be >= 0, got {self.step_lead}")
        if min(self.current_noise_std, self.wiresum_noise_std,
               self.position_noise_std) < 0:
            raise ConfigError("noise stds must be >= 0")
        if self.drift_period <= 0 or self.current_drift_period <= 0:
            raise ConfigError("drift periods must be positive")


def _place_faults(cfg: SynthConfig) -> list[FaultEvent]:
    # One fault per equal-width slot keeps intervals disjoint (with >= 2 s
    # gaps) and spreads them over both the train and test halves.
    if cfg.n_faults == 0:
        return []
    slot = cfg.duration // cfg.n_faults
    overhead = cfg.fault_duration_max + cfg.step_lead + 2
    if slot < overhead:
        raise ConfigError(
            f"cannot place {cfg.n_faults} faults of up to "
            f"{cfg.fault_duration_max}s in {cfg.duration}s without overlap"
        )
    rng = np.random.default_rng([cfg.seed, _STREAM_FAULTS])
    events = []
    for j in range(cfg.n_faults):
        dur = int(rng.integers(cfg.fault_duration_min, cfg.fault_duration_max + 1))
        slot_start = j * slot
        lo = slot_start + cfg.step_lead
        hi = slot_start + slot - dur - 2
        start = int(rng.integers(lo, hi + 1))
        events.append(FaultEvent(start, start + dur - 1, SOURCE_RECORDED))
    return events


def generate_run(cfg: SynthConfig) -> tuple[AlignedFrame, RawSeries, list[FaultEvent]]:
    """Generate one run: (wiresum/xpos/ypos frame, current series, truth).

    Fully determined by cfg.seed. Outside fault intervals the current sits
    at the plateau; inside them it drops to fault_current_level. Positions
    drift sinusoidally and take a per-fault step offset from step_lead
    seconds before each fault start through its end.
    """
    faults = _place_faults(cfg)
    t = np.arange(cfg.duration, dtype=np.int64)

    in_fault = np.zeros(cfg.duration, dtype=bool)
    for ev in faults:
        in_fault[ev.start:ev.end + 1] = True

    # optional slow wander of the plateau (off by default)
    level = cfg.current_plateau + cfg.current_drift_amplitude * \
        np.sin(2.0 * np.pi * t / cfg.current_drift_period)
    current_base = np.where(in_fault, cfg.fault_current_level, level)
    rng_cur = np.random.default_rng([cfg.seed, _STREAM_CURRENT])
    current = current_base + rng_cur.normal(0.0, cfg.current_noise_std, cfg.duration)

    rng_ws = np.random.default_rng([cfg.seed, _STREAM_WIRESUM])
    wiresum = cfg.wiresum_gain * current_base + \
        rng_ws.normal(0.0, cfg.wiresum_noise_std, cfg.duration)

    phase = 2.0 * np.pi * t / cfg.drift_period
    xpos = _position_channel(cfg, faults, np.sin(phase), _STREAM_XPOS)
    ypos = _position_channel(cfg, faults, np.cos(phase), _STREAM_YPOS)

    frame = AlignedFrame(("wiresum", "xpos", "ypos"), t,
                         np.column_stack([wiresum, xpos, ypos]))
    current_series = RawSeries("current", t, current)
    return frame, current_series, faults


def _position_channel(cfg: SynthConfig, faults, drift_wave, stream: int) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, stream])
    # per-fault step signs first, then the noise array: fixed draw order
    signs = rng.choice([-1.0, 1.0], size=len(faults))
    steps = np.zeros(cfg.duration)
    for sign, ev in zip(signs, faults):
        steps[max(0, ev.start - cfg.step_lead):ev.end + 1] = sign * cfg.position_step
    noise = rng.normal(0.0, cfg.position_noise_std, cfg.duration)
    return cfg.drift_amplitude * drift_wave + steps + noise

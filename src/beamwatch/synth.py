"""Deterministic generator of accelerator-like monitor runs.

Produces a beam-current series plus a wiresum/x/y frame with injected
faults: the current collapses during each fault, the wiresum tracks it, and
the positions pick up a step perturbation a few seconds before the fault
starts so that lead-window detection is actually exercised. Every channel
draws from its own seeded stream, so tweaking one channel's parameters
leaves the others untouched, and a run comes out in blocks of seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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

# fixed shape of every run: beam current on the plateau and during a fault,
# wiresum per unit of current, fault lengths in seconds, and the position
# step and how many seconds before a fault it starts
CURRENT_PLATEAU = 90.0
FAULT_CURRENT_LEVEL = 2.0
WIRESUM_GAIN = 12.0
FAULT_DURATION_MIN = 5
FAULT_DURATION_MAX = 30
POSITION_STEP = 0.5
STEP_LEAD = 5

# the frame's channels in column order, and the seconds per block of
# `generate_blocks`: beside fault masks of 1 byte a second, all of the run
# that synth holds at once
FRAME_CHANNELS = ("wiresum", "xpos", "ypos")
BLOCK_SECONDS = 4096


@dataclass(frozen=True)
class SynthConfig:
    duration: int = 7200
    seed: int = 0
    current_noise_std: float = 0.4
    current_drift_amplitude: float = 0.0
    current_drift_period: float = 2400.0
    wiresum_noise_std: float = 5.0
    position_noise_std: float = 0.01
    n_faults: int = 8
    drift_amplitude: float = 0.05
    drift_period: float = 1800.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.n_faults < 0:
            raise ConfigError(f"n_faults must be >= 0, got {self.n_faults}")
        if min(self.current_noise_std, self.wiresum_noise_std,
               self.position_noise_std) < 0:
            raise ConfigError("noise stds must be >= 0")
        if self.drift_period <= 0 or self.current_drift_period <= 0:
            raise ConfigError("drift periods must be positive")


def place_faults(cfg: SynthConfig) -> list[FaultEvent]:
    # One fault per equal-width slot keeps intervals disjoint (with >= 2 s
    # gaps) and spreads them over both the train and test halves.
    if cfg.n_faults == 0:
        return []
    slot = cfg.duration // cfg.n_faults
    overhead = FAULT_DURATION_MAX + STEP_LEAD + 2
    if slot < overhead:
        raise ConfigError(
            f"cannot place {cfg.n_faults} faults of up to "
            f"{FAULT_DURATION_MAX}s in {cfg.duration}s without overlap"
        )
    rng = np.random.default_rng([cfg.seed, _STREAM_FAULTS])
    events = []
    for j in range(cfg.n_faults):
        dur = int(rng.integers(FAULT_DURATION_MIN, FAULT_DURATION_MAX + 1))
        slot_start = j * slot
        lo = slot_start + STEP_LEAD
        hi = slot_start + slot - dur - 2
        start = int(rng.integers(lo, hi + 1))
        events.append(FaultEvent(start, start + dur - 1, SOURCE_RECORDED))
    return events


def generate_blocks(cfg: SynthConfig, faults: list[FaultEvent]) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield the run of `cfg`, with the `faults` of `place_faults(cfg)`, in
    blocks of BLOCK_SECONDS rows (the last may be shorter): int64 stamps,
    then the wiresum, xpos, ypos and current values.

    Fully determined by cfg.seed, whatever the block length: each channel
    draws its noise block by block from its own stream. Outside fault
    intervals the current sits at CURRENT_PLATEAU; inside them it drops to
    FAULT_CURRENT_LEVEL. Positions drift sinusoidally and take a per-fault
    step offset from STEP_LEAD seconds before each fault start through its end.
    """
    in_fault = np.zeros(cfg.duration, dtype=bool)
    for ev in faults:
        in_fault[ev.start:ev.end + 1] = True
    rng_cur = np.random.default_rng([cfg.seed, _STREAM_CURRENT])
    rng_ws = np.random.default_rng([cfg.seed, _STREAM_WIRESUM])
    positions = [(np.sin, *_position_stream(cfg, faults, _STREAM_XPOS)),
                 (np.cos, *_position_stream(cfg, faults, _STREAM_YPOS))]
    for lo in range(0, cfg.duration, BLOCK_SECONDS):
        t = np.arange(lo, min(lo + BLOCK_SECONDS, cfg.duration), dtype=np.int64)
        rows = slice(lo, lo + BLOCK_SECONDS)
        # optional slow wander of the plateau (off by default)
        level = CURRENT_PLATEAU + cfg.current_drift_amplitude * \
            np.sin(2.0 * np.pi * t / cfg.current_drift_period)
        current_base = np.where(in_fault[rows], FAULT_CURRENT_LEVEL, level)
        current = current_base + rng_cur.normal(0.0, cfg.current_noise_std, len(t))
        wiresum = WIRESUM_GAIN * current_base + rng_ws.normal(0.0, cfg.wiresum_noise_std, len(t))
        phase = 2.0 * np.pi * t / cfg.drift_period
        xpos, ypos = (cfg.drift_amplitude * wave(phase) + steps[rows] * POSITION_STEP +
                      rng.normal(0.0, cfg.position_noise_std, len(t))
                      for wave, rng, steps in positions)
        yield t, wiresum, xpos, ypos, current


def _position_stream(cfg: SynthConfig, faults, stream: int):
    """A position channel's stream, past its per-fault step signs, and the
    sign of its step in each second (int8, 0 outside every step)."""
    rng = np.random.default_rng([cfg.seed, stream])
    # per-fault step signs first, then the noise: fixed draw order
    signs = rng.choice([-1.0, 1.0], size=len(faults))
    steps = np.zeros(cfg.duration, dtype=np.int8)
    for sign, ev in zip(signs, faults):
        steps[max(0, ev.start - STEP_LEAD):ev.end + 1] = sign
    return rng, steps


def generate_run(cfg: SynthConfig) -> tuple[AlignedFrame, RawSeries, list[FaultEvent]]:
    """Generate one run whole, the blocks of `generate_blocks` joined:
    (wiresum/xpos/ypos frame, current series, truth)."""
    faults = place_faults(cfg)
    t, wiresum, xpos, ypos, current = map(np.concatenate, zip(*generate_blocks(cfg, faults)))
    frame = AlignedFrame(FRAME_CHANNELS, t, np.column_stack([wiresum, xpos, ypos]))
    return frame, RawSeries("current", t, current), faults

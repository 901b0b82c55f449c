"""Serial reference ops that only the tests use: single-step LSTM backward,
a whole sequence through the single-step cell, inverted dropout as a
function of the mode, the row-at-a-time series CSV writer and the
whole-array run generator. The batched ops in `beamwatch.nn` are checked
against these and agree up to floating-point reassociation; the block
writer in `beamwatch.data` must match the row writer, and the block
generator in `beamwatch.synth` the whole-array one, bit for bit."""

import numpy as np

from beamwatch import synth
from beamwatch.data import SERIES_CSV_HEADER, AlignedFrame, RawSeries
from beamwatch.errors import ConfigError, ShapeError
from beamwatch.nn import LstmCellCache, LstmLayerParams, dropout_mask, lstm_cell_forward


def lstm_cell_backward(
    d_h: np.ndarray,
    d_c: np.ndarray,
    cache: LstmCellCache,
    params: LstmLayerParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Backward through one LSTM step.

    Takes gradients flowing into h_t and c_t, returns (d_x, d_h_prev,
    d_c_prev, grads) where grads holds input_kernel / recurrent_kernel / bias.
    """
    tanh_c = np.tanh(cache.c)
    d_o = d_h * tanh_c * cache.o * (1.0 - cache.o)
    dc = d_c + d_h * cache.o * (1.0 - tanh_c * tanh_c)
    d_i = dc * cache.g * cache.i * (1.0 - cache.i)
    d_f = dc * cache.c_prev * cache.f * (1.0 - cache.f)
    d_g = dc * cache.i * (1.0 - cache.g * cache.g)
    d_c_prev = dc * cache.f
    d_z = np.concatenate([d_i, d_f, d_g, d_o])
    grads = {
        "input_kernel": np.outer(d_z, cache.x),
        "recurrent_kernel": np.outer(d_z, cache.h_prev),
        "bias": d_z,
    }
    d_x = params.input_kernel.T @ d_z
    d_h_prev = params.recurrent_kernel.T @ d_z
    return d_x, d_h_prev, d_c_prev, grads


def lstm_sequence_forward(
    seq: np.ndarray,
    params: LstmLayerParams,
    return_sequences: bool = False,
) -> np.ndarray:
    """Run the cell over a [k, input_dim] sequence from zero initial state.

    Returns the [k, hidden_dim] stack of hidden states, or only the final
    hidden state when return_sequences is false.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ShapeError(f"sequence must be a nonempty [k, input_dim] matrix, got {seq.shape}")
    if seq.shape[1] != params.input_dim:
        raise ShapeError(f"sequence feature dim {seq.shape[1]} != input_dim {params.input_dim}")
    h = np.zeros(params.hidden_dim)
    c = np.zeros(params.hidden_dim)
    outputs = []
    for t in range(seq.shape[0]):
        h, c, _ = lstm_cell_forward(seq[t], h, c, params)
        if return_sequences:
            outputs.append(h)
    if return_sequences:
        return np.stack(outputs)
    return h


def dropout_apply(
    x: np.ndarray,
    rate: float,
    mode: str,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Apply inverted dropout in train mode; identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("train-mode dropout requires a seeded rng")
    return x * dropout_mask(np.shape(x), rate, rng)


def format_series_csv(series: RawSeries) -> str:
    """The whole series CSV as one string, built row by row."""
    lines = [SERIES_CSV_HEADER]
    for ts, val in zip(series.timestamps, series.values):
        ts_text = str(int(ts)) if float(ts).is_integer() else repr(float(ts))
        lines.append(f"{ts_text},{float(val)!r}")
    return "\n".join(lines) + "\n"


def generate_run(cfg: synth.SynthConfig) -> tuple[AlignedFrame, RawSeries, list]:
    """One run computed over whole arrays: (wiresum/xpos/ypos frame,
    current series, truth)."""
    faults = synth.place_faults(cfg)
    t = np.arange(cfg.duration, dtype=np.int64)

    in_fault = np.zeros(cfg.duration, dtype=bool)
    for ev in faults:
        in_fault[ev.start:ev.end + 1] = True

    level = synth.CURRENT_PLATEAU + cfg.current_drift_amplitude * \
        np.sin(2.0 * np.pi * t / cfg.current_drift_period)
    current_base = np.where(in_fault, synth.FAULT_CURRENT_LEVEL, level)
    rng_cur = np.random.default_rng([cfg.seed, synth._STREAM_CURRENT])
    current = current_base + rng_cur.normal(0.0, cfg.current_noise_std, cfg.duration)

    rng_ws = np.random.default_rng([cfg.seed, synth._STREAM_WIRESUM])
    wiresum = synth.WIRESUM_GAIN * current_base + \
        rng_ws.normal(0.0, cfg.wiresum_noise_std, cfg.duration)

    phase = 2.0 * np.pi * t / cfg.drift_period
    xpos = _position_channel(cfg, faults, np.sin(phase), synth._STREAM_XPOS)
    ypos = _position_channel(cfg, faults, np.cos(phase), synth._STREAM_YPOS)

    frame = AlignedFrame(("wiresum", "xpos", "ypos"), t,
                         np.column_stack([wiresum, xpos, ypos]))
    return frame, RawSeries("current", t, current), faults


def _position_channel(cfg, faults, drift_wave, stream: int) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, stream])
    # per-fault step signs first, then the noise array: fixed draw order
    signs = rng.choice([-1.0, 1.0], size=len(faults))
    steps = np.zeros(cfg.duration)
    for sign, ev in zip(signs, faults):
        steps[max(0, ev.start - synth.STEP_LEAD):ev.end + 1] = sign * synth.POSITION_STEP
    noise = rng.normal(0.0, cfg.position_noise_std, cfg.duration)
    return cfg.drift_amplitude * drift_wave + steps + noise

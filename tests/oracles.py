"""Serial reference ops that only the tests use: single-step LSTM backward,
a whole sequence through the single-step cell, inverted dropout as a
function of the mode, the batched LSTM step loops that cache tanh(c) and
the hidden states for BPTT, the row-at-a-time series CSV writer and the
whole-array run generator. The batched ops in `beamwatch.nn` are checked
against the serial ops and agree up to floating-point reassociation; the
recomputing BPTT in `beamwatch.nn` must match the caching one, the block
writer in `beamwatch.data` the row writer, and the block generator in
`beamwatch.synth` the whole-array one, bit for bit."""

import contextlib

import numpy as np
import pytest

from beamwatch import nn, synth
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


def caching_lstm_steps(params: LstmLayerParams, k: int, n: int, add_input,
                       cache: dict | None) -> np.ndarray:
    """`nn._lstm_steps` caching, per step, tanh(c) beside the activations
    and the cell state, and the hidden states as a copy: the caller may
    scale the returned stack in place, and BPTT reads the states as the
    forward made them."""
    hd = params.hidden_dim
    w_h = params.recurrent_kernel
    h_seq = np.empty((k, hd, n))
    c = np.zeros((hd, n))
    ig = np.empty((hd, n))
    steps = []
    with np.errstate(over="ignore"):
        for t in range(k):
            z = w_h @ h_seq[t - 1] if t else np.zeros((4 * hd, n))
            add_input(z, t)
            i, f, g, o = nn._gate_blocks(z, hd)
            nn._sigmoid_in_place(z[:2 * hd])
            np.tanh(g, out=g)
            nn._sigmoid_in_place(o)
            c = f * c
            np.multiply(i, g, out=ig)
            c += ig
            tanh_c = np.tanh(c)
            np.multiply(o, tanh_c, out=h_seq[t])
            steps.append((z, c, tanh_c))
    if cache is not None:
        cache.update(steps=steps, h_seq=h_seq.copy())
    return h_seq


def caching_lstm_bptt(cache: dict, params: LstmLayerParams, d_h_seq, d_h_last,
                      input_grad) -> np.ndarray:
    """`nn._lstm_bptt` reading the tanh(c) and hidden states that
    `caching_lstm_steps` stored, where nn recomputes them."""
    steps, h_seq = cache["steps"], cache["h_seq"]
    k, hd, n = h_seq.shape
    w_h_t = np.ascontiguousarray(params.recurrent_kernel.T)
    dz = np.empty((4 * hd, n))
    dz_i, dz_f, dz_g, dz_o = nn._gate_blocks(dz, hd)
    dz_ifg = dz[:3 * hd].reshape(3, hd, n)
    d_rec = np.zeros((4 * hd, hd))
    dh = np.zeros((hd, n)) if d_h_last is None else np.array(d_h_last, dtype=np.float64)
    dc = np.zeros((hd, n))
    tmp = np.empty((hd, n))
    for t in range(k - 1, -1, -1):
        act, c, tanh_c = steps[t]
        i, f, g, o = nn._gate_blocks(act, hd)
        if d_h_seq is not None:
            dh += d_h_seq[t]
        np.subtract(1.0, act, out=dz)
        dz *= act
        np.multiply(g, g, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh
        dc += tmp
        dz_o *= dh
        dz_o *= tanh_c
        dz_ifg *= dc
        dz_i *= g
        if t:
            dz_f *= steps[t - 1][1]
        else:
            dz_f.fill(0.0)
        dz_g *= i
        dc *= f
        input_grad(t, dz)
        if t:
            d_rec += dz @ h_seq[t - 1].T
            np.matmul(w_h_t, dz, out=dh)
    return d_rec


@contextlib.contextmanager
def caching_lstm():
    """Run nn's LSTM forward and backward ops, and so the model's training
    step, on the caching step loops above while the block runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "_lstm_steps", caching_lstm_steps)
        patch.setattr(nn, "_lstm_bptt", caching_lstm_bptt)
        yield


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

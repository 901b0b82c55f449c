"""Serial reference ops that only the tests use: single-step LSTM backward,
a whole sequence through the single-step cell, and inverted dropout as a
function of the mode. The batched ops in `beamwatch.nn` are checked against
these; they agree up to floating-point reassociation."""

import numpy as np

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

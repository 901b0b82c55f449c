"""Sequence-network numerics: LSTM forward/backward, time-distributed dense,
inverted dropout, MAE loss, Adam, and a finite-difference gradient oracle.

All arithmetic is double precision. Gate weights are packed along the first
axis in the fixed order (input, forget, candidate, output). Parameter
collections handed to the optimizer and the gradient oracle are flat dicts
mapping tensor names to arrays; gradient sets mirror those dicts shape for
shape.

The time-major `*_batch` / `*_repeat` ops stack many sequences into one
matrix product per timestep and are the only path the model runs on, for
training and inference alike; both forward ops share one step loop, which
keeps the per-step gate caches only when BPTT will need them. The
single-sequence ops (`lstm_cell_forward`, `lstm_cell_backward`,
`lstm_sequence_forward`, `dense_forward`) are the serial reference that the
tests check the batched ops against; they agree up to floating-point
reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

GradientSet = dict[str, np.ndarray]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid; saturates cleanly to 0/1 for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


@dataclass(frozen=True)
class LstmLayerParams:
    """Packed weights of one LSTM layer.

    input_kernel:     [4*hidden_dim, input_dim]
    recurrent_kernel: [4*hidden_dim, hidden_dim]
    bias:             [4*hidden_dim]
    """

    input_dim: int
    hidden_dim: int
    input_kernel: np.ndarray
    recurrent_kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise ShapeError("LSTM dimensions must be positive")
        h4 = 4 * self.hidden_dim
        if self.input_kernel.shape != (h4, self.input_dim):
            raise ShapeError(
                f"input_kernel shape {self.input_kernel.shape}, "
                f"expected {(h4, self.input_dim)}"
            )
        if self.recurrent_kernel.shape != (h4, self.hidden_dim):
            raise ShapeError(
                f"recurrent_kernel shape {self.recurrent_kernel.shape}, "
                f"expected {(h4, self.hidden_dim)}"
            )
        if self.bias.shape != (h4,):
            raise ShapeError(f"bias shape {self.bias.shape}, expected {(h4,)}")
        for name in ("input_kernel", "recurrent_kernel", "bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"non-finite entries in {name}")

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.input_kernel": self.input_kernel,
            f"{prefix}.recurrent_kernel": self.recurrent_kernel,
            f"{prefix}.bias": self.bias,
        }

    def with_tensors(self, prefix: str, tensors: dict[str, np.ndarray]) -> "LstmLayerParams":
        return LstmLayerParams(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            input_kernel=tensors[f"{prefix}.input_kernel"],
            recurrent_kernel=tensors[f"{prefix}.recurrent_kernel"],
            bias=tensors[f"{prefix}.bias"],
        )


@dataclass(frozen=True)
class DenseParams:
    """Affine layer: y = weight @ x + bias, weight [out_dim, in_dim]."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("dense weight must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeError(
                f"dense bias length {self.bias.shape[0]} does not match "
                f"weight rows {self.weight.shape[0]}"
            )
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise NumericError("non-finite entries in dense parameters")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}

    def with_tensors(self, prefix: str, tensors: dict[str, np.ndarray]) -> "DenseParams":
        return DenseParams(weight=tensors[f"{prefix}.weight"], bias=tensors[f"{prefix}.bias"])


class LstmCellCache(NamedTuple):
    """Forward intermediates needed by the backward pass of one step."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray


def _gate_slices(hidden_dim: int) -> tuple[slice, slice, slice, slice]:
    h = hidden_dim
    return slice(0, h), slice(h, 2 * h), slice(2 * h, 3 * h), slice(3 * h, 4 * h)


def lstm_cell_forward(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    params: LstmLayerParams,
) -> tuple[np.ndarray, np.ndarray, LstmCellCache]:
    """One LSTM step.

    Gates i, f, o use the logistic sigmoid, the candidate g uses tanh;
    c_t = f*c_prev + i*g and h_t = o*tanh(c_t).
    """
    x_t = _as_f64(x_t)
    h_prev = _as_f64(h_prev)
    c_prev = _as_f64(c_prev)
    if x_t.shape != (params.input_dim,):
        raise ShapeError(f"x_t shape {x_t.shape}, expected {(params.input_dim,)}")
    if h_prev.shape != (params.hidden_dim,) or c_prev.shape != (params.hidden_dim,):
        raise ShapeError("h_prev/c_prev shape does not match hidden_dim")

    z = params.input_kernel @ x_t + params.recurrent_kernel @ h_prev + params.bias
    si, sf, sg, so = _gate_slices(params.hidden_dim)
    i = sigmoid(z[si])
    f = sigmoid(z[sf])
    g = np.tanh(z[sg])
    o = sigmoid(z[so])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, LstmCellCache(x_t, h_prev, c_prev, i, f, g, o, c)


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
    seq = _as_f64(seq)
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


def dense_forward(x: np.ndarray, params: DenseParams) -> np.ndarray:
    """Affine map y = W x + b; for stacked inputs the map is applied per row."""
    x = _as_f64(x)
    if x.shape[-1] != params.in_dim:
        raise ShapeError(f"input dim {x.shape[-1]} != dense in_dim {params.in_dim}")
    return x @ params.weight.T + params.bias


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


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


def mae_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over all elements and its (sub)gradient wrt pred.

    The subgradient at pred == target is taken as 0.
    """
    pred = _as_f64(pred)
    target = _as_f64(target)
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


# ---------------------------------------------------------------------------
# Adam


@dataclass(frozen=True)
class AdamState:
    """Optimizer state: step counter plus per-tensor moment estimates."""

    step_count: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def init(cls, params: dict[str, np.ndarray], **hyper) -> "AdamState":
        return cls(
            step_count=0,
            first_moment={k: np.zeros_like(v) for k, v in params.items()},
            second_moment={k: np.zeros_like(v) for k, v in params.items()},
            **hyper,
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: GradientSet,
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns new params and new state."""
    if set(params) != set(grads) or set(params) != set(state.first_moment):
        raise ShapeError("params, grads, and optimizer state must share the same tensor names")
    t = state.step_count + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name in params:
        g = grads[name]
        if g.shape != params[name].shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape "
                             f"{params[name].shape} for {name!r}")
        m = state.beta1 * state.first_moment[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.second_moment[name] + (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[name] = params[name] - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
        new_m[name] = m
        new_v[name] = v
    new_state = AdamState(
        step_count=t,
        first_moment=new_m,
        second_moment=new_v,
        learning_rate=state.learning_rate,
        beta1=state.beta1,
        beta2=state.beta2,
        epsilon=state.epsilon,
    )
    return new_params, new_state


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle


def finite_diff_grad(
    loss_fn: Callable[[dict[str, np.ndarray]], float],
    params: dict[str, np.ndarray],
    h: float = 1e-6,
    scheme: str = "central",
) -> GradientSet:
    """Central-difference gradient of a scalar loss wrt every parameter entry.

    loss_fn must be pure and deterministic; inputs are never mutated.
    """
    if scheme != "central":
        raise ConfigError(f"unsupported finite-difference scheme {scheme!r}")
    if not h > 0:
        raise ConfigError("finite-difference step must be positive")
    work = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
    grads: GradientSet = {}
    for name, tensor in work.items():
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            f_plus = loss_fn(work)
            tensor[idx] = orig - h
            f_minus = loss_fn(work)
            tensor[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite loss while differencing {name}{list(idx)}")
            grad[idx] = (f_plus - f_minus) / (2.0 * h)
        grads[name] = grad
    return grads


# ---------------------------------------------------------------------------
# Batched LSTM (time-major; training and inference)
#
# The batch variants take [k, n, ...] time-major arrays so each step works on
# contiguous [n, ...] blocks, project all inputs through the input kernel in
# one matrix product, and defer the weight-gradient products to single large
# GEMMs after the step loop. They agree with the serial ops up to
# floating-point reassociation. Rows never mix: a row's result depends only on
# that row's input and on the batch shape.

_STEP_CACHE_KEYS = ("i", "f", "g", "o", "c")


def _lstm_gates(z: np.ndarray, hd: int):
    sif = sigmoid(z[:, : 2 * hd])
    g = np.tanh(z[:, 2 * hd:3 * hd])
    o = sigmoid(z[:, 3 * hd:])
    return sif[:, :hd], sif[:, hd:], g, o


def _lstm_steps(xp: np.ndarray, k: int, params: LstmLayerParams,
                cache: dict | None) -> np.ndarray:
    """Forward step loop shared by lstm_forward_batch and lstm_forward_repeat.

    xp is the input projection plus bias: per step [k, n, 4*hidden], or one
    [n, 4*hidden] block that every step reuses. Returns the [k, n, hidden]
    hidden states. Only when `cache` is given does it keep what BPTT needs
    (per-step gates and cell states, the hidden stack, n and k) in it.
    """
    n, hd = xp.shape[-2], params.hidden_dim
    wh_t = params.recurrent_kernel.T
    h = np.zeros((n, hd))
    c = np.zeros((n, hd))
    h_seq = np.empty((k, n, hd))
    if cache is not None:
        cache.update({q: [] for q in _STEP_CACHE_KEYS}, h_seq=h_seq, n=n, k=k)
    for t in range(k):
        z = (xp[t] if xp.ndim == 3 else xp) + h @ wh_t
        i, f, g, o = _lstm_gates(z, hd)
        c = f * c + i * g
        h = o * np.tanh(c)
        if cache is not None:
            for q, value in zip(_STEP_CACHE_KEYS, (i, f, g, o, c)):
                cache[q].append(value)
        h_seq[t] = h
    return h_seq


def lstm_forward_batch(
    seqs_tm: np.ndarray,
    params: LstmLayerParams,
    keep_cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Run the LSTM over a time-major [k, n, input_dim] batch.

    Initial states are zero. Returns the [k, n, hidden_dim] hidden-state
    stack and the cache consumed by lstm_backward_batch (None when
    keep_cache is false, as in inference).
    """
    seqs_tm = _as_f64(seqs_tm)
    if seqs_tm.ndim != 3 or seqs_tm.shape[2] != params.input_dim:
        raise ShapeError(f"batch must be [k, n, {params.input_dim}], got {seqs_tm.shape}")
    k, n, _ = seqs_tm.shape
    if k < 1:
        raise ShapeError("empty sequence")
    x_flat = seqs_tm.reshape(k * n, params.input_dim)
    xp = (x_flat @ params.input_kernel.T + params.bias).reshape(k, n, 4 * params.hidden_dim)
    cache = {"x_flat": x_flat} if keep_cache else None
    return _lstm_steps(xp, k, params, cache), cache


def lstm_forward_repeat(
    x: np.ndarray,
    k: int,
    params: LstmLayerParams,
    keep_cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """LSTM over k steps that all receive the same [n, input_dim] input.

    This is the decoder's RepeatVector pattern: the input projection is
    computed once instead of per step. The cache is None unless keep_cache.
    """
    x = _as_f64(x)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"input must be [n, {params.input_dim}], got {x.shape}")
    if k < 1:
        raise ShapeError("empty sequence")
    xp = x @ params.input_kernel.T + params.bias
    cache = {"x": x} if keep_cache else None
    return _lstm_steps(xp, k, params, cache), cache


def _lstm_bptt(
    cache: dict,
    params: LstmLayerParams,
    d_h_seq: np.ndarray | None,
    d_h_last: np.ndarray | None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT step loop shared by lstm_backward_batch and lstm_backward_repeat.

    Runs from the last step to the first and returns the pre-activation
    gradients dz [k, n, 4*hidden] with the recurrent-kernel and bias
    gradients; the input-kernel gradient depends on how inputs were fed.
    """
    n, k, hd = cache["n"], cache["k"], params.hidden_dim
    dz = np.empty((k, n, 4 * hd))
    dh_carry = np.zeros((n, hd)) if d_h_last is None else _as_f64(d_h_last).copy()
    dc_carry = np.zeros((n, hd))
    for t in range(k - 1, -1, -1):
        dh = dh_carry if d_h_seq is None else dh_carry + d_h_seq[t]
        i, f, g, o, c = (cache[q][t] for q in _STEP_CACHE_KEYS)
        c_prev = cache["c"][t - 1] if t > 0 else np.zeros((n, hd))
        tanh_c = np.tanh(c)
        dz_t = dz[t]
        dz_t[:, 3 * hd:] = dh * tanh_c * o * (1.0 - o)
        dc = dc_carry + dh * o * (1.0 - tanh_c * tanh_c)
        dz_t[:, :hd] = dc * g * i * (1.0 - i)
        dz_t[:, hd:2 * hd] = dc * c_prev * f * (1.0 - f)
        dz_t[:, 2 * hd:3 * hd] = dc * i * (1.0 - g * g)
        dh_carry = dz_t @ params.recurrent_kernel
        dc_carry = dc * f
    dz_flat = dz.reshape(k * n, 4 * hd)
    h_prev_flat = np.vstack([np.zeros((n, hd)), cache["h_seq"][:-1].reshape((k - 1) * n, hd)])
    return dz, {"recurrent_kernel": dz_flat.T @ h_prev_flat, "bias": dz_flat.sum(axis=0)}


def lstm_backward_batch(
    cache: dict,
    params: LstmLayerParams,
    d_h_seq: np.ndarray | None = None,
    d_h_last: np.ndarray | None = None,
    need_input_grads: bool = True,
) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """BPTT over a batch previously run through lstm_forward_batch.

    d_h_seq [k, n, hidden] carries gradients into every step's hidden output;
    d_h_last [n, hidden] carries an extra gradient into the final step only.
    Returns (d_inputs [k, n, input_dim] or None, grads dict).
    """
    dz, grads = _lstm_bptt(cache, params, d_h_seq, d_h_last)
    k, n = cache["k"], cache["n"]
    dz_flat = dz.reshape(k * n, 4 * params.hidden_dim)
    grads["input_kernel"] = dz_flat.T @ cache["x_flat"]
    d_x = (dz_flat @ params.input_kernel).reshape(k, n, params.input_dim) \
        if need_input_grads else None
    return d_x, grads


def lstm_backward_repeat(
    cache: dict,
    params: LstmLayerParams,
    d_h_seq: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT counterpart of lstm_forward_repeat.

    Returns (d_input [n, input_dim], grads); the per-step input gradients
    collapse into one sum because every step saw the same input.
    """
    dz, grads = _lstm_bptt(cache, params, d_h_seq, None)
    dz_sum = dz.sum(axis=0)
    grads["input_kernel"] = dz_sum.T @ cache["x"]
    return dz_sum @ params.input_kernel, grads

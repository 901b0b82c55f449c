"""Sequence-network numerics: batched LSTM forward/backward, dropout masks,
MAE loss, Adam, and a finite-difference gradient oracle.

All arithmetic is double precision. Gate weights are packed along the first
axis in the fixed order (input, forget, candidate, output). Each layer class
names its weight tensors once, in its `TENSORS` tuple, and one shared
`tensors`/`with_tensors` pair maps it to and from the flat dicts, keyed
`<prefix>.<name>`, that the optimizer and the gradient oracle take;
gradient sets mirror those dicts shape for shape.

The feature-major `*_batch` / `*_repeat` ops stack many sequences into one
matrix product per timestep, one column per sequence, and are the only path
the model runs on, for training and inference alike; both forward ops share
one step loop, which keeps the per-step caches (gate activations and cell
state) only when BPTT will need them, and both backward ops share one BPTT
loop, which recomputes tanh of the cell state and the previous hidden state
from them, bit for bit what the forward computed. `lstm_cell_forward` and
`dense_forward` are single-step serial references that the tests check the
batched ops against; the other serial oracles live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, ClassVar, NamedTuple

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


class _LayerParams:
    """A layer's weights; the subclass names its weight tensors, in field
    order, in TENSORS. Its other dataclass fields are integer dimensions."""

    TENSORS: ClassVar[tuple[str, ...]] = ()

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        """The weight tensors keyed `<prefix>.<name>`."""
        return {f"{prefix}.{name}": getattr(self, name) for name in self.TENSORS}

    def with_tensors(self, prefix: str, tensors: dict[str, np.ndarray]):
        """A copy whose weights are the `<prefix>.<name>` entries of
        `tensors`, checked again by `__post_init__`."""
        return replace(self, **{name: tensors[f"{prefix}.{name}"] for name in self.TENSORS})


@dataclass(frozen=True)
class LstmLayerParams(_LayerParams):
    """Packed weights of one LSTM layer.

    input_kernel:     [4*hidden_dim, input_dim]
    recurrent_kernel: [4*hidden_dim, hidden_dim]
    bias:             [4*hidden_dim]
    """

    TENSORS = ("input_kernel", "recurrent_kernel", "bias")

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
        for name in self.TENSORS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"non-finite entries in {name}")


@dataclass(frozen=True)
class DenseParams(_LayerParams):
    """Affine layer: y = weight @ x + bias, weight [out_dim, in_dim]."""

    TENSORS = ("weight", "bias")

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


# ---------------------------------------------------------------------------
# Serial single-step references. The tests check the batched ops against
# them, and the benchmark's tracer targets name them, which keeps them in the
# package.


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
    i, f, g, o = _gate_blocks(z, params.hidden_dim)
    i, f, g, o = sigmoid(i), sigmoid(f), np.tanh(g), sigmoid(o)
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, LstmCellCache(x_t, h_prev, c_prev, i, f, g, o, c)


def dense_forward(x: np.ndarray, params: DenseParams) -> np.ndarray:
    """Affine map y = W x + b; for stacked inputs the map is applied per row."""
    x = _as_f64(x)
    if x.shape[-1] != params.in_dim:
        raise ShapeError(f"input dim {x.shape[-1]} != dense in_dim {params.in_dim}")
    return x @ params.weight.T + params.bias


# ---------------------------------------------------------------------------
# Dropout and loss


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


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
# Adam (the reference hyperparameters)

ADAM_LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Optimizer state: step counter plus per-tensor moment estimates."""

    step_count: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            step_count=0,
            first_moment={k: np.zeros_like(v) for k, v in params.items()},
            second_moment={k: np.zeros_like(v) for k, v in params.items()},
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
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name in params:
        g = grads[name]
        if g.shape != params[name].shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape "
                             f"{params[name].shape} for {name!r}")
        m = ADAM_BETA1 * state.first_moment[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.second_moment[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[name] = params[name] - ADAM_LEARNING_RATE * m_hat / (
            np.sqrt(v_hat) + ADAM_EPSILON)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(step_count=t, first_moment=new_m, second_moment=new_v)


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle


def finite_diff_grad(
    loss_fn: Callable[[dict[str, np.ndarray]], float],
    params: dict[str, np.ndarray],
    h: float = 1e-6,
) -> GradientSet:
    """Central-difference gradient of a scalar loss wrt every parameter entry.

    loss_fn must be pure and deterministic; inputs are never mutated.
    """
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
# Batched LSTM (feature-major; training and inference)
#
# The batch ops take feature-major arrays: one column per sequence, so a step
# works on [features, n] blocks and a sequence batch is [k, features, n]. Each
# step computes the [4*hidden, n] pre-activation z = W_h @ h + W_in @ x + b,
# whose i|f|g|o gate blocks are contiguous row ranges, and applies the gate
# activations to it in place. The forward pass keeps, per step, only the
# activations and the cell state. BPTT recomputes tanh(c_t) and
# h_{t-1} = o_{t-1} * tanh(c_{t-1}) from them, one tanh and one product a
# step on the very arrays the forward read, so they are bitwise the values
# the forward computed; it reuses one [4*hidden, n] buffer for the
# pre-activation gradient and accumulates the weight gradients step by step.
# Results agree with the serial ops up to floating-point reassociation.
# Columns never mix: a column's result depends only on that column's input
# and on the batch shape.


def _gate_blocks(a: np.ndarray, hd: int):
    return a[:hd], a[hd:2 * hd], a[2 * hd:3 * hd], a[3 * hd:]


def _sigmoid_in_place(x: np.ndarray) -> None:
    # the same operations as sigmoid(); the caller suppresses exp overflow
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def _lstm_steps(params: LstmLayerParams, k: int, n: int, add_input,
                cache: dict | None) -> np.ndarray:
    """Forward step loop shared by lstm_forward_batch and lstm_forward_repeat.

    add_input(z, t) adds step t's input projection plus bias into the
    [4*hidden, n] pre-activation z. Returns the [k, hidden, n] hidden
    states. Each step's tanh(c) goes to one [hidden, n] buffer that every
    step reuses. Only when `cache` is given does it keep what BPTT needs in
    it: per step the activations [4*hidden, n] and the cell state
    [hidden, n]; BPTT recomputes tanh(c) and the hidden states from them.
    """
    hd = params.hidden_dim
    w_h = params.recurrent_kernel
    h_seq = np.empty((k, hd, n))
    c = np.zeros((hd, n))
    ig = np.empty((hd, n))
    tanh_c = np.empty((hd, n))
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    if cache is not None:
        cache["steps"] = steps
    with np.errstate(over="ignore"):
        for t in range(k):
            z = w_h @ h_seq[t - 1] if t else np.zeros((4 * hd, n))
            add_input(z, t)
            i, f, g, o = _gate_blocks(z, hd)
            _sigmoid_in_place(z[:2 * hd])
            np.tanh(g, out=g)
            _sigmoid_in_place(o)
            c = f * c
            np.multiply(i, g, out=ig)
            c += ig
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h_seq[t])
            if cache is not None:
                steps.append((z, c))
    return h_seq


def lstm_forward_batch(
    seqs: np.ndarray,
    params: LstmLayerParams,
    keep_cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Run the LSTM over a feature-major [k, input_dim, n] batch.

    Initial states are zero. Returns the [k, hidden_dim, n] hidden-state
    stack and the cache consumed by lstm_backward_batch (None when
    keep_cache is false, as in inference).
    """
    seqs = _as_f64(seqs)
    if seqs.ndim != 3 or seqs.shape[1] != params.input_dim:
        raise ShapeError(f"batch must be [k, {params.input_dim}, n], got {seqs.shape}")
    k, d, n = seqs.shape
    if k < 1:
        raise ShapeError("empty sequence")
    # a row of ones under each step's input folds the bias into the input
    # projection: [W_in | b] @ [x_t; 1], one product and no broadcast add
    x1 = np.ones((k, d + 1, n))
    x1[:, :d] = seqs
    w_in1 = np.hstack([params.input_kernel, params.bias[:, None]])

    def add_input(z, t):
        z += w_in1 @ x1[t]

    cache = {"x1": x1} if keep_cache else None
    return _lstm_steps(params, k, n, add_input, cache), cache


def lstm_forward_repeat(
    x: np.ndarray,
    k: int,
    params: LstmLayerParams,
    keep_cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """LSTM over k steps that all receive the same [input_dim, n] input.

    This is the decoder's RepeatVector pattern: the input projection is
    computed once instead of per step. The cache is None unless keep_cache.
    """
    x = _as_f64(x)
    if x.ndim != 2 or x.shape[0] != params.input_dim:
        raise ShapeError(f"input must be [{params.input_dim}, n], got {x.shape}")
    if k < 1:
        raise ShapeError("empty sequence")
    xp = params.input_kernel @ x + params.bias[:, None]

    def add_input(z, t):
        z += xp

    cache = {"x": x} if keep_cache else None
    return _lstm_steps(params, k, x.shape[1], add_input, cache), cache


def _lstm_bptt(
    cache: dict,
    params: LstmLayerParams,
    d_h_seq: np.ndarray | None,
    d_h_last: np.ndarray | None,
    input_grad,
) -> np.ndarray:
    """BPTT step loop shared by lstm_backward_batch and lstm_backward_repeat.

    Runs from the last step to the first and returns the recurrent-kernel
    gradient. input_grad(t, dz) sees each step's [4*hidden, n]
    pre-activation gradient, a buffer that the next step overwrites; the
    input-kernel and bias gradients depend on how inputs were fed, so the
    caller accumulates them there.
    """
    steps = cache["steps"]
    k = len(steps)
    hd, n = steps[0][1].shape
    w_h_t = np.ascontiguousarray(params.recurrent_kernel.T)
    dz = np.empty((4 * hd, n))
    dz_i, dz_f, dz_g, dz_o = _gate_blocks(dz, hd)
    dz_ifg = dz[:3 * hd].reshape(3, hd, n)
    d_rec = np.zeros((4 * hd, hd))
    dh = np.zeros((hd, n)) if d_h_last is None else np.array(d_h_last, dtype=np.float64)
    dc = np.zeros((hd, n))
    tmp = np.empty((hd, n))
    # tanh(c) of this step and of the one before, swapped as t falls
    tanh_c = np.tanh(steps[-1][1])
    tanh_prev = np.empty((hd, n))
    h_prev = np.empty((hd, n))
    for t in range(k - 1, -1, -1):
        act, _ = steps[t]
        i, f, g, o = _gate_blocks(act, hd)
        if d_h_seq is not None:
            dh += d_h_seq[t]
        # gate-derivative factor: a*(1-a) on every row, then 1-g^2 on g's
        np.subtract(1.0, act, out=dz)
        dz *= act
        np.multiply(g, g, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        # dc += dh * o * (1 - tanh(c)^2)
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
            act_prev, c_prev = steps[t - 1]
            dz_f *= c_prev
        else:
            dz_f.fill(0.0)
        dz_g *= i
        dc *= f
        input_grad(t, dz)
        if t:
            # h_{t-1} = o_{t-1} * tanh(c_{t-1}), as the forward computed it
            np.tanh(c_prev, out=tanh_prev)
            np.multiply(act_prev[3 * hd:], tanh_prev, out=h_prev)
            d_rec += dz @ h_prev.T
            np.matmul(w_h_t, dz, out=dh)
            tanh_c, tanh_prev = tanh_prev, tanh_c
    return d_rec


def lstm_backward_batch(
    cache: dict,
    params: LstmLayerParams,
    d_h_seq: np.ndarray | None = None,
    d_h_last: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """BPTT over a batch previously run through lstm_forward_batch.

    d_h_seq [k, hidden, n] carries gradients into every step's hidden output;
    d_h_last [hidden, n] carries an extra gradient into the final step only.
    Returns the weight gradients; the encoder's inputs need none.
    """
    x1 = cache["x1"]
    d_in1 = np.zeros((4 * params.hidden_dim, x1.shape[1]))

    def input_grad(t, dz):
        d_in1[...] += dz @ x1[t].T   # [d_input_kernel | d_bias] of step t

    d_rec = _lstm_bptt(cache, params, d_h_seq, d_h_last, input_grad)
    return {"input_kernel": np.ascontiguousarray(d_in1[:, :-1]),
            "recurrent_kernel": d_rec, "bias": d_in1[:, -1].copy()}


def lstm_backward_repeat(
    cache: dict,
    params: LstmLayerParams,
    d_h_seq: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT counterpart of lstm_forward_repeat.

    Returns (d_input [input_dim, n], grads); the per-step input gradients
    collapse into one sum because every step saw the same input.
    """
    hd, n = params.hidden_dim, cache["x"].shape[1]
    dz_sum = np.zeros((4 * hd, n))

    def input_grad(t, dz):
        dz_sum[...] += dz

    d_rec = _lstm_bptt(cache, params, d_h_seq, None, input_grad)
    grads = {"input_kernel": dz_sum @ cache["x"].T, "recurrent_kernel": d_rec,
             "bias": dz_sum.sum(axis=1)}
    return params.input_kernel.T @ dz_sum, grads

"""Tests for the LSTM/dense/dropout/MAE/Adam numerics and the
finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamwatch import nn
from beamwatch.errors import ConfigError, NumericError, ShapeError

from conftest import random_lstm_params, rel_err, zero_lstm_params
from oracles import (caching_lstm, dropout_apply, lstm_cell_backward,
                     lstm_sequence_forward)


class TestLstmCellForward:
    def test_zero_weights_zero_state(self):
        params = zero_lstm_params(1, 1)
        h, c, cache = nn.lstm_cell_forward(np.array([0.7]), np.zeros(1), np.zeros(1), params)
        assert h[0] == 0.0 and c[0] == 0.0
        assert cache.i[0] == 0.5 and cache.f[0] == 0.5 and cache.o[0] == 0.5
        assert cache.g[0] == 0.0

    def test_candidate_bias_only(self):
        # scalar gate equations: i=f=o=sigmoid(0)=0.5, g=tanh(1)
        params = zero_lstm_params(1, 1)
        params.bias[2] = 1.0  # candidate slice for hidden_dim=1
        h, c, _ = nn.lstm_cell_forward(np.zeros(1), np.zeros(1), np.zeros(1), params)
        expected_c = 0.5 * math.tanh(1.0)
        assert c[0] == pytest.approx(expected_c, abs=1e-15)
        assert h[0] == pytest.approx(0.5 * math.tanh(expected_c), abs=1e-15)

    def test_saturated_gates_carry_cell_state(self):
        params = zero_lstm_params(1, 1)
        params.bias[1] = 100.0    # forget gate saturated open
        params.bias[0] = -100.0   # input gate saturated closed
        h, c, _ = nn.lstm_cell_forward(np.zeros(1), np.zeros(1), np.array([2.0]), params)
        assert c[0] == pytest.approx(2.0, abs=1e-12)
        assert h[0] == pytest.approx(0.5 * math.tanh(2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        params = zero_lstm_params(2, 3)
        with pytest.raises(ShapeError):
            nn.lstm_cell_forward(np.zeros(3), np.zeros(3), np.zeros(3), params)
        with pytest.raises(ShapeError):
            nn.lstm_cell_forward(np.zeros(2), np.zeros(2), np.zeros(3), params)

    def test_cell_backward_matches_finite_differences(self, rng):
        params = random_lstm_params(rng, 3, 4)
        x = rng.standard_normal(3)
        h_prev = rng.standard_normal(4)
        c_prev = rng.standard_normal(4)
        w_h = rng.standard_normal(4)
        w_c = rng.standard_normal(4)

        def loss_fn(tensors):
            p = params.with_tensors("p", tensors)
            h, c, _ = nn.lstm_cell_forward(x, h_prev, c_prev, p)
            return float(w_h @ h + w_c @ c)

        h, c, cache = nn.lstm_cell_forward(x, h_prev, c_prev, params)
        _, _, _, grads = lstm_cell_backward(w_h, w_c, cache, params)
        fd = nn.finite_diff_grad(loss_fn, params.tensors("p"), h=1e-6)
        for name in grads:
            assert rel_err(grads[name], fd[f"p.{name}"]) < 1e-5


class TestLstmSequenceForward:
    def test_single_step_equals_cell(self, rng):
        params = random_lstm_params(rng, 2, 3)
        x = rng.standard_normal((1, 2))
        h_cell, _, _ = nn.lstm_cell_forward(x[0], np.zeros(3), np.zeros(3), params)
        assert np.array_equal(lstm_sequence_forward(x, params), h_cell)

    def test_zero_weights_all_hidden_zero(self, rng):
        params = zero_lstm_params(2, 3)
        seq = rng.standard_normal((5, 2))
        out = lstm_sequence_forward(seq, params, return_sequences=True)
        assert out.shape == (5, 3)
        assert np.all(out == 0.0)

    def test_equals_manual_composition(self, rng):
        params = random_lstm_params(rng, 2, 3)
        seq = rng.standard_normal((3, 2))
        h = np.zeros(3)
        c = np.zeros(3)
        for t in range(3):
            h, c, _ = nn.lstm_cell_forward(seq[t], h, c, params)
        assert np.array_equal(lstm_sequence_forward(seq, params), h)

    def test_bitwise_equals_iterated_cell(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            hd = int(rng.integers(1, 5))
            params = random_lstm_params(rng, d, hd)
            seq = rng.standard_normal((k, d))
            rows = []
            h = np.zeros(hd)
            c = np.zeros(hd)
            for t in range(k):
                h, c, _ = nn.lstm_cell_forward(seq[t], h, c, params)
                rows.append(h)
            got = lstm_sequence_forward(seq, params, return_sequences=True)
            assert np.array_equal(got, np.stack(rows))

    def test_empty_sequence_rejected(self):
        params = zero_lstm_params(2, 3)
        with pytest.raises(ShapeError):
            lstm_sequence_forward(np.empty((0, 2)), params)


class TestDenseForward:
    def test_identity(self):
        params = nn.DenseParams(weight=np.eye(3), bias=np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(nn.dense_forward(x, params), x)

    def test_constant(self):
        params = nn.DenseParams(weight=np.zeros((2, 3)), bias=np.array([4.0, -1.0]))
        assert np.array_equal(nn.dense_forward(np.ones(3), params), [4.0, -1.0])

    def test_hand_computed(self):
        params = nn.DenseParams(weight=np.array([[1.0, 0.0], [1.0, 1.0]]),
                                bias=np.array([0.5, -0.5]))
        out = nn.dense_forward(np.array([1.0, 2.0]), params)
        assert out == pytest.approx([1.5, 2.5], abs=1e-15)

    def test_dim_mismatch(self):
        params = nn.DenseParams(weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            nn.dense_forward(np.zeros(4), params)


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = rng.standard_normal((4, 5))
        out = dropout_apply(x, 0.4, "eval")
        assert np.array_equal(out, x)

    def test_rate_zero_identity(self, rng):
        x = rng.standard_normal(7)
        out = dropout_apply(x, 0.0, "train", np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_train_mode_expectation(self):
        # inverted dropout is unbiased: E[mask * x] == x
        rng = np.random.default_rng(99)
        x = np.array(1.0)
        total = 0.0
        for _ in range(10_000):
            total += float(dropout_apply(x, 0.2, "train", rng))
        assert abs(total / 10_000 - 1.0) < 0.02

    def test_train_mode_values(self):
        rng = np.random.default_rng(3)
        out = dropout_apply(np.ones(1000), 0.2, "train", rng)
        assert set(np.round(np.unique(out), 12)) <= {0.0, round(1 / 0.8, 12)}

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            dropout_apply(np.ones(3), 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ConfigError):
            dropout_apply(np.ones(3), -0.1, "eval")

    def test_train_requires_rng(self):
        with pytest.raises(ConfigError):
            dropout_apply(np.ones(3), 0.5, "train")

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            dropout_apply(np.ones(3), 0.5, "test")


class TestMaeLoss:
    def test_zero_when_equal(self, rng):
        x = rng.standard_normal((3, 4))
        loss, grad = nn.mae_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_constant_offset(self, rng):
        x = rng.standard_normal(10)
        loss, _ = nn.mae_loss(x + 0.25, x)
        assert loss == pytest.approx(0.25, abs=1e-15)

    def test_hand_computed(self):
        loss, grad = nn.mae_loss(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
        assert loss == pytest.approx(1.5, abs=1e-15)
        assert np.array_equal(grad, [0.5, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.mae_loss(np.zeros(3), np.zeros(4))

    def test_properties(self, rng):
        for _ in range(20):
            a = rng.standard_normal((2, 5))
            b = rng.standard_normal((2, 5))
            la, _ = nn.mae_loss(a, b)
            lb, _ = nn.mae_loss(b, a)
            assert la >= 0.0
            assert la == lb
            assert (la == 0.0) == np.array_equal(a, b)


def scalar_adam_oracle(theta, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Independent closed-form Adam recursion on a scalar, in pure floats."""
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = nn.AdamState.init(params)
        new_params, new_state = nn.adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(new_params["w"], params["w"])
        assert new_state.step_count == 1

    def test_first_step_closed_form(self):
        params = {"t": np.array(0.0)}
        state = nn.AdamState.init(params)
        new_params, _ = nn.adam_step(params, {"t": np.array(1.0)}, state)
        expected = -0.001 / (1.0 + 1e-8)
        assert abs(float(new_params["t"]) - expected) < 1e-12

    def test_two_steps_match_recursion(self):
        params = {"t": np.array(0.0)}
        state = nn.AdamState.init(params)
        seen = []
        for _ in range(2):
            params, state = nn.adam_step(params, {"t": np.array(1.0)}, state)
            seen.append(float(params["t"]))
        expected = scalar_adam_oracle(0.0, [1.0, 1.0])
        assert seen == pytest.approx(expected, abs=1e-12)

    def test_hundred_steps_match_recursion(self, rng):
        grads = rng.standard_normal(100)
        params = {"t": np.array(0.5)}
        state = nn.AdamState.init(params)
        seen = []
        for g in grads:
            params, state = nn.adam_step(params, {"t": np.array(g)}, state)
            seen.append(float(params["t"]))
        expected = scalar_adam_oracle(0.5, list(grads))
        assert np.max(np.abs(np.array(seen) - np.array(expected))) < 1e-10

    def test_step_count_increments(self):
        params = {"t": np.array(0.0)}
        state = nn.AdamState.init(params)
        for expected in (1, 2, 3):
            params, state = nn.adam_step(params, {"t": np.array(1.0)}, state)
            assert state.step_count == expected

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        state = nn.AdamState.init(params)
        with pytest.raises(ShapeError):
            nn.adam_step(params, {"w": np.zeros(4)}, state)
        with pytest.raises(ShapeError):
            nn.adam_step(params, {"v": np.zeros(3)}, state)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = nn.finite_diff_grad(lambda p: float(p["t"] ** 2),
                                   {"t": np.array(3.0)}, h=1e-6)
        assert abs(float(grad["t"]) - 6.0) < 1e-6

    def test_mae_subgradient(self):
        target = np.zeros(4)

        def loss_fn(p):
            return nn.mae_loss(p["x"], target)[0]

        grad = nn.finite_diff_grad(loss_fn, {"x": np.array([1.0, 2.0, 3.0, 4.0])})
        assert np.allclose(grad["x"], 0.25, atol=1e-9)

    def test_nonfinite_loss_rejected(self):
        with pytest.raises(NumericError):
            nn.finite_diff_grad(lambda p: float("nan"), {"t": np.array(1.0)})

    def test_invalid_step(self):
        for h in (0.0, -1e-6):
            with pytest.raises(ConfigError):
                nn.finite_diff_grad(lambda p: 0.0, {"t": np.array(1.0)}, h=h)

    def test_does_not_mutate_params(self):
        params = {"t": np.array([1.0, 2.0])}
        nn.finite_diff_grad(lambda p: float(np.sum(p["t"] ** 2)), params)
        assert np.array_equal(params["t"], [1.0, 2.0])


class TestBatchLstmForward:
    """The batched forward ops against the iterated serial cell; dropping the
    BPTT cache changes no bit of the output. The batched ops are
    feature-major: one column per sequence."""

    @pytest.mark.parametrize("repeat_input", [False, True], ids=["batch", "repeat"])
    def test_matches_serial_cell_with_or_without_cache(self, rng, repeat_input):
        k, n, d, hd = 4, 3, 2, 5
        params = random_lstm_params(rng, d, hd)
        if repeat_input:
            x = rng.standard_normal((n, d))
            seqs = np.broadcast_to(x, (k, n, d))
            h_seq, cache = nn.lstm_forward_repeat(x.T, k, params)
            bare, no_cache = nn.lstm_forward_repeat(x.T, k, params, keep_cache=False)
        else:
            seqs = rng.standard_normal((k, n, d))
            seqs_fm = seqs.transpose(0, 2, 1)
            h_seq, cache = nn.lstm_forward_batch(seqs_fm, params)
            bare, no_cache = nn.lstm_forward_batch(seqs_fm, params, keep_cache=False)
        for row in range(n):
            want = lstm_sequence_forward(seqs[:, row], params, return_sequences=True)
            assert np.max(np.abs(h_seq[:, :, row] - want)) < 1e-12
        # BPTT's cache is, per step, the activations and the cell state only
        assert len(cache["steps"]) == k
        for act, c in cache["steps"]:
            assert act.shape == (4 * hd, n) and c.shape == (hd, n)
        assert no_cache is None
        assert np.array_equal(bare, h_seq)


class TestBatchLstmGradients:
    """BPTT through the batched forward matches the finite-difference oracle
    for random small networks (the MAE target keeps clear of its kink)."""

    def _check(self, rng, repeat_input: bool):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        hd = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        params = random_lstm_params(rng, d, hd)

        while True:
            if repeat_input:
                x = rng.standard_normal((n, d)).T
                h_seq, cache = nn.lstm_forward_repeat(x, k, params)
            else:
                x = rng.standard_normal((k, n, d)).transpose(0, 2, 1)
                h_seq, cache = nn.lstm_forward_batch(x, params)
            target = rng.standard_normal((k, n, hd)).transpose(0, 2, 1)
            if np.min(np.abs(h_seq - target)) >= 1e-4:
                break

        def loss_fn(tensors):
            p = params.with_tensors("p", tensors)
            if repeat_input:
                out, _ = nn.lstm_forward_repeat(x, k, p)
            else:
                out, _ = nn.lstm_forward_batch(x, p)
            return nn.mae_loss(out, target)[0]

        _, d_h_seq = nn.mae_loss(h_seq, target)
        if repeat_input:
            _, grads = nn.lstm_backward_repeat(cache, params, d_h_seq)
        else:
            grads = nn.lstm_backward_batch(cache, params, d_h_seq=d_h_seq)
        fd = nn.finite_diff_grad(loss_fn, params.tensors("p"), h=1e-6)
        for name in grads:
            assert rel_err(grads[name], fd[f"p.{name}"]) < 1e-5

    def test_sequence_batch(self, rng):
        for _ in range(5):
            self._check(rng, repeat_input=False)

    def test_repeat_input_batch(self, rng):
        for _ in range(5):
            self._check(rng, repeat_input=True)


def serial_bptt(seqs, params, d_h_seq, d_h_last):
    """Reference BPTT one sequence at a time through the serial cell ops.

    seqs [k, n, d] and d_h_seq [k, n, hidden], time-major; d_h_last
    [n, hidden] adds to the final step. Returns the hidden states
    [k, n, hidden], the input gradients [k, n, d] and the weight gradients.
    """
    k, n, _ = seqs.shape
    hd = params.hidden_dim
    h_seq = np.empty((k, n, hd))
    d_x = np.empty(seqs.shape)
    grads = {name: 0.0 for name in ("input_kernel", "recurrent_kernel", "bias")}
    for col in range(n):
        h = c = np.zeros(hd)
        caches = []
        for t in range(k):
            h, c, cache = nn.lstm_cell_forward(seqs[t, col], h, c, params)
            h_seq[t, col] = h
            caches.append(cache)
        dh_carry = d_h_last[col].copy()
        dc_carry = np.zeros(hd)
        for t in range(k - 1, -1, -1):
            d_x[t, col], dh_carry, dc_carry, g = lstm_cell_backward(
                dh_carry + d_h_seq[t, col], dc_carry, caches[t], params)
            for name in grads:
                grads[name] = grads[name] + g[name]
    return h_seq, d_x, grads


@settings(max_examples=40, deadline=None)
@example(k=1, n=1, d=1, hd=1, repeat_input=False, seed=0)
@example(k=1, n=1, d=1, hd=1, repeat_input=True, seed=0)
@given(k=st.integers(1, 5), n=st.integers(1, 4), d=st.integers(1, 3), hd=st.integers(1, 4),
       repeat_input=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_feature_major_ops_match_cell_ops_and_finite_differences(k, n, d, hd, repeat_input,
                                                                 seed):
    """Forward and BPTT of the feature-major batch ops against the serial cell
    ops (within 1e-12) and against finite differences of a linear loss
    sum(w * h_seq) + sum(w_last * h_last), which has no kink. The repeat op
    also returns its input gradient; the batch op returns weight gradients
    only."""
    rng = np.random.default_rng(seed)
    params = random_lstm_params(rng, d, hd)
    w = rng.standard_normal((k, n, hd))
    w_last = rng.standard_normal((n, hd)) if not repeat_input else np.zeros((n, hd))
    if repeat_input:
        x_rows = rng.standard_normal((n, d))
        seqs = np.broadcast_to(x_rows, (k, n, d))
        x = x_rows.T
    else:
        seqs = rng.standard_normal((k, n, d))
        x = seqs.transpose(0, 2, 1)

    def run(p, keep_cache=True):
        if repeat_input:
            return nn.lstm_forward_repeat(x, k, p, keep_cache)
        return nn.lstm_forward_batch(x, p, keep_cache)

    h_seq, cache = run(params)
    bare, _ = run(params, keep_cache=False)
    assert np.array_equal(bare, h_seq)
    want_h, want_dx, want_grads = serial_bptt(seqs, params, w, w_last)
    if repeat_input:
        d_x, grads = nn.lstm_backward_repeat(cache, params, w.transpose(0, 2, 1))
        pairs = [(d_x, want_dx.sum(axis=0).T)]
    else:
        grads = nn.lstm_backward_batch(cache, params, d_h_seq=w.transpose(0, 2, 1),
                                       d_h_last=w_last.T)
        pairs = []
    assert np.max(np.abs(h_seq - want_h.transpose(0, 2, 1))) < 1e-12
    for got, want in pairs + [(grads[q], want_grads[q]) for q in want_grads]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def loss_fn(tensors):
        out, _ = run(params.with_tensors("p", tensors), keep_cache=False)
        return float(np.sum(w.transpose(0, 2, 1) * out) + np.sum(w_last.T * out[-1]))

    fd = nn.finite_diff_grad(loss_fn, params.tensors("p"), h=1e-6)
    for name in grads:
        assert rel_err(grads[name], fd[f"p.{name}"]) < 1e-5


@settings(max_examples=60, deadline=None)
@example(k=1, n=1, d=1, hd=1, feed="both", seed=0)
@given(k=st.integers(1, 6), n=st.integers(1, 5), d=st.integers(1, 3), hd=st.integers(1, 5),
       feed=st.sampled_from(["seq", "last", "both"]), seed=st.integers(0, 2**32 - 1))
def test_recomputing_bptt_is_bitwise_the_caching_bptt(k, n, d, hd, feed, seed):
    """BPTT recomputes tanh(c) and the hidden states that the caching loops
    stored, from the same arrays with the same operations, so every gradient
    is bitwise the caching loops' (`oracles.caching_lstm`). The repeat op
    takes d_h_seq only."""
    rng = np.random.default_rng(seed)
    params = random_lstm_params(rng, d, hd)
    seqs = rng.standard_normal((k, d, n))
    x = rng.standard_normal((d, n))
    d_h_seq = rng.standard_normal((k, hd, n)) if feed != "last" else None
    d_h_last = rng.standard_normal((hd, n)) if feed != "seq" else None
    d_h_rep = rng.standard_normal((k, hd, n))

    def run():
        h_batch, cache = nn.lstm_forward_batch(seqs, params)
        h_rep, rep_cache = nn.lstm_forward_repeat(x, k, params)
        return (h_batch, h_rep, nn.lstm_backward_batch(cache, params, d_h_seq, d_h_last),
                nn.lstm_backward_repeat(rep_cache, params, d_h_rep))

    h_batch, h_rep, grads, (d_x, rep_grads) = run()
    with caching_lstm():
        want_batch, want_rep, want_grads, (want_dx, want_rep_grads) = run()
    assert np.array_equal(h_batch, want_batch) and np.array_equal(h_rep, want_rep)
    assert np.array_equal(d_x, want_dx)
    for name in nn.LstmLayerParams.TENSORS:
        assert np.array_equal(grads[name], want_grads[name]), name
        assert np.array_equal(rep_grads[name], want_rep_grads[name]), name

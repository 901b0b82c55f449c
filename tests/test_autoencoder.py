"""Tests for the six-layer autoencoder: init, forward, training,
reconstruction errors, and artifact serialization."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamwatch import autoencoder as ae
from beamwatch import data, nn
from beamwatch.data import ChannelStats
from beamwatch.detect import compute_threshold
from beamwatch.errors import ConfigError, DataError, ParseError, ShapeError, VersionError

from conftest import rel_err, traced_peak
from oracles import caching_lstm

TINY = ae.AutoencoderConfig(window_k=5, feature_m=2, hidden_dim=4,
                            dropout_rate=0.0, seed=7)


def zero_weight_model(config: ae.AutoencoderConfig, dense_bias=None) -> ae.ModelArtifact:
    model = ae.init_model(config)
    params = {name: np.zeros_like(t) for name, t in model.parameters().items()}
    if dense_bias is not None:
        params["dense.bias"] = np.asarray(dense_bias, dtype=np.float64)
    return model.with_parameters(params)


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        a = ae.init_model(ae.AutoencoderConfig(seed=42))
        b = ae.init_model(ae.AutoencoderConfig(seed=42))
        for name, tensor in a.parameters().items():
            assert np.array_equal(tensor, b.parameters()[name]), name

    def test_different_seed_differs(self):
        a = ae.init_model(TINY)
        b = ae.init_model(ae.AutoencoderConfig(window_k=5, feature_m=2, hidden_dim=4,
                                               dropout_rate=0.0, seed=8))
        assert not np.array_equal(a.encoder_lstm.input_kernel, b.encoder_lstm.input_kernel)

    def test_forget_gate_bias_is_one(self):
        model = ae.init_model(TINY)
        h = TINY.hidden_dim
        for lstm in (model.encoder_lstm, model.decoder_lstm):
            assert np.all(lstm.bias[h:2 * h] == 1.0)
            assert np.all(lstm.bias[:h] == 0.0)
            assert np.all(lstm.bias[2 * h:] == 0.0)
        assert np.all(model.output_dense.bias == 0.0)

    def test_recurrent_kernels_orthogonal_per_gate(self):
        model = ae.init_model(TINY)
        h = TINY.hidden_dim
        for gate in range(4):
            block = model.encoder_lstm.recurrent_kernel[gate * h:(gate + 1) * h]
            assert np.allclose(block @ block.T, np.eye(h), atol=1e-12)

    def test_default_parameter_count(self):
        # 4*(64*67+64) + 4*(64*128+64) + (64*3+3)
        model = ae.init_model(ae.AutoencoderConfig())
        assert sum(t.size for t in model.parameters().values()) == 50_627

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ae.AutoencoderConfig(window_k=0)
        with pytest.raises(ConfigError):
            ae.AutoencoderConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            ae.AutoencoderConfig(seed=-1)

    @pytest.mark.parametrize("threshold", [-0.5, float("nan"), float("inf")])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        with pytest.raises(ConfigError, match="^threshold must be finite and nonnegative, got"):
            dataclasses.replace(ae.init_model(TINY), threshold=threshold)

    def test_overflowing_threshold_rejected(self):
        # a finite multiplier can overflow the threshold value, as
        # `train --set threshold_multiplier=1e308` would on these errors
        value = compute_threshold(np.array([0.0, 4.0]), multiplier=1e308).value
        assert value == np.inf
        with pytest.raises(ConfigError, match="^threshold must be finite and nonnegative, got inf$"):
            dataclasses.replace(ae.init_model(TINY), threshold=value)


class TestForward:
    def test_shape_contract(self, rng):
        config = ae.AutoencoderConfig(window_k=30, feature_m=3, hidden_dim=8, seed=1)
        model = ae.init_model(config)
        batch = rng.standard_normal((4, 30, 3))
        out = ae.forward(model, batch)
        assert out.shape == (4, 30, 3)

    def test_zero_weight_model_outputs_dense_bias(self, rng):
        model = zero_weight_model(TINY, dense_bias=[0.75, -0.25])
        batch = rng.standard_normal((3, 5, 2))
        out = ae.forward(model, batch)
        assert np.array_equal(out, np.broadcast_to([0.75, -0.25], (3, 5, 2)))

    def test_eval_mode_deterministic(self, rng):
        model = ae.init_model(ae.AutoencoderConfig(window_k=5, feature_m=2,
                                                   hidden_dim=4, dropout_rate=0.2, seed=7))
        batch = rng.standard_normal((2, 5, 2))
        assert np.array_equal(ae.forward(model, batch), ae.forward(model, batch))

    def test_only_eval_mode_accepted(self, rng):
        model = ae.init_model(ae.AutoencoderConfig(window_k=5, feature_m=2,
                                                   hidden_dim=4, dropout_rate=0.2, seed=7))
        for mode in ("train", "test"):
            with pytest.raises(ConfigError):
                ae.forward(model, rng.standard_normal((1, 5, 2)), mode=mode)

    def test_bad_batch_shape(self, rng):
        model = ae.init_model(TINY)
        with pytest.raises(ShapeError):
            ae.forward(model, rng.standard_normal((2, 6, 2)))
        with pytest.raises(ShapeError):
            ae.forward(model, rng.standard_normal((5, 2)))

    def test_batch_equals_per_window_calls(self, rng):
        # serial contract: batch composition cannot change any window's output
        model = ae.init_model(TINY)
        batch = rng.standard_normal((6, 5, 2))
        full = ae.forward(model, batch)
        for idx in range(6):
            single = ae.forward(model, batch[idx:idx + 1])
            assert np.array_equal(full[idx], single[0])


class TestReconstructionErrors:
    def test_exact_reconstruction_is_zero(self):
        model = zero_weight_model(TINY)
        windows = np.zeros((2, 5, 2))
        assert np.array_equal(ae.reconstruction_errors(model, windows), [0.0, 0.0])

    def test_length_matches_window_count(self, rng):
        model = ae.init_model(TINY)
        windows = rng.standard_normal((7, 5, 2))
        assert ae.reconstruction_errors(model, windows).shape == (7,)

    def test_zero_model_gives_mean_abs(self, rng):
        model = zero_weight_model(TINY)
        windows = rng.standard_normal((4, 5, 2))
        expected = np.mean(np.abs(windows), axis=(1, 2))
        assert np.allclose(ae.reconstruction_errors(model, windows), expected,
                           rtol=0, atol=1e-15)

    def test_nonnegative(self, rng):
        model = ae.init_model(TINY)
        errors = ae.reconstruction_errors(model, rng.standard_normal((5, 5, 2)))
        assert np.all(errors >= 0.0)

    def test_permutation_equivariance(self, rng):
        model = ae.init_model(TINY)
        windows = rng.standard_normal((6, 5, 2))
        base = ae.reconstruction_errors(model, windows)
        perm = rng.permutation(6)
        assert np.array_equal(ae.reconstruction_errors(model, windows[perm]), base[perm])


def serial_reconstruction(model: ae.ModelArtifact, windows: np.ndarray,
                          latent_masks=None, dec_masks=None) -> np.ndarray:
    """Reference forward: one window at a time through the serial cell op."""
    k, hd = model.config.window_k, model.config.hidden_dim
    out = np.empty_like(windows)
    for idx, window in enumerate(windows):
        h = c = np.zeros(hd)
        for t in range(k):
            h, c, _ = nn.lstm_cell_forward(window[t], h, c, model.encoder_lstm)
        latent = h if latent_masks is None else h * latent_masks[idx]
        h = c = np.zeros(hd)
        for t in range(k):
            h, c, _ = nn.lstm_cell_forward(latent, h, c, model.decoder_lstm)
            h_out = h if dec_masks is None else h * dec_masks[idx, t]
            out[idx, t] = nn.dense_forward(h_out, model.output_dense)
    return out


def random_model(rng, k: int, m: int, hd: int, dropout_rate: float = 0.0) -> ae.ModelArtifact:
    model = ae.init_model(ae.AutoencoderConfig(window_k=k, feature_m=m, hidden_dim=hd,
                                               dropout_rate=dropout_rate))
    return model.with_parameters({name: 0.7 * rng.standard_normal(t.shape)
                                  for name, t in model.parameters().items()})


CHUNK = ae.INFERENCE_CHUNK


class TestBatchedInference:
    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("k,m,hd", [(1, 1, 1), (1, 3, 4), (4, 2, 1), (6, 2, 5)])
    def test_matches_serial_reference(self, rng, k, m, hd, n):
        model = random_model(rng, k, m, hd)
        windows = rng.standard_normal((n, k, m))
        want = serial_reconstruction(model, windows)
        got = ae.forward(model, windows)
        assert got.shape == (n, k, m)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
        errors = ae.reconstruction_errors(model, windows)
        assert errors.shape == (n,)
        want_errors = np.mean(np.abs(want - windows), axis=(1, 2))
        assert np.max(np.abs(errors - want_errors), initial=0.0) < 1e-12

    def test_train_mode_matches_serial_reference_with_same_masks(self, rng):
        # the masked forward that training runs, in training's mask shapes
        k, hd, n = 4, 3, CHUNK + 3
        model = random_model(rng, k, 2, hd, dropout_rate=0.3)
        windows = rng.standard_normal((n, k, 2))
        latent_mask = nn.dropout_mask((n, hd), 0.3, rng)
        dec_mask = nn.dropout_mask((k, n, hd), 0.3, rng)
        windows_tm = np.ascontiguousarray(np.swapaxes(windows, 0, 1))
        recon_tm, _ = ae._forward_batch_cached(model, windows_tm, latent_mask, dec_mask)
        bare_tm, _ = ae._forward_batch_cached(model, windows_tm, latent_mask, dec_mask,
                                              keep_cache=False)
        assert np.array_equal(bare_tm, recon_tm)
        want = serial_reconstruction(model, windows, latent_mask, np.swapaxes(dec_mask, 0, 1))
        assert np.max(np.abs(np.swapaxes(recon_tm, 0, 1) - want)) < 1e-12

    def test_bitwise_invariant_to_batching(self, rng):
        model = random_model(rng, 5, 3, 6)
        n = 2 * CHUNK + 5
        windows = rng.standard_normal((n, 5, 3))
        full = ae.forward(model, windows)
        errors = ae.reconstruction_errors(model, windows)
        perm = rng.permutation(n)
        assert np.array_equal(ae.forward(model, windows[perm]), full[perm])
        assert np.array_equal(ae.reconstruction_errors(model, windows[perm]), errors[perm])
        for lo, hi in [(0, 1), (3, CHUNK + 7), (CHUNK - 1, CHUNK + 1), (CHUNK + 2, n), (n - 1, n)]:
            assert np.array_equal(ae.forward(model, windows[lo:hi]), full[lo:hi]), (lo, hi)
            assert np.array_equal(ae.reconstruction_errors(model, windows[lo:hi]),
                                  errors[lo:hi]), (lo, hi)
        for idx in range(0, n, 11):
            assert np.array_equal(ae.forward(model, windows[idx:idx + 1])[0], full[idx])
            assert ae.reconstruction_errors(model, windows[idx:idx + 1])[0] == errors[idx]


class TestTraining:
    def test_zero_epochs_no_change(self, rng):
        model = ae.init_model(TINY)
        windows = rng.standard_normal((8, 5, 2))
        trained, history = ae.train_epochs(model, windows, ae.TrainConfig(epochs=0))
        assert history == []
        for name, tensor in trained.parameters().items():
            assert np.array_equal(tensor, model.parameters()[name])

    def test_deterministic_given_seeds(self, rng):
        windows = rng.standard_normal((20, 5, 2))
        runs = []
        for _ in range(2):
            model = ae.init_model(ae.AutoencoderConfig(window_k=5, feature_m=2,
                                                       hidden_dim=4, dropout_rate=0.2, seed=3))
            trained, history = ae.train_epochs(
                model, windows, ae.TrainConfig(epochs=4, batch_size=8, shuffle_seed=11))
            runs.append((trained, history))
        assert runs[0][1] == runs[1][1]
        for name, tensor in runs[0][0].parameters().items():
            assert np.array_equal(tensor, runs[1][0].parameters()[name])

    def test_loss_decreases_on_structured_windows(self, rng):
        # sinusoid windows are learnable; 20 epochs must cut the loss
        t = np.arange(5)
        windows = np.stack([
            np.stack([np.sin(0.3 * (t + s)), np.cos(0.25 * (t + s))], axis=1)
            for s in range(32)
        ])
        model = ae.init_model(TINY)
        _, history = ae.train_epochs(model, windows,
                                     ae.TrainConfig(epochs=20, batch_size=8, shuffle_seed=1))
        assert history[-1] < history[0]

    def test_all_zero_windows_are_a_fixed_point(self):
        # zero windows reconstruct exactly at init (zero biases except the
        # forget gate), so the loss sits at exactly 0 and never moves
        model = ae.init_model(TINY)
        windows = np.zeros((8, 5, 2))
        trained, history = ae.train_epochs(model, windows,
                                           ae.TrainConfig(epochs=5, batch_size=8))
        assert history == [0.0] * 5
        for name, tensor in trained.parameters().items():
            assert np.array_equal(tensor, model.parameters()[name])

    def test_empty_windows_rejected(self):
        model = ae.init_model(TINY)
        with pytest.raises(DataError):
            ae.train_epochs(model, np.empty((0, 5, 2)), ae.TrainConfig(epochs=1))

    def test_invalid_train_config(self):
        with pytest.raises(ConfigError):
            ae.TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            ae.TrainConfig(batch_size=0)


def gapped_window_set(counts, gaps, k: int, m: int, rng) -> data.WindowSet:
    """The WindowSet of a frame of runs of consecutive seconds, run j
    holding counts[j] windows of k rows, with gaps[j] - 1 seconds missing
    after it."""
    ts, t = [], 0
    for count, gap in zip(counts, gaps):
        ts.extend(range(t, t + count + k - 1))
        t += count + k - 2 + gap
    frame = data.AlignedFrame(tuple(f"c{j}" for j in range(m)), np.array(ts, dtype=np.int64),
                              rng.standard_normal((len(ts), m)))
    ws = data.make_windows(frame, k)
    assert len(ws) == sum(counts)
    return ws


class TestWindowSetSource:
    """Training and inference gather a WindowSet's windows from its start
    rows, a minibatch or a chunk at a time, with the bits of its array."""

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 5), m=st.integers(1, 3), hd=st.integers(1, 3),
           n=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]) | st.integers(1, 20),
           runs=st.integers(1, 4), gap=st.integers(2, 5), batch_size=st.integers(5, 40),
           epochs=st.integers(1, 2), rate=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_window_set_is_bitwise_its_array(self, k, m, hd, n, runs, gap, batch_size,
                                             epochs, rate, seed):
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(runs, n) - 1, replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
        ws = gapped_window_set(counts, [gap] * len(counts), k, m, rng)
        # a gap leaves rows that start no window, unless every row is one
        assert (len(ws) == len(ws.frame_windows)) == (len(counts) == 1 or k == 1)
        model = random_model(rng, k, m, hd, dropout_rate=rate)
        tcfg = ae.TrainConfig(epochs=epochs, batch_size=batch_size, shuffle_seed=seed % 97)
        trained, history = ae.train_epochs(model, ws, tcfg)
        want_trained, want_history = ae.train_epochs(model, ws.windows, tcfg)
        assert history == want_history
        for name, tensor in trained.parameters().items():
            assert np.array_equal(tensor, want_trained.parameters()[name]), name
        assert np.array_equal(ae.reconstruction_errors(trained, ws),
                              ae.reconstruction_errors(trained, ws.windows))

    def test_memory_is_not_the_window_copy(self):
        """On the WindowSet of a long gapped frame, neither inference nor an
        epoch of training traces anything like the [n, k, m] copy of its
        windows that a plain array would be."""
        k, m = 30, 3
        rng = np.random.default_rng(5)
        ws = gapped_window_set([9_000, 12_000, 7_000, 11_911], [40, 300, 2, 1], k, m, rng)
        copy_bytes = len(ws) * k * m * 8  # 28.7 MB
        model = random_model(rng, k, m, 2)
        errors, peak = traced_peak(lambda: ae.reconstruction_errors(model, ws))
        assert errors.shape == (len(ws),)
        assert peak < copy_bytes / 20, peak
        _, peak = traced_peak(lambda: ae.train_epochs(model, ws, ae.TrainConfig(epochs=1)))
        assert peak < copy_bytes / 20, peak


class TestFullModelGradients:
    def test_bptt_matches_finite_differences(self, rng):
        for _ in range(3):
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3))
            hd = int(rng.integers(1, 5))
            config = ae.AutoencoderConfig(window_k=k, feature_m=m, hidden_dim=hd,
                                          dropout_rate=0.0,
                                          seed=int(rng.integers(0, 2**31)))
            model = ae.init_model(config)
            while True:
                x = rng.standard_normal((2, k, m))
                recon = ae.forward(model, x)
                if np.min(np.abs(recon - x)) >= 1e-4:
                    break
            _, grads = ae.batch_loss_and_grads(model, x)

            x_tm = np.ascontiguousarray(np.swapaxes(x, 0, 1))

            def loss_fn(tensors, model=model, x=x, x_tm=x_tm):
                mm = model.with_parameters(tensors)
                recon_tm, _ = ae._forward_batch_cached(mm, x_tm, None, None)
                return nn.mae_loss(recon_tm, x_tm)[0]

            fd = nn.finite_diff_grad(loss_fn, model.parameters(), h=1e-6)
            for name in grads:
                assert rel_err(grads[name], fd[name]) < 1e-5, name


    def test_bptt_with_dropout_masks_matches_finite_differences(self, rng):
        # the masks enter the feature-major path through transposed views;
        # n != h so that a mask applied along the wrong axis cannot fit
        k, m, hd, n = 4, 2, 3, 5
        model = random_model(rng, k, m, hd, dropout_rate=0.3)
        latent_mask = nn.dropout_mask((n, hd), 0.3, rng)
        dec_mask = nn.dropout_mask((k, n, hd), 0.3, rng)
        while True:
            x = rng.standard_normal((n, k, m))
            x_tm = np.ascontiguousarray(np.swapaxes(x, 0, 1))
            recon_tm, _ = ae._forward_batch_cached(model, x_tm, latent_mask, dec_mask)
            if np.min(np.abs(recon_tm - x_tm)) >= 1e-4:
                break
        _, grads = ae.batch_loss_and_grads(model, x, latent_mask, dec_mask)

        def loss_fn(tensors):
            recon, _ = ae._forward_batch_cached(model.with_parameters(tensors), x_tm,
                                                latent_mask, dec_mask)
            return nn.mae_loss(recon, x_tm)[0]

        fd = nn.finite_diff_grad(loss_fn, model.parameters(), h=1e-6)
        for name in grads:
            assert rel_err(grads[name], fd[name]) < 1e-5, name

    @settings(max_examples=30, deadline=None)
    @example(k=1, m=1, hd=1, n=1, rate=0.5, seed=0)
    @given(k=st.integers(1, 5), m=st.integers(1, 3), hd=st.integers(1, 5),
           n=st.integers(1, 5), rate=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_training_step_is_bitwise_the_caching_step(self, k, m, hd, n, rate, seed):
        # the decoder's dropout now scales its hidden states in place, and
        # BPTT recomputes tanh(c) and h: the loss and every gradient are
        # bitwise those of the caching loops, masks or none
        rng = np.random.default_rng(seed)
        model = random_model(rng, k, m, hd, dropout_rate=rate)
        x = rng.standard_normal((n, k, m))
        masks = (nn.dropout_mask((n, hd), rate, rng),
                 nn.dropout_mask((k, n, hd), rate, rng)) if rate else (None, None)
        loss, grads = ae.batch_loss_and_grads(model, x, *masks)
        with caching_lstm():
            want_loss, want_grads = ae.batch_loss_and_grads(model, x, *masks)
        assert loss == want_loss
        assert list(grads) == list(want_grads)
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), name

    def test_training_step_memory_at_the_reference_size(self):
        """One training step at the README model size (k=30, m=3, h=64) on a
        default batch of 64 windows with dropout masks traces 11.4 MiB. It
        traced 12.5 MiB while the encoder's hidden stack lived through the
        decoder's forward, and the decoder's states, their gradient and the
        decoder's cache through the encoder's BPTT; 16.2 MiB with tanh(c)
        and h cached per step as well. 12 MiB sits below the 12.5."""
        model = ae.init_model(ae.AutoencoderConfig())
        k, m, hd = model.config.window_k, model.config.feature_m, model.config.hidden_dim
        n = ae.TrainConfig().batch_size
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, k, m))
        latent_mask = nn.dropout_mask((n, hd), 0.2, rng)
        dec_mask = nn.dropout_mask((k, n, hd), 0.2, rng)
        _, peak = traced_peak(lambda: ae.batch_loss_and_grads(model, x, latent_mask, dec_mask))
        assert peak < 12 * 2**20, peak / 2**20


class TestSerialization:
    def _calibrated_model(self):
        model = ae.init_model(TINY)
        stats = ChannelStats(("a", "b"), np.array([1.0, -0.5]), np.array([2.0, 0.25]))
        return dataclasses.replace(model, channel_stats=stats, threshold=0.125)

    def test_round_trip_bitwise_errors(self, rng, tmp_path):
        model = self._calibrated_model()
        path = tmp_path / "model.json"
        ae.save_model(model, path)
        loaded = ae.load_model(path)
        windows = rng.standard_normal((4, 5, 2))
        assert np.array_equal(ae.reconstruction_errors(model, windows),
                              ae.reconstruction_errors(loaded, windows))
        assert loaded.threshold == model.threshold
        assert loaded.channel_stats.channels == ("a", "b")
        assert np.array_equal(loaded.channel_stats.mean, model.channel_stats.mean)

    def test_round_trip_uncalibrated(self, tmp_path):
        model = ae.init_model(TINY)
        ae.save_model(model, tmp_path / "m.json")
        loaded = ae.load_model(tmp_path / "m.json")
        assert loaded.threshold is None
        assert loaded.channel_stats is None

    def test_unknown_schema_version(self, tmp_path):
        model = ae.init_model(TINY)
        doc = json.loads(ae.model_to_json(model))
        doc["schema_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionError):
            ae.load_model(path)

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(ae.model_to_json(ae.init_model(TINY)).encode() + b"\xff")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            ae.load_model(path)

    def test_truncated_document(self, tmp_path):
        model = ae.init_model(TINY)
        text = ae.model_to_json(model)
        path = tmp_path / "trunc.json"
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ParseError):
            ae.load_model(path)

    @pytest.mark.parametrize("section, other, message", [
        ("encoder_lstm", {"feature_m": 3}, "encoder dimensions do not match config"),
        ("decoder_lstm", {"hidden_dim": 3}, "decoder dimensions do not match config"),
        ("output_dense", {"feature_m": 3}, "dense dimensions do not match config"),
        ("channel_stats", {"feature_m": 3}, "channel_stats do not match feature count"),
    ])
    def test_section_of_another_size_rejected(self, section, other, message):
        # each section is well formed on its own, but from a model of another size
        config = dataclasses.replace(TINY, **other)
        m = config.feature_m
        donor = dataclasses.replace(ae.init_model(config), channel_stats=ChannelStats(
            tuple("abc"[:m]), np.zeros(m), np.ones(m)))
        doc = json.loads(ae.model_to_json(self._calibrated_model()))
        doc[section] = json.loads(ae.model_to_json(donor))[section]
        with pytest.raises(ParseError, match=f"^malformed model document: {message}$"):
            ae.model_from_json(json.dumps(doc))

    def test_document_without_schema_version(self):
        doc = json.loads(ae.model_to_json(ae.init_model(TINY)))
        del doc["schema_version"]
        with pytest.raises(ParseError, match="^model document missing schema_version$"):
            ae.model_from_json(json.dumps(doc))

    def test_wrong_shape_weights(self, tmp_path):
        model = ae.init_model(TINY)
        doc = json.loads(ae.model_to_json(model))
        doc["encoder_lstm"]["bias"] = [0.0, 1.0]
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            ae.load_model(path)

    @pytest.mark.parametrize("field,value", [("mean", float("nan")), ("std", float("inf"))])
    def test_non_finite_channel_stats(self, tmp_path, field, value):
        doc = json.loads(ae.model_to_json(self._calibrated_model()))
        doc["channel_stats"][field][0] = value
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            ae.load_model(path)

    def test_missing_field(self, tmp_path):
        model = ae.init_model(TINY)
        doc = json.loads(ae.model_to_json(model))
        del doc["output_dense"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            ae.load_model(path)

    @pytest.mark.parametrize("section,field,value", [
        ("config", "window_k", 5.9),
        ("config", "feature_m", 2.0),
        ("config", "hidden_dim", "64"),
        ("config", "seed", True),
        ("config", "dropout_rate", True),
        ("config", "dropout_rate", "0.2"),
        ("encoder_lstm", "input_dim", 2.7),
        ("decoder_lstm", "hidden_dim", False),
    ])
    def test_config_field_of_wrong_json_type(self, section, field, value):
        doc = json.loads(ae.model_to_json(ae.init_model(TINY)))
        doc[section][field] = value
        kind = "number" if field == "dropout_rate" else "integer"
        with pytest.raises(ParseError, match=f"{section}.{field} must be a JSON {kind}, "
                                             f"got {re.escape(json.dumps(value))}$") as info:
            ae.model_from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    @staticmethod
    def calibrated_doc() -> dict:
        """A TINY model document with channel stats and a threshold."""
        stats = ChannelStats(("a", "b"), np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        model = dataclasses.replace(ae.init_model(TINY), channel_stats=stats, threshold=0.75)
        return json.loads(ae.model_to_json(model))

    @pytest.mark.parametrize("section,field,value,expected", [
        (None, "threshold", True, "a JSON number"),
        (None, "threshold", "0.5", "a JSON number"),
        ("channel_stats", "mean", [True, "2"], "a list of JSON numbers"),
        ("channel_stats", "mean", 1.0, "a list of JSON numbers"),
        ("channel_stats", "std", [1.0, "2"], "a list of JSON numbers"),
        ("channel_stats", "std", [False, 1.0], "a list of JSON numbers"),
        ("channel_stats", "channels", ["a", None], "a list of strings"),
        ("channel_stats", "channels", "ab", "a list of strings"),
    ])
    def test_stats_or_threshold_of_wrong_json_type(self, section, field, value, expected):
        doc = self.calibrated_doc()
        (doc[section] if section else doc)[field] = value
        name = f"{section}.{field}" if section else field
        with pytest.raises(ParseError, match=f"{name} must be {expected}, "
                                             f"got {re.escape(json.dumps(value))}$") as info:
            ae.model_from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("section,field,value", [
        (None, "threshold", 10**400),
        ("config", "dropout_rate", 10**400),
        ("channel_stats", "mean", [1, 10**400]),
    ])
    def test_number_beyond_float64_range(self, section, field, value):
        doc = self.calibrated_doc()
        (doc[section] if section else doc)[field] = value
        name = f"{section}.{field}" if section else field
        with pytest.raises(ParseError, match=f"{name} is beyond the float64 range$"):
            ae.model_from_json(json.dumps(doc))

    def test_written_stats_and_threshold_round_trip(self):
        text = json.dumps(self.calibrated_doc())
        loaded = ae.model_from_json(text)
        assert loaded.channel_stats.channels == ("a", "b")
        assert loaded.channel_stats.mean.tolist() == [0.5, -1.0]
        assert loaded.channel_stats.std.tolist() == [2.0, 0.25]
        assert loaded.threshold == 0.75
        assert ae.model_to_json(loaded) == text
        # JSON integers are numbers too, and a null threshold stays unset
        doc = json.loads(text)
        doc["channel_stats"]["std"] = [2, 1]
        doc["threshold"] = None
        loaded = ae.model_from_json(json.dumps(doc))
        assert loaded.channel_stats.std.tolist() == [2.0, 1.0]
        assert loaded.threshold is None

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_written_config_round_trips(self, dropout_rate):
        config = dataclasses.replace(TINY, dropout_rate=dropout_rate, seed=2**40)
        text = ae.model_to_json(ae.init_model(config))
        loaded = ae.model_from_json(text)
        assert loaded.config == config
        assert ae.model_to_json(loaded) == text
        # a JSON integer is a number too
        doc = json.loads(text)
        doc["config"]["dropout_rate"] = 0
        assert ae.model_from_json(json.dumps(doc)).config.dropout_rate == 0.0

    @pytest.mark.parametrize("layer,tensor,bad,reason", [
        ("encoder_lstm", "bias", np.zeros(20), "bias shape (20,), expected (16,)"),
        ("decoder_lstm", "input_kernel", np.full((16, 4), np.nan),
         "non-finite entries in input_kernel"),
        ("output_dense", "bias", np.zeros(3), "dense bias length 3 does not match"),
    ])
    def test_layer_error_names_layer(self, layer, tensor, bad, reason):
        doc = json.loads(ae.model_to_json(ae.init_model(TINY)))
        doc[layer][tensor] = ae._tensor_to_doc(bad)
        with pytest.raises(ParseError) as info:
            ae.model_from_json(json.dumps(doc))
        assert f"malformed model document: {layer}: {reason}" in str(info.value)
        assert "\n" not in str(info.value)


F8_MAX = np.finfo(np.float64).max
# -0.0, the smallest subnormal, a larger subnormal and +-max, besides random doubles
F8_EDGES = [-0.0, 5e-324, -2.5e-310, F8_MAX, -F8_MAX]
FINITE_F8 = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(F8_EDGES)


def tensor_bits(model):
    return {name: (t.shape, t.tobytes()) for name, t in model.parameters().items()}


class TestTensorPayloads:
    """Schema v2 stores each weight tensor as {"shape", "f8le"}: base64 of
    its little-endian float64 bytes."""

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                      elements=st.floats() | st.sampled_from(F8_EDGES)))
    @example(np.array(F8_EDGES))
    def test_tensor_round_trip_bitwise(self, a):
        doc = json.loads(json.dumps(ae._tensor_to_doc(a)))
        out = ae._tensor_from_doc(doc, "t")
        assert out.shape == a.shape
        assert out.tobytes() == a.tobytes()

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_model_round_trip_bitwise(self, data):
        model = ae.init_model(TINY)
        params = {name: data.draw(hnp.arrays(np.float64, t.shape, elements=FINITE_F8))
                  for name, t in model.parameters().items()}
        model = model.with_parameters(params)
        text = ae.model_to_json(model)
        loaded = ae.model_from_json(text)
        assert tensor_bits(loaded) == tensor_bits(model)
        assert ae.model_to_json(loaded) == text

    def test_loaded_tensors_writeable_contiguous_native(self):
        loaded = ae.model_from_json(ae.model_to_json(ae.init_model(TINY)))
        for name, t in loaded.parameters().items():
            assert t.dtype == np.float64 and t.dtype.isnative, name
            assert t.flags.writeable and t.flags.c_contiguous, name

    def test_payload_is_little_endian_float64(self):
        doc = json.loads(ae.model_to_json(ae.init_model(TINY)))["output_dense"]["bias"]
        assert doc["shape"] == [2]
        assert doc["f8le"] == "AAAAAAAAAAAAAAAAAAAAAA=="
        doc = ae._tensor_to_doc(np.array([1.0]))
        assert doc == {"shape": [1], "f8le": "AAAAAAAA8D8="}

    def test_document_key_order(self):
        prov = ae.Provenance("0.1.0", (3600, 5399), 1771)
        doc = json.loads(ae.model_to_json(dataclasses.replace(ae.init_model(TINY),
                                                              provenance=prov)))
        assert list(doc) == ["schema_version", "config", "channel_stats", "threshold",
                             "provenance", "encoder_lstm", "decoder_lstm", "output_dense"]
        assert list(doc["config"]) == ["window_k", "feature_m", "hidden_dim",
                                       "dropout_rate", "seed"]
        assert list(doc["provenance"]) == ["beamwatch_version", "train_span", "n_windows"]
        for section in ("encoder_lstm", "decoder_lstm"):
            assert list(doc[section]) == ["input_dim", "hidden_dim",
                                          *nn.LstmLayerParams.TENSORS]
        assert nn.LstmLayerParams.TENSORS == ("input_kernel", "recurrent_kernel", "bias")
        assert list(doc["output_dense"]) == ["weight", "bias"]

    def test_provenance_round_trip(self):
        prov = ae.Provenance("0.1.0", (3600, 5399), 1771)
        model = dataclasses.replace(ae.init_model(TINY), provenance=prov)
        text = ae.model_to_json(model)
        assert ae.model_from_json(text).provenance == prov
        assert ae.model_to_json(ae.model_from_json(text)) == text
        assert ae.init_model(TINY).provenance is None

    @staticmethod
    def _bias_doc(mutate):
        """Model document whose encoder bias tensor doc (16 floats: 128
        bytes, one '=' of padding) is replaced by mutate(original)."""
        doc = json.loads(ae.model_to_json(ae.init_model(TINY)))
        doc["encoder_lstm"]["bias"] = mutate(doc["encoder_lstm"]["bias"])
        return json.dumps(doc)

    @pytest.mark.parametrize("mutate,reason", [
        pytest.param(lambda d: {**d, "f8le": d["f8le"][:8] + "!" + d["f8le"][8:]},
                     "not canonical", id="non-alphabet-character"),
        pytest.param(lambda d: {**d, "f8le": d["f8le"][:8] + "\n" + d["f8le"][8:]},
                     "not canonical", id="embedded-newline"),
        pytest.param(lambda d: {**d, "f8le": d["f8le"].rstrip("=")}, "padding",
                     id="missing-padding"),
        pytest.param(lambda d: {**d, "f8le": d["f8le"] + "=="}, "not canonical",
                     id="extra-padding"),
        pytest.param(lambda d: {**d, "f8le": d["f8le"][:-2] + "B="}, "not canonical",
                     id="nonzero-trailing-bits"),
        pytest.param(lambda d: ae._tensor_to_doc(np.zeros(15)) | {"shape": [16]},
                     "120 bytes", id="byte-count-short"),
        pytest.param(lambda d: ae._tensor_to_doc(np.zeros(17)) | {"shape": [16]},
                     "136 bytes", id="byte-count-long"),
        pytest.param(lambda d: ae._tensor_to_doc(np.zeros(20)), "bias shape",
                     id="shape-disagrees-with-config"),
        pytest.param(lambda d: ae._tensor_to_doc(np.zeros((4, 4))), "bias shape",
                     id="wrong-rank"),
        pytest.param(lambda d: ae._tensor_to_doc(np.r_[np.zeros(15), np.nan]), "non-finite",
                     id="nan-in-bytes"),
        pytest.param(lambda d: ae._tensor_to_doc(np.r_[np.inf, np.zeros(15)]), "non-finite",
                     id="inf-in-bytes"),
        pytest.param(lambda d: [0.0] * 16, "tensor document", id="list-instead-of-tensor-doc"),
        pytest.param(lambda d: {**d, "shape": [16.0]}, "shape must", id="float-shape"),
        pytest.param(lambda d: {**d, "shape": [-16]}, "shape must", id="negative-shape"),
        pytest.param(lambda d: {**d, "f8le": None}, "base64 string", id="payload-not-a-string"),
        pytest.param(lambda d: {**d, "f8le": "AAAA\u00e9AAA"}, "ASCII", id="non-ascii-payload"),
        pytest.param(lambda d: {**d, "dtype": "f8"}, "tensor document", id="extra-key"),
        pytest.param(lambda d: {"shape": d["shape"]}, "tensor document", id="missing-payload"),
    ])
    def test_malformed_payload_rejected(self, mutate, reason):
        with pytest.raises(ParseError, match="malformed model document") as info:
            ae.model_from_json(self._bias_doc(mutate))
        assert reason in str(info.value)
        assert "\n" not in str(info.value)

    def test_malformed_provenance_rejected(self):
        doc = json.loads(ae.model_to_json(ae.init_model(TINY)))
        for prov in ({"beamwatch_version": "0.1.0", "train_span": [5, 4], "n_windows": 1},
                     {"beamwatch_version": "0.1.0", "train_span": [4, 5], "n_windows": 0},
                     {"beamwatch_version": 1, "train_span": [4, 5], "n_windows": 1},
                     {"beamwatch_version": "0.1.0", "train_span": [4], "n_windows": 1},
                     {"beamwatch_version": "0.1.0", "train_span": [4, 5.5], "n_windows": 1},
                     {"beamwatch_version": "0.1.0", "train_span": [4, 5], "n_windows": 2.0},
                     {"beamwatch_version": "0.1.0", "train_span": 4, "n_windows": 1},
                     [4, 5]):
            doc["provenance"] = prov
            with pytest.raises(ParseError):
                ae.model_from_json(json.dumps(doc))
        del doc["provenance"]
        with pytest.raises(ParseError):
            ae.model_from_json(json.dumps(doc))

    def test_version_1_document_asks_for_retraining(self):
        # the v1 layout: weights as nested decimal lists, no provenance
        model = ae.init_model(TINY)
        doc = json.loads(ae.model_to_json(model))
        doc["schema_version"] = 1
        del doc["provenance"]
        doc["encoder_lstm"].update({k: getattr(model.encoder_lstm, k).tolist()
                                    for k in ("input_kernel", "recurrent_kernel", "bias")})
        doc["decoder_lstm"].update({k: getattr(model.decoder_lstm, k).tolist()
                                    for k in ("input_kernel", "recurrent_kernel", "bias")})
        doc["output_dense"] = {"weight": model.output_dense.weight.tolist(),
                               "bias": model.output_dense.bias.tolist()}
        with pytest.raises(VersionError, match="retrain") as info:
            ae.model_from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

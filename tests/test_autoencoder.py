"""Tests for the six-layer autoencoder: init, forward, training,
reconstruction errors, and artifact serialization."""

import json

import numpy as np
import pytest

from beamwatch import autoencoder as ae
from beamwatch import nn
from beamwatch.data import ChannelStats
from beamwatch.errors import ConfigError, DataError, ParseError, ShapeError, VersionError

from conftest import rel_err

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

class TestSerialization:
    def _calibrated_model(self):
        model = ae.init_model(TINY)
        stats = ChannelStats(("a", "b"), np.array([1.0, -0.5]), np.array([2.0, 0.25]))
        import dataclasses
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

    def test_truncated_document(self, tmp_path):
        model = ae.init_model(TINY)
        text = ae.model_to_json(model)
        path = tmp_path / "trunc.json"
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ParseError):
            ae.load_model(path)

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

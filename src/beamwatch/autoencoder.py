"""Six-layer LSTM autoencoder: encoder LSTM, dropout, repeat of the latent
vector, decoder LSTM, dropout, and a time-distributed dense output layer.

A window of k seconds and m channels is compressed into the encoder's final
hidden state and reconstructed back to a k x m matrix; training minimizes
the mean absolute reconstruction error with Adam.

The three weight layers are listed once, in `_LAYERS`: the flat parameter
and gradient dicts and the model file's layer sections all walk that table
and each layer class's `TENSORS`.

Training and inference run the same batched forward from `nn`. Its edges
are time-major ([k, n, m] windows in, reconstructions out); inside, every
array is feature-major, one column per window. Training applies the dropout
masks and keeps the per-step caches for BPTT; inference (`forward`,
`reconstruction_errors`) is eval mode only, with dropout off and no caches,
and works in zero-padded chunks of `INFERENCE_CHUNK` windows, so every
matrix product has one shape and a window's result is bitwise the same
whatever batch, chunk or column it is in.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import nn
from .data import ChannelStats
from .errors import (BeamwatchError, ConfigError, DataError, NumericError, ParseError,
                     ShapeError, VersionError)
from .ioutil import as_text, atomic_write_text, read_input

SCHEMA_VERSION = 2

# Windows per inference chunk, a fact of its own, not the training batch size.
# The last chunk is zero-padded to this size; the padding rows are discarded.
INFERENCE_CHUNK = 64


@dataclass(frozen=True)
class AutoencoderConfig:
    """Architecture hyperparameters; defaults follow the reference setup
    (30-second window, three channels, 64 hidden units, dropout 0.2)."""

    window_k: int = 30
    feature_m: int = 3
    hidden_dim: int = 64
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.window_k < 1 or self.feature_m < 1 or self.hidden_dim < 1:
            raise ConfigError("window_k, feature_m, and hidden_dim must all be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.shuffle_seed < 0:
            raise ConfigError(f"shuffle_seed must be nonnegative, got {self.shuffle_seed}")


@dataclass(frozen=True)
class Provenance:
    """Where a trained artifact came from: the package version that trained
    it, the [first, last] epoch second of its chronological train split and
    the number of windows it was trained on."""

    beamwatch_version: str
    train_span: tuple[int, int]
    n_windows: int

    def __post_init__(self):
        if not isinstance(self.beamwatch_version, str):
            raise ConfigError("provenance beamwatch_version must be a string")
        span = self.train_span
        if not (len(span) == 2 and all(type(t) is int for t in span) and span[0] <= span[1]):
            raise ConfigError(f"provenance train_span must be [first, last] epoch "
                              f"seconds, got {list(span)}")
        if type(self.n_windows) is not int or self.n_windows < 1:
            raise ConfigError(f"provenance n_windows must be an integer >= 1, "
                              f"got {self.n_windows!r}")


# The artifact's layers: its field (also the layer's section of the model
# file), the prefix of the layer's tensors in the flat parameter and
# gradient dicts, and the layer's class.
_LAYERS = (("encoder_lstm", "encoder", nn.LstmLayerParams),
           ("decoder_lstm", "decoder", nn.LstmLayerParams),
           ("output_dense", "dense", nn.DenseParams))


@dataclass(frozen=True)
class ModelArtifact:
    """Weights plus the normalization stats and threshold needed to apply
    the model to new data. Immutable; training returns updated copies."""

    config: AutoencoderConfig
    encoder_lstm: nn.LstmLayerParams
    decoder_lstm: nn.LstmLayerParams
    output_dense: nn.DenseParams
    channel_stats: ChannelStats | None = None
    threshold: float | None = None
    provenance: Provenance | None = None

    def __post_init__(self):
        cfg = self.config
        if (self.encoder_lstm.input_dim, self.encoder_lstm.hidden_dim) != \
                (cfg.feature_m, cfg.hidden_dim):
            raise ShapeError("encoder dimensions do not match config")
        if (self.decoder_lstm.input_dim, self.decoder_lstm.hidden_dim) != \
                (cfg.hidden_dim, cfg.hidden_dim):
            raise ShapeError("decoder dimensions do not match config")
        if (self.output_dense.in_dim, self.output_dense.out_dim) != \
                (cfg.hidden_dim, cfg.feature_m):
            raise ShapeError("dense dimensions do not match config")
        if self.channel_stats is not None and \
                len(self.channel_stats.channels) != cfg.feature_m:
            raise ShapeError("channel_stats do not match feature count")
        if self.threshold is not None and not 0 <= self.threshold < math.inf:
            raise ConfigError(f"threshold must be finite and nonnegative, got {self.threshold}")

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat name -> tensor dict for the optimizer and gradient oracle."""
        return {name: tensor for field, prefix, _ in _LAYERS
                for name, tensor in getattr(self, field).tensors(prefix).items()}

    def with_parameters(self, tensors: dict[str, np.ndarray]) -> "ModelArtifact":
        return replace(self, **{field: getattr(self, field).with_tensors(prefix, tensors)
                                for field, prefix, _ in _LAYERS})


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng, dim):
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def _init_lstm(rng, input_dim: int, hidden_dim: int) -> nn.LstmLayerParams:
    # Glorot-uniform input kernel (fan over the full packed kernel),
    # per-gate orthogonal recurrent kernel, forget-gate bias 1.
    h4 = 4 * hidden_dim
    input_kernel = _glorot_uniform(rng, (h4, input_dim), input_dim, h4)
    recurrent_kernel = np.vstack([_orthogonal(rng, hidden_dim) for _ in range(4)])
    bias = np.zeros(h4)
    bias[hidden_dim:2 * hidden_dim] = 1.0
    return nn.LstmLayerParams(input_dim, hidden_dim, input_kernel, recurrent_kernel, bias)


def init_model(config: AutoencoderConfig) -> ModelArtifact:
    """Build an untrained artifact with seeded initialization."""
    rng = np.random.default_rng(config.seed)
    encoder = _init_lstm(rng, config.feature_m, config.hidden_dim)
    decoder = _init_lstm(rng, config.hidden_dim, config.hidden_dim)
    dense_w = _glorot_uniform(rng, (config.feature_m, config.hidden_dim),
                              config.hidden_dim, config.feature_m)
    dense = nn.DenseParams(weight=dense_w, bias=np.zeros(config.feature_m))
    return ModelArtifact(config, encoder, decoder, dense)


def _check_batch(config: AutoencoderConfig, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1:] != (config.window_k, config.feature_m):
        raise ShapeError(
            f"batch shape {batch.shape} does not match "
            f"[n, {config.window_k}, {config.feature_m}]"
        )
    return batch


# ---------------------------------------------------------------------------
# Forward (feature-major internals, shared by training and inference)


def _forward_batch_cached(model: ModelArtifact, batch_tm: np.ndarray,
                          latent_mask: np.ndarray | None,
                          dec_mask: np.ndarray | None, keep_cache: bool = True):
    """Batched forward on a time-major [k, n, m] batch; dropout masks are
    latent_mask [n, h] and dec_mask [k, n, h] (None = off). Returns the
    time-major reconstruction and the intermediates _backward_batch needs,
    or None for them when keep_cache is false.

    Inside, every array is feature-major (one column per window: [h, n],
    [k, h, n], [k, m, n]); the masks apply through transposed views and the
    reconstruction returned is a transposed view of the [k, m, n] result.
    """
    k = model.config.window_k
    x_fm = np.ascontiguousarray(np.swapaxes(batch_tm, 1, 2))
    enc_seq, enc_cache = nn.lstm_forward_batch(x_fm, model.encoder_lstm, keep_cache)
    latent = enc_seq[-1]
    latent_d = latent if latent_mask is None else latent * latent_mask.T
    dec_seq, dec_cache = nn.lstm_forward_repeat(latent_d, k, model.decoder_lstm, keep_cache)
    dec_d = dec_seq if dec_mask is None else dec_seq * np.swapaxes(dec_mask, 1, 2)
    dense = model.output_dense
    recon_fm = dense.weight @ dec_d
    recon_fm += dense.bias[:, None]
    recon_tm = np.swapaxes(recon_fm, 1, 2)
    if not keep_cache:
        return recon_tm, None
    cache = {
        "enc_cache": enc_cache, "dec_cache": dec_cache,
        "latent_mask": latent_mask, "dec_mask": dec_mask, "dec_d": dec_d,
    }
    return recon_tm, cache


def _chunked_forward(model: ModelArtifact, batch: np.ndarray):
    """Yield (lo, padded time-major input chunk, its reconstruction) for the
    zero-padded chunks of INFERENCE_CHUNK windows of a [n, k, m] batch."""
    batch_tm = np.swapaxes(batch, 0, 1)
    for lo in range(0, batch.shape[0], INFERENCE_CHUNK):
        part = batch_tm[:, lo:lo + INFERENCE_CHUNK]
        chunk_tm = np.pad(part, [(0, 0), (0, INFERENCE_CHUNK - part.shape[1]), (0, 0)])
        recon_tm, _ = _forward_batch_cached(model, chunk_tm, None, None, keep_cache=False)
        yield lo, chunk_tm, recon_tm


def forward(model: ModelArtifact, batch: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Reconstruct a [n, k, m] batch of windows in eval mode (dropout off).

    Eval is the only mode; any other value raises ConfigError. Windows run
    in zero-padded chunks of INFERENCE_CHUNK, so results do not depend on
    batch composition.
    """
    if mode != "eval":
        raise ConfigError(f"mode must be 'eval', got {mode!r}")
    batch = _check_batch(model.config, batch)
    recon = np.empty_like(batch)
    for lo, _, recon_tm in _chunked_forward(model, batch):
        recon[lo:lo + INFERENCE_CHUNK] = np.swapaxes(recon_tm[:, :len(batch) - lo], 0, 1)
    return recon


def reconstruction_errors(model: ModelArtifact, windows: np.ndarray) -> np.ndarray:
    """Per-window mean absolute reconstruction error, eval mode.

    Each chunk's errors are reduced over the whole padded chunk and sliced
    afterwards: a reduction over a slice can take a different summation
    order for different slice widths, and then a window's error would
    depend on how many windows share its chunk.
    """
    windows = _check_batch(model.config, windows)
    errors = np.empty(len(windows))
    for lo, chunk_tm, recon_tm in _chunked_forward(model, windows):
        chunk_errors = np.mean(np.abs(recon_tm - chunk_tm), axis=(0, 2))
        errors[lo:lo + INFERENCE_CHUNK] = chunk_errors[:len(windows) - lo]
    return errors


# ---------------------------------------------------------------------------
# Training


def _backward_batch(model: ModelArtifact, d_recon_tm: np.ndarray, cache) -> dict[str, np.ndarray]:
    d_fm = np.ascontiguousarray(np.swapaxes(d_recon_tm, 1, 2))
    dec_d = cache["dec_d"]
    g_dense_w = (d_fm @ np.swapaxes(dec_d, 1, 2)).sum(axis=0)
    g_dense_b = d_fm.sum(axis=(0, 2))
    d_dec_seq = model.output_dense.weight.T @ d_fm
    if cache["dec_mask"] is not None:
        d_dec_seq *= np.swapaxes(cache["dec_mask"], 1, 2)
    d_latent, dec_grads = nn.lstm_backward_repeat(cache["dec_cache"],
                                                  model.decoder_lstm, d_dec_seq)
    if cache["latent_mask"] is not None:
        d_latent *= cache["latent_mask"].T
    enc_grads = nn.lstm_backward_batch(cache["enc_cache"], model.encoder_lstm,
                                       d_h_last=d_latent)
    grads = {"encoder_lstm": enc_grads, "decoder_lstm": dec_grads,
             "output_dense": {"weight": g_dense_w, "bias": g_dense_b}}
    return {f"{prefix}.{name}": grads[field][name]
            for field, prefix, cls in _LAYERS for name in cls.TENSORS}


def batch_loss_and_grads(model: ModelArtifact, batch: np.ndarray,
                         latent_mask: np.ndarray | None = None,
                         dec_mask: np.ndarray | None = None
                         ) -> tuple[float, dict[str, np.ndarray]]:
    """MAE of reconstructing `batch` [n, k, m] against itself, with BPTT
    gradients for every parameter tensor."""
    batch = _check_batch(model.config, batch)
    batch_tm = np.ascontiguousarray(np.swapaxes(batch, 0, 1))
    recon_tm, cache = _forward_batch_cached(model, batch_tm, latent_mask, dec_mask)
    loss, d_recon_tm = nn.mae_loss(recon_tm, batch_tm)
    return loss, _backward_batch(model, d_recon_tm, cache)


def train_epochs(model: ModelArtifact, windows: np.ndarray,
                 tcfg: TrainConfig) -> tuple[ModelArtifact, list[float]]:
    """Minibatch training with Adam; each window is its own target.

    Windows are reshuffled every epoch from a dedicated seeded stream, and
    dropout masks come from a second stream, so runs with identical seeds
    produce identical loss histories. Returns the trained artifact and the
    per-epoch mean of batch losses.
    """
    windows = _check_batch(model.config, windows)
    n = windows.shape[0]
    if n == 0:
        raise DataError("no windows to train on")
    if tcfg.epochs == 0:
        return model, []
    shuffle_rng = np.random.default_rng([tcfg.shuffle_seed, 0])
    dropout_rng = np.random.default_rng([tcfg.shuffle_seed, 1])
    rate = model.config.dropout_rate
    k, hd = model.config.window_k, model.config.hidden_dim

    params = model.parameters()
    state = nn.AdamState.init(params)
    history: list[float] = []
    current = model
    for _ in range(tcfg.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, tcfg.batch_size):
            idx = order[lo:lo + tcfg.batch_size]
            batch = windows[idx]
            if rate > 0.0:
                latent_mask = nn.dropout_mask((len(idx), hd), rate, dropout_rng)
                dec_mask = nn.dropout_mask((k, len(idx), hd), rate, dropout_rng)
            else:
                latent_mask = dec_mask = None
            loss, grads = batch_loss_and_grads(current, batch, latent_mask, dec_mask)
            params, state = nn.adam_step(params, grads, state)
            current = current.with_parameters(params)
            batch_losses.append(loss)
        history.append(float(np.mean(batch_losses)))
    return current, history


# ---------------------------------------------------------------------------
# Serialization


def _tensor_to_doc(a: np.ndarray) -> dict:
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape),
            "f8le": binascii.b2a_base64(raw, newline=False).decode("ascii")}


def _tensor_from_doc(doc, name: str) -> np.ndarray:
    """Decode one tensor doc strictly: canonical base64 (the text is
    re-encoded and compared, which also rejects characters that a lenient
    decoder skips) of exactly 8 * prod(shape) bytes. Returns a writeable,
    C-contiguous native float64 array."""
    if not isinstance(doc, dict) or set(doc) != {"shape", "f8le"}:
        raise ParseError(f"{name}: expected a {{shape, f8le}} tensor document")
    shape, text = doc["shape"], doc["f8le"]
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise ParseError(f"{name}: shape must be a list of nonnegative integers")
    if not isinstance(text, str):
        raise ParseError(f"{name}: f8le must be a base64 string")
    try:
        raw = binascii.a2b_base64(text)
    except ValueError as exc:
        raise ParseError(f"{name}: invalid base64: {exc}") from None
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != text:
        raise ParseError(f"{name}: f8le is not canonical base64")
    if len(raw) != 8 * math.prod(shape):
        raise ParseError(f"{name}: {len(raw)} bytes do not hold a float64 "
                         f"tensor of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _json_int(value, name: str) -> int:
    if type(value) is not int:  # rejects bool, float and str
        raise ParseError(f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_number(value, name: str) -> float:
    if type(value) not in (int, float):
        raise ParseError(f"{name} must be a JSON number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{name} is beyond the float64 range") from None


def _json_numbers(value, name: str) -> np.ndarray:
    if type(value) is not list or any(type(v) not in (int, float) for v in value):
        raise ParseError(f"{name} must be a list of JSON numbers, got {json.dumps(value)}")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ParseError(f"{name} is beyond the float64 range") from None


def _json_strings(value, name: str) -> tuple[str, ...]:
    if type(value) is not list or any(type(v) is not str for v in value):
        raise ParseError(f"{name} must be a list of strings, got {json.dumps(value)}")
    return tuple(value)


def _layer_to_doc(layer) -> dict:
    """A layer's model-file section: its fields in order, each of its
    TENSORS as a tensor doc and the others (its dimensions) as they are."""
    doc = {f.name: getattr(layer, f.name) for f in fields(layer)}
    return doc | {name: _tensor_to_doc(doc[name]) for name in layer.TENSORS}


def _layer_from_doc(cls, doc: dict, section: str):
    """Read a `cls` layer from its section: each of its TENSORS as a tensor
    doc, each other field as a JSON integer; errors name the section."""
    try:
        return cls(**{f.name: (_tensor_from_doc if f.name in cls.TENSORS else _json_int)(
            doc[f.name], f"{section}.{f.name}") for f in fields(cls)})
    except (ShapeError, NumericError) as exc:
        raise ParseError(f"{section}: {exc}") from None


def model_to_json(model: ModelArtifact) -> str:
    """Serialize to a one-line JSON document (schema v2).

    Weight tensors are stored as {"shape", "f8le"}: the base64 of their
    little-endian float64 bytes, so save/load is bitwise exact. Config,
    channel stats, threshold and provenance are plain JSON values.
    """
    stats = model.channel_stats
    prov = model.provenance
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(model.config),
        "channel_stats": None if stats is None else {
            "channels": list(stats.channels),
            "mean": stats.mean.tolist(),
            "std": stats.std.tolist(),
        },
        "threshold": model.threshold,
        "provenance": None if prov is None else asdict(prov),
        **{field: _layer_to_doc(getattr(model, field)) for field, _, _ in _LAYERS},
    }
    return json.dumps(doc, allow_nan=False)


def model_from_json(text: str | bytes) -> ModelArtifact:
    """Parse a model document; schema mismatches (VersionError; a v1
    document must be retrained) and malformed or invalid content
    (ParseError: missing fields, config, threshold or channel-stats values
    of the wrong JSON type or beyond the float64 range, bad tensor
    payloads, wrong shapes, non-finite weights or channel stats; layer
    errors name the layer) are rejected outright (no partially loaded
    model)."""
    try:
        doc = json.loads(as_text(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed model document: {exc}") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ParseError("model document missing schema_version")
    version = doc["schema_version"]
    if version == 1:
        raise VersionError(
            f"model schema_version 1 is no longer read (expected {SCHEMA_VERSION}); "
            "retrain the model with `beamwatch train`"
        )
    if version != SCHEMA_VERSION:
        raise VersionError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    try:
        cfg_doc = doc["config"]
        config = AutoencoderConfig(
            **{key: _json_int(cfg_doc[key], f"config.{key}")
               for key in ("window_k", "feature_m", "hidden_dim", "seed")},
            dropout_rate=_json_number(cfg_doc["dropout_rate"], "config.dropout_rate"),
        )
        stats_doc = doc["channel_stats"]
        stats = None if stats_doc is None else ChannelStats(
            channels=_json_strings(stats_doc["channels"], "channel_stats.channels"),
            mean=_json_numbers(stats_doc["mean"], "channel_stats.mean"),
            std=_json_numbers(stats_doc["std"], "channel_stats.std"),
        )
        threshold = doc["threshold"]
        if threshold is not None:
            threshold = _json_number(threshold, "threshold")
        layers = {field: _layer_from_doc(cls, doc[field], field) for field, _, cls in _LAYERS}
        prov = doc["provenance"]
        provenance = None if prov is None else Provenance(
            beamwatch_version=prov["beamwatch_version"],
            train_span=tuple(prov["train_span"]), n_windows=prov["n_windows"])
        return ModelArtifact(config=config, **layers, channel_stats=stats,
                             threshold=threshold, provenance=provenance)
    except (KeyError, TypeError, ValueError, BeamwatchError) as exc:
        raise ParseError(f"malformed model document: {exc}") from None


def save_model(model: ModelArtifact, destination: str | Path) -> None:
    """Write the artifact atomically (complete file or no file)."""
    atomic_write_text(destination, model_to_json(model))


def load_model(source: str | Path) -> ModelArtifact:
    """Read a model file through `read_input`; its errors name the file."""
    return read_input(source, model_from_json)

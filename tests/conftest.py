"""Shared test helpers: random parameter factories and the gradient-check
comparison used by both unit and acceptance tests, the text of a series CSV,
and the tracemalloc peak of a call."""

import io
import tracemalloc

import numpy as np
import pytest

from beamwatch import data, nn


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Max elementwise relative error with a denominator floor.

    The floor reflects the resolution of the h=1e-6 central-difference
    oracle: each loss evaluation carries ~1e-16 roundoff, so difference
    quotients are only trustworthy to ~1e-10 absolute. Below the floor the
    comparison would measure oracle noise instead of gradient correctness.
    """
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def csv_text(series: data.RawSeries) -> str:
    """The series CSV that `data.format_series_csv` writes for `series`."""
    out = io.StringIO()
    data.format_series_csv(series, out)
    return out.getvalue()


def traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_lstm_params(rng: np.random.Generator, input_dim: int,
                       hidden_dim: int, scale: float = 0.5) -> nn.LstmLayerParams:
    h4 = 4 * hidden_dim
    return nn.LstmLayerParams(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        input_kernel=scale * rng.standard_normal((h4, input_dim)),
        recurrent_kernel=scale * rng.standard_normal((h4, hidden_dim)),
        bias=scale * rng.standard_normal(h4),
    )


def zero_lstm_params(input_dim: int, hidden_dim: int) -> nn.LstmLayerParams:
    h4 = 4 * hidden_dim
    return nn.LstmLayerParams(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        input_kernel=np.zeros((h4, input_dim)),
        recurrent_kernel=np.zeros((h4, hidden_dim)),
        bias=np.zeros(h4),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

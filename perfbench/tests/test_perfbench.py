"""The benchmark's own tests: metric names and units at tiny sizes, tracer
hygiene, and the determinism of the rescore input generator.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys

import numpy as np
import pytest

import layers
import run
import workloads
from tracer import Target, Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    out = run.run_one(name, seed=3, seconds=0.1, trace=trace, sizes=workloads.TINY_SIZES)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["details"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    json.dumps(result)  # the last stdout line must serialize


def _beamwatch_attrs() -> dict:
    return {(n, a): v for n, m in list(sys.modules.items())
            if n == "beamwatch" or n.startswith("beamwatch.")
            for a, v in vars(m).items()}


def test_tracer_wraps_and_restores_module_attributes():
    from beamwatch import cli, ioutil, nn
    before = _beamwatch_attrs()
    original_write = ioutil.atomic_write_text
    tracer = Tracer(layers.TARGETS + [Target("nn.no_such_function")])
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert nn.lstm_cell_forward is not before[("beamwatch.nn", "lstm_cell_forward")]
            # a name imported with `from .ioutil import ...` is wrapped too
            assert cli.atomic_write_text is not original_write
            assert ioutil.atomic_write_text is cli.atomic_write_text
            raise RuntimeError("leaving the traced block by an exception")
    after = _beamwatch_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == {"nn.no_such_function"}


def test_tracer_self_times_add_up():
    from beamwatch import autoencoder as ae
    tracer = Tracer(layers.TARGETS)
    model = ae.init_model(ae.AutoencoderConfig(window_k=4, feature_m=2, hidden_dim=3))
    windows = np.random.default_rng(0).standard_normal((5, 4, 2))
    with tracer.installed(), tracer.span("root") as root:
        ae.train_epochs(model, windows, ae.TrainConfig(epochs=2, batch_size=2))
        ae.reconstruction_errors(model, windows)
    assert tracer.subtree_self_s(root) == pytest.approx(root.duration, rel=1e-9)
    summary = tracer.summary()
    assert summary["autoencoder.batch_loss_and_grads"]["calls"] == 6
    assert summary["nn.lstm_cell_forward"]["calls"] == 5 * 4 * 2


def _rescore_inputs():
    faults = [(s, s + 12) for s in range(40, 7200, 450)]
    return faults, (3600, 7199)


def test_anomaly_generator_is_deterministic_in_its_seed():
    faults, span = _rescore_inputs()
    a, expect_a = workloads.make_anomalies(faults, span, seed=5)
    b, expect_b = workloads.make_anomalies(faults, span, seed=5)
    c, _ = workloads.make_anomalies(faults, span, seed=6)
    assert a == b and expect_a == expect_b
    assert a != c
    stamps = [t for t, _ in a]
    assert stamps == sorted(set(stamps))
    assert all(span[0] <= t <= span[1] for t in stamps)


def test_anomaly_generator_expected_counts_match_the_scorer():
    from beamwatch import detect, faults as bw_faults
    fault_list, span = _rescore_inputs()
    points, expected = workloads.make_anomalies(fault_list, span, seed=9)
    truth = [bw_faults.FaultEvent(max(s, span[0]), min(e, span[1]))
             for s, e in fault_list if e >= span[0] and s <= span[1]]
    anomalies = [detect.AnomalyPoint(t, e) for t, e in points]
    for lead, mode, gap in workloads.RESCORE_SETTINGS:
        if gap:
            continue
        report = detect.score_detections(anomalies, truth, lead, mode, span)
        assert report.total_faults == expected["total_faults"]
        assert report.true_positives == expected["true_positives"]

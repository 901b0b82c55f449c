"""Tests for the synthetic run generator."""

import numpy as np
import pytest

from beamwatch import data, faults, synth
from beamwatch.errors import ConfigError


SMALL = synth.SynthConfig(duration=600, seed=4, n_faults=3)


class TestGenerateRun:
    def test_deterministic(self):
        a_frame, a_cur, a_truth = synth.generate_run(SMALL)
        b_frame, b_cur, b_truth = synth.generate_run(SMALL)
        assert np.array_equal(a_frame.values, b_frame.values)
        assert np.array_equal(a_cur.values, b_cur.values)
        assert a_truth == b_truth

    def test_fault_count(self):
        _, _, truth = synth.generate_run(SMALL)
        assert len(truth) == 3

    def test_zero_faults(self):
        frame, cur, truth = synth.generate_run(
            synth.SynthConfig(duration=100, seed=1, n_faults=0))
        assert truth == []
        assert frame.n_rows == 100

    def test_faults_disjoint_inside_run(self):
        cfg = synth.SynthConfig(duration=2000, seed=9, n_faults=8)
        _, _, truth = synth.generate_run(cfg)
        assert len(truth) == 8
        for e in truth:
            assert 0 <= e.start <= e.end < cfg.duration
            dur = e.end - e.start + 1
            assert synth.FAULT_DURATION_MIN <= dur <= synth.FAULT_DURATION_MAX
        for a, b in zip(truth, truth[1:]):
            assert b.start - a.end >= 2

    def test_noiseless_current_is_exact(self):
        cfg = synth.SynthConfig(duration=300, seed=2, n_faults=2,
                                current_noise_std=0.0, wiresum_noise_std=0.0,
                                position_noise_std=0.0)
        frame, cur, truth = synth.generate_run(cfg)
        in_fault = np.zeros(cfg.duration, dtype=bool)
        for e in truth:
            in_fault[e.start:e.end + 1] = True
        assert np.all(cur.values[~in_fault] == synth.CURRENT_PLATEAU)
        assert np.all(cur.values[in_fault] == synth.FAULT_CURRENT_LEVEL)
        assert np.all(frame.values[~in_fault, 0] ==
                      synth.WIRESUM_GAIN * synth.CURRENT_PLATEAU)

    def test_current_drops_recover_injected_faults(self):
        frame, cur, truth = synth.generate_run(SMALL)
        drops = faults.detect_current_drops(cur, synth.CURRENT_PLATEAU / 2.0)
        assert [(d.start, d.end) for d in drops] == [(e.start, e.end) for e in truth]

    def test_frame_passes_pipeline_validation(self):
        frame, cur, _ = synth.generate_run(SMALL)
        assert frame.channels == ("wiresum", "xpos", "ypos")
        assert np.all(np.diff(frame.timestamps) == 1)
        assert frame.n_rows == SMALL.duration
        # frame and current round-trip through the CSV interfaces
        again = data.align_and_fill([
            data.RawSeries(name, frame.timestamps.astype(float), frame.values[:, j])
            for j, name in enumerate(frame.channels)
        ])
        assert np.array_equal(again.values, frame.values)

    def test_position_step_precedes_fault(self):
        cfg = synth.SynthConfig(duration=600, seed=4, n_faults=3,
                                position_noise_std=0.0, drift_amplitude=0.0)
        frame, _, truth = synth.generate_run(cfg)
        for e in truth:
            pre = frame.values[e.start - synth.STEP_LEAD:e.start, 1]
            assert np.all(np.abs(pre) == synth.POSITION_STEP)
            before = frame.values[e.start - synth.STEP_LEAD - 3:e.start - synth.STEP_LEAD, 1]
            assert np.all(before == 0.0)

    def test_unplaceable_faults_rejected(self):
        with pytest.raises(ConfigError):
            synth.generate_run(synth.SynthConfig(duration=100, seed=0, n_faults=10))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            synth.SynthConfig(duration=0)

    def test_channel_streams_independent(self):
        # changing position parameters must not perturb current or wiresum
        base = synth.SynthConfig(duration=400, seed=6, n_faults=2)
        alt = synth.SynthConfig(duration=400, seed=6, n_faults=2,
                                position_noise_std=0.5, drift_amplitude=1.0)
        f0, c0, t0 = synth.generate_run(base)
        f1, c1, t1 = synth.generate_run(alt)
        assert t0 == t1
        assert np.array_equal(c0.values, c1.values)
        assert np.array_equal(f0.values[:, 0], f1.values[:, 0])
        assert not np.array_equal(f0.values[:, 1], f1.values[:, 1])

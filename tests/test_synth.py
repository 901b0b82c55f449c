"""Tests for the synthetic run generator and the `synth` subcommand."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwatch import data, faults, synth
from beamwatch.cli import main
from beamwatch.errors import ConfigError, DataError

import oracles
from conftest import traced_peak


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
            synth.SynthConfig(duration=0, seed=0)

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


def run_synth(root: Path, duration: int, n_faults: int, seed: int) -> int:
    """`main(["synth", ...])` on a config written to `root`; its exit code."""
    cfg = root / "run.cfg"
    cfg.write_text(f"synth_duration = {duration}\nsynth_n_faults = {n_faults}\n"
                   f"synth_seed = {seed}\n")
    return main(["synth", "--config", str(cfg)])


def file_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir()}


def oracle_files(cfg: synth.SynthConfig) -> dict[str, bytes]:
    """The five files of `cfg`'s run, from the whole-array generator and
    the row-at-a-time writer."""
    frame, current, truth = oracles.generate_run(cfg)
    series = [data.RawSeries(name, frame.timestamps, frame.values[:, j])
              for j, name in enumerate(frame.channels)] + [current]
    texts = {f"{s.channel_name}.csv": oracles.format_series_csv(s) for s in series}
    texts["faults.csv"] = faults.format_fault_csv(truth)
    return {name: text.encode() for name, text in texts.items()}


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@st.composite
def block_runs(draw, block: int) -> synth.SynthConfig:
    """A run of 1 s to a few blocks of `block` seconds (at least a few
    hundred, so faults fit), often a block multiple give or take one, with
    any seed and as many faults as fit."""
    longest = 4 * max(block, 100)
    duration = draw(st.integers(1, longest) | st.builds(
        lambda k, d: max(1, k * block + d), st.integers(1, 3), st.integers(-1, 1)))
    max_faults = duration // (synth.FAULT_DURATION_MAX + synth.STEP_LEAD + 2)
    return synth.SynthConfig(duration=duration, seed=draw(st.integers(0, 2**32 - 1)),
                             n_faults=draw(st.integers(0, min(max_faults, 12))))


class TestBlocks:
    """The block generator, and the files `synth` writes from it, against
    the whole-array generator: bit for bit at any block length."""

    @pytest.mark.parametrize("block", [1, 7, synth.BLOCK_SECONDS])
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_equals_whole_array_run(self, block, draws):
        cfg = draws.draw(block_runs(block))
        want_frame, want_current, want_truth = oracles.generate_run(cfg)
        with mock.patch.object(synth, "BLOCK_SECONDS", block), \
                tempfile.TemporaryDirectory() as root:
            frame, current, truth = synth.generate_run(cfg)
            assert run_synth(Path(root), cfg.duration, cfg.n_faults, cfg.seed) == 0
            written = file_bytes(Path(root))
        assert truth == want_truth
        assert frame.channels == want_frame.channels
        assert_same_bits(frame.timestamps, want_frame.timestamps)
        assert_same_bits(frame.values, want_frame.values)
        assert_same_bits(current.timestamps, want_current.timestamps)
        assert_same_bits(current.values, want_current.values)
        del written["run.cfg"]
        assert written == oracle_files(cfg)

    def test_blocks_cover_the_run(self):
        cfg = synth.SynthConfig(duration=2 * synth.BLOCK_SECONDS + 5, seed=3, n_faults=4)
        blocks = list(synth.generate_blocks(cfg, synth.place_faults(cfg)))
        assert [len(b[0]) for b in blocks] == [synth.BLOCK_SECONDS] * 2 + [5]
        assert all(len(b) == 2 + len(synth.FRAME_CHANNELS) for b in blocks)


class TestSynthCommand:
    def test_memory_bounded_by_block(self, tmp_path):
        # the whole-array generator peaked at about 19 MB in this test
        code, peak = traced_peak(lambda: run_synth(tmp_path, 200_000, 8, 3))
        assert code == 0
        assert peak < 4_000_000, peak

    def test_wrong_series_count_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("series_files = a.csv, b.csv\n")
        unreachable = mock.Mock(side_effect=AssertionError("generated a run"))
        with mock.patch.object(synth, "place_faults", unreachable), \
                mock.patch.object(synth, "generate_blocks", unreachable):
            assert main(["synth", "--config", str(tmp_path / "run.cfg")]) == 1
        assert "synth produces 3 channels but config names 2 series files" in \
            capsys.readouterr().err
        assert sorted(file_bytes(tmp_path)) == ["run.cfg"]

    def test_failing_pass_replaces_no_file(self, tmp_path, capsys):
        assert run_synth(tmp_path, 600, 2, 1) == 0
        before = file_bytes(tmp_path)
        real = synth.generate_blocks

        def first_block_then_fail(cfg, truth):
            yield next(real(cfg, truth))
            raise DataError("block generator failed")

        with mock.patch.object(synth, "generate_blocks", first_block_then_fail):
            code = main(["synth", "--config", str(tmp_path / "run.cfg"),
                         "--set", "synth_seed=2"])
        assert code == 1
        assert "block generator failed" in capsys.readouterr().err
        assert file_bytes(tmp_path) == before
        assert not list(tmp_path.glob("*.tmp"))

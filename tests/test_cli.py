"""End-to-end CLI tests on a small synthetic run, plus config parsing."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import beamwatch
from beamwatch import autoencoder as ae
from beamwatch import config as cfgmod
from beamwatch.cli import main
from beamwatch.detect import EvalReport
from beamwatch.errors import ConfigError

SMALL_CFG = """
# small run so the tests stay fast
synth_duration = 900
synth_n_faults = 3
synth_seed = 5
epochs = 3
hidden_dim = 8
merge_max_gap = 3
"""


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One synth+train+detect+eval run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.cfg"
    cfg.write_text(SMALL_CFG)
    for command in ("synth", "train", "detect", "eval"):
        assert main([command, "--config", str(cfg)]) == 0
    return root


class TestConfigParsing:
    def test_defaults(self):
        cfg = cfgmod.parse_run_config("")
        assert cfg.window_k == 30
        assert cfg.hidden_dim == 64
        assert cfg.dropout_rate == 0.2
        assert cfg.fault_margin == 10
        assert cfg.lead_window == 10
        assert cfg.threshold_multiplier == 3.0
        assert cfg.train_fraction == 0.5
        assert cfg.epochs == 50
        assert cfg.merge_max_gap is None

    def test_readme_table_is_the_defaults(self):
        # README's "Config keys" table is a third copy of every default:
        # each row read as `key = default`, with `unset` an empty value.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config keys\n")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \| (?:`([^`]*)`|unset) \|", section, re.MULTILINE)
        assert [key for key, _ in rows] == [f.name for f in dataclasses.fields(cfgmod.RunConfig)]
        text = "".join(f"{key} = {default}\n" for key, default in rows)
        assert cfgmod.parse_run_config(text) == cfgmod.parse_run_config("")

    def test_values_and_comments(self):
        cfg = cfgmod.parse_run_config(
            "# comment\nwindow_k = 12\nseries_files = a.csv, b.csv\nmerge_max_gap = 4\n")
        assert cfg.window_k == 12
        assert cfg.series_files == ("a.csv", "b.csv")
        assert cfg.merge_max_gap == 4

    def test_overrides_win(self, tmp_path):
        (tmp_path / "run.cfg").write_text("window_k = 12\n")
        cfg = cfgmod.load_run_config(tmp_path / "run.cfg", {"window_k": "15"})
        assert cfg.window_k == 15

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(cfgmod.RunConfig)
                                     if f.type == "float"])
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        reason = re.escape(f"config key '{key}': '{value}' is not finite")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {reason}$"):
            cfgmod.load_run_config(path)
        path.write_text("")
        with pytest.raises(ConfigError, match=f"^--set: {reason}$"):
            cfgmod.load_run_config(path, {key: value})

    @pytest.mark.parametrize("key", ["series_files", "fault_files"])
    def test_empty_file_list_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must name at least one file$"):
            cfgmod.parse_run_config(f"{key} =\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_run_config("no_such_key = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            cfgmod.parse_run_config("just some text\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_run_config("window_k = thirty\n")

    def test_bad_scoring_mode(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_run_config("scoring_mode = magic\n")

    def test_relative_paths_resolve_against_config(self, tmp_path):
        cfg_file = tmp_path / "deep" / "run.cfg"
        cfg_file.parent.mkdir()
        cfg_file.write_text("model_file = m.json\n")
        cfg = cfgmod.load_run_config(cfg_file)
        assert cfg.model_file == str(tmp_path / "deep" / "m.json")


class TestPipeline:
    def test_synth_outputs(self, pipeline_dir):
        for name in ("wiresum.csv", "xpos.csv", "ypos.csv", "current.csv", "faults.csv"):
            assert (pipeline_dir / name).exists(), name

    def test_train_artifacts(self, pipeline_dir):
        model = ae.load_model(pipeline_dir / "model.json")
        assert model.threshold is not None and model.threshold >= 0
        assert model.channel_stats is not None
        assert model.channel_stats.channels == ("wiresum", "xpos", "ypos")
        report = json.loads((pipeline_dir / "out" / "train_report.json").read_text())
        assert len(report["loss_history"]) == 3
        assert report["threshold"] == model.threshold
        assert report["threshold_to_max_error_ratio"] > 0
        first, last = model.provenance.train_span
        assert model.provenance.beamwatch_version == beamwatch.__version__
        assert model.provenance.n_windows == report["n_windows"]
        assert last - first + 1 == report["n_train_rows"]

    def test_detect_outputs(self, pipeline_dir):
        out = pipeline_dir / "out"
        anomalies = (out / "anomalies.csv").read_text()
        assert anomalies.splitlines()[0] == "timestamp,error"
        # the run has injected faults in the test half, so some windows flag
        assert len(anomalies.splitlines()) > 1
        assert (out / "anomaly_events.csv").exists()

    @pytest.mark.parametrize("name, title", [("train_report", "training report"),
                                             ("detect_report", "detection report"),
                                             ("eval_report", "evaluation report")])
    def test_text_report_mirrors_json(self, pipeline_dir, name, title):
        doc = json.loads((pipeline_dir / "out" / f"{name}.json").read_text())
        lines = (pipeline_dir / "out" / f"{name}.txt").read_text().splitlines()
        assert lines[:2] == [title, "-" * len(title)]
        assert [line.split(": ", 1)[0] for line in lines[2:]] == list(doc)
        for line, (key, value) in zip(lines[2:], doc.items()):
            if isinstance(value, float):
                assert line == f"{key}: {value:.6f}"

    def test_detect_record_is_its_own_test_split(self, pipeline_dir, tmp_path):
        # with the head of wiresum.csv cut, the aligned series start later
        # than current.csv, and the record follows detect's own grid
        lines = (pipeline_dir / "wiresum.csv").read_text().splitlines(keepends=True)
        (tmp_path / "wiresum.csv").write_text(lines[0] + "".join(lines[101:]))
        start, end = int(lines[101].split(",")[0]), int(lines[-1].split(",")[0])
        series = [str(tmp_path / "wiresum.csv"), str(pipeline_dir / "xpos.csv"),
                  str(pipeline_dir / "ypos.csv")]
        out = tmp_path / "out"
        assert main(["detect", "--config", str(pipeline_dir / "run.cfg"),
                     "--set", f"series_files={','.join(series)}",
                     "--set", f"output_dir={out}"]) == 0
        record = json.loads((out / "detect_report.json").read_text())
        first = start + math.floor(0.5 * (end - start + 1))
        stamps = [int(line.split(",")[0])
                  for line in (out / "anomalies.csv").read_text().splitlines()[1:]]
        assert record == {"test_span": [first, end], "train_fraction": 0.5, "window_k": 30,
                          "blind_leading_seconds": 29, "n_windows": end - first + 1 - 29,
                          "n_anomalies": len(stamps)}
        assert stamps and first + 29 <= min(stamps) and max(stamps) <= end

    def test_eval_report(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "out" / "eval_report.json").read_text())
        for key in ("precision", "recall", "accuracy", "f1"):
            assert 0.0 <= doc[key] <= 1.0
        assert doc["total_faults"] >= 1
        assert doc["mode"] == "lead_plus_duration"
        text = (pipeline_dir / "out" / "eval_report.txt").read_text()
        assert "precision" in text

    def test_eval_report_keys_are_the_report_fields(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "out" / "eval_report.json").read_text())
        assert list(doc) == [f.name for f in dataclasses.fields(EvalReport)]

    def test_detect_ignores_fault_files(self, pipeline_dir, capsys):
        # test data stays untouched: detection must not read fault files
        code = main(["detect", "--config", str(pipeline_dir / "run.cfg"),
                     "--set", "fault_files=no_such_faults.csv"])
        assert code == 0

    def test_missing_series_file_fails_with_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        code = main(["train", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "wiresum.csv" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_channel_count_mismatch_fails(self, pipeline_dir, capsys):
        code = main(["detect", "--config", str(pipeline_dir / "run.cfg"),
                     "--set", "series_files=wiresum.csv,xpos.csv"])
        assert code == 1
        assert "channels" in capsys.readouterr().err

    def test_high_threshold_empty_anomalies(self, pipeline_dir, tmp_path):
        import dataclasses
        model = ae.load_model(pipeline_dir / "model.json")
        lifted = dataclasses.replace(model, threshold=1e9)
        ae.save_model(lifted, tmp_path / "lifted.json")
        out = tmp_path / "quiet"
        code = main(["detect", "--config", str(pipeline_dir / "run.cfg"),
                     "--set", f"model_file={tmp_path / 'lifted.json'}",
                     "--set", f"output_dir={out}"])
        assert code == 0
        assert (out / "anomalies.csv").read_text() == "timestamp,error\n"

    def test_uncalibrated_model_rejected(self, pipeline_dir, tmp_path, capsys):
        model = ae.load_model(pipeline_dir / "model.json")
        import dataclasses
        bare = dataclasses.replace(model, threshold=None, channel_stats=None)
        ae.save_model(bare, tmp_path / "bare.json")
        code = main(["detect", "--config", str(pipeline_dir / "run.cfg"),
                     "--set", f"model_file={tmp_path / 'bare.json'}"])
        assert code == 1

    def test_bad_merge_gap_writes_nothing(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "detectout"
        code = main(["detect", "--config", str(pipeline_dir / "run.cfg"),
                     "--set", f"output_dir={out}", "--set", "merge_max_gap=-1"])
        assert code == 1
        assert "max_gap must be >= 0, got -1" in capsys.readouterr().err
        assert not (out / "anomalies.csv").exists()
        assert not (out / "anomaly_events.csv").exists()

    def test_unmerged_detect_removes_stale_events(self, pipeline_dir, tmp_path):
        out = tmp_path / "detectout"
        args = ["detect", "--config", str(pipeline_dir / "run.cfg"), "--set", f"output_dir={out}"]
        assert main(args) == 0
        assert (out / "anomaly_events.csv").exists()
        for _ in range(2):  # the second run has no events file to remove
            assert main(args + ["--set", "merge_max_gap="]) == 0
            assert (out / "anomalies.csv").exists()
            assert not (out / "anomaly_events.csv").exists()

    def test_no_partial_outputs_on_failure(self, pipeline_dir, tmp_path, capsys):
        # malformed anomalies.csv: eval must fail without writing any report
        out = tmp_path / "evalout"
        out.mkdir()
        (out / "anomalies.csv").write_text("timestamp,error\nbroken\n")
        code = main(["eval", "--config", str(pipeline_dir / "run.cfg"),
                     "--set", f"output_dir={out}"])
        assert code == 1
        assert not (out / "eval_report.json").exists()
        assert not (out / "eval_report.txt").exists()


class TestDerivedDataErrorsNameInputs:
    """An error found in data derived from input files names those files."""

    def run_fails(self, capsys, root, command, *pairs):
        args = [command, "--config", str(root / "run.cfg")]
        for pair in pairs:
            args += ["--set", pair]
        assert main(args) == 1
        return capsys.readouterr().err

    def series_paths(self, root):
        cfg = cfgmod.load_run_config(root / "run.cfg", {})
        return ", ".join(cfg.series_files)

    def test_train_without_windows(self, pipeline_dir, tmp_path, capsys):
        err = self.run_fails(capsys, pipeline_dir, "train", "window_k=1000",
                             f"model_file={tmp_path / 'model.json'}")
        assert err == (f"error: {self.series_paths(pipeline_dir)}: "
                       "no contiguous segment of length >= 1000\n")

    def test_train_with_every_row_removed(self, pipeline_dir, tmp_path, capsys):
        err = self.run_fails(capsys, pipeline_dir, "train", "fault_margin=100000",
                             f"model_file={tmp_path / 'model.json'}")
        assert err == (f"error: {self.series_paths(pipeline_dir)}: "
                       "cannot compute stats on an empty frame\n")

    def test_detect_without_windows(self, pipeline_dir, tmp_path, capsys):
        err = self.run_fails(capsys, pipeline_dir, "detect", "train_fraction=0.999",
                             f"output_dir={tmp_path}")
        assert err == (f"error: {self.series_paths(pipeline_dir)}: "
                       "no contiguous segment of length >= 30\n")
        assert not (tmp_path / "anomalies.csv").exists()

    def test_eval_anomaly_outside_span(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("")
        (tmp_path / "current.csv").write_text(
            "timestamp,value\n" + "".join(f"{t},90.0\n" for t in range(200)))
        (tmp_path / "faults.csv").write_text("start\n150\n")
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "anomalies.csv").write_text("timestamp,error\n50,2.5\n")
        err = self.run_fails(capsys, tmp_path, "eval")
        assert err == (f"error: {tmp_path / 'out' / 'anomalies.csv'}: "
                       "anomaly [50, 50] outside frame span\n")
        assert not (tmp_path / "out" / "eval_report.json").exists()

    def test_detect_overflowing_value(self, pipeline_dir, tmp_path, capsys):
        root = tmp_path / "run"
        shutil.copytree(pipeline_dir, root)
        # row 799, in the test split: standardized with xpos' training std,
        # below 1, it is inf
        assert ae.load_model(root / "model.json").channel_stats.std[1] < 1
        path = root / "xpos.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[800] = lines[800].split(",")[0] + ",1e308\n"
        path.write_text("".join(lines))
        before = _file_digests(root)
        err = self.run_fails(capsys, root, "detect")
        assert err == f"error: {self.series_paths(root)}: frame contains non-finite values\n"
        assert _file_digests(root) == before

    def test_train_overflowing_value(self, pipeline_dir, tmp_path, capsys):
        root = tmp_path / "run"
        shutil.copytree(pipeline_dir, root)
        # every tenth train row, so fault removal cannot drop them all; their
        # squared deviation from the mean overflows
        path = root / "wiresum.csv"
        lines = path.read_text().splitlines(keepends=True)
        for j in range(10, 450, 10):
            lines[j] = lines[j].split(",")[0] + ",1e200\n"
        path.write_text("".join(lines))
        before = _file_digests(root)
        err = self.run_fails(capsys, root, "train")
        assert err == f"error: {self.series_paths(root)}: channel mean and std must be finite\n"
        assert _file_digests(root) == before

    def test_detect_refuses_trained_seconds(self, pipeline_dir, tmp_path, capsys):
        # series cut after train: detect's own split of what is left
        # starts inside the span the model was trained on
        root = tmp_path / "run"
        shutil.copytree(pipeline_dir, root)
        assert ae.load_model(root / "model.json").provenance.train_span == (0, 449)
        for name in ("wiresum.csv", "xpos.csv", "ypos.csv"):
            lines = (root / name).read_text().splitlines(keepends=True)
            (root / name).write_text("".join(lines[:601]))
        before = _file_digests(root)
        err = self.run_fails(capsys, root, "detect")
        assert err == (f"error: {root / 'model.json'}: test span [300, 599] overlaps the "
                       "model's train span [0, 449]\n")
        assert _file_digests(root) == before

    @pytest.mark.parametrize("command", ["train", "detect"])
    def test_disjoint_series_supports(self, pipeline_dir, tmp_path, capsys, command):
        root = tmp_path / "run"
        shutil.copytree(pipeline_dir, root)
        (root / "xpos.csv").write_text(
            "timestamp,value\n" + "".join(f"{t},0.5\n" for t in range(1000, 1050)))
        before = _file_digests(root)
        err = self.run_fails(capsys, root, command)
        assert err == f"error: {self.series_paths(root)}: channel supports do not overlap\n"
        assert _file_digests(root) == before

    @pytest.mark.parametrize("stamp", ["1e300", "9.3e18", "9223372036854775808", "1e17",
                                       "-1e300"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_far_current_stamp(self, pipeline_dir, tmp_path, capsys, command, stamp):
        # spans of at least 1e17 s: no grid of them can be allocated; to a
        # stop of 2**63 + 1, numpy's int64 arange is empty, not an error
        root = tmp_path / "run"
        shutil.copytree(pipeline_dir, root)
        path = root / "current.csv"
        text, row = path.read_text(), f"{stamp},90.0\n"
        # a negative stamp becomes the first row, any other the last
        path.write_text(text.replace("\n", "\n" + row, 1) if stamp[0] == "-" else text + row)
        before = _file_digests(root)
        err = self.run_fails(capsys, root, command)
        assert err.startswith(f"error: {path}: channel supports span ")
        assert len(err.splitlines()) == 1
        assert _file_digests(root) == before


class TestDeterminism:
    def test_byte_identical_artifacts_and_reports(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            box = tmp_path / name
            box.mkdir()
            cfg = box / "run.cfg"
            cfg.write_text(SMALL_CFG)
            for command in ("synth", "train", "detect", "eval"):
                assert main([command, "--config", str(cfg)]) == 0
            digests.append({
                p.name: p.read_bytes()
                for p in [box / "model.json", box / "out" / "anomalies.csv",
                          box / "out" / "eval_report.json", box / "faults.csv"]
            })
        assert digests[0] == digests[1]


class TestEvalScenario:
    def test_hand_built_lead_window_match(self, tmp_path):
        # fault at 150 inside the test half [100, 199]; anomaly 5 s before
        box = tmp_path
        (box / "run.cfg").write_text("scoring_mode = lead_only\n")
        current = "timestamp,value\n" + "".join(
            f"{t},90.0\n" for t in range(200))
        (box / "current.csv").write_text(current)
        (box / "faults.csv").write_text("start\n150\n")
        out = box / "out"
        out.mkdir()
        (out / "anomalies.csv").write_text("timestamp,error\n145,2.5\n")
        assert main(["eval", "--config", str(box / "run.cfg")]) == 0
        doc = json.loads((out / "eval_report.json").read_text())
        assert doc["precision"] == 1.0
        assert doc["recall"] == 1.0
        assert doc["true_positives"] == 1
        assert doc["frame_span"] == [100, 199]

    def test_successive_calls_keep_their_own_overrides(self, tmp_path):
        # the parser is built once per process; each call's --set pairs are
        # its own
        box = tmp_path
        (box / "run.cfg").write_text("")
        (box / "current.csv").write_text(
            "timestamp,value\n" + "".join(f"{t},90.0\n" for t in range(200)))
        (box / "faults.csv").write_text("start\n150\n")
        (box / "out").mkdir()
        (box / "out" / "anomalies.csv").write_text("timestamp,error\n145,2.5\n")
        settings = []
        for pair in ("lead_window=30", "scoring_mode=lead_only"):
            assert main(["eval", "--config", str(box / "run.cfg"), "--set", pair]) == 0
            doc = json.loads((box / "out" / "eval_report.json").read_text())
            settings.append((doc["lead_window"], doc["mode"]))
        assert settings == [(30, "lead_plus_duration"), (10, "lead_only")]

    def test_lead_window_beyond_int64(self, tmp_path, capsys):
        box = tmp_path
        (box / "run.cfg").write_text("scoring_mode = lead_only\n")
        (box / "current.csv").write_text(
            "timestamp,value\n" + "".join(f"{t},90.0\n" for t in range(200)))
        (box / "faults.csv").write_text("start\n150\n")
        (box / "out").mkdir()
        (box / "out" / "anomalies.csv").write_text("timestamp,error\n101,2.5\n")
        assert main(["eval", "--config", str(box / "run.cfg"),
                     "--set", "lead_window=100000000000000000000"]) == 0
        doc = json.loads((box / "out" / "eval_report.json").read_text())
        assert doc["lead_window"] == 10**20 and doc["true_positives"] == 1
        assert capsys.readouterr().err == ""

    def test_vacuous_eval(self, tmp_path):
        box = tmp_path
        (box / "run.cfg").write_text("")
        (box / "current.csv").write_text(
            "timestamp,value\n" + "".join(f"{t},90.0\n" for t in range(40)))
        (box / "faults.csv").write_text("start\n")
        out = box / "out"
        out.mkdir()
        (out / "anomalies.csv").write_text("timestamp,error\n")
        assert main(["eval", "--config", str(box / "run.cfg")]) == 0
        doc = json.loads((out / "eval_report.json").read_text())
        assert doc["precision"] == 1.0 and doc["recall"] == 1.0

    def test_anomalies_far_from_faults_zero_recall(self, tmp_path):
        box = tmp_path
        (box / "run.cfg").write_text("scoring_mode = lead_only\n")
        (box / "current.csv").write_text(
            "timestamp,value\n" + "".join(f"{t},90.0\n" for t in range(200)))
        (box / "faults.csv").write_text("start\n150\n")
        out = box / "out"
        out.mkdir()
        (out / "anomalies.csv").write_text("timestamp,error\n110,2.0\n")
        assert main(["eval", "--config", str(box / "run.cfg")]) == 0
        doc = json.loads((out / "eval_report.json").read_text())
        assert doc["recall"] == 0.0
        assert doc["false_positives"] == 1

    @pytest.mark.parametrize("fraction, message", [
        ("0", "train_fraction must be in (0, 1], got 0.0"),
        ("-0.5", "train_fraction must be in (0, 1], got -0.5"),
        ("1.5", "train_fraction must be in (0, 1], got 1.5"),
        ("1", "test split is empty; lower train_fraction"),
    ])
    def test_eval_split_guard_matches_detect(self, pipeline_dir, capsys, fraction, message):
        errors = []
        for command in ("detect", "eval"):
            code = main([command, "--config", str(pipeline_dir / "run.cfg"),
                         "--set", f"train_fraction={fraction}"])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {message}\n"] * 2

    @pytest.mark.parametrize("pair, message", [
        ("no_such_key=1", "--set: unknown config key 'no_such_key'"),
        ("window_k=thirty", "--set: config key 'window_k': cannot parse 'thirty'"),
        ("scoring_mode=magic", "--set: scoring_mode must be one of"),
        ("threshold_multiplier=inf", "--set: config key 'threshold_multiplier': 'inf' is not"),
        ("window_k", "--set expects key=value, got 'window_k'"),
    ], ids=["unknown", "value", "invalid", "non-finite", "no-equals"])
    def test_set_errors_say_set(self, tmp_path, capsys, pair, message):
        (tmp_path / "run.cfg").write_text("epochs = 1\n")
        assert main(["train", "--config", str(tmp_path / "run.cfg"), "--set", pair]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, name, text, where", [
        ("eval", "out/anomalies.csv", "timestamp,error\n5,x\n",
         "line 2: malformed number in '5,x'"),
        ("eval", "current.csv", "timestamp,value\n0,90.0\n1,9O.0\n", "line 3: malformed number"),
        ("eval", "faults.csv", "start\n150\nsoon\n", "line 3: malformed timestamp"),
        ("train", "wiresum.csv", "timestamp,value\n0,1.0\n0,2.0\n", "line 3: timestamp 0.0"),
        ("eval", "run.cfg", "epochs = 1\njust some text\n",
         "config line 2: expected 'key = value', got 'just some text'"),
    ], ids=["anomalies", "current", "faults", "series", "config"])
    def test_parse_error_names_the_file(self, tmp_path, capsys, command, name, text, where):
        box = tmp_path
        (box / "run.cfg").write_text("")
        (box / "current.csv").write_text(
            "timestamp,value\n" + "".join(f"{t},90.0\n" for t in range(200)))
        (box / "faults.csv").write_text("start\n150\n")
        (box / "out").mkdir()
        (box / "out" / "anomalies.csv").write_text("timestamp,error\n145,2.5\n")
        (box / name).write_text(text)
        assert main([command, "--config", str(box / "run.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {box / name}: {where}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", ["wiresum.csv", "run.cfg"], ids=["data", "config"])
    def test_non_utf8_file_names_the_file(self, tmp_path, capsys, name):
        (tmp_path / "run.cfg").write_text("epochs = 1\n")
        (tmp_path / "wiresum.csv").write_text("timestamp,value\n0,1.0\n")
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert len(err.strip().splitlines()) == 1

    def test_truncated_model_names_the_file(self, tmp_path, capsys):
        # detect reads the model before anything else
        (tmp_path / "run.cfg").write_text("")
        text = ae.model_to_json(ae.init_model(ae.AutoencoderConfig(hidden_dim=2)))
        model = tmp_path / "model.json"
        model.write_text(text[:len(text) // 2])
        assert main(["detect", "--config", str(tmp_path / "run.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: malformed model document")
        assert len(err.strip().splitlines()) == 1


TINY_CFG = """
synth_duration = 400
synth_n_faults = 2
synth_seed = 3
window_k = 8
hidden_dim = 4
epochs = 1
"""

# each input file of a run and the stages that read it, in pipeline order
READERS = {
    "wiresum.csv": ("train", "detect"),
    "xpos.csv": ("train", "detect"),
    "ypos.csv": ("train", "detect"),
    "current.csv": ("train", "eval"),
    "faults.csv": ("train", "eval"),
    "model.json": ("detect",),
    "out/anomalies.csv": ("eval",),
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A whole pipeline run at the smallest useful size, made once."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "run.cfg").write_text(TINY_CFG)
    for command in ("synth", "train", "detect", "eval"):
        assert main([command, "--config", str(root / "run.cfg")]) == 0
    return root


def _file_digests(root: Path) -> dict[str, bytes]:
    """sha256 of every file under `root` but the parse cache's entries,
    which a mutated but valid series or anomaly CSV may rewrite."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).digest()
            for p in root.rglob("*") if p.is_file() and ".series_cache" not in p.parts}


_MUTATION = st.tuples(st.sampled_from(["cut", "insert", "duplicate"]),
                      st.floats(0, 1), st.floats(0, 1),
                      st.sampled_from([b",", b"\n", b"\r", b" ", b"-", b"1e999", b"nan",
                                       b"x", b"9", b"0.5", b'"', b"{", b"\xff",
                                       b"e300"]))


def _mutate(raw: bytes, kind: str, a: float, b: float, token: bytes) -> bytes:
    lo, hi = sorted((round(a * len(raw)), round(b * len(raw))))
    if kind == "cut":
        return raw[:lo] + raw[hi:]
    if kind == "insert":
        return raw[:lo] + token + raw[lo:]
    return raw[:hi] + raw[lo:hi] + raw[hi:]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), mutations=st.lists(_MUTATION, min_size=1,
                                                                 max_size=3))
def test_mutated_inputs_fail_cleanly(tiny_run, name, mutations):
    """Cut, insert a token into or duplicate a slice of one input file, then
    run each stage that reads it: `main` returns 0 or 1 and never raises; on
    1, stderr is one `error: ` line, no `*.tmp` is left and no file outside
    the parse cache changed."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        shutil.copytree(tiny_run, root)
        raw = (root / name).read_bytes()
        for mutation in mutations:
            raw = _mutate(raw, *mutation)
        (root / name).write_bytes(raw)
        for command in READERS[name]:
            before = _file_digests(root)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(root / "run.cfg")])
            assert code in (0, 1), command
            event(f"{command} exit {code}")
            assert not list(root.rglob("*.tmp")), command
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
                assert _file_digests(root) == before, command


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2, bug A: eval splits current.csv's "
                                       "grid, not the grid detect scored")
def test_eval_scores_the_span_detect_scored(tmp_path):
    # a series file cut at its head after train: detect's grid starts later
    # than current.csv's, so each stage's own split gives another test span
    (tmp_path / "run.cfg").write_text("synth_duration = 400\nsynth_n_faults = 2\n"
                                      "window_k = 4\nhidden_dim = 2\nepochs = 1\n")
    for command in ("synth", "train"):
        assert main([command, "--config", str(tmp_path / "run.cfg")]) == 0
    lines = (tmp_path / "wiresum.csv").read_text().splitlines(keepends=True)
    (tmp_path / "wiresum.csv").write_text(lines[0] + "".join(lines[101:]))
    for command in ("detect", "eval"):
        assert main([command, "--config", str(tmp_path / "run.cfg")]) == 0
    detected = json.loads((tmp_path / "out" / "detect_report.json").read_text())
    scored = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    assert detected["test_span"] == [250, 399]
    assert scored["frame_span"] == detected["test_span"]

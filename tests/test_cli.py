import copy
import json
import logging
import os
import re
import resource
import subprocess
import sys
import tempfile
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slascore import cli, fileio, fusion, head, metrics, synth
from slascore.core import OVERALL, PARTS, REFERENCE_LEVELS, Scores, join
from slascore.errors import EmptyDataset
from slascore.synth import SynthConfig, generate_scores, heteroscedastic_config
from oracles import generate_frames_oracle
from tables import rows, scores


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_split(tmp_path, data, prefix=""):
    paths = {}
    for name, column in (("w2v", data.w2v), ("mllm", data.mllm), ("refs", data.reference)):
        p = tmp_path / f"{prefix}{name}.csv"
        fileio.write_predictions(p, Scores(data.speaker_id, data.part, column))
        paths[name] = str(p)
    return paths


@pytest.fixture
def dev_files(tmp_path):
    data = generate_scores(heteroscedastic_config(80, seed=0))
    return data, write_split(tmp_path, data)


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path, capsys):
        recs = scores(("a", 1, 2.0), ("b", 1, 3.0), ("c", 1, 4.0))
        pred, ref = tmp_path / "pred.csv", tmp_path / "ref.csv"
        fileio.write_predictions(pred, recs)
        fileio.write_predictions(ref, recs)
        code, out, _ = run(capsys, "evaluate", str(pred), str(ref))
        assert code == 0
        assert "0.000 1.000 1.000 100.0 100.0" in out

    def test_matches_library(self, dev_files, capsys):
        data, paths = dev_files
        out_json = paths["w2v"] + ".metrics.json"
        code, _, _ = run(capsys, "evaluate", paths["w2v"], paths["refs"],
                         "--out", out_json)
        assert code == 0
        doc = json.loads(open(out_json).read())
        rep = metrics.full_report(data.w2v, data.reference)
        assert doc["rmse"] == rep.rmse and doc["pcc"] == rep.pcc

    def test_csv_format(self, dev_files, capsys):
        _, paths = dev_files
        code, out, _ = run(capsys, "evaluate", paths["w2v"], paths["refs"],
                           "--format", "csv")
        assert code == 0
        assert out.startswith("rmse,pcc,src,")

    def test_disjoint_keys_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        fileio.write_predictions(pred, scores(("a", 1, 3.0)))
        fileio.write_predictions(ref, scores(("b", 1, 3.0)))
        code, _, err = run(capsys, "evaluate", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION
        assert "error" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, err = run(capsys, "evaluate", str(tmp_path / "x.csv"),
                           str(tmp_path / "y.csv"))
        assert code == cli.EXIT_IO

    def test_prediction_without_reference_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        fileio.write_predictions(pred, scores(("a", 1, 3.0), ("b", 1, 3.0)))
        fileio.write_predictions(ref, scores(("a", 1, 3.0)))
        code, out, err = run(capsys, "evaluate", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION
        assert "1 prediction key(s) without a reference" in err
        assert out == ""

    def test_unpredicted_references_warned_once(self, tmp_path, capsys, caplog):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        levels = (2.0, 3.0, 4.0, 5.0, 5.5, 2.5)
        fileio.write_predictions(pred, scores(*[(f"s{i}", 1, 2.0 + i) for i in range(4)]))
        fileio.write_predictions(ref, scores(*[(f"s{i}", 1, lvl)
                                               for i, lvl in enumerate(levels)]))
        with caplog.at_level(logging.WARNING):
            code, out, _ = run(capsys, "evaluate", str(pred), str(ref), "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].endswith(",4")  # metrics over the 4 predicted keys
        assert [r.getMessage() for r in caplog.records] == [
            "2 reference key(s) without a prediction dropped, first [('s4', 1), ('s5', 1)]"]

    def test_non_finite_overall_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        pred.write_text("speaker_id,part,score\na,overall,nan\nb,overall,3.0\n")
        ref.write_text("speaker_id,part,score\na,overall,3.0\nb,overall,4.0\n")
        code, out, err = run(capsys, "evaluate", "--overall", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION
        assert "non-finite" in err and "nan" not in out
        assert err == f"error: {pred}:2: non-finite score for (a, 0)\n"

    @pytest.mark.parametrize("flags, body, message", [
        (["--overall"], "a,1,3.0\nb,1,3.0\n", ":2: bad part '1' for overall scores"),
        (["--overall"], "a,overall,3.0\n\nb,1,3.0\n", ":4: bad part '1' for overall scores"),
        ([], "a,overall,3.0\nb,overall,3.0\n", ":2: bad part 'overall' for prediction scores"),
    ], ids=["overall-on-per-part", "overall-on-mixed", "per-part-on-overall"])
    def test_file_kind_follows_overall_flag(self, tmp_path, capsys, flags, body, message):
        pred = tmp_path / "p.csv"
        pred.write_text(f"speaker_id,part,score\n{body}")
        code, out, err = run(capsys, "evaluate", *flags, str(pred), str(pred))
        assert code == cli.EXIT_IO and out == ""
        assert err == f"error: {pred}{message}\n"

    def test_overflowing_metric_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        pred.write_text("speaker_id,part,score\na,1,1e200\nb,1,4.0\nc,1,4.0\n")
        ref.write_text("speaker_id,part,score\na,1,3.0\nb,1,4.0\nc,1,3.0\n")
        code, out, err = run(capsys, "evaluate", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
            "error: values beyond the float range: overflow encountered in square"]

    def test_unwritable_out_prints_nothing(self, tmp_path, capsys):
        """A directory as ``--out`` exits 3 with no output."""
        pred = tmp_path / "p.csv"
        fileio.write_predictions(pred, scores(("a", 1, 2.0), ("b", 1, 3.0)))
        code, out, err = run(capsys, "evaluate", str(pred), str(pred), "--out", str(tmp_path))
        assert code == cli.EXIT_IO and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestCalibrateFuse:
    def test_calibrate_writes_valid_file(self, dev_files, tmp_path, capsys):
        data, paths = dev_files
        out = str(tmp_path / "calib.json")
        code, stdout, _ = run(capsys, "calibrate", paths["w2v"], paths["mllm"],
                              paths["refs"], "--out", out)
        assert code == 0
        assert "dev RMSE" in stdout
        calib, prov = fileio.read_calibration(out)
        direct = fusion.calibrate(join(
            fileio.read_predictions(paths["w2v"]),
            fileio.read_predictions(paths["mllm"]),
            fileio.read_predictions(paths["refs"], "reference")))
        assert calib == direct
        assert "w2v_digest" in prov

    def test_calibrate_bins_dev_once(self, dev_files, tmp_path, capsys, caplog, monkeypatch):
        data, paths = dev_files
        mllm = data.mllm.copy()
        mllm[:2] = (-0.5, 6.5)
        fileio.write_predictions(paths["mllm"], Scores(data.speaker_id, data.part, mllm))
        calls = {"bin_index": 0, "fuse_one": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(fusion, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(fusion, name, counted)
        with caplog.at_level(logging.WARNING):
            code, _, _ = run(capsys, "calibrate", paths["w2v"], paths["mllm"], paths["refs"],
                             "--out", str(tmp_path / "calib.json"))
        assert code == 0
        assert calls == {"bin_index": 1, "fuse_one": 0}
        assert [r.getMessage() for r in caplog.records if r.name == "slascore.fusion"] == [
            "2 score(s) outside [0.0, 6.0] clamped to the end bins"]

    def test_unjoined_references_warned(self, dev_files, tmp_path, capsys, caplog):
        """Reference keys no joined row uses are dropped with one warning, and the
        weights are those calibrated without them."""
        _, paths = dev_files
        plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
        assert run(capsys, "calibrate", paths["w2v"], paths["mllm"], paths["refs"],
                   "--out", str(plain))[0] == 0
        refs = tmp_path / "more_refs.csv"
        refs.write_text(Path(paths["refs"]).read_text() + "zzz,3,4.0\nzzz,1,2.5\n")
        with caplog.at_level(logging.WARNING):
            code, _, _ = run(capsys, "calibrate", paths["w2v"], paths["mllm"], str(refs),
                             "--out", str(extra))
        assert code == 0
        assert [r.getMessage() for r in caplog.records if "reference" in r.getMessage()] == [
            "2 reference key(s) without a joined prediction dropped, "
            "first [('zzz', 1), ('zzz', 3)]"]
        assert fileio.read_calibration(extra)[0] == fileio.read_calibration(plain)[0]

    def test_score_fault_names_its_file_and_line(self, dev_files, tmp_path, capsys):
        data, paths = dev_files
        mllm = data.mllm.copy()
        mllm[5] = float("nan")
        fileio.write_predictions(paths["mllm"], Scores(data.speaker_id, data.part, mllm))
        code, out, err = run(capsys, "calibrate", paths["w2v"], paths["mllm"], paths["refs"],
                             "--out", str(tmp_path / "calib.json"))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err == (f"error: {paths['mllm']}:7: non-finite score for "
                       f"({data.speaker_id[5]}, {data.part[5]})\n")

    def test_fuse_reads_calibration_first(self, dev_files, tmp_path, capsys, monkeypatch):
        _, paths = dev_files
        calib = tmp_path / "calib.json"
        calib.write_text("{not json")
        calls = []
        read = fileio.read_predictions
        monkeypatch.setattr(fileio, "read_predictions",
                            lambda *args: calls.append(args) or read(*args))
        code, _, err = run(capsys, "fuse", paths["w2v"], paths["mllm"], str(calib),
                           "--out", str(tmp_path / "fused.csv"))
        assert code == cli.EXIT_IO and calls == []
        assert err.startswith(f"error: cannot read calibration {calib}")

    def test_calibration_round_trip_identical(self, dev_files, tmp_path, capsys):
        _, paths = dev_files
        o1, o2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
        run(capsys, "calibrate", paths["w2v"], paths["mllm"], paths["refs"], "--out", o1)
        run(capsys, "calibrate", paths["w2v"], paths["mllm"], paths["refs"], "--out", o2)
        assert open(o1, "rb").read() == open(o2, "rb").read()

    def test_fuse_then_evaluate_reproduces_dev_rmse(self, dev_files, tmp_path, capsys):
        data, paths = dev_files
        calib_path = str(tmp_path / "calib.json")
        run(capsys, "calibrate", paths["w2v"], paths["mllm"], paths["refs"],
            "--out", calib_path)
        fused_path = str(tmp_path / "fused.csv")
        code, _, _ = run(capsys, "fuse", paths["w2v"], paths["mllm"], calib_path,
                         "--out", fused_path)
        assert code == 0
        fused = fileio.read_predictions(fused_path)
        refs = dict(((sid, part), ref) for sid, part, ref
                    in rows(fileio.read_predictions(paths["refs"], "reference")))
        got = metrics.rmse(fused.score, [refs[(sid, part)] for sid, part, _ in rows(fused)])
        calib, _ = fileio.read_calibration(calib_path)
        assert got == pytest.approx(calib.dev_rmse, abs=1e-12)

    def test_fuse_endpoint_weights(self, dev_files, tmp_path, capsys):
        data, paths = dev_files
        for w, source in ((0.0, "w2v"), (1.0, "mllm")):
            calib = fusion.FusionCalibration(weights=(w,) * 8)
            calib_path = tmp_path / f"calib{w}.json"
            fileio.write_calibration(calib_path, calib)
            fused_path = tmp_path / f"fused{w}.csv"
            run(capsys, "fuse", paths["w2v"], paths["mllm"], str(calib_path),
                "--out", str(fused_path))
            fused = set(rows(fileio.read_predictions(str(fused_path))))
            src = set(rows(fileio.read_predictions(paths[source])))
            assert fused == src


class TestAggregate:
    def test_single_speaker(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        fileio.write_predictions(pred, scores(
            ("a", 1, 3.0), ("a", 3, 3.0), ("a", 4, 4.0), ("a", 5, 4.0)))
        out = tmp_path / "overall.csv"
        code, _, _ = run(capsys, "aggregate", str(pred), "--out", str(out))
        assert code == 0
        recs = fileio.read_predictions(out, kind="overall")
        assert recs.score[0] == 3.5 and recs.part[0] == OVERALL
        assert out.read_text().splitlines()[1] == "a,overall,3.5"

    def test_incomplete_speaker(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        fileio.write_predictions(pred, scores(("a", 1, 3.0)))
        code, _, err = run(capsys, "aggregate", str(pred),
                           "--out", str(tmp_path / "o.csv"))
        assert code == cli.EXIT_VALIDATION
        assert "a" in err

    def test_matches_library(self, tmp_path, capsys):
        data = generate_scores(SynthConfig(n_speakers=25, seed=4))
        pred = tmp_path / "pred.csv"
        recs = Scores(data.speaker_id, data.part, data.w2v)
        fileio.write_predictions(pred, recs)
        out = tmp_path / "overall.csv"
        run(capsys, "aggregate", str(pred), "--out", str(out))
        got = fileio.read_predictions(out, kind="overall")
        assert rows(got) == rows(fusion.aggregate_overall(recs))


class TestSynthCommand:
    def test_zero_noise_w2v_equals_refs(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--n-speakers", "5", "--noise", "0.0",
                         "--out-dir", str(tmp_path / "d"))
        assert code == 0
        w2v = fileio.read_predictions(tmp_path / "d" / "w2v.csv")
        refs = fileio.read_predictions(tmp_path / "d" / "refs.csv", "reference")
        assert w2v.score.tolist() == refs.score.tolist()

    def test_seed_reproducible_bytes(self, tmp_path, capsys):
        for d in ("d1", "d2"):
            run(capsys, "synth", "--n-speakers", "8", "--seed", "3",
                "--out-dir", str(tmp_path / d))
        for name in ("w2v.csv", "mllm.csv", "refs.csv"):
            assert (tmp_path / "d1" / name).read_bytes() == \
                   (tmp_path / "d2" / name).read_bytes()

    def test_outputs_evaluate_cleanly(self, tmp_path, capsys):
        run(capsys, "synth", "--n-speakers", "10", "--out-dir", str(tmp_path / "d"))
        code, _, _ = run(capsys, "evaluate", str(tmp_path / "d" / "w2v.csv"),
                         str(tmp_path / "d" / "refs.csv"))
        assert code == 0


    @pytest.mark.parametrize("argv", [
        ["--seed", "-1"], ["--noise", "nan"], ["--n-speakers", "250001"],
        ["--preset", "heteroscedastic", "--noise", "5"],
        # 20,834 train sequences per level, up to 20 frames of 8 values: past 10**7
        ["--features", "--frames-per-class", "20834"],
        ["--frames-per-class", "8"],  # sets nothing without --features
    ], ids="=".join)
    def test_bad_config_exit_code(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, "synth", *argv, "--out-dir", str(tmp_path / "d"))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()

    def test_overflowing_noise_exit_code(self, tmp_path, capsys):
        code, out, err = run(capsys, "synth", "--noise", "1e308", "--out-dir", str(tmp_path / "d"))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and "not finite" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()


    def test_bad_frame_setting_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """The frames are drawn before any score is drawn or any file is written."""
        calls = []
        draw = synth.generate_scores
        monkeypatch.setattr(synth, "generate_scores", lambda cfg: calls.append(cfg) or draw(cfg))
        code, out, err = run(capsys, "synth", "--features", "--frames-per-class", "0",
                             "--out-dir", str(tmp_path / "d"))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists() and calls == []
        assert run(capsys, "synth", "--features", "--out-dir", str(tmp_path / "e"))[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("out_dir, err", [
        ("afile", "error: [Errno 17] File exists: 'afile'\n"),
        ("afile/sub", "error: [Errno 20] Not a directory: 'afile/sub'\n"),
        ("afile/sub/deeper/", "error: [Errno 20] Not a directory: 'afile/sub/deeper'\n"),
        ("dangling/sub", "error: [Errno 17] File exists: 'dangling'\n"),
        ("dangling", "error: [Errno 17] File exists: 'dangling'\n"),
    ], ids=["file", "under-a-file", "deeper-under-a-file", "under-a-dangling-link",
            "dangling-link"])
    def test_out_dir_at_or_under_a_file_refused_before_drawing(self, tmp_path, capsys,
                                                               monkeypatch, out_dir, err):
        """An ``--out-dir`` that is a file, or lies under one, fails as its mkdir
        would, before any frame or score is drawn, and creates nothing."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "dangling").symlink_to("missing")
        calls = []
        for name in ("generate_scores", "generate_frames"):
            monkeypatch.setattr(synth, name, lambda *args, _draw=getattr(synth, name), **kw:
                                calls.append(args) or _draw(*args, **kw))
        assert run(capsys, "synth", "--features", "--out-dir", out_dir) == (cli.EXIT_IO, "", err)
        assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dangling"]
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert run(capsys, "synth", "--features", "--out-dir", "new")[0] == 0
        assert len(calls) == 3  # the counters do see a good run's draws

    def test_defaults_are_the_library_defaults(self, tmp_path, capsys, monkeypatch):
        """``synth`` draws with ``SynthConfig()`` when no flag is given."""
        configs = []

        def stop(cfg):
            configs.append(cfg)
            raise MemoryError

        monkeypatch.setattr(synth, "generate_scores", stop)
        run(capsys, "synth", "--out-dir", str(tmp_path / "d"))
        assert configs == [SynthConfig()]

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8.00 GiB", "error: Unable to allocate 8.00 GiB"),
        ("", "error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, message, line):
        def exhausted(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(synth, "generate_scores", exhausted)
        code, out, err = run(capsys, "synth", "--out-dir", str(tmp_path / "d"))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err == line + "\n"
        assert not (tmp_path / "d").exists()


class TestTrainHead:
    def test_flags_are_the_train_config_fields(self, capsys, monkeypatch):
        """With no flag given the run trains with ``TrainConfig()``; each field
        has a flag of its name, and a value given reaches that field."""
        configs = []

        def stop(train_data, dev_data, config):
            configs.append(config)
            raise EmptyDataset("stopped")

        monkeypatch.setattr(fileio, "read_features", lambda path: [])
        monkeypatch.setattr(head, "train", stop)
        assert run(capsys, "train-head", "a", "b", "--out", "o")[0] == cli.EXIT_VALIDATION
        given = {"epochs": 2, "learning_rate": 0.5, "warmup_steps": 1, "weight_decay": 0.25,
                 "batch_size": 3, "seed": 4, "mode": head.REGRESSION}
        assert list(given) == [f.name for f in fields(head.TrainConfig)]
        flags = [(f"--{name.replace('_', '-')}", str(value)) for name, value in given.items()]
        run(capsys, "train-head", "a", "b", "--out", "o", *chain.from_iterable(flags))
        assert configs == [head.TrainConfig(), head.TrainConfig(**given)]
        assert all(value != getattr(configs[0], name) for name, value in given.items())

    def test_train_and_reload(self, tmp_path, capsys):
        run(capsys, "synth", "--n-speakers", "2", "--features",
            "--frames-per-class", "10", "--out-dir", str(tmp_path / "d"))
        train_f = str(tmp_path / "d" / "train_features.txt")
        dev_f = str(tmp_path / "d" / "dev_features.txt")
        out = str(tmp_path / "params.json")
        hist = str(tmp_path / "history.log")
        code, stdout, _ = run(capsys, "train-head", train_f, dev_f,
                              "--epochs", "5", "--learning-rate", "0.01",
                              "--warmup-steps", "10", "--out", out, "--history", hist)
        assert code == 0
        assert "best epoch" in stdout
        fileio.read_head_params(out)
        assert len(open(hist).read().splitlines()) == 5

    def test_history_deterministic(self, tmp_path, capsys):
        run(capsys, "synth", "--n-speakers", "2", "--features",
            "--frames-per-class", "8", "--out-dir", str(tmp_path / "d"))
        train_f = str(tmp_path / "d" / "train_features.txt")
        dev_f = str(tmp_path / "d" / "dev_features.txt")
        hists = []
        for i in (1, 2):
            hist = str(tmp_path / f"h{i}.log")
            run(capsys, "train-head", train_f, dev_f, "--epochs", "3",
                "--learning-rate", "0.01", "--warmup-steps", "5", "--seed", "7",
                "--out", str(tmp_path / f"p{i}.json"), "--history", hist)
            hists.append(open(hist, "rb").read())
        assert hists[0] == hists[1]

    def test_zero_learning_rate_constant_f1(self, tmp_path, capsys):
        run(capsys, "synth", "--n-speakers", "2", "--features",
            "--frames-per-class", "6", "--out-dir", str(tmp_path / "d"))
        code, stdout, _ = run(capsys, "train-head",
                              str(tmp_path / "d" / "train_features.txt"),
                              str(tmp_path / "d" / "dev_features.txt"),
                              "--epochs", "3", "--learning-rate", "0.0",
                              "--out", str(tmp_path / "p.json"))
        assert code == 0
        f1s = [line.split("dev_macro_f1=")[1]
               for line in stdout.splitlines() if line.startswith("epoch=")]
        assert len(set(f1s)) == 1


    @pytest.mark.parametrize("argv", [
        ["--batch-size", "0"], ["--batch-size", "-1"], ["--epochs", "0"], ["--epochs", "-1"],
        ["--seed", "-1"], ["--warmup-steps", "-5"], ["--learning-rate", "nan"],
        ["--learning-rate=-0.1"], ["--weight-decay", "inf"],
    ], ids="=".join)
    def test_invalid_config_exit_code(self, tmp_path, capsys, argv):
        run(capsys, "synth", "--n-speakers", "2", "--features",
            "--frames-per-class", "4", "--out-dir", str(tmp_path / "d"))
        out = tmp_path / "p.json"
        code, stdout, err = run(capsys, "train-head", str(tmp_path / "d" / "train_features.txt"),
                                str(tmp_path / "d" / "dev_features.txt"), *argv,
                                "--out", str(out))
        assert code == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert argv[0].split("=")[0][2:].replace("-", "_") in err  # names the field

    def test_out_and_history_same_file_exit_code(self, tmp_path, capsys, monkeypatch):
        """Two spellings of one path are rejected before the (missing) feature files
        are read, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "train-head", "missing.txt", "missing.txt",
                             "--out", "p.json", "--history", str(tmp_path / "p.json"))
        assert code == cli.EXIT_VALIDATION and out == "" and list(tmp_path.iterdir()) == []
        assert err == "error: --out and --history both name p.json\n"

    def test_non_finite_label_exit_code(self, tmp_path, capsys):
        feats = tmp_path / "f.txt"
        feats.write_text("slascore-features v1\nrecord 1 2 nan\n1.0 2.0\n")
        code, out, err = run(capsys, "train-head", str(feats), str(feats),
                             "--out", str(tmp_path / "p.json"))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: {feats}:2: label nan is not finite\n"

    def test_diverging_loss_exit_code(self, tmp_path, capsys):
        # the CLI raises on overflow, which train reports as a diverged epoch
        run(capsys, "synth", "--n-speakers", "2", "--features",
            "--frames-per-class", "4", "--out-dir", str(tmp_path / "d"))
        out, hist = tmp_path / "p.json", tmp_path / "h.log"
        # a regression output past about 1.3e154 overflows the loss's float square
        # before numpy overflows: the run still ends in the same line
        for mode, flags, epoch in [
            ("regression", ["--learning-rate", "1e308"], 1),
            ("classification", ["--learning-rate", "1e308"], 1),
            ("regression", ["--epochs", "2", "--learning-rate", "3e153",
                            "--weight-decay", "0"], 2),
        ]:
            code, stdout, err = run(capsys, "train-head",
                                    str(tmp_path / "d" / "train_features.txt"),
                                    str(tmp_path / "d" / "dev_features.txt"), "--mode", mode,
                                    *flags, "--warmup-steps", "0",
                                    "--out", str(out), "--history", str(hist))
            assert code == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
            assert err == f"error: loss diverged at epoch {epoch}\n" and not hist.exists()


CALIB_FIELDS = {"format_version": 1, "grid_step": 0.01, "edges": list(fusion.DEFAULT_EDGES),
                "weights": [0.5] * 8, "per_bin_counts": [0] * 8, "dev_rmse": 0.1}


def calib_text(**fields) -> str:
    """A calibration document: CALIB_FIELDS with ``fields`` replaced."""
    return json.dumps({**CALIB_FIELDS, **fields})


@pytest.mark.parametrize("command,content", [
    ("fuse", "[1, 2, 3]"),
    ("fuse", json.dumps({**CALIB_FIELDS, "weights": ["a"] * 8})),
    ("fuse", json.dumps({**CALIB_FIELDS, "weights": 0.5})),
    ("fuse", json.dumps({**CALIB_FIELDS, "edges": [True] * 9})),
    ("fuse", json.dumps({**CALIB_FIELDS, "per_bin_counts": [None] * 8})),
    ("fuse", json.dumps(CALIB_FIELDS).encode("utf-16")),
    ("fuse", "[" * 100_000),
    ("fuse", json.dumps(CALIB_FIELDS).replace("0.1", "9" * 5000)),
    ("train-head", "slascore-features v1\nrecord -1 2 3.0\n"),
    ("train-head", "slascore-features v1\nrecord 1 0 3.0\n\n"),
    ("train-head", "slascore-features v1\nrecord 1 2 3.0\n1.0 2.0\n"
                   "record 1 3 3.0\n1.0 2.0 3.0\n"),
    ("train-head", "slascore-features v1\nrecord 2 2 3.0\n1.0 2.0\n3.0\x0c4.0\n"),
    ("train-head", "slascore-features v1\nrecord 2 2 3.0\n1.0\u20282.0\n3.0 4.0\n"),
    ("train-head", "slascore-features v1\nrecord 1 99999999999999999999 3.0\n1.0 2.0\n"),
    ("aggregate", "speaker_id,part,score\n,1,3.0\n,3,3.0\n,4,3.0\n,5,3.0\n"),
    ("aggregate", "speaker_id,part,score\na,1,2.0\u2028b,3,4.0\n"),
    ("fuse", json.dumps({k: v for k, v in CALIB_FIELDS.items() if k != "edges"})),
    ("fuse", calib_text(dev_rmse="x")),
    ("fuse", calib_text(grid_step=[1])),
    ("fuse", calib_text(grid_step=True)),
    ("fuse", calib_text(per_bin_counts=[0.5] * 8)),
    ("fuse", calib_text(per_bin_counts=[True] * 8)),
], ids=["list-document", "string-weights", "scalar-weights", "bool-edges", "null-counts",
        "non-utf8-calibration", "deeply-nested-calibration", "5000-digit-dev-rmse",
        "negative-T", "zero-d", "mixed-d", "form-feed-in-record", "u2028-in-record", "huge-d",
        "empty-speaker-id", "u2028-in-row", "no-edges", "string-dev-rmse", "list-grid-step",
        "bool-grid-step", "fractional-counts", "bool-counts"])
def test_malformed_file_exit_code(tmp_path, capsys, command, content):
    bad = tmp_path / "bad"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    if command == "fuse":
        csv = tmp_path / "scores.csv"
        fileio.write_predictions(csv, scores(("a", 1, 3.0)))
        argv = ["fuse", str(csv), str(csv), str(bad), "--out", str(tmp_path / "o.csv")]
    elif command == "aggregate":
        argv = ["aggregate", str(bad), "--out", str(tmp_path / "o.csv")]
    else:
        argv = ["train-head", str(bad), str(bad), "--out", str(tmp_path / "p.json")]
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if command != "fuse":
        assert re.search(rf"{re.escape(str(bad))}:\d+: ", err)  # names the offending line


def test_late_decode_error_exit_code(tmp_path, capsys):
    # an invalid UTF-8 byte past the first 64 KiB of a feature file
    feats = tmp_path / "feats.txt"
    fileio.write_features(feats, generate_frames_oracle(40, [3.0, 4.0], d=8, separation=1.0,
                                                        seed=0))
    data = feats.read_bytes()
    assert len(data) > 65536
    feats.write_bytes(data + b"\xff\n")
    code, out, err = run(capsys, "train-head", str(feats), str(feats),
                         "--out", str(tmp_path / "p.json"))
    assert code == cli.EXIT_IO and out == ""
    assert err.startswith(f"error: cannot read {feats}: ") and len(err.splitlines()) == 1


def test_non_finite_edges_exit_code(tmp_path, capsys):
    calib = tmp_path / "calib.json"
    edges = list(fusion.DEFAULT_EDGES)
    edges[2] = float("nan")
    calib.write_text(json.dumps({**CALIB_FIELDS, "edges": edges}))
    csv = tmp_path / "scores.csv"
    fileio.write_predictions(csv, scores(("a", 1, 3.0)))
    code, out, err = run(capsys, "fuse", str(csv), str(csv), str(calib),
                         "--out", str(tmp_path / "o.csv"))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "finite" in err
    assert out == "" and not (tmp_path / "o.csv").exists()


def edges_with(i, value):
    edges = list(fusion.DEFAULT_EDGES)
    edges[i] = value
    return edges


@pytest.mark.parametrize("content", [
    calib_text(edges=[0.0, 1.0]),
    calib_text(edges=edges_with(2, 2.25)),
    calib_text(edges=edges_with(2, float("nan"))),
    calib_text(edges=edges_with(2, float("inf"))),
    calib_text(edges=edges_with(2, 10**400)),
    calib_text(edges=edges_with(8, 6.5)),
    calib_text(dev_rmse="X").replace('"X"', "1e400"),
    calib_text(dev_rmse=float("nan")),
    calib_text(dev_rmse=-0.5),
    calib_text(grid_step=float("nan")),
    calib_text(grid_step=0.3),
    calib_text(grid_step=0.05),
    calib_text(per_bin_counts=[1] * 7 + [-1]),
    calib_text(weights=[0.5] * 7 + [1.5]),
], ids=["two-edges", "repeated-edge", "nan-edge", "inf-edge", "huge-int-edge", "moved-edge",
        "1e400-dev-rmse", "nan-dev-rmse", "negative-dev-rmse", "nan-grid-step",
        "uneven-grid-step", "coarser-grid-step", "negative-count", "weight-above-one"])
def test_out_of_range_calibration_exit_code(tmp_path, capsys, content):
    """A calibration field of the right type but a value ``calibrate``
    never writes exits 2; fuse never bins with edges the weights were not
    fitted on."""
    calib = tmp_path / "calib.json"
    calib.write_text(content)
    csv = tmp_path / "scores.csv"
    fileio.write_predictions(csv, scores(("a", 1, 3.0)))
    code, out, err = run(capsys, "fuse", str(csv), str(csv), str(calib),
                         "--out", str(tmp_path / "o.csv"))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith(f"error: {calib}: ") and len(err.splitlines()) == 1
    assert out == "" and not (tmp_path / "o.csv").exists()


TRAIN = ["train-head", "train_features.txt", "dev_features.txt", "--epochs", "1"]
IS_A_DIRECTORY = "error: [Errno 21] Is a directory: '{}'\n"
OUTPUT_CASES = [
    (TRAIN + ["--out", "train_features.txt"], cli.EXIT_VALIDATION,
     "error: train_features and --out both name train_features.txt\n"),
    (TRAIN + ["--out", "p.json", "--history", "./dev_features.txt"], cli.EXIT_VALIDATION,
     "error: dev_features and --history both name dev_features.txt\n"),
    (["evaluate", "w2v.csv", "refs.csv", "--out", "refs.csv"], cli.EXIT_VALIDATION,
     "error: references and --out both name refs.csv\n"),
    (["calibrate", "w2v.csv", "mllm.csv", "refs.csv", "--out", "./mllm.csv"],
     cli.EXIT_VALIDATION, "error: mllm and --out both name mllm.csv\n"),
    (["fuse", "w2v.csv", "mllm.csv", "c.json", "--out", "w2v.csv"], cli.EXIT_VALIDATION,
     "error: w2v and --out both name w2v.csv\n"),
    (["fuse", "w2v.csv", "mllm.csv", "c.json", "--out", "sub/../c.json"], cli.EXIT_VALIDATION,
     "error: calibration and --out both name c.json\n"),
    (["fuse", "w2v.csv", "mllm.csv", "c.json", "--out", "gone/../c.json"], cli.EXIT_VALIDATION,
     "error: calibration and --out both name c.json\n"),
    (["aggregate", "w2v.csv", "--out", "w2v.csv"], cli.EXIT_VALIDATION,
     "error: predictions and --out both name w2v.csv\n"),
    (["aggregate", "w2v.csv", "--out", "w2v_link.csv"], cli.EXIT_VALIDATION,
     "error: predictions and --out both name w2v.csv\n"),
    (TRAIN + ["--out", "h.log", "--history", "h_link.log"], cli.EXIT_VALIDATION,
     "error: --out and --history both name h.log\n"),
    (TRAIN + ["--out", "p.json", "--history", "sub"], cli.EXIT_IO, IS_A_DIRECTORY.format("sub")),
    (TRAIN + ["--out", "sub"], cli.EXIT_IO, IS_A_DIRECTORY.format("sub")),
    (TRAIN + ["--out", "p.json", "--history", "missing/h.log"], cli.EXIT_IO,
     "error: [Errno 2] No such file or directory: 'missing/h.log'\n"),
    (TRAIN + ["--out", "p.json", "--history", "gone/../h.log"], cli.EXIT_IO,
     "error: [Errno 2] No such file or directory: 'gone/../h.log'\n"),
    (["synth", "--out-dir", "sub"], cli.EXIT_IO, IS_A_DIRECTORY.format("sub/mllm.csv")),
    (["synth", "--features", "--out-dir", "feat"], cli.EXIT_IO,
     IS_A_DIRECTORY.format("feat/dev_features.txt")),
    (["synth", "--out-dir", "h_symlink.log"], cli.EXIT_IO,
     "error: [Errno 17] File exists: 'h_symlink.log'\n"),
    (["synth", "--out-dir", "sub_symlink"], cli.EXIT_IO,
     IS_A_DIRECTORY.format("sub_symlink/mllm.csv")),
]


@pytest.mark.parametrize("argv, code, err", OUTPUT_CASES,
                         ids=[" ".join(argv) for argv, _, _ in OUTPUT_CASES])
def test_output_over_input_or_directory_exit_code(tmp_path, capsys, monkeypatch, argv, code,
                                                   err):
    """An output that names an input or another output (by any path or a hard
    link), an existing directory or a file in a missing directory stops the command
    before it reads or writes anything: every file is as it was."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "--n-speakers", "3", "--features", "--frames-per-class", "4",
        "--out-dir", ".")
    run(capsys, "calibrate", "w2v.csv", "mllm.csv", "refs.csv", "--out", "c.json")
    os.link("w2v.csv", "w2v_link.csv")
    (tmp_path / "h.log").write_text("kept\n")
    os.link("h.log", "h_link.log")
    (tmp_path / "sub" / "mllm.csv").mkdir(parents=True)
    (tmp_path / "feat" / "dev_features.txt").mkdir(parents=True)
    os.symlink("h.log", "h_symlink.log")
    os.symlink("sub", "sub_symlink")

    def files():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    before = files()
    assert run(capsys, *argv) == (code, "", err)
    assert files() == before


def test_repeated_input_runs(tmp_path, capsys, monkeypatch):
    """One file named as two inputs is no fault: only an output is checked against
    the other names."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "--n-speakers", "3", "--out-dir", ".")
    run(capsys, "calibrate", "w2v.csv", "mllm.csv", "refs.csv", "--out", "c.json")
    assert run(capsys, "fuse", "w2v.csv", "w2v.csv", "c.json", "--out", "f.csv") == (
        0, "wrote 12 fused scores to f.csv\n", "")
    assert run(capsys, "evaluate", "refs.csv", "refs.csv")[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["synth", "--n-speakers", "x", "--out-dir", "d"],
     "argument --n-speakers: invalid int value: 'x'"),
    (["calibrate", "w2v.csv", "mllm.csv", "refs.csv", "--grid-step", "0.05", "--out", "c.json"],
     "unrecognized arguments: --grid-step 0.05"),
    (["calibrate", "w2v.csv", "mllm.csv", "refs.csv"],
     "the following arguments are required: --out"),
    ([], "the following arguments are required: command"),
], ids=["synth-int", "calibrate-grid-step", "calibrate-no-out", "no-command"])
def test_usage_error_is_one_line(tmp_path, capsys, monkeypatch, argv, message):
    """A command line argparse rejects exits 2 with one ``error: `` line, as every
    other fault does, not argparse's usage text; nothing is read or written."""
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (cli.EXIT_VALIDATION, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_synth_makes_a_missing_out_dir(tmp_path, capsys, monkeypatch):
    """``synth`` makes its ``--out-dir`` with any missing parents, so a missing
    parent of its outputs is no fault."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "synth", "--n-speakers", "3", "--out-dir", "new/sub")
    assert (code, err) == (0, "")
    assert sorted(p.name for p in (tmp_path / "new" / "sub").iterdir()) == [
        "mllm.csv", "refs.csv", "w2v.csv"]


def run_child(argv, stdout=subprocess.PIPE, env=(), **kwargs):
    """``slascore`` run as ``python -m slascore.cli`` in a child process, with ``env``
    over this process's environment; a ``None`` value unsets its variable."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **dict(env)}
    return subprocess.run([sys.executable, "-B", "-m", "slascore.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, **kwargs,
                          env={name: value for name, value in env.items() if value is not None})


def test_failed_write_names_its_file(tmp_path, capsys, monkeypatch):
    """A write that fails after the path checks exits 3 with one line naming the
    file, not a traceback. Here the child process may write at most 200 bytes to a
    file; Python ignores SIGXFSZ, so the write past it raises EFBIG."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "--n-speakers", "20", "--out-dir", ".")
    run(capsys, "calibrate", "w2v.csv", "mllm.csv", "refs.csv", "--out", "c.json")
    done = run_child(["fuse", "w2v.csv", "mllm.csv", "c.json", "--out", "big.csv"],
                     preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200)))
    assert (done.returncode, done.stdout) == (cli.EXIT_IO, "")
    assert done.stderr.splitlines()[-1] == "error: [Errno 27] File too large: 'big.csv'"
    assert "Traceback" not in done.stderr


def test_stdout_faults_in_a_child_process(tmp_path, capsys, monkeypatch):
    """Two stdout faults ``capsys`` never shows. With stdout encoded as ASCII, a model
    name or output path it cannot encode prints escaped, as on stderr, and the command
    exits 0. A stdout pipe closed before the first line ends in exit 3 and one error
    line, whether stdout is buffered (the fault shows only when it is flushed) or not,
    also when what failed to reach it is argparse's ``--help``."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "--n-speakers", "3", "--out-dir", ".")
    Path("board.csv").write_text("name,rmse,pcc,src,within_half,within_one\n"
                                 "caf\xe9,0.5,0.9,0.9,0.8,1.0\n", encoding="utf-8")
    ascii_out = {"PYTHONIOENCODING": "ascii"}
    report = run_child(["report", "board.csv"], env=ascii_out)
    aggregate = run_child(["aggregate", "refs.csv", "--out", "\xe9.csv"], env=ascii_out)
    assert [(done.returncode, done.stderr) for done in (report, aggregate)] == [(0, "")] * 2
    assert report.stdout.splitlines()[1] == "caf\\xe9                 0.500 0.900 0.900 0.8 1.0"
    assert aggregate.stdout == "wrote 3 overall scores to \\xe9.csv\n"
    assert Path("\xe9.csv").exists()
    for argv, unbuffered in [(["evaluate", "w2v.csv", "refs.csv"], None),
                             (["evaluate", "w2v.csv", "refs.csv"], "1"),
                             (["--help"], None), (["--help"], "1"),
                             (["evaluate", "--help"], None)]:
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_child(argv, stdout=write, env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (cli.EXIT_IO, "error: [Errno 32] Broken pipe\n")
    shown, usage = run_child(["--help"]), run_child(["evaluate"])  # on an open stdout
    assert (shown.returncode, usage.returncode, usage.stdout) == (0, cli.EXIT_VALIDATION, "")
    assert shown.stdout.startswith("usage: slascore")
    assert usage.stderr == "error: the following arguments are required: predictions, references\n"


# Every subcommand, given the stem of the one file it names for output (report, which
# writes nothing, reads its leaderboard from that stem), in a directory that
# ``contract_inputs`` fills.
CONTRACT_COMMANDS = {
    "evaluate": lambda o: ["evaluate", "w2v.csv", "refs.csv", "--out", f"{o}.json"],
    "calibrate": lambda o: ["calibrate", "w2v.csv", "mllm.csv", "refs.csv", "--out", f"{o}.json"],
    "fuse": lambda o: ["fuse", "w2v.csv", "mllm.csv", "calib.json", "--out", f"{o}.csv"],
    "aggregate": lambda o: ["aggregate", "refs.csv", "--out", f"{o}.csv"],
    "train-head": lambda o: ["train-head", "train_features.txt", "dev_features.txt",
                             "--epochs", "1", "--out", f"{o}.json", "--history", f"{o}.log"],
    "synth": lambda o: ["synth", "--n-speakers", "3", "--out-dir", o],
    "report": lambda o: ["report", f"{o}.csv"],
}
# Each fault: the output stem's suffix and run_child's keywords. The size limit is
# set in the child only; Python ignores SIGXFSZ, so a write past it raises EFBIG.
CONTRACT_FAULTS = {
    "closed-stdout-pipe": ("pipe", {"env": {"PYTHONUNBUFFERED": None}}),
    "ascii-stdout-non-ascii-path": ("\xe9", {"env": {"PYTHONIOENCODING": "ascii"}}),
    "file-size-limit": ("big", {"preexec_fn": lambda: resource.setrlimit(
        resource.RLIMIT_FSIZE, (300, 300))}),
    "undecodable-path": (os.fsdecode(b"\xff"), {}),
}


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("contract")
    assert cli.main(["synth", "--n-speakers", "20", "--features", "--frames-per-class", "4",
                     "--out-dir", str(where)]) == 0
    inputs = (str(where / f"{name}.csv") for name in ("w2v", "mllm", "refs"))
    assert cli.main(["calibrate", *inputs, "--out", str(where / "calib.json")]) == 0
    return where


@pytest.mark.parametrize("command, fault", [
    (command, fault) for command in CONTRACT_COMMANDS for fault in CONTRACT_FAULTS
    if (command, fault) != ("report", "file-size-limit")])  # report writes no file
def test_exit_code_contract_in_a_child_process(contract_inputs, command, fault):
    """Every subcommand, with valid inputs, under a fault of its process that the
    in-process tests cannot set up, ends in exit 0, 2 or 3. Its stderr holds the
    warnings of the run and, on a non-zero exit, one ``error: `` line after them;
    never a traceback."""
    suffix, kwargs = CONTRACT_FAULTS[fault]
    stem = f"{command}-{suffix}"
    if command == "report":
        (contract_inputs / f"{stem}.csv").write_text(
            "name,rmse,pcc,src,within_half,within_one\ntoy,0.5,0.9,0.9,0.8,1.0\n")
    argv = CONTRACT_COMMANDS[command](stem)
    if fault == "closed-stdout-pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_child(argv, cwd=contract_inputs, stdout=write, **kwargs)
        finally:
            os.close(write)
    else:
        done = run_child(argv, cwd=contract_inputs, **kwargs)
    assert done.returncode in (0, cli.EXIT_VALIDATION, cli.EXIT_IO)
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    if done.returncode:  # one error line, after the warnings of the run
        assert lines and lines.pop().startswith("error: ")
    assert all(line.startswith("warning: ") for line in lines)


# Speaker ids for the row-order property: non-ASCII text, NUL and shared prefixes,
# 1-20 characters (across the 8-byte boundary), never a comma or a line break.
ID_TEXT = st.text(st.sampled_from(["a", "b", " ", "\x00", "\xe9", "\u20ac", "\U0001f600"])
                  | st.characters(codec="utf-8",
                                  exclude_characters=",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
                  max_size=10)
PIPELINE = [["calibrate", "w2v.csv", "mllm.csv", "refs.csv", "--out", "calib.json"],
            ["fuse", "w2v.csv", "mllm.csv", "calib.json", "--out", "fused.csv"],
            ["aggregate", "fused.csv", "--out", "overall.csv"],
            ["evaluate", "fused.csv", "refs.csv", "--out", "metrics.json"],
            ["aggregate", "refs.csv", "--out", "refs_overall.csv"],
            ["evaluate", "--overall", "overall.csv", "refs_overall.csv"]]
INPUTS = {"w2v_digest": "w2v.csv", "mllm_digest": "mllm.csv", "ref_digest": "refs.csv"}


@st.composite
def reordered_inputs(draw):
    """The three input tables (all four parts of each speaker, in drawn speaker order),
    and for each file a row order and a line end (LF, CRLF or CR) per line."""
    prefixes = draw(st.lists(ID_TEXT, min_size=1, max_size=3))
    ids = draw(st.lists(st.tuples(st.sampled_from(prefixes), ID_TEXT).map("".join)
                        .filter(lambda sid: 1 <= len(sid) <= 20),
                        min_size=2, max_size=8, unique=True))
    n = len(ids) * len(PARTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sids, parts = np.repeat(np.array(ids, dtype=object), len(PARTS)), np.tile(PARTS, len(ids))
    refs = rng.choice(REFERENCE_LEVELS, n)
    refs[:8] = np.repeat([2.0, 5.5], 4)  # two speakers apart: no metric meets zero variance
    tables = {"w2v": Scores(sids, parts, rng.uniform(-0.5, 6.5, n)),  # some are warned of
              "mllm": Scores(sids, parts, rng.uniform(-0.5, 6.5, n)),
              "refs": Scores(sids, parts, refs)}
    layouts = {name: (draw(st.permutations(range(n))),
                      draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                    min_size=n + 1, max_size=n + 1)))
               for name in tables}
    return tables, layouts


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=reordered_inputs())
def test_row_order_and_line_ends_change_no_output(tmp_path, capsys, caplog, monkeypatch,
                                                   case):
    """Permuting the rows of every input score file and rewriting each line end as LF,
    CRLF or CR leaves every output byte, stdout, stderr and warning of the pipeline unchanged;
    only the calibration's input digests follow the rewritten files. Prediction files
    keep their order, since ``evaluate`` pairs in prediction order."""
    tables, layouts = case
    runs = []
    with tempfile.TemporaryDirectory(dir=tmp_path) as top:
        for rewrite in (False, True):
            monkeypatch.chdir(top)
            os.mkdir(str(rewrite))
            monkeypatch.chdir(str(rewrite))  # the same relative paths in both runs
            for name, table in tables.items():
                fileio.write_predictions(f"{name}.csv", table)
                if rewrite:
                    header, *lines = Path(f"{name}.csv").read_text("utf-8").split("\n")[:-1]
                    order, ends = layouts[name]
                    lines = [header, *(lines[i] for i in order)]
                    Path(f"{name}.csv").write_bytes("".join(map(str.__add__, lines, ends))
                                                    .encode())
            printed = []
            for argv in PIPELINE:
                caplog.clear()
                printed.append((*run(capsys, *argv), caplog.messages))
                assert printed[-1][0] == 0, printed
            written = {name: Path(name).read_bytes() for name in sorted(os.listdir())
                       if name not in INPUTS.values()}
            provenance = json.loads(written["calib.json"])["provenance"]
            for key, name in INPUTS.items():  # each digest is its input's, as read
                assert provenance[key] == fileio.file_digest(name)
                written["calib.json"] = written["calib.json"].replace(provenance[key].encode(),
                                                                      name.encode())
            runs.append((printed, written))
    assert runs[1] == runs[0]


class TestReport:
    def test_leaderboard_row(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(
            "name,rmse,pcc,src,within_half,within_one\n"
            "NTNU SMIL V (2),0.375,0.820,0.827,82.7,99.3\n")
        code, out, _ = run(capsys, "report", str(rows))
        assert code == 0
        assert out.splitlines()[1] == "NTNU SMIL V (2)      0.375 0.820 0.827 82.7 99.3"

    def test_bad_header(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("model,rmse\nx,1\n")
        code, _, _ = run(capsys, "report", str(rows))
        assert code == cli.EXIT_IO

    def test_non_finite_field_exit_code(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("name,rmse,pcc,src,within_half,within_one\n"
                        "ok,0.375,0.820,0.827,82.7,99.3\n"
                        "a,nan,0.9,inf,90,1e400\n")
        code, out, err = run(capsys, "report", str(rows))
        assert code == cli.EXIT_IO and out == ""
        assert err == f"error: {rows}:3: non-finite numeric field\n"

    @pytest.mark.parametrize("body, message", [
        ("m,1_0,\u0663,0.5,50,60\n", ":2: bad numeric field '1_0'"),
        ("\n\nm,1,2,3\n", ":4: expected 6 fields, got 4"),
    ], ids=["non-ascii-numbers", "short-row-after-blank-lines"])
    def test_fault_names_its_line(self, tmp_path, capsys, body, message):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"name,rmse,pcc,src,within_half,within_one\n{body}", encoding="utf-8")
        code, out, err = run(capsys, "report", str(rows))
        assert code == cli.EXIT_IO and out == ""
        assert err == f"error: {rows}{message}\n"


# The valid prediction file every mutation starts from: two speakers,
# all four parts, scores inside [0, 6] and on the reference grid.
VALID_ROWS = ["speaker_id,part,score"] + [
    f"{sid},{part},{score!r}" for sid, scores_ in (("s1", (3.0, 3.5, 4.0, 2.5)),
                                                   ("s2", (5.0, 4.5, 2.0, 3.0)))
    for part, score in zip((1, 3, 4, 5), scores_)]

FIELD_VALUES = st.sampled_from(["", "\x00", "s1", "sé", " ", "overall", "0", "2",
                                "01", "nan", "inf", "-inf", "1e400", "-1e400", "1e308",
                                "-0.0", "7.5", "3.25", " 3", "a,b"]) | st.text(max_size=4)


@st.composite
def mutated_file(draw, valid_lines, sep, field_values) -> bytes:
    """``valid_lines`` after 1-3 line or field mutations, as file bytes."""
    lines = list(valid_lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "field", "empty"]))
        if op == "empty":
            lines = []
        elif not lines:
            lines.append(draw(st.text(max_size=12)))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            lines[i] = draw(st.text(max_size=12))
        else:
            fields = lines[i].split(sep)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(field_values)
            lines[i] = sep.join(fields)
    data = "\n".join(lines).encode("utf-8")
    return data + b"\xff" if draw(st.booleans()) and draw(st.booleans()) else data


# The valid leaderboard file every mutation starts from.
VALID_BOARD = ["name,rmse,pcc,src,within_half,within_one",
               "NTNU SMIL V (2),0.375,0.820,0.827,82.7,99.3", "w2v,0.41,0.79,0.8,78.0,98.5"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=mutated_file(VALID_ROWS, ",", FIELD_VALUES),
       board_content=mutated_file(VALID_BOARD, ",", FIELD_VALUES))
def test_mutated_prediction_file_exit_codes(tmp_path, capsys, content, board_content):
    """Any mutation of a valid prediction CSV ends in exit code 0, 2 or 3
    in every command that reads one, and so does any mutation of a valid
    leaderboard file in ``report``, with no exception escaping."""
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_bytes(content)
    good.write_text("\n".join(VALID_ROWS) + "\n")
    board = tmp_path / "board.csv"
    board.write_bytes(board_content)
    calib = tmp_path / "calib.json"
    fileio.write_calibration(calib, fusion.FusionCalibration(weights=(0.25,) * 8))
    out = str(tmp_path / "out.csv")
    for argv in (["aggregate", bad, "--out", out],
                 ["evaluate", bad, good], ["evaluate", good, bad],
                 ["evaluate", "--overall", bad, bad],
                 ["fuse", bad, good, calib, "--out", out],
                 ["fuse", good, bad, calib, "--clamp", "--out", out],
                 ["calibrate", bad, good, good, "--out", out],
                 ["calibrate", good, bad, good, "--out", out],
                 ["calibrate", good, good, bad, "--out", out],
                 ["report", board]):
        code, _, _ = run(capsys, *map(str, argv))
        assert code in (0, cli.EXIT_VALIDATION, cli.EXIT_IO), argv


def valid_features() -> list[str]:
    """The lines of the valid feature file every mutation starts from: two levels,
    three sequences each, 1-3 frames of d = 2, drawn in ``generate_frames``' order
    with the level means 4.0 apart."""
    rng = np.random.default_rng(0)
    lines = [fileio.FEATURE_MAGIC]
    for k, label in enumerate([2.5, 3.5]):
        for _ in range(3):
            frames = 4.0 * np.eye(2)[k] + rng.standard_normal((int(rng.integers(1, 4)), 2))
            lines += [f"record {len(frames)} 2 {label!r}",
                      *(f"{a!r} {b!r}" for a, b in frames.tolist())]
    return lines


VALID_FEATURES = valid_features()

FEATURE_VALUES = st.sampled_from(["", "-", "0", "1", "-1", "2", "2.5", "3.5", "7.0", "nan",
                                  "inf", "1e308", "-1e308", "1e400", "1e-320", "record",
                                  "x", "1 2"]) | st.text(max_size=4)

JSON_VALUES = st.sampled_from([None, True, 0, -1, 2, 0.5, 1.0, 1e308, -1e308, float("nan"),
                               float("inf"), 10**400, "", "a", [], {}, [0.5] * 7, [0.5] * 9]
                              ).map(copy.deepcopy)  # a fresh list for each example to mutate


@st.composite
def mutated_calibration(draw) -> bytes:
    """A valid calibration document after 1-3 mutations of its fields or
    list items, as file bytes."""
    doc = json.loads(json.dumps({**CALIB_FIELDS, "provenance": {}}))
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(doc)))
        op = draw(st.sampled_from(["delete", "replace", "item", "drop-item"]))
        if op == "delete":
            del doc[name]
        elif op == "replace" or not isinstance(doc[name], list) or not doc[name]:
            doc[name] = draw(JSON_VALUES)
        elif op == "item":
            doc[name][draw(st.integers(0, len(doc[name]) - 1))] = draw(JSON_VALUES)
        else:
            del doc[name][draw(st.integers(0, len(doc[name]) - 1))]
    data = json.dumps(doc).encode("utf-8")
    return data[:draw(st.integers(0, len(data)))] if draw(st.integers(0, 9)) == 0 else data


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(calibration=mutated_calibration(),
       features=mutated_file(VALID_FEATURES, " ", FEATURE_VALUES))
def test_mutated_calibration_and_feature_files_exit_codes(tmp_path, capsys, calibration,
                                                          features):
    """Any mutation of a valid calibration JSON or feature file ends in exit
    code 0, 2 or 3 in ``fuse`` and ``train-head``, with no exception escaping."""
    calib, bad, good = tmp_path / "calib.json", tmp_path / "bad.txt", tmp_path / "good.txt"
    calib.write_bytes(calibration)
    bad.write_bytes(features)
    good.write_text("\n".join(VALID_FEATURES) + "\n")
    csv = tmp_path / "scores.csv"
    csv.write_text("\n".join(VALID_ROWS) + "\n")
    out = str(tmp_path / "out")
    for argv in (["fuse", csv, csv, calib, "--out", out],
                 ["fuse", csv, csv, calib, "--clamp", "--out", out],
                 ["train-head", bad, good, "--epochs", "1", "--out", out],
                 ["train-head", bad, good, "--epochs", "1", "--mode", "regression", "--out", out],
                 ["train-head", good, bad, "--epochs", "1", "--out", out]):
        code, _, _ = run(capsys, *map(str, argv))
        assert code in (0, cli.EXIT_VALIDATION, cli.EXIT_IO), argv

import copy
import json
import logging
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slascore import cli, fileio, fusion, metrics
from slascore.core import OVERALL, Scores, join
from slascore.synth import SynthConfig, generate_frames, generate_scores, heteroscedastic_config
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
            "2 reference key(s) without a prediction dropped"]

    def test_non_finite_overall_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        pred.write_text("speaker_id,part,score\na,overall,nan\nb,overall,3.0\n")
        ref.write_text("speaker_id,part,score\na,overall,3.0\nb,overall,4.0\n")
        code, out, err = run(capsys, "evaluate", "--overall", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION
        assert "non-finite" in err and "nan" not in out

    def test_overflowing_metric_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        pred.write_text("speaker_id,part,score\na,1,1e200\nb,1,4.0\nc,1,4.0\n")
        ref.write_text("speaker_id,part,score\na,1,3.0\nb,1,4.0\nc,1,3.0\n")
        code, out, err = run(capsys, "evaluate", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
            "error: values beyond the float range: overflow encountered in square"]


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

    def test_grid_step_too_fine_exit_code(self, dev_files, tmp_path, capsys):
        _, paths = dev_files
        out = tmp_path / "calib.json"
        code, stdout, err = run(capsys, "calibrate", paths["w2v"], paths["mllm"], paths["refs"],
                                "--grid-step", "1e-4", "--out", str(out))
        assert code == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
        assert err == "error: grid_step 0.0001 outside [0.001, 1]\n"

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
        recs = fileio.read_predictions(out, allow_overall=True)
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
        got = fileio.read_predictions(out, allow_overall=True)
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


    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--noise", "nan"]], ids="=".join)
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


class TestTrainHead:
    def test_train_and_reload(self, tmp_path, capsys):
        run(capsys, "synth", "--n-speakers", "2", "--features",
            "--frames-per-class", "10", "--separation", "8.0",
            "--out-dir", str(tmp_path / "d"))
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
        for mode in ("regression", "classification"):
            code, stdout, err = run(capsys, "train-head",
                                    str(tmp_path / "d" / "train_features.txt"),
                                    str(tmp_path / "d" / "dev_features.txt"), "--mode", mode,
                                    "--learning-rate", "1e308", "--warmup-steps", "0",
                                    "--out", str(out), "--history", str(hist))
            assert code == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
            assert err == "error: loss diverged at epoch 1\n" and not hist.exists()


CALIB_FIELDS = {"format_version": 1, "grid_step": 0.01, "edges": list(fusion.DEFAULT_EDGES),
                "weights": [0.5] * 8, "per_bin_counts": [0] * 8, "dev_rmse": 0.1}


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
], ids=["list-document", "string-weights", "scalar-weights", "bool-edges", "null-counts",
        "non-utf8-calibration", "deeply-nested-calibration", "5000-digit-dev-rmse",
        "negative-T", "zero-d", "mixed-d", "form-feed-in-record", "u2028-in-record", "huge-d",
        "empty-speaker-id", "u2028-in-row"])
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
    fileio.write_features(feats, generate_frames(40, [3.0, 4.0], d=8, separation=1.0, seed=0))
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


# The valid feature file every mutation starts from: two levels, three
# sequences each, 1-3 frames of d = 2.
VALID_FEATURES = [fileio.FEATURE_MAGIC] + [
    line for seq in generate_frames(3, [2.5, 3.5], d=2, separation=4.0, seed=0, t_range=(1, 3))
    for line in [f"record {len(seq.frames)} 2 {seq.label!r}",
                 *(f"{a!r} {b!r}" for a, b in seq.frames.tolist())]]

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

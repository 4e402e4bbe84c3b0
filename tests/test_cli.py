import json
import logging

import pytest

from slascore import cli, fileio, fusion, metrics
from slascore.core import ScoredRecord, join
from slascore.synth import SynthConfig, generate_scores, heteroscedastic_config


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_split(tmp_path, data, prefix=""):
    paths = {}
    for name, getter in (("w2v", lambda r: r.w2v), ("mllm", lambda r: r.mllm),
                         ("refs", lambda r: r.reference)):
        p = tmp_path / f"{prefix}{name}.csv"
        fileio.write_predictions(
            p, [ScoredRecord(r.speaker_id, r.part, getter(r)) for r in data.rows])
        paths[name] = str(p)
    return paths


@pytest.fixture
def dev_files(tmp_path):
    data = generate_scores(heteroscedastic_config(80, seed=0))
    return data, write_split(tmp_path, data)


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path, capsys):
        recs = [ScoredRecord("a", 1, 2.0), ScoredRecord("b", 1, 3.0),
                ScoredRecord("c", 1, 4.0)]
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
        rep = metrics.full_report(data.w2v_scores(), data.references())
        assert doc["rmse"] == rep.rmse and doc["pcc"] == rep.pcc

    def test_csv_format(self, dev_files, capsys):
        _, paths = dev_files
        code, out, _ = run(capsys, "evaluate", paths["w2v"], paths["refs"],
                           "--format", "csv")
        assert code == 0
        assert out.startswith("rmse,pcc,src,")

    def test_disjoint_keys_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        fileio.write_predictions(pred, [ScoredRecord("a", 1, 3.0)])
        fileio.write_predictions(ref, [ScoredRecord("b", 1, 3.0)])
        code, _, err = run(capsys, "evaluate", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION
        assert "error" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, err = run(capsys, "evaluate", str(tmp_path / "x.csv"),
                           str(tmp_path / "y.csv"))
        assert code == cli.EXIT_IO

    def test_prediction_without_reference_exit_code(self, tmp_path, capsys):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        fileio.write_predictions(pred, [ScoredRecord("a", 1, 3.0), ScoredRecord("b", 1, 3.0)])
        fileio.write_predictions(ref, [ScoredRecord("a", 1, 3.0)])
        code, out, err = run(capsys, "evaluate", str(pred), str(ref))
        assert code == cli.EXIT_VALIDATION
        assert "1 prediction key(s) without a reference" in err
        assert out == ""

    def test_unpredicted_references_warned_once(self, tmp_path, capsys, caplog):
        pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
        levels = (2.0, 3.0, 4.0, 5.0, 5.5, 2.5)
        fileio.write_predictions(pred, [ScoredRecord(f"s{i}", 1, 2.0 + i) for i in range(4)])
        fileio.write_predictions(ref, [ScoredRecord(f"s{i}", 1, lvl)
                                       for i, lvl in enumerate(levels)])
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
        refs = {r.key: r.score
                for r in fileio.read_predictions(paths["refs"], "reference")}
        got = metrics.rmse([r.score for r in fused], [refs[r.key] for r in fused])
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
            fused = {r.key: r.score for r in fileio.read_predictions(str(fused_path))}
            src = {r.key: r.score for r in fileio.read_predictions(paths[source])}
            assert fused == src


class TestAggregate:
    def test_single_speaker(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        fileio.write_predictions(pred, [
            ScoredRecord("a", 1, 3.0), ScoredRecord("a", 3, 3.0),
            ScoredRecord("a", 4, 4.0), ScoredRecord("a", 5, 4.0)])
        out = tmp_path / "overall.csv"
        code, _, _ = run(capsys, "aggregate", str(pred), "--out", str(out))
        assert code == 0
        recs = fileio.read_predictions(out, allow_overall=True)
        assert recs[0].score == 3.5 and recs[0].part == "overall"

    def test_incomplete_speaker(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        fileio.write_predictions(pred, [ScoredRecord("a", 1, 3.0)])
        code, _, err = run(capsys, "aggregate", str(pred),
                           "--out", str(tmp_path / "o.csv"))
        assert code == cli.EXIT_VALIDATION
        assert "a" in err

    def test_matches_library(self, tmp_path, capsys):
        data = generate_scores(SynthConfig(n_speakers=25, seed=4))
        pred = tmp_path / "pred.csv"
        recs = [ScoredRecord(r.speaker_id, r.part, r.w2v) for r in data.rows]
        fileio.write_predictions(pred, recs)
        out = tmp_path / "overall.csv"
        run(capsys, "aggregate", str(pred), "--out", str(out))
        got = fileio.read_predictions(out, allow_overall=True)
        assert got == fusion.aggregate_overall(recs)


class TestSynthCommand:
    def test_zero_noise_w2v_equals_refs(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--n-speakers", "5", "--noise", "0.0",
                         "--out-dir", str(tmp_path / "d"))
        assert code == 0
        w2v = fileio.read_predictions(tmp_path / "d" / "w2v.csv")
        refs = fileio.read_predictions(tmp_path / "d" / "refs.csv", "reference")
        assert [r.score for r in w2v] == [r.score for r in refs]

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


CALIB_FIELDS = {"format_version": 1, "grid_step": 0.01, "edges": list(fusion.DEFAULT_EDGES),
                "weights": [0.5] * 8, "per_bin_counts": [0] * 8, "dev_rmse": 0.1}


@pytest.mark.parametrize("command,content", [
    ("fuse", "[1, 2, 3]"),
    ("fuse", json.dumps({**CALIB_FIELDS, "weights": ["a"] * 8})),
    ("fuse", json.dumps({**CALIB_FIELDS, "weights": 0.5})),
    ("fuse", json.dumps({**CALIB_FIELDS, "edges": [True] * 9})),
    ("fuse", json.dumps({**CALIB_FIELDS, "per_bin_counts": [None] * 8})),
    ("train-head", "slascore-features v1\nrecord -1 2 3.0\n"),
    ("train-head", "slascore-features v1\nrecord 1 0 3.0\n\n"),
], ids=["list-document", "string-weights", "scalar-weights", "bool-edges", "null-counts",
        "negative-T", "zero-d"])
def test_malformed_file_exit_code(tmp_path, capsys, command, content):
    bad = tmp_path / "bad"
    bad.write_text(content)
    if command == "fuse":
        scores = tmp_path / "scores.csv"
        fileio.write_predictions(scores, [ScoredRecord("a", 1, 3.0)])
        argv = ["fuse", str(scores), str(scores), str(bad), "--out", str(tmp_path / "o.csv")]
    else:
        argv = ["train-head", str(bad), str(bad), "--out", str(tmp_path / "p.json")]
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestReport:
    def test_leaderboard_row(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(
            "name,rmse,pcc,src,within_half,within_one\n"
            "NTNU SMIL V (2),0.375,0.820,0.827,82.7,99.3\n")
        code, out, _ = run(capsys, "report", str(rows))
        assert code == 0
        assert "0.375 0.820 0.827 82.7 99.3" in out

    def test_bad_header(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("model,rmse\nx,1\n")
        code, _, _ = run(capsys, "report", str(rows))
        assert code == cli.EXIT_IO

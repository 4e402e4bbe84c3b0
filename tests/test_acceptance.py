"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).
"""

import functools
import time

import numpy as np
import pytest

import oracles
from slascore import cli, fileio, fusion, head, metrics, synth
from slascore.core import REFERENCE_LEVELS, Scores
from slascore.fusion import N_BINS, bin_index, calibrate, fuse_one
from slascore.head import (
    CLASSIFICATION,
    REGRESSION,
    FrameSequence,
    TrainConfig,
    backward,
    forward,
)


def criterion(number, description):
    """Print one PASS/FAIL line per criterion around the test body."""
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return wrapper
    return decorator


@criterion(1, "metric oracle equivalence on 1000 random datasets, < 5 s")
def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(2025)
    levels = np.asarray(REFERENCE_LEVELS)
    start = time.monotonic()
    for _ in range(1000):
        n = 200
        ref = rng.uniform(1.5, 6.0, n)
        pred = ref + rng.normal(0, 0.5, n)
        rep = metrics.full_report(pred, ref)
        assert rep.rmse == pytest.approx(oracles.rmse_oracle(pred, ref), rel=1e-9)
        assert rep.pcc == pytest.approx(oracles.pearson_oracle(pred, ref), rel=1e-9)
        assert rep.src == pytest.approx(oracles.spearman_oracle(pred, ref), rel=1e-9)
        assert rep.within_half == pytest.approx(
            oracles.within_oracle(pred, ref, 0.5), rel=1e-9)
        assert rep.within_one == pytest.approx(
            oracles.within_oracle(pred, ref, 1.0), rel=1e-9)
        grid_ref = rng.choice(levels, n)
        grid_pred = grid_ref + rng.normal(0, 0.5, n)
        assert metrics.macro_f1(grid_pred, grid_ref) == pytest.approx(
            oracles.macro_f1_oracle(grid_pred, grid_ref), rel=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion(2, "fusion dominance and per-bin brute-force agreement on 100 random configs")
def test_criterion_2_fusion_dominance():
    rng = np.random.default_rng(77)
    for _ in range(100):
        weights = tuple(rng.uniform(0.2, 1.0, N_BINS))
        cfg = synth.SynthConfig(
            n_speakers=int(rng.integers(20, 60)),
            w2v_noise=tuple(rng.uniform(0.05, 0.7, N_BINS)),
            mllm_noise=tuple(rng.uniform(0.05, 0.7, N_BINS)),
            seed=int(rng.integers(0, 2**31)),
        )
        data = oracles.generate_scores_oracle(cfg, weights)  # levels drawn skewed by weights
        calib = calibrate(data)
        ref = data.reference
        assert calib.dev_rmse <= metrics.rmse(data.w2v, ref)
        assert calib.dev_rmse <= metrics.rmse(data.mllm, ref)
        for k in range(N_BINS):
            rows = bin_index(data.mllm) == k
            if rows.any():
                w, bin_rmse = oracles.brute_force_bin_weight(data.w2v[rows], data.mllm[rows],
                                                             ref[rows])
                assert w == calib.weights[k]
                assert calib.per_bin_rmse[k] == pytest.approx(bin_rmse, rel=1e-12)
            else:
                assert calib.per_bin_rmse[k] is None


@criterion(3, "score-conditioned fusion beats the best global weight by >= 5% "
              "and beats both components on the eval split")
def test_criterion_3_score_conditioned_advantage():
    dev = synth.generate_scores(synth.heteroscedastic_config(500, seed=0))
    evl = synth.generate_scores(synth.heteroscedastic_config(500, seed=1))
    calib = calibrate(dev)

    # best single global weight on the dev set
    ref, w2v, mllm = dev.reference, dev.w2v, dev.mllm
    best_global = min(
        float(np.sqrt(np.mean((w2v + w * (mllm - w2v) - ref) ** 2)))
        for w in fusion.WEIGHT_GRID
    )
    assert calib.dev_rmse <= 0.95 * best_global

    eval_ref = evl.reference
    fused = fusion.fuse_dataset(evl, calib)
    fused_rmse = metrics.rmse(fused.score, eval_ref)
    assert fused_rmse < metrics.rmse(evl.w2v, eval_ref)
    assert fused_rmse < metrics.rmse(evl.mllm, eval_ref)


@criterion(4, "analytic gradients within 1e-4 of central finite differences "
              "on 100 random head instances, < 30 s")
def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4)
    start = time.monotonic()
    step = 1e-5
    for trial in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 6))
        t = int(rng.integers(1, 11))
        d_a = int(rng.integers(2, 7))
        mode = REGRESSION if trial % 2 else CLASSIFICATION
        out = 1 if mode == REGRESSION else n
        levels = np.sort(rng.choice(np.arange(2.0, 5.51, 0.5), size=n, replace=False))
        params = head.HeadParameters(
            attn_W=rng.standard_normal((d_a, d)),
            attn_b=rng.standard_normal(d_a),
            attn_u=rng.standard_normal(d_a),
            prototypes=rng.standard_normal((n, d)),
            levels=levels,
            mlp_W=rng.standard_normal((out, d + n)),
            mlp_b=rng.standard_normal(out),
            mode=mode,
        )
        seq = FrameSequence(frames=rng.standard_normal((t, d)))
        target = float(rng.choice(levels))
        # the loss train takes of this output, and its gradient
        loss = (functools.partial(head._squared_error, target=target) if mode == REGRESSION else
                functools.partial(head._cross_entropy, idx=levels.tolist().index(target)))
        pred, cache = forward(seq, params)
        grads = backward(cache, loss(pred)[1])
        for name in ("attn_W", "attn_b", "attn_u", "prototypes", "mlp_W", "mlp_b"):
            analytic = grads[name]
            arr = getattr(params, name)
            for idx in range(arr.size):
                orig = arr.flat[idx]
                arr.flat[idx] = orig + step
                lp = loss(forward(seq, params)[0])[0]
                arr.flat[idx] = orig - step
                lm = loss(forward(seq, params)[0])[0]
                arr.flat[idx] = orig
                numeric = (lp - lm) / (2 * step)
                ana = analytic.flat[idx]
                denom = max(abs(numeric), abs(ana), 1e-8)
                assert abs(numeric - ana) / denom < 1e-4, (trial, name, idx)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"


@criterion(5, "toy training reaches dev macro F1 >= 0.9 within 30 epochs "
              "on separable features, < 2 min")
def test_criterion_5_toy_training():
    train_d = synth.generate_frames(67, seed=0)  # 201
    dev_d = synth.generate_frames(33, seed=1)  # 99
    assert oracles.nearest_class_mean_f1(train_d, dev_d) >= 0.95
    start = time.monotonic()
    cfg = TrainConfig(epochs=30, learning_rate=0.01, warmup_steps=20,
                      seed=0, mode=CLASSIFICATION)
    _, history = head.train(train_d, dev_d, cfg)
    elapsed = time.monotonic() - start
    assert max(h["dev_macro_f1"] for h in history) >= 0.9
    assert elapsed < 120.0, f"took {elapsed:.2f} s"


@criterion(6, "overall-mean and fusion-endpoint exactness, interval boundaries")
def test_criterion_6_exactness():
    recs = Scores(["a"] * 4, [1, 3, 4, 5], [3.0, 3.0, 4.0, 4.0])
    assert fusion.aggregate_overall(recs).score[0] == 3.5

    w2v, mllm = 3.1415926535, 4.2718281828
    calib0 = fusion.FusionCalibration(weights=(0.0,) * N_BINS)
    calib1 = fusion.FusionCalibration(weights=(1.0,) * N_BINS)
    assert fuse_one(w2v, mllm, calib0) == w2v
    assert fuse_one(w2v, mllm, calib1) == mllm

    assert bin_index(2.25) == 1
    assert bin_index(6.0) == 7


@criterion(7, "determinism and byte-identical file round-trips")
def test_criterion_7_determinism_round_trips(tmp_path, capsys):
    # synthetic datasets and calibration files: identical bytes per seed
    for d in ("d1", "d2"):
        assert cli.main(["synth", "--n-speakers", "15", "--seed", "5",
                         "--preset", "heteroscedastic",
                         "--out-dir", str(tmp_path / d)]) == 0
    for name in ("w2v.csv", "mllm.csv", "refs.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == \
               (tmp_path / "d2" / name).read_bytes()

    calibs = []
    for i in (1, 2):
        out = tmp_path / f"calib{i}.json"
        assert cli.main(["calibrate", str(tmp_path / "d1" / "w2v.csv"),
                         str(tmp_path / "d1" / "mllm.csv"),
                         str(tmp_path / "d1" / "refs.csv"),
                         "--out", str(out)]) == 0
        calibs.append(out.read_bytes())
    assert calibs[0] == calibs[1]

    # training logs: identical bytes per seed
    assert cli.main(["synth", "--n-speakers", "2", "--features",
                     "--frames-per-class", "10", "--seed", "0",
                     "--out-dir", str(tmp_path / "f")]) == 0
    hists = []
    for i in (1, 2):
        hist = tmp_path / f"hist{i}.log"
        assert cli.main(["train-head", str(tmp_path / "f" / "train_features.txt"),
                         str(tmp_path / "f" / "dev_features.txt"),
                         "--epochs", "3", "--learning-rate", "0.01",
                         "--warmup-steps", "5", "--seed", "1",
                         "--out", str(tmp_path / f"params{i}.json"),
                         "--history", str(hist)]) == 0
        hists.append(hist.read_bytes())
    assert hists[0] == hists[1]
    capsys.readouterr()  # drop CLI chatter

    # every format: write -> read -> write is byte-identical
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    fileio.write_predictions(p2, fileio.read_predictions(tmp_path / "d1" / "w2v.csv"))
    fileio.write_predictions(p1, fileio.read_predictions(p2))
    assert p1.read_bytes() == p2.read_bytes()

    c2 = tmp_path / "c2.json"
    calib, prov = fileio.read_calibration(tmp_path / "calib1.json")
    fileio.write_calibration(c2, calib, prov)
    assert c2.read_bytes() == (tmp_path / "calib1.json").read_bytes()

    f1, f2 = tmp_path / "f1.txt", tmp_path / "f2.txt"
    fileio.write_features(f2, fileio.read_features(tmp_path / "f" / "train_features.txt"))
    fileio.write_features(f1, fileio.read_features(f2))
    assert f1.read_bytes() == f2.read_bytes()

    q1, q2 = tmp_path / "q1.json", tmp_path / "q2.json"
    fileio.write_head_params(q2, fileio.read_head_params(tmp_path / "params1.json"))
    fileio.write_head_params(q1, fileio.read_head_params(q2))
    assert q1.read_bytes() == q2.read_bytes()


@criterion(8, "renderer reproduces the published second-place leaderboard row")
def test_criterion_8_report_fidelity(tmp_path, capsys):
    rows = tmp_path / "leaderboard.csv"
    rows.write_text(
        "name,rmse,pcc,src,within_half,within_one\n"
        "NTNU SMIL V (2),0.375,0.820,0.827,82.7,99.3\n",
        encoding="utf-8")
    assert cli.main(["report", str(rows)]) == 0
    out = capsys.readouterr().out
    assert "0.375 0.820 0.827 82.7 99.3" in out
    rep = metrics.MetricReport(rmse=0.375, pcc=0.820, src=0.827,
                               within_half=82.7, within_one=99.3, n=0)
    assert metrics.format_metric_row(rep) == "0.375 0.820 0.827 82.7 99.3"

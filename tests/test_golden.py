"""Byte-for-byte pins on the CLI's outputs for fixed synth inputs.

The digests were recorded with the per-row fusion code and the per-row
CSV reader, join and aggregation; any change to a synthetic input, a
calibrated weight, a fused or overall score, a printed metric (the
``--out`` JSON holds them at full precision) or a line of the calibrate
table shows up here. "noisy" puts mllm scores both below 0.0 and above
6.0; "sparse" is small enough to leave bins empty, so calibration takes
the global fallback weight. The ``synth --features`` pins cover both feature
files at the default and at a second size and seed. The ``train-head`` pins,
one per ``--mode``, cover the printed epoch lines, the ``--history`` log and
every trained parameter at full precision.
"""

import hashlib
import json

import pytest

from slascore import cli

CASES = {
    "noisy": (["--n-speakers", "60", "--noise", "1.5", "--seed", "3"], {
        "calib.json": "2c9d93347610b165739cba13c6f848376838ff9ab114015d9415e85d1a981ecf",
        "calibrate.stdout": "657bbba159ac66a96c0e4995701e4a533fb93290e06010258a3288aa66415c52",
        "fused.csv": "d4a0b88f3d792912359daa6a380e21503d8b43444d96d21b54b77eb723c02217",
        "fused_clamp.csv": "1f5412b7693ee9f338f6829d0d290c821049c35a3d056668657b2218a41215bb",
        "overall.csv": "d859b3ff36b0e8c5503edd318f8610e69a3506908562640075c2d4f806fc1506",
        "overall_clamp.csv": "ca86d9072204b764d3bd335a98be2030731342ec6152db5ea7e06ff3cfd9cdfd",
        "w2v.csv": "cbb43d703da484eba8c049c09014f372618d7033319299c2b8e8e933e24d22a5",
        "mllm.csv": "fb5af1e34bbd499991497d93d3bb6fced1a85088b55b357ff8097feba35bd875",
        "refs.csv": "d0d17c10523fe25226c4a71bd517f110d89d0131a314a91bd87f3d3f5d71ccd3",
        "evaluate.stdout": "29d8a7d25c2d9f189338590d4ebad0fb8d8fe7f60d7f2f2b32153a68bfb87c65",
        "evaluate_csv.stdout": "2f824ea4680f250a9699b5666d217f4f77ec4e6ad00c7cbfbbc1edb132bc9f3e",
        "metrics.json": "64542de8a189786454d68a688974adcda661fdecf96b9ec07db323ddd70975e6",
        "evaluate_overall.stdout":
            "e01813c542ee6c97d2e69a9eaba5b9fc21d69d752516a6c17395a5193cc0bf82",
    }),
    "sparse": (["--n-speakers", "2", "--seed", "0"], {
        "calib.json": "5bc5cd4d19a7b265866bbad287fba0536409884e8958cf9f20df380d39f9fb1d",
        "calibrate.stdout": "16729d6336dbd8d88b5b7522b86ba1f63a142d40cab499b4529761f368f07580",
        "fused.csv": "79d18a255b8df66bf08d91c0051a8b5999088d23257dc024d8202140244a62b6",
        "fused_clamp.csv": "25eea8e868812a99ef02d8aafdb9e1760aa0cea70fd82c429cad3ce2eb82a375",
        "overall.csv": "3d0719e7d4e79c597ef7bc63374c93c2935461407c0c29bf96261c779dee6a65",
        "overall_clamp.csv": "ca85fe2de431f226d60293baf267c21bdbaedc27bf14d837e6e09a7d2c62871c",
        "w2v.csv": "2627fb8082e1a517305941070cdc92b870b632fe9f165d732df6a50cf832e71c",
        "mllm.csv": "c9ca8f00d57a8a0247ffb20ebd8b95ee60462c17edd69dea0de5263c9dd60539",
        "refs.csv": "325cdb4d52ee8b4803d8f7190d302487748419f3c6c45f3db2ddd53f19d7bb81",
        "evaluate.stdout": "b3f9490ba60a7f8f2a5c24e00c02cfbce8eb59fab4c50791184703aa39c36ace",
        "evaluate_csv.stdout": "11426a4c30cae8d757c0d8b8671388319ccf00ce98b35c2730e4ea78212570b9",
        "metrics.json": "ee74e6c9c7d22876df6ed60fa7b8b8bda941423d8b4ced08f34dc4375e0dcc38",
        "evaluate_overall.stdout":
            "e19265adde4ec1c0569a3135ef3c945c6aab35ede0f6199a1ca423614464bc7b",
    }),
}


def run(capsys, *argv) -> str:
    assert cli.main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def pipeline_outputs(tmp_path, capsys, synth_args) -> dict[str, bytes]:
    """synth, calibrate, fuse with and without --clamp, aggregate each,
    evaluate the fused and the overall scores."""
    d = tmp_path / "data"
    run(capsys, "synth", *synth_args, "--out-dir", d)
    w2v, mllm, refs = d / "w2v.csv", d / "mllm.csv", d / "refs.csv"
    out = {"calibrate.stdout": run(capsys, "calibrate", w2v, mllm, refs,
                                   "--out", tmp_path / "calib.json").encode()}
    for suffix, flags in (("", []), ("_clamp", ["--clamp"])):
        fused, overall = tmp_path / f"fused{suffix}.csv", tmp_path / f"overall{suffix}.csv"
        run(capsys, "fuse", w2v, mllm, tmp_path / "calib.json", *flags, "--out", fused)
        run(capsys, "aggregate", fused, "--out", overall)
    fused = tmp_path / "fused.csv"
    out["evaluate.stdout"] = run(capsys, "evaluate", fused, refs, "--out",
                                 tmp_path / "metrics.json").encode()
    out["evaluate_csv.stdout"] = run(capsys, "evaluate", fused, refs,
                                     "--format", "csv").encode()
    run(capsys, "aggregate", refs, "--out", tmp_path / "refs_overall.csv")
    out["evaluate_overall.stdout"] = run(capsys, "evaluate", "--overall",
                                         tmp_path / "overall.csv",
                                         tmp_path / "refs_overall.csv").encode()
    for name in ("calib.json", "fused.csv", "fused_clamp.csv", "overall.csv",
                 "overall_clamp.csv", "metrics.json"):
        out[name] = (tmp_path / name).read_bytes()
    for name in ("w2v.csv", "mllm.csv", "refs.csv"):
        out[name] = (d / name).read_bytes()
    out["mllm"] = [float(line.split(",")[2]) for line in mllm.read_text().splitlines()[1:]]
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path, capsys):
    synth_args, want = CASES[case]
    out = pipeline_outputs(tmp_path, capsys, synth_args)
    mllm = out.pop("mllm")
    counts = json.loads(out["calib.json"])["per_bin_counts"]
    if case == "noisy":
        assert min(mllm) < 0.0 and max(mllm) > 6.0
    else:
        assert 0 in counts
    got = {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}
    assert got == want


FEATURE_CASES = {
    "default": ([], {
        "train_features.txt": "326302825f54fe3880a2632b54cabc01738b1efbb8124fad8ca60cd83bedaa55",
        "dev_features.txt": "7d2e162bd8c12ab58bafd0c421841d1199c207801e20ca50d058ae5dfa694b8b",
    }),
    "67-seed-5": (["--frames-per-class", "67", "--seed", "5"], {
        "train_features.txt": "77b798cb8e2ba64badde90ba59a8769f9b97fde61435525a02e92df368ad537f",
        "dev_features.txt": "d22cb7e3d63cfbbf0fc1fabcaf4fffdfcace048d5b540e72a4f753d041bad400",
    }),
}


@pytest.mark.parametrize("case", sorted(FEATURE_CASES))
def test_golden_synth_features(case, tmp_path, capsys):
    flags, want = FEATURE_CASES[case]
    run(capsys, "synth", "--n-speakers", "2", "--features", *flags, "--out-dir", tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want


HEAD_CASES = {
    "classification": {
        "train_head.stdout": "b7f3fa5f5d91a687cdf37fb82fc1203e3a25debcce43aa69d536543dc4adc94f",
        "history.log": "30090839c5cde3645af533f35bd33a0de7c0dbc7c2a143efc422ab70ace2a877",
        "params.json": "7313af383a61440da253e5d075ddd67f13022e3d308ed7590dfac874d108e618",
    },
    "regression": {
        "train_head.stdout": "7eb2d5a0880934dc3146e896cc8c5155503a422c121a2591675248418fbbca6c",
        "history.log": "d4e327d2ed2a49f39b3cdd32821dabf8ecb2205aad1d717cf72f4c5244f963bf",
        "params.json": "cb227c4b0da32e8d36389930646891131ad5f00079054e4f836ffb53adc04f3a",
    },
}


@pytest.mark.parametrize("mode", sorted(HEAD_CASES))
def test_golden_train_head(mode, tmp_path, capsys):
    d = tmp_path / "data"
    run(capsys, "synth", "--n-speakers", "2", "--features", "--out-dir", d)
    out = {"train_head.stdout": run(capsys, "train-head", d / "train_features.txt",
                                    d / "dev_features.txt", "--mode", mode, "--epochs", "3",
                                    "--learning-rate", "0.01", "--warmup-steps", "20",
                                    "--out", tmp_path / "params.json",
                                    "--history", tmp_path / "history.log").encode()}
    for name in ("params.json", "history.log"):
        out[name] = (tmp_path / name).read_bytes()
    got = {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}
    assert got == HEAD_CASES[mode]

"""Byte-for-byte pins on the CLI's outputs for two fixed synth inputs.

The digests were recorded with the per-row fusion code; any change to a
calibrated weight, a fused or overall score, or a line of the calibrate
table shows up here. "noisy" puts mllm scores both below 0.0 and above
6.0; "sparse" is small enough to leave bins empty, so calibration takes
the global fallback weight.
"""

import hashlib
import json

import pytest

from slascore import cli, fileio

CASES = {
    "noisy": (["--n-speakers", "60", "--noise", "1.5", "--seed", "3"], {
        "calib.json": "2c9d93347610b165739cba13c6f848376838ff9ab114015d9415e85d1a981ecf",
        "calibrate.stdout": "657bbba159ac66a96c0e4995701e4a533fb93290e06010258a3288aa66415c52",
        "fused.csv": "d4a0b88f3d792912359daa6a380e21503d8b43444d96d21b54b77eb723c02217",
        "fused_clamp.csv": "1f5412b7693ee9f338f6829d0d290c821049c35a3d056668657b2218a41215bb",
        "overall.csv": "d859b3ff36b0e8c5503edd318f8610e69a3506908562640075c2d4f806fc1506",
        "overall_clamp.csv": "ca86d9072204b764d3bd335a98be2030731342ec6152db5ea7e06ff3cfd9cdfd",
    }),
    "sparse": (["--n-speakers", "2", "--seed", "0"], {
        "calib.json": "5bc5cd4d19a7b265866bbad287fba0536409884e8958cf9f20df380d39f9fb1d",
        "calibrate.stdout": "16729d6336dbd8d88b5b7522b86ba1f63a142d40cab499b4529761f368f07580",
        "fused.csv": "79d18a255b8df66bf08d91c0051a8b5999088d23257dc024d8202140244a62b6",
        "fused_clamp.csv": "25eea8e868812a99ef02d8aafdb9e1760aa0cea70fd82c429cad3ce2eb82a375",
        "overall.csv": "3d0719e7d4e79c597ef7bc63374c93c2935461407c0c29bf96261c779dee6a65",
        "overall_clamp.csv": "ca85fe2de431f226d60293baf267c21bdbaedc27bf14d837e6e09a7d2c62871c",
    }),
}


def run(capsys, *argv) -> str:
    assert cli.main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def pipeline_outputs(tmp_path, capsys, synth_args) -> dict[str, bytes]:
    """synth, calibrate, fuse with and without --clamp, aggregate each."""
    d = tmp_path / "data"
    run(capsys, "synth", *synth_args, "--out-dir", d)
    w2v, mllm, refs = d / "w2v.csv", d / "mllm.csv", d / "refs.csv"
    out = {"calibrate.stdout": run(capsys, "calibrate", w2v, mllm, refs,
                                   "--out", tmp_path / "calib.json").encode()}
    for suffix, flags in (("", []), ("_clamp", ["--clamp"])):
        fused, overall = tmp_path / f"fused{suffix}.csv", tmp_path / f"overall{suffix}.csv"
        run(capsys, "fuse", w2v, mllm, tmp_path / "calib.json", *flags, "--out", fused)
        run(capsys, "aggregate", fused, "--out", overall)
    for name in ("calib.json", "fused.csv", "fused_clamp.csv", "overall.csv",
                 "overall_clamp.csv"):
        out[name] = (tmp_path / name).read_bytes()
    out["mllm"] = [r.score for r in fileio.read_predictions(mllm)]
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

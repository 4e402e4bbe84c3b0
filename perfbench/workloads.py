"""The two workloads: why each exists, its inputs, its commands and
the checks its outputs must pass.

Each workload is a closed loop with one client: one process runs the
workload's CLI commands in order, each starting only after the previous
one returned, and then starts the next pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracle

# Chance level of macro F1 for eight balanced classes.
CHANCE_F1 = 1.0 / 8
# How far a dev macro F1 may move from the one it is compared with: about
# one of the 160 dev sequences changing class, as a reordered float sum
# in the head can do.
F1_TOLERANCE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    # (rng, input dir, tiny) -> inputs; writes the input files and returns
    # their contents for the checks
    generate: Callable[[np.random.Generator, Path, bool], dict]
    # (input dir, output dir) -> [(command label, argv)]
    commands: Callable[[Path, Path], list[tuple[str, list[str]]]]
    # output files, relative to the output dir, whose bytes must repeat
    outputs: tuple[str, ...]
    # (inputs, output dir, stdout by command label) -> (failures, results)
    check: Callable[[dict, Path, dict], tuple[list[str], dict]]


def _table_row(stdout: str) -> str:
    lines = stdout.splitlines()
    return lines[1] if len(lines) > 1 else ""


# --- score_pipeline -------------------------------------------------------
# The paper's deployment path: calibrate on 25k dev rows, fuse 25k eval
# rows, evaluate, aggregate, evaluate --overall. fusion, core.join, the CSV
# writers and warning logging do most of their work here: 1.5% of each
# grader's predictions fall outside [0, 6]. The cost is linear in the rows
# (11 bin_index calls per dev row in calibrate); 25k rather than 100k rows
# give a pass of about 3 s, so one run holds over a dozen passes and reports
# their median. Its two evaluate commands also make it the workload where
# CSV parsing, validate_record and the metrics show.


def _score_inputs(rng, inp: Path, tiny: bool) -> dict:
    n_speakers = 50 if tiny else 6_250  # 4 parts each: 25k rows per split
    return {"dev": gen.score_split(rng, inp / "dev", "dev", n_speakers),
            "eval": gen.score_split(rng, inp / "eval", "eva", n_speakers)}


def _score_commands(inp: Path, out: Path):
    dev, ev = inp / "dev", inp / "eval"
    return [
        ("calibrate", ["calibrate", str(dev / "w2v.csv"), str(dev / "mllm.csv"),
                       str(dev / "refs.csv"), "--out", str(out / "calib.json")]),
        ("fuse", ["fuse", str(ev / "w2v.csv"), str(ev / "mllm.csv"), str(out / "calib.json"),
                  "--out", str(out / "fused.csv")]),
        ("evaluate", ["evaluate", str(out / "fused.csv"), str(ev / "refs.csv")]),
        ("aggregate", ["aggregate", str(out / "fused.csv"), "--out", str(out / "overall.csv")]),
        ("evaluate_overall", ["evaluate", "--overall", str(out / "overall.csv"),
                              str(ev / "refs_overall.csv")]),
    ]


def _same_rows(path: Path, sids, parts, scores) -> bool:
    """The file holds exactly these keys and, bit for bit, these scores."""
    got = oracle.read_scores(path)
    return (np.array_equal(got[0], sids) and np.array_equal(got[1], parts)
            and np.array_equal(got[2].view(np.int64), scores.view(np.int64)))


def _score_check(inputs: dict, out: Path, stdout: dict):
    fails = []
    dev, ev = inputs["dev"], inputs["eval"]
    doc = json.loads((out / "calib.json").read_text(encoding="utf-8"))
    weights, counts = oracle.grid_scan(dev["w2v"], dev["mllm"], dev["ref"], doc["grid_step"])
    if doc["weights"] != weights:
        fails.append(f"calibration weights {doc['weights']} != grid scan {weights}")
    if doc["per_bin_counts"] != counts:
        fails.append(f"per-bin counts {doc['per_bin_counts']} != {counts}")

    sids, parts, ref = ev["sids"], ev["parts"], ev["ref"]
    fused = oracle.fuse(ev["w2v"], ev["mllm"], doc["weights"])
    if not _same_rows(out / "fused.csv", sids, parts, fused):
        fails.append("fused.csv differs from (1 - w_k)*w2v + w_k*mllm")
    if _table_row(stdout["evaluate"]) != oracle.metric_row(fused, ref):
        fails.append(f"evaluate printed {_table_row(stdout['evaluate'])!r}, "
                     f"recomputed {oracle.metric_row(fused, ref)!r}")

    overall = oracle.aggregate(parts, fused)
    speakers = sids[::4]
    if not _same_rows(out / "overall.csv", speakers, np.full(speakers.size, "overall"), overall):
        fails.append("overall.csv differs from the per-speaker mean of fused parts")
    ref_overall = ev["ref_overall"]
    if _table_row(stdout["evaluate_overall"]) != oracle.metric_row(overall, ref_overall):
        fails.append(f"evaluate --overall printed {_table_row(stdout['evaluate_overall'])!r}, "
                     f"recomputed {oracle.metric_row(overall, ref_overall)!r}")
    return fails, {"eval_rmse": oracle.metric_values(fused, ref)["rmse"]}


# --- head_train -------------------------------------------------------------
# One train-head run on 8 levels, d = 32, 5 to 200 frames per sequence: the
# only workload where head and fileio.read_features work, and one where
# fusion, join and the CSV readers and writers do none, so a change to them
# should not move it. The wide spread of lengths shows wasted padding if the
# forward pass is ever batched.


def _head_inputs(rng, inp: Path, tiny: bool) -> dict:
    if tiny:
        return {"dev": gen.features(rng, inp, n_per_level=10, dim=8, t_min=5, t_max=20)}
    return {"dev": gen.features(rng, inp, n_per_level=40, dim=32, t_min=5, t_max=200)}


def _head_commands(inp: Path, out: Path):
    # Default epochs (30), batch size (16) and seed; the learning rate and
    # warm-up are the toy-scale ones the README gives, so training moves.
    return [("train_head", ["train-head", str(inp / "train_features.txt"),
                            str(inp / "dev_features.txt"), "--learning-rate", "0.01",
                            "--warmup-steps", "20", "--out", str(out / "params.json"),
                            "--history", str(out / "history.log")])]


def _head_check(inputs: dict, out: Path, stdout: dict):
    from slascore.fileio import read_head_params

    fails = []
    params = read_head_params(out / "params.json")
    dev = inputs["dev"]
    f1 = oracle.macro_f1([oracle.head_score(params, frames) for frames, _ in dev],
                         [label for _, label in dev])
    if not f1 > CHANCE_F1:
        fails.append(f"dev macro F1 of the saved parameters {f1} is not above chance")
    last = stdout["train_head"].splitlines()[-1]
    printed = float(last.rsplit("=", 1)[1])
    if abs(f1 - printed) > F1_TOLERANCE:
        fails.append(f"saved parameters give dev macro F1 {f1}, the run printed {printed}")
    return fails, {"dev_macro_f1": printed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="score_pipeline",
            generate=_score_inputs,
            commands=_score_commands,
            outputs=("calib.json", "fused.csv", "overall.csv"),
            check=_score_check,
        ),
        Workload(
            name="head_train",
            generate=_head_inputs,
            commands=_head_commands,
            outputs=("params.json", "history.log"),
            check=_head_check,
        ),
    )
}

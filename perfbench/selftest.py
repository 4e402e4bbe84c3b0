"""Self-test of the benchmark at tiny sizes; run it from the repository root:

    python3 perfbench/selftest.py

Each workload, traced and untraced, must give a correct result that
holds exactly the metrics BENCHMARK.json names, with their units. A
corrupted output per workload, and a best dev macro F1 printed lower
than the recorded one, must fail the checks and raise the failure share. A traced calibrate on 100k dev rows must count 1,100,000
bin_index and 200,000 fuse_one calls. Without package sources the
benchmark must exit non-zero and print no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _alter_fused_value(out: Path, last_pass: dict) -> None:
    path = out / "fused.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    sid, part, score = lines[-1].split(",")
    lines[-1] = f"{sid},{part},{float(score) + 0.25!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _alter_printed_rmse(out: Path, last_pass: dict) -> None:
    rec = next(r for r in last_pass["commands"] if r["name"] == "evaluate")
    header, row = rec["stdout"].splitlines()[:2]
    rmse, rest = row.split(" ", 1)
    rec["stdout"] = f"{header}\n{float(rmse) + 0.001:.3f} {rest}\n"


def _zero_head_output_layer(out: Path, last_pass: dict) -> None:
    path = out / "params.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["mlp_W"] = [[0.0] * len(row) for row in doc["mlp_W"]]
    doc["mlp_b"] = [0.0] * len(doc["mlp_b"])
    path.write_text(json.dumps(doc), encoding="utf-8")


def _lower_printed_f1(out: Path, last_pass: dict) -> None:
    rec = last_pass["commands"][0]
    *lines, last = rec["stdout"].splitlines()
    text, f1 = last.rsplit("=", 1)
    rec["stdout"] = "\n".join(lines + [f"{text}={float(f1) - 0.05!r}"]) + "\n"


CORRUPTIONS = (
    ("score_pipeline", _alter_fused_value),
    ("score_pipeline", _alter_printed_rmse),
    ("head_train", _zero_head_output_layer),
    ("head_train", _lower_printed_f1),
)


def tiny_run(workload: str, trace: int, corrupt=None) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                           "--trace", str(trace), "--tiny"])
    return run.run(args, Path.cwd().resolve(), corrupt)


def check_emitted(report: dict, declared: list[dict]) -> list[str]:
    problems = []
    if not (report["correct"] and report["failed"] == 0 and report["attempted"] >= 1):
        problems.append(f"not correct: {report['failed']} of {report['attempted']} failed")
    want = {d["name"]: d["unit"] for d in declared}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != want:
        problems.append(f"metrics or units differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for name, m in report["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"{name} is not a number: {m['value']!r}")
    return problems


def check_calibrate_counts(root: Path) -> list[str]:
    """Per-row calls of a traced calibrate on 100k dev rows."""
    work = root / ".perfbench_work" / "count"
    shutil.rmtree(work, ignore_errors=True)
    sys.path.insert(0, str(root / "src"))
    from slascore import cli

    tracer = Tracer()
    try:
        gen.score_split(np.random.default_rng(1), work, "dev", 25_000)
        undo = tracer.install()
        tracer.begin("calibrate")
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["calibrate", str(work / "w2v.csv"), str(work / "mllm.csv"),
                               str(work / "refs.csv"), "--out", str(work / "calib.json")])
        finally:
            undo()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    got = (rc, tracer.stats["fusion.bin_index"][0], tracer.stats["fusion.fuse_one"][0])
    return [] if got == (0, 1_100_000, 200_000) else [f"(exit, bin_index, fuse_one) = {got}"]


def check_bare_directory(root: Path) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = root / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "head_train",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"exit {proc.returncode} without package sources, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    root = Path.cwd().resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}" + "".join(f"\n  {p}" for p in problems))

    for name in sorted(run.WORKLOADS):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            report(f"{name} trace={trace} emits every {kind} metric",
                   check_emitted(tiny_run(name, trace)["report"], bench[kind]))
    for name, corrupt in CORRUPTIONS:
        bad = tiny_run(name, 0, corrupt)
        caught = not bad["report"]["correct"] and bad["report"]["failed"] > 0
        report(f"{name} {corrupt.__name__} is caught: {bad['fails']}",
               [] if caught else [f"corruption passed: {bad['report']}"])
    report("traced calibrate on 100k rows: 1,100,000 bin_index, 200,000 fuse_one calls",
           check_calibrate_counts(root))
    report("bare directory exits non-zero", check_bare_directory(root))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload score_pipeline --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed, times the import of
``slascore.cli`` in fresh interpreters (``setup_s``), runs the timed
loop in a fresh child process (``perfbench/worker.py``), checks every
output against the benchmark's own recomputation, and prints readable
lines followed by one JSON line. With ``--trace 0`` the JSON holds the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds
the per-layer ones (counts, and layer time as a share of the pass),
from a run that alternates untraced and traced passes. The readable
lines also give every layer time in seconds.

The inputs are one of ``REFERENCE_SEEDS`` input sets, number
``seed % REFERENCE_SEEDS``. ``perfbench/baseline.json`` records the
deterministic results of each set (``eval_rmse``, ``dev_macro_f1``), and
every run compares its results with them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

# One BLAS thread in this process and in the ones it starts: the load comes
# from one process on a few shared cores, where spare BLAS threads would
# measure the scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import TARGETS  # noqa: E402
from workloads import F1_TOLERANCE, WORKLOADS  # noqa: E402

# Import timings taken before and again after the timed loop, so that a
# slow or fast spell of a shared machine weighs on both halves alike.
SETUP_REPEATS = 8
# Input sets the seeds map to; baseline.json records the results of each.
REFERENCE_SEEDS = 32
BASELINE = HERE / "baseline.json"

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import slascore.cli\n"
    "print(repr(time.perf_counter() - t0), slascore.cli.__file__)\n"
)
GRID_POINTS = 101  # calibrate's default grid step of 0.01
COMMANDS = ("calibrate", "fuse", "evaluate", "aggregate", "evaluate_overall", "train_head")
COUNTERS = (
    "fileio.rows_read", "fileio.bytes_read", "fileio.rows_written", "fileio.bytes_written",
    "core.join.rows_out", "core.join.keys_dropped", "head.frames_forwarded",
    "log.warning_records", "log.warning_records.slascore.core",
    "log.warning_records.slascore.fusion",
)


# Printed with the metrics but not in BENCHMARK.json: deterministic
# results of the workload, and (bad exits + failed checks) / commands.
RESULT_UNITS = {"eval_rmse": "score", "dev_macro_f1": "ratio", "fail_ratio": "ratio"}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def _is_measured(name: str) -> bool:
    """Times and shares of time vary between passes; counts must not."""
    return _is_time(name) or name.endswith("pct")


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs[:1]:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas_threads": threads}


def source_hash(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(d)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(root: Path, env: dict, repeats: int) -> list[float]:
    """Fresh-interpreter import times of slascore.cli."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SetupError(f"import slascore.cli failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(root / "src"):
            raise SetupError(f"imported slascore from {path}, not from {root / 'src'}")
        times.append(float(seconds))
    return times


def run_worker(root: Path, env: dict, run_dir: Path, spec: dict) -> dict:
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    stderr_path = run_dir / "stderr.log"
    with open(stderr_path, "wb") as err:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=root, env=env, stdout=err, stderr=err,
                              timeout=spec["seconds"] + 120)
    if proc.returncode != 0:
        tail = stderr_path.read_bytes()[-4000:].decode(errors="replace")
        raise SetupError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def check_digest_registry(registry: Path, key: str, digest: str) -> list[str]:
    """Outputs of one seed must repeat across runs of the same sources."""
    known = json.loads(registry.read_text(encoding="utf-8")) if registry.exists() else {}
    if key in known:
        return [] if known[key] == digest else [f"outputs differ from an earlier run ({key})"]
    known[key] = digest
    tmp = registry.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, registry)
    return []


def reference_key(workload: str, seed: int, tiny: bool) -> str:
    return f"{workload} inputs={seed % REFERENCE_SEEDS} tiny={tiny}"


def check_reference(key: str, results: dict) -> list[str]:
    """Deterministic results must match the ones recorded for these inputs:
    eval_rmse exactly, dev_macro_f1 down to ``F1_TOLERANCE`` below."""
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))["reference"].get(key)
    if recorded is None:
        return [f"no recorded results for {key}"]
    fails = []
    for name, want in recorded.items():
        got = results.get(name)
        ok = got is not None and (got >= want - F1_TOLERANCE if name == "dev_macro_f1"
                                  else got == want)
        if not ok:
            fails.append(f"{name} {got!r} differs from the recorded {want!r} ({key})")
    return fails


def pass_layers(p: dict) -> dict:
    """Per-layer numbers of one traced pass, every name present."""
    m = defaultdict(float)
    for _, _, name, _ in TARGETS:
        for stat in ("calls", "s", "self_s"):
            m[f"{name}.{stat}"] = 0
    for name in COUNTERS:
        m[name] = 0
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = m[f"cli.{cmd}.self_s"] = 0.0
    for cmd in ("calibrate", "fuse"):
        m[f"fusion.bin_index.calls.{cmd}"] = m[f"fusion.fuse_one.calls.{cmd}"] = 0
        m[f"fusion.bin_index.calls_per_row.{cmd}"] = 0.0
    m["fusion.calibrate.grid_bytes_computed"] = 0

    for rec in p["commands"]:
        cmd, stats, counts = rec["name"], rec["trace"]["stats"], rec["trace"]["counts"]
        m[f"cli.{cmd}.s"] += stats["cli"][1]
        m[f"cli.{cmd}.self_s"] += stats["cli"][2]
        for name, (calls, total, self_s) in stats.items():
            if name != "cli":
                m[f"{name}.calls"] += calls
                m[f"{name}.s"] += total
                m[f"{name}.self_s"] += self_s
        for name, value in counts.items():
            m[name] += value
        rows = counts.get("core.join.rows_out", 0)
        if cmd in ("calibrate", "fuse"):
            calls = stats.get("fusion.bin_index", [0])[0]
            m[f"fusion.bin_index.calls.{cmd}"] = calls
            m[f"fusion.fuse_one.calls.{cmd}"] = stats.get("fusion.fuse_one", [0])[0]
            m[f"fusion.bin_index.calls_per_row.{cmd}"] = calls / rows if rows else 0.0
        if cmd == "calibrate":
            # computed, not measured: the fused and squared-error matrices
            m["fusion.calibrate.grid_bytes_computed"] = 2 * GRID_POINTS * rows * 8
    m["log.stderr_bytes"] = p["stderr_bytes"]
    m["cli.self_s"] = sum(m[f"cli.{cmd}.self_s"] for cmd in COMMANDS)
    # Shares of the traced pass: a layer a workload never calls reads 0 %,
    # where a time would read a constant 0 s.
    for name in [n for n in m if _is_time(n)]:
        m[name[:-1] + "pct"] = 100.0 * m[name] / p["s"]  # X.s -> X.pct, X.self_s -> X.self_pct
    return dict(m)


def summarize(passes: list[dict], setup: list[float], maxrss_kb: int) -> tuple[dict, list[str]]:
    """Every metric the benchmark knows, and failures of count repeatability."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    m = {
        "setup_s": _median(setup),
        "wall_s": _median([p["s"] for p in untraced]),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    for cmd in COMMANDS:
        m[f"{cmd}_s"] = _median([r["s"] for p in untraced for r in p["commands"]
                                 if r["name"] == cmd])
        m[f"{cmd}.pct"] = _median([100.0 * r["s"] / p["s"] for p in untraced
                                   for r in p["commands"] if r["name"] == cmd])
    fails = []
    if traced:
        layers = [pass_layers(p) for p in traced]
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if _is_measured(name):
                m[name] = _median(values)
            else:
                m[name] = values[0]
                if any(v != values[0] for v in values):
                    fails.append(f"traced count {name} differs between passes: {values}")
        m["trace.overhead_s"] = _median([p["s"] for p in traced]) - m["wall_s"]
    return m, fails


def run(args, root: Path, corrupt=None) -> dict:
    """One run; ``corrupt(out_dir, last_pass)``, if given, damages an output
    before the checks (the self-test uses it)."""
    wl = WORKLOADS[args.workload]
    src = root / "src"
    if not (src / "slascore" / "cli.py").is_file():
        raise SetupError(f"no slascore sources under {src}")
    sys.path.insert(0, str(src))  # the head check loads parameters through slascore.fileio
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    work = root / ".perfbench_work"
    # a fixed name: commands print their output paths, and stdout must repeat
    run_dir = work / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inp, out, warm_in, warm_out = (run_dir / d for d in ("in", "out", "warm_in", "warm_out"))
        for d in (out, warm_out):
            d.mkdir(parents=True)
        input_seed = args.seed % REFERENCE_SEEDS
        inputs = wl.generate(np.random.default_rng(input_seed), inp, args.tiny)
        wl.generate(np.random.default_rng([input_seed, 1]), warm_in, True)
        measure_setup(root, env, 1)  # may compile bytecode; not counted
        setup = measure_setup(root, env, SETUP_REPEATS)
        (work / "spans").mkdir(exist_ok=True)
        result = run_worker(root, env, run_dir, {
            "src": str(src),
            "warmup": wl.commands(warm_in, warm_out),
            "commands": wl.commands(inp, out),
            "outputs": [str(out / name) for name in wl.outputs],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans": str(work / "spans" / f"{wl.name}-{args.seed}.jsonl"),
            "result": str(run_dir / "result.json"),
        })
        setup += measure_setup(root, env, SETUP_REPEATS)
        if not Path(result["package"]).resolve().is_relative_to(src):
            raise SetupError(f"worker imported slascore from {result['package']}")
        passes = result["passes"]
        if corrupt:
            corrupt(out, passes[-1])
        stdout = {r["name"]: r["stdout"] for r in passes[-1]["commands"]}
        try:
            fails, results = wl.check(inputs, out, stdout)
        except Exception as exc:  # a missing or unreadable output fails the check
            fails, results = [f"output check raised {exc!r}"], {}
        fails += check_reference(reference_key(wl.name, args.seed, args.tiny), results)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if len({p["digest"] for p in passes}) != 1:
        fails.append("output files or stdout differ between passes")
    key = f"{wl.name} seed={args.seed} tiny={args.tiny} code={source_hash(src, HERE)}"
    fails += check_digest_registry(work / "digests.json", key, passes[0]["digest"])
    metrics, count_fails = summarize(passes, setup, result["maxrss_kb"])
    fails += count_fails
    attempted = sum(len(p["commands"]) for p in passes)
    bad_exits = sum(r["rc"] != 0 for p in passes for r in p["commands"])
    failed = min(attempted, bad_exits + len(fails))
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics not computed: {missing}")
    units = {d["name"]: d["unit"] for d in bench["end_to_end"] + bench["per_layer"]}
    return {
        "fails": fails, "results": results, "passes": passes, "machine": machine_info(),
        "all": metrics, "units": units | RESULT_UNITS,
        "report": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                        for d in declared},
        },
    }


def print_readable(args, out: dict) -> None:
    passes = out["passes"]
    n_untraced = sum(not p["traced"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes ({n_untraced} untraced), closed loop, one client")
    print("machine " + json.dumps(out["machine"], sort_keys=True))
    report = out["report"]
    shown = out["all"] | out["results"]
    shown["fail_ratio"] = report["failed"] / report["attempted"]
    for name, value in sorted(shown.items()):
        unit = out["units"].get(name) or ("s" if _is_time(name)
                                          else "%" if name.endswith("pct") else "count")
        print(f"  {name:<44} {value!r} {unit}")
    for fail in out["fails"]:
        print(f"FAILED CHECK: {fail}", file=sys.stderr)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = run(args, Path.cwd().resolve())
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_readable(args, out)
    print(json.dumps(out["report"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

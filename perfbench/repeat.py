"""Run the benchmark once per seed and report how much each metric spreads;
run it from the repository root:

    python3 perfbench/repeat.py --seeds 10 --trace 0 --out perfbench/baseline.json

For each workload of BENCHMARK.json, ``run.py`` runs once per seed
(1, 2, ...), one run at a time, for ``run_seconds`` of BENCHMARK.json.
Each metric is printed with its median, its quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them
as a share of the median, next to its bound. ``--out`` appends the
figures as one more set to the list under the key ``sets`` of a JSON
file; the sets measured before stay, so two sets can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import machine_info  # noqa: E402


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {d["name"]: d.get("bound") for d in declared}

    section = {"started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
               "trace": args.trace, "machine": machine_info(),
               "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    seeds = list(range(1, args.seeds + 1))
    for workload in [w["name"] for w in bench["workloads"]]:
        reports, elapsed = [], []
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            elapsed.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            reports.append(json.loads(proc.stdout.splitlines()[-1]))
            ok &= reports[-1]["correct"]
        if not reports:
            continue
        metrics = {name: spread([r["metrics"][name]["value"] for r in reports])
                   | {"unit": reports[0]["metrics"][name]["unit"]}
                   for name in reports[0]["metrics"]}
        section["workloads"][workload] = {
            "seeds": seeds, "elapsed_s": elapsed,
            "correct": all(r["correct"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "metrics": metrics,
        }
        print(f"{workload}: {len(reports)} runs, longest {max(elapsed):.1f} s, "
              f"all correct {section['workloads'][workload]['correct']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            print(f"  {name:<44} median {m['median']:<14.6g} quartiles {m['q1']:.6g}..{m['q3']:.6g}"
                  f"  spread {m['spread']:.3f}" + (f"  bound {bound}" if bound else ""))
    if args.out:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc.setdefault("sets", []).append(section)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

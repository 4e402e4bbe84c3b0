"""Record the deterministic results of every input set; run it from the
repository root:

    python3 perfbench/record.py

For each workload, each input set (0 .. REFERENCE_SEEDS - 1) and both
sizes (full and ``--tiny``), it runs the workload's commands once in this
process and checks the outputs as a benchmark run does. It stores the
results (``eval_rmse``, ``dev_macro_f1``) under the key ``reference`` of
``perfbench/baseline.json``, which every benchmark run compares with.
It records nothing if a command fails or an output fails its check.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BASELINE, REFERENCE_SEEDS, reference_key  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    from slascore import cli

    work = root / ".perfbench_work" / "record"
    reference = {}
    # warnings of the commands go nowhere; logging binds this stream once
    with open(os.devnull, "w") as null, contextlib.redirect_stderr(null):
        for wl in WORKLOADS.values():
            for tiny in (False, True):
                for seed in range(REFERENCE_SEEDS):
                    key = reference_key(wl.name, seed, tiny)
                    shutil.rmtree(work, ignore_errors=True)
                    inp, out = work / "in", work / "out"
                    out.mkdir(parents=True)
                    inputs = wl.generate(np.random.default_rng(seed), inp, tiny)
                    p = run_pass(cli, wl.commands(inp, out), [])
                    fails, results = wl.check(inputs, out,
                                              {r["name"]: r["stdout"] for r in p["commands"]})
                    fails += [f"{r['name']} exited {r['rc']}" for r in p["commands"] if r["rc"]]
                    if fails:
                        print(f"{key}: not recorded: {fails}")
                        return 1
                    reference[key] = results
                    print(f"{key}: {results}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    doc = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    doc["reference"] = reference
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

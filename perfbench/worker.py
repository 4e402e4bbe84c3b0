"""Timed closed loop of one workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the package source directory, the warm-up and timed command
lists, the seconds to measure, whether to trace, and where to write the
result. The parent points this process's stderr at one file per run,
so the stream that ``logging.basicConfig`` binds on the first
``cli.main`` call is already that file.

Each command is timed as one in-process ``slascore.cli.main(argv)``
call. Passes repeat until the next one would overrun the budget; a
traced run alternates untraced and traced passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

MAX_PASSES = 200


def _call(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes() if Path(path).exists() else b"<missing>")
    return h.hexdigest()


def run_pass(cli, commands, outputs, tracer=None) -> dict:
    """One pass over the commands; timing covers only the cli.main calls."""
    main = cli.main
    if tracer is not None:
        undo = tracer.install()
        main = tracer.wrap("cli", cli.main, hot=False)
    sys.stderr.flush()
    stderr_before = os.fstat(2).st_size
    records, stdout_sha = [], hashlib.sha256()
    try:
        for label, argv in commands:
            if tracer is not None:
                tracer.begin(label)
            t0 = time.perf_counter()
            rc, text = _call(main, argv)
            rec = {"name": label, "rc": rc, "s": time.perf_counter() - t0, "stdout": text}
            if tracer is not None:
                rec["trace"] = tracer.snapshot()
            records.append(rec)
            stdout_sha.update(text.encode())
    finally:
        if tracer is not None:
            undo()
    sys.stderr.flush()
    return {
        "traced": tracer is not None,
        "s": sum(r["s"] for r in records),
        "commands": records,
        "stderr_bytes": os.fstat(2).st_size - stderr_before,
        "digest": _digest(outputs) + stdout_sha.hexdigest(),
    }


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from slascore import cli  # import cost is measured on its own, as setup_s

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from tracer import Tracer

    tracer = Tracer() if spec["trace"] else None
    run_pass(cli, spec["warmup"], [])  # first calls and lazy imports, untimed
    passes = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cli, spec["commands"], spec["outputs"],
                               tracer if traced else None))
        next_traced = tracer is not None and len(passes) % 2 == 1
        like_next = [p["s"] for p in passes if p["traced"] == next_traced]
        estimate = like_next[-1] if like_next else passes[-1]["s"]
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + estimate > spec["seconds"]:
            break
    if tracer is not None:
        tracer.write_spans(spec["spans"])
    # only the last pass keeps its stdout; the checks read it
    for p in passes[:-1]:
        for rec in p["commands"]:
            del rec["stdout"]
    result = {
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": os.path.abspath(cli.__file__),
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])

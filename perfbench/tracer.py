"""Tracing from outside the program.

Each public function is wrapped at the name its callers look it up by
(``slascore.cli.join``, ``slascore.fileio.validate_record``,
``slascore.fusion.bin_index`` ...) and restored afterwards. Every call
adds to per-command count, total time and self time (total minus the
time of traced calls made inside it). Low-frequency calls also keep one
span each in memory; high-frequency ones are only aggregated.
"""

from __future__ import annotations

import importlib
import json
import logging
import os
import time
from collections import defaultdict

# (module, attribute, span name, high-frequency)
TARGETS = (
    ("slascore.fileio", "read_predictions", "fileio.read_predictions", False),
    ("slascore.fileio", "write_predictions", "fileio.write_predictions", False),
    ("slascore.fileio", "file_digest", "fileio.file_digest", False),
    ("slascore.fileio", "write_calibration", "fileio.write_calibration", False),
    ("slascore.fileio", "read_calibration", "fileio.read_calibration", False),
    ("slascore.fileio", "read_features", "fileio.read_features", False),
    ("slascore.fileio", "validate_record", "core.validate_record", True),
    ("slascore.cli", "join", "core.join", False),
    ("slascore.fusion", "bin_index", "fusion.bin_index", True),
    ("slascore.fusion", "fuse_one", "fusion.fuse_one", True),
    ("slascore.fusion", "calibrate", "fusion.calibrate", False),
    ("slascore.fusion", "fuse_dataset", "fusion.fuse_dataset", False),
    ("slascore.fusion", "aggregate_overall", "fusion.aggregate_overall", False),
    ("slascore.metrics", "full_report", "metrics.full_report", False),
    ("slascore.metrics", "average_ranks", "metrics.average_ranks", False),
    ("slascore.metrics", "rmse", "metrics.rmse", False),
    ("slascore.head", "init_parameters", "head.init_parameters", False),
    ("slascore.head", "train", "head.train", False),
    ("slascore.head", "forward", "head.forward", True),
    ("slascore.head", "backward", "head.backward", True),
    ("slascore.head", "predict_score", "head.predict_score", True),
)


def _count_read(counts, args, result):
    counts["fileio.rows_read"] += len(result)
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _count_write(counts, args, result):
    counts["fileio.rows_written"] += len(args[1])
    counts["fileio.bytes_written"] += os.path.getsize(args[0])


def _count_join(counts, args, result):
    counts["core.join.rows_out"] += len(result)
    counts["core.join.keys_dropped"] += len(args[0]) + len(args[1]) - 2 * len(result)


def _count_frames(counts, args, result):
    counts["head.frames_forwarded"] += args[0].frames.shape[0]


POST = {
    "fileio.read_predictions": _count_read,
    "fileio.write_predictions": _count_write,
    "core.join": _count_join,
    "head.forward": _count_frames,
}


class _LogCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.counts["log.warning_records"] += 1
        self.tracer.counts[f"log.warning_records.{record.name}"] += 1


class Tracer:
    """Aggregates calls per command; ``begin`` starts a new command."""

    def __init__(self):
        self.stack: list[list] = []  # [child time, span name] per open call
        self.spans: list[tuple] = []
        self.begin("")

    def begin(self, command: str) -> None:
        self.command = command
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)

    def wrap(self, name: str, fn, hot: bool):
        stack, clock, spans, post = self.stack, time.perf_counter, self.spans, POST.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else tracer.command
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if not hot:
                    spans.append((tracer.command, name, parent, t0, dt))
            if post is not None:
                post(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every target and attach the log counter; returns an undo."""
        originals = []
        for module_name, attr, name, hot in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, hot))
        # The package logger, not the root: basicConfig in cli.main only
        # installs its stderr handler while the root logger has none.
        handler = _LogCounter(self)
        pkg_logger = logging.getLogger("slascore")
        pkg_logger.addHandler(handler)

        def undo():
            pkg_logger.removeHandler(handler)
            for module, attr, fn in originals:
                setattr(module, attr, fn)

        return undo

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for command, name, parent, start, dur in self.spans:
                fh.write(json.dumps({"command": command, "name": name, "parent": parent,
                                     "start": start, "dur": dur}) + "\n")

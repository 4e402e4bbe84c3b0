"""Command-line surface: evaluate, calibrate, fuse, aggregate,
train-head, synth, report.

Exit codes: 0 success, 2 validation error, 3 I/O or parse error.
Arithmetic that overflows the float range is a validation error, so no
infinite or NaN result is written or printed.
Parsing, arithmetic and file writes live in the library (``fileio`` reads and
writes every file); the CLI only wires files to functions and prints.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import fileio, fusion, head, metrics, synth
from .core import Scores, join, pair_on_keys
from .errors import InvalidConfig, ParseError, SlaError
from .metrics import format_metric_row

EXIT_VALIDATION = 2
EXIT_IO = 3

TABLE_HEADER = "RMSE PCC SRC %<=0.5 %<=1.0"
FRAMES_PER_CLASS = 50  # synth's training sequences per level when --frames-per-class is unset


def _file_key(where: str) -> object:
    """What every name of the file at resolved path ``where`` shares: the device and
    inode of a file that exists (so a hard link is the file it links), else ``where``."""
    try:
        info = os.stat(where)
    except OSError:
        return where
    return info.st_dev, info.st_ino


def check_files(inputs: dict, outputs: dict) -> None:
    """Run by every writing command before it reads anything, on its files by the
    names the command line gives them: an output that is the same file as an input
    or as another output (by a link or another path) is an InvalidConfig, and one
    that is an existing directory, or whose parent directory is missing, the OSError
    its write would raise, so nothing is read or written."""
    named = {_file_key(os.path.realpath(path)): (name, path) for name, path in inputs.items()}
    for name, path in outputs.items():
        if path is None:
            continue
        if (key := _file_key(where := os.path.realpath(path))) in named:
            first, given = named[key]
            raise InvalidConfig(f"{first} and {name} both name {given}")
        if os.path.isdir(where):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        try:  # the parent as given is a directory (realpath drops a missing "gone/..")
            os.stat(os.path.join(os.path.dirname(path), "."))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        named[key] = (name, path)


def cmd_evaluate(args) -> int:
    check_files({"predictions": args.predictions, "references": args.references},
                {"--out": args.out})
    kinds = ("overall", "overall") if args.overall else ("prediction", "reference")
    pred, ref = map(fileio.read_predictions, (args.predictions, args.references), kinds)
    p, r = pair_on_keys(pred, ref)
    report = metrics.full_report(p, r)
    if args.out:  # written before anything is printed, so a failed write prints nothing
        fileio.write_json(args.out, asdict(report))
    if args.format == "csv":
        print("rmse,pcc,src,within_half,within_one,n")
        print(f"{format_metric_row(report, ',')},{report.n}")
    else:
        print(TABLE_HEADER)
        print(format_metric_row(report))
    return 0


def cmd_calibrate(args) -> int:
    check_files({"w2v": args.w2v, "mllm": args.mllm, "references": args.references},
                {"--out": args.out})
    w2v = fileio.read_predictions(args.w2v, "prediction")
    mllm = fileio.read_predictions(args.mllm, "prediction")
    refs = fileio.read_predictions(args.references, "reference")
    dev = join(w2v, mllm, refs)
    calib = fusion.calibrate(dev)
    provenance = {
        "w2v_digest": fileio.file_digest(args.w2v),
        "mllm_digest": fileio.file_digest(args.mllm),
        "ref_digest": fileio.file_digest(args.references),
        "grid_step": fusion.GRID_STEP,
    }
    fileio.write_calibration(args.out, calib, provenance)
    print(f"{'bin':>3} {'interval':>14} {'count':>6} {'w':>6} {'bin_rmse':>9}")
    edges = fusion.DEFAULT_EDGES
    for k in range(fusion.N_BINS):
        bin_rmse = f"{'-':>9}" if calib.per_bin_counts[k] == 0 else f"{calib.per_bin_rmse[k]:9.4f}"
        close = "]" if k == fusion.N_BINS - 1 else ")"
        interval = f"[{edges[k]:.2f}-{edges[k + 1]:.2f}{close}"
        print(f"{k:>3} {interval:>14} {calib.per_bin_counts[k]:>6} "
              f"{calib.weights[k]:>6.2f} {bin_rmse}")
    print(f"dev RMSE: {calib.dev_rmse:.6f}")
    return 0


def cmd_fuse(args) -> int:
    check_files({"w2v": args.w2v, "mllm": args.mllm, "calibration": args.calibration},
                {"--out": args.out})
    calib, _ = fileio.read_calibration(args.calibration)
    w2v = fileio.read_predictions(args.w2v, "prediction")
    mllm = fileio.read_predictions(args.mllm, "prediction")
    data = join(w2v, mllm)
    fused = fusion.fuse_dataset(data, calib, clamp=args.clamp)
    fileio.write_predictions(args.out, fused)
    print(f"wrote {len(fused)} fused scores to {args.out}")
    return 0


def cmd_aggregate(args) -> int:
    check_files({"predictions": args.predictions}, {"--out": args.out})
    pred = fileio.read_predictions(args.predictions, "prediction")
    overall = fusion.aggregate_overall(pred)
    fileio.write_predictions(args.out, overall)
    print(f"wrote {len(overall)} overall scores to {args.out}")
    return 0


def cmd_train_head(args) -> int:
    check_files({"train_features": args.train_features, "dev_features": args.dev_features},
                {"--out": args.out, "--history": args.history})
    config = head.TrainConfig(**{f.name: getattr(args, f.name) for f in fields(head.TrainConfig)})
    train_data = fileio.read_features(args.train_features)
    dev_data = fileio.read_features(args.dev_features)
    params, history = head.train(train_data, dev_data, config)
    fileio.write_head_params(args.out, params)
    log = "".join(f"epoch={h['epoch']} train_loss={h['train_loss']!r} "
                  f"dev_macro_f1={h['dev_macro_f1']!r}\n" for h in history)
    if args.history:
        fileio.write_text(args.history, log)
    print(log, end="")
    best = max(history, key=lambda h: h["dev_macro_f1"])
    print(f"best epoch {best['epoch']} dev_macro_f1={best['dev_macro_f1']!r}")
    return 0


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    features = ("train_features.txt", "dev_features.txt") if args.features else ()
    top = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
    if not top.is_dir():  # fail as the mkdir below would, before any draw
        if top == out_dir or not top.exists():  # a file at out_dir, or a dangling link
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(top))
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out_dir))
    if top == out_dir:  # else out_dir is made below and holds no output yet
        check_files({}, {name: out_dir / name for name in ("w2v.csv", "mllm.csv", "refs.csv",
                                                           *features)})
    if args.preset == "heteroscedastic":
        if args.noise is not None:  # the preset sets its own sigma per level
            raise InvalidConfig("--noise applies to the uniform preset only")
        cfg = synth.heteroscedastic_config(args.n_speakers, args.seed)
    else:
        noise = {} if args.noise is None else dict.fromkeys(
            ("w2v_noise", "mllm_noise"), (args.noise,) * synth.N_LEVELS)
        cfg = synth.SynthConfig(n_speakers=args.n_speakers, seed=args.seed, **noise)
    if args.features:  # checked and drawn (each split on its own seed) before any score
        per_class = FRAMES_PER_CLASS if args.frames_per_class is None else args.frames_per_class
        frames = synth.generate_frames(per_class, seed=args.seed)
        dev_frames = synth.generate_frames(max(1, per_class // 2), seed=args.seed + 1)
    elif args.frames_per_class is not None:
        raise InvalidConfig("--frames-per-class applies with --features only")
    data = synth.generate_scores(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, column in (("w2v", data.w2v), ("mllm", data.mllm), ("refs", data.reference)):
        fileio.write_predictions(out_dir / f"{name}.csv",
                                 Scores(data.speaker_id, data.part, column))
    if args.features:
        fileio.write_features(out_dir / "train_features.txt", frames)
        fileio.write_features(out_dir / "dev_features.txt", dev_frames)
    print(f"wrote {len(data)} rows per file to {out_dir} (w2v.csv, mllm.csv, refs.csv)")
    if args.features:
        print(f"wrote {len(frames)} train / {len(dev_frames)} dev feature sequences")
    return 0


def cmd_report(args) -> int:
    """Render precomputed leaderboard rows (name,rmse,pcc,src,within_half,within_one)."""
    rows = fileio.read_leaderboard(args.rows)
    print(f"{'Model':<20} {TABLE_HEADER}")
    for name, report in rows:
        print(f"{name:<20} {format_metric_row(report)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, its faults left to ``main``'s handlers (subparsers are of this
    class too): a usage error is one InvalidConfig line, and a failed ``--help`` write
    the OSError that argparse's own printing would swallow."""

    def error(self, message):
        raise InvalidConfig(message)

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slascore",
        description="Two-grader spoken language assessment scoring pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score a prediction file against references")
    p.add_argument("predictions")
    p.add_argument("references")
    p.add_argument("--out", help="also write metrics as JSON")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--overall", action="store_true", help="score two overall files")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calibrate", help="grid-search per-interval fusion weights")
    p.add_argument("w2v")
    p.add_argument("mllm")
    p.add_argument("references")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fuse", help="apply a fixed calibration to two prediction files")
    p.add_argument("w2v")
    p.add_argument("mllm")
    p.add_argument("calibration")
    p.add_argument("--clamp", action="store_true", help="clip fused scores to [2.0, 5.5]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("aggregate", help="average the four part scores per speaker")
    p.add_argument("predictions")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("train-head", help="train the toy grader head on feature files")
    p.add_argument("train_features")
    p.add_argument("dev_features")
    types = typing.get_type_hints(head.TrainConfig)
    for f in fields(head.TrainConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=types[f.name], default=f.default,
                       choices=head.MODES if f.name == "mode" else None)
    p.add_argument("--out", required=True, help="best parameters (JSON)")
    p.add_argument("--history", help="per-epoch training log")
    p.set_defaults(func=cmd_train_head)

    synth_defaults = synth.SynthConfig()
    p = sub.add_parser("synth", help="generate synthetic prediction/feature files")
    p.add_argument("--n-speakers", type=int, default=synth_defaults.n_speakers)
    p.add_argument("--seed", type=int, default=synth_defaults.seed)
    p.add_argument("--preset", choices=("uniform", "heteroscedastic"), default="uniform")
    p.add_argument("--noise", type=float,
                   help=f"per-level sigma of the uniform preset (default "
                        f"{synth_defaults.w2v_noise[0]})")
    p.add_argument("--features", action="store_true", help="also write feature files")
    p.add_argument("--frames-per-class", type=int,
                   help=f"training sequences per level with --features (default "
                        f"{FRAMES_PER_CLASS}); dev gets half that, at least 1")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="render precomputed leaderboard rows")
    p.add_argument("rows", help=f"CSV: {fileio.LEADERBOARD_HEADER}")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="warning: %(message)s", level=logging.WARNING)
    if hasattr(sys.stdout, "reconfigure"):  # None, or a caller's StringIO, has none
        sys.stdout.reconfigure(errors="backslashreplace")  # as stderr: caf\xe9, no traceback
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help: what it printed is flushed below
            code = exc.code
        else:
            with np.errstate(over="raise", invalid="raise"):
                code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed stdout fails here, under the handlers, not at exit
        return code
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError) and exc.filename is None:  # stdout, not a file
            # what stdout still holds goes nowhere, so exit flushes nothing into the pipe
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_IO
    except SlaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: values beyond the float range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: evaluate, calibrate, fuse, aggregate,
train-head, synth, report.

Exit codes: 0 success, 2 validation error, 3 I/O or parse error.
Arithmetic that overflows the float range is a validation error, so no
infinite or NaN result is written or printed.
All parsing and arithmetic happen in the library (``fileio`` reads every
input file); the CLI only wires files to functions and prints results.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fileio, fusion, head, metrics, synth
from .core import Scores, join, match_keys
from .errors import EmptyJoin, MissingReference, ParseError, SlaError
from .metrics import format_metric_row

EXIT_VALIDATION = 2
EXIT_IO = 3

TABLE_HEADER = "RMSE PCC SRC %<=0.5 %<=1.0"

log = logging.getLogger(__name__)


def _pair_on_keys(pred, ref):
    """Match prediction and reference scores on (speaker, part), in
    prediction-file order.

    Every prediction needs a reference; references without a prediction
    are dropped with one warning giving their count.
    """
    at = match_keys(pred, ref, "reference")
    missing = np.flatnonzero(at < 0)
    if len(missing) == len(pred):
        raise EmptyJoin("no shared (speaker, part) keys between predictions and references")
    if len(missing):
        first = pred.take(missing[:3])
        raise MissingReference(f"{len(missing)} prediction key(s) without a reference, "
                               f"first {list(zip(first.speaker_id, first.part.tolist()))}")
    if len(ref) > len(pred):  # each file holds every key once
        log.warning("%d reference key(s) without a prediction dropped", len(ref) - len(pred))
    return pred.score, ref.score[at]


def cmd_evaluate(args) -> int:
    allow_overall = args.overall
    pred = fileio.read_predictions(args.predictions, "prediction", allow_overall)
    ref = fileio.read_predictions(args.references,
                                  "prediction" if allow_overall else "reference", allow_overall)
    p, r = _pair_on_keys(pred, ref)
    report = metrics.full_report(p, r)
    if args.format == "csv":
        print("rmse,pcc,src,within_half,within_one,n")
        print(f"{report.rmse:.3f},{report.pcc:.3f},{report.src:.3f},"
              f"{report.within_half:.1f},{report.within_one:.1f},{report.n}")
    else:
        print(TABLE_HEADER)
        print(format_metric_row(report))
    if args.out:
        Path(args.out).write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


def cmd_calibrate(args) -> int:
    w2v = fileio.read_predictions(args.w2v, "prediction")
    mllm = fileio.read_predictions(args.mllm, "prediction")
    refs = fileio.read_predictions(args.references, "reference")
    dev = join(w2v, mllm, refs)
    calib = fusion.calibrate(dev, grid_step=args.grid_step)
    provenance = {
        "w2v_digest": fileio.file_digest(args.w2v),
        "mllm_digest": fileio.file_digest(args.mllm),
        "ref_digest": fileio.file_digest(args.references),
        "grid_step": args.grid_step,
    }
    fileio.write_calibration(args.out, calib, provenance)
    print(f"{'bin':>3} {'interval':>14} {'count':>6} {'w':>6} {'bin_rmse':>9}")
    edges = calib.layout.edges
    for k in range(fusion.N_BINS):
        bin_rmse = f"{'-':>9}" if calib.per_bin_counts[k] == 0 else f"{calib.per_bin_rmse[k]:9.4f}"
        close = "]" if k == fusion.N_BINS - 1 else ")"
        interval = f"[{edges[k]:.2f}-{edges[k + 1]:.2f}{close}"
        print(f"{k:>3} {interval:>14} {calib.per_bin_counts[k]:>6} "
              f"{calib.weights[k]:>6.2f} {bin_rmse}")
    print(f"dev RMSE: {calib.dev_rmse:.6f}")
    return 0


def cmd_fuse(args) -> int:
    w2v = fileio.read_predictions(args.w2v, "prediction")
    mllm = fileio.read_predictions(args.mllm, "prediction")
    calib, _ = fileio.read_calibration(args.calibration)
    data = join(w2v, mllm)
    fused = fusion.fuse_dataset(data, calib, clamp=args.clamp)
    fileio.write_predictions(args.out, fused)
    print(f"wrote {len(fused)} fused scores to {args.out}")
    return 0


def cmd_aggregate(args) -> int:
    pred = fileio.read_predictions(args.predictions, "prediction")
    overall = fusion.aggregate_overall(pred)
    fileio.write_predictions(args.out, overall)
    print(f"wrote {len(overall)} overall scores to {args.out}")
    return 0


def cmd_train_head(args) -> int:
    config = head.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        warmup_steps=args.warmup_steps,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        seed=args.seed,
        mode=args.mode,
    )
    train_data = fileio.read_features(args.train_features)
    dev_data = fileio.read_features(args.dev_features)
    params, history = head.train(train_data, dev_data, config)
    fileio.write_head_params(args.out, params)
    log_lines = [
        f"epoch={h['epoch']} train_loss={h['train_loss']!r} dev_macro_f1={h['dev_macro_f1']!r}"
        for h in history
    ]
    if args.history:
        Path(args.history).write_text("\n".join(log_lines) + "\n",
                                      encoding="utf-8", newline="\n")
    for line in log_lines:
        print(line)
    best = max(history, key=lambda h: h["dev_macro_f1"])
    print(f"best epoch {best['epoch']} dev_macro_f1={best['dev_macro_f1']!r}")
    return 0


def cmd_synth(args) -> int:
    if args.preset == "heteroscedastic":
        cfg = synth.heteroscedastic_config(args.n_speakers, args.seed)
    else:
        cfg = synth.SynthConfig(n_speakers=args.n_speakers, seed=args.seed,
                                w2v_noise=(args.noise,) * fusion.N_BINS,
                                mllm_noise=(args.noise,) * fusion.N_BINS)
    data = synth.generate_scores(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, column in (("w2v", data.w2v), ("mllm", data.mllm), ("refs", data.reference)):
        fileio.write_predictions(out_dir / f"{name}.csv",
                                 Scores(data.speaker_id, data.part, column))
    print(f"wrote {len(data)} rows per file to {out_dir} (w2v.csv, mllm.csv, refs.csv)")

    if args.features:
        levels = [2.5, 3.5, 4.5]
        frames = synth.generate_frames(args.frames_per_class, levels, args.feature_dim,
                                       args.separation, seed=args.seed)
        dev_frames = synth.generate_frames(max(1, args.frames_per_class // 2), levels,
                                           args.feature_dim, args.separation,
                                           seed=args.seed + 1)
        fileio.write_features(out_dir / "train_features.txt", frames)
        fileio.write_features(out_dir / "dev_features.txt", dev_frames)
        print(f"wrote {len(frames)} train / {len(dev_frames)} dev feature sequences")
    return 0


def cmd_report(args) -> int:
    """Render precomputed leaderboard rows (name,rmse,pcc,src,within_half,within_one)."""
    rows = fileio.read_leaderboard(args.rows)
    print(f"{'Model':<20} {TABLE_HEADER}")
    for name, report in rows:
        print(f"{name:<20} {format_metric_row(report)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slascore",
        description="Two-grader spoken language assessment scoring pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score a prediction file against references")
    p.add_argument("predictions")
    p.add_argument("references")
    p.add_argument("--out", help="also write metrics as JSON")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--overall", action="store_true",
                   help="inputs hold per-speaker overall rows")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calibrate", help="grid-search per-interval fusion weights")
    p.add_argument("w2v")
    p.add_argument("mllm")
    p.add_argument("references")
    p.add_argument("--grid-step", type=float, default=0.01)
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
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--learning-rate", type=float, default=1e-4)
    p.add_argument("--warmup-steps", type=int, default=600)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=(head.REGRESSION, head.CLASSIFICATION),
                   default=head.CLASSIFICATION)
    p.add_argument("--out", required=True, help="best parameters (JSON)")
    p.add_argument("--history", help="per-epoch training log")
    p.set_defaults(func=cmd_train_head)

    p = sub.add_parser("synth", help="generate synthetic prediction/feature files")
    p.add_argument("--n-speakers", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("uniform", "heteroscedastic"), default="uniform")
    p.add_argument("--noise", type=float, default=0.3,
                   help="per-bin sigma for the uniform preset")
    p.add_argument("--features", action="store_true", help="also write feature files")
    p.add_argument("--frames-per-class", type=int, default=50)
    p.add_argument("--feature-dim", type=int, default=8)
    p.add_argument("--separation", type=float, default=8.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="render precomputed leaderboard rows")
    p.add_argument("rows", help=f"CSV: {fileio.LEADERBOARD_HEADER}")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="warning: %(message)s", level=logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SlaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: values beyond the float range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

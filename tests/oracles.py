"""Independent second transcriptions of the metric formulas and
brute-force helpers, used only as test oracles.

The metric oracles deliberately avoid sharing code with slascore.metrics:
different formulations (np.corrcoef, explicit confusion counts,
loop-based ranking) of the same definitions. The calibration oracle
takes plain score sequences; the separability oracle works on the
library's own frame sequences.
"""

import math

import numpy as np

from slascore.errors import InvalidConfig, NoReferences, ValidationError
from slascore.head import FrameSequence
from slascore.metrics import macro_f1


def rmse_oracle(pred, ref):
    total = 0.0
    for p, r in zip(pred, ref, strict=True):
        total += (p - r) ** 2
    return math.sqrt(total / len(pred))


def pearson_oracle(pred, ref):
    return float(np.corrcoef(pred, ref)[0, 1])


def ranks_oracle(values):
    """Average ranks via explicit tie groups over sorted copies."""
    v = list(values)
    first: dict[float, int] = {}
    count: dict[float, int] = {}
    for pos, x in enumerate(sorted(v), start=1):
        first.setdefault(x, pos)
        count[x] = count.get(x, 0) + 1
    return [first[x] + (count[x] - 1) / 2.0 for x in v]


def spearman_oracle(pred, ref):
    return float(np.corrcoef(ranks_oracle(pred), ranks_oracle(ref))[0, 1])


def within_oracle(pred, ref, tol):
    hits = sum(1 for p, r in zip(pred, ref, strict=True) if abs(p - r) <= tol)
    return 100.0 * hits / len(pred)


_LEVELS = [2.0 + 0.5 * i for i in range(8)]


def snap_oracle(x):
    """Nearest 0.5 level in [2.0, 5.5]; exact ties prefer the larger level."""
    best = _LEVELS[0]
    for lvl in _LEVELS:
        if abs(x - lvl) <= abs(x - best):
            best = lvl
    return best


def macro_f1_oracle(pred, ref):
    ps = [snap_oracle(p) for p in pred]
    classes = sorted(set(ps) | set(ref))
    f1s = []
    for c in classes:
        tp = sum(1 for p, r in zip(ps, ref) if p == c and r == c)
        fp = sum(1 for p, r in zip(ps, ref) if p == c and r != c)
        fn = sum(1 for p, r in zip(ps, ref) if p != c and r == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(f1s) / len(f1s)


class EmptyBin(ValidationError):
    pass


def brute_force_bin_weight(
    w2v,
    mllm,
    ref,
    grid_step: float = 0.01,
) -> tuple[float, float]:
    """Exhaustively scan the weight grid over one bin's rows, given as
    three score sequences (``ref`` None when the rows carry no references).

    Independent oracle for the calibrated per-bin weight; returns the
    first (smallest-w) minimizer and its RMSE.
    """
    if not len(w2v):
        raise EmptyBin("no rows in bin")
    if ref is None:
        raise NoReferences("bin rows must carry references")
    rows = list(zip(map(float, w2v), map(float, mllm), map(float, ref), strict=True))
    n = round(1.0 / grid_step)
    if abs(n * grid_step - 1.0) > 1e-9:
        raise InvalidConfig(f"grid_step {grid_step} does not divide 1 evenly")
    best_w, best_rmse = 0.0, float("inf")
    for i in range(n + 1):
        w = i * grid_step
        sse = 0.0
        for r_w2v, r_mllm, r_ref in rows:
            err = (1.0 - w) * r_w2v + w * r_mllm - r_ref
            sse += err * err
        rm = (sse / len(rows)) ** 0.5
        if rm < best_rmse:
            best_w, best_rmse = w, rm
    return best_w, best_rmse


def nearest_class_mean_f1(
    train: list[FrameSequence],
    dev: list[FrameSequence],
) -> float:
    """Macro F1 of a nearest-class-mean classifier over frame-averaged
    vectors; confirms (or refutes) separability of generated features."""
    if not train or not dev:
        raise InvalidConfig("train and dev must be nonempty")
    sums: dict[float, np.ndarray] = {}
    counts: dict[float, int] = {}
    for seq in train:
        vec = seq.frames.mean(axis=0)
        sums[seq.label] = sums.get(seq.label, 0.0) + vec
        counts[seq.label] = counts.get(seq.label, 0) + 1
    levels = sorted(sums)
    means = np.stack([sums[lvl] / counts[lvl] for lvl in levels])
    preds = []
    for seq in dev:
        vec = seq.frames.mean(axis=0)
        preds.append(levels[int(np.argmin(np.linalg.norm(means - vec, axis=1)))])
    return macro_f1(preds, [seq.label for seq in dev])

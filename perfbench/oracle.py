"""Independent numpy recomputation of every output the workloads check.

Nothing here imports ``slascore``; the CSV parser, the grid scan, the
fuse, the aggregation, the evaluate metrics and the head's forward pass
are the benchmark's own.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from gen import CSV_HEADER

EDGES = np.array([0.0, 2.25, 2.75, 3.25, 3.75, 4.25, 4.75, 5.25, 6.0])
N_BINS = 8


def read_scores(path: Path):
    """(speaker ids, parts, scores) sorted by (speaker, part), as the join sorts."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: bad header")
    sids, parts, scores = zip(*(line.split(",") for line in lines[1:]))
    sids, parts = np.array(sids), np.array(parts)
    scores = np.fromiter(map(float, scores), dtype=np.float64, count=len(sids))
    order = np.lexsort((parts, sids))
    return sids[order], parts[order], scores[order]


def bins_of(mllm: np.ndarray) -> np.ndarray:
    """Interval index; out-of-range scores go to the end bins."""
    return np.clip(np.searchsorted(EDGES, mllm, side="right") - 1, 0, N_BINS - 1)


def _best(grid: list[float], w2v, mllm, ref) -> float:
    g = np.asarray(grid)[:, None]
    sq = (w2v[None, :] + g * (mllm - w2v)[None, :] - ref[None, :]) ** 2
    return grid[int(np.argmin(np.sqrt(np.mean(sq, axis=1))))]


def grid_scan(w2v, mllm, ref, step: float = 0.01):
    """Per-bin RMSE-minimising grid weight (first minimiser), and counts.

    An empty bin takes the best weight over all rows.
    """
    grid = [i * step for i in range(round(1.0 / step) + 1)]
    bins = bins_of(mllm)
    weights, counts = [], []
    for k in range(N_BINS):
        m = bins == k
        counts.append(int(m.sum()))
        weights.append(_best(grid, w2v[m], mllm[m], ref[m]) if counts[-1] else None)
    if None in weights:
        fallback = _best(grid, w2v, mllm, ref)
        weights = [fallback if w is None else w for w in weights]
    return weights, counts


def fuse(w2v, mllm, weights) -> np.ndarray:
    w = np.asarray(weights)[bins_of(mllm)]
    return (1.0 - w) * w2v + w * mllm


def aggregate(parts: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Mean of parts 1, 3, 4, 5 per speaker, summed left to right."""
    by_part = scores.reshape(-1, 4)
    if not np.all(parts.reshape(-1, 4) == np.array(["1", "3", "4", "5"])):
        raise ValueError("every speaker needs parts 1, 3, 4 and 5")
    return (((by_part[:, 0] + by_part[:, 1]) + by_part[:, 2]) + by_part[:, 3]) / 4.0


def _ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean rank of their run."""
    order = np.argsort(v, kind="stable")
    _, start, count = np.unique(v[order], return_index=True, return_counts=True)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(start + (count + 1) / 2.0, count)
    return ranks


def _pearson(p, r) -> float:
    pc, rc = p - p.mean(), r - r.mean()
    return float(np.mean(pc * rc) / np.sqrt(np.mean(pc * pc) * np.mean(rc * rc)))


def metric_values(pred, ref) -> dict:
    err = np.abs(pred - ref)
    return {
        "rmse": float(np.sqrt(np.mean((pred - ref) ** 2))),
        "pcc": _pearson(pred, ref),
        "src": _pearson(_ranks(pred), _ranks(ref)),
        "within_half": float(100.0 * np.mean(err <= 0.5)),
        "within_one": float(100.0 * np.mean(err <= 1.0)),
    }


def metric_row(pred, ref) -> str:
    """The evaluate table row, at the precision the CLI prints."""
    m = metric_values(pred, ref)
    return (f"{m['rmse']:.3f} {m['pcc']:.3f} {m['src']:.3f} "
            f"{m['within_half']:.1f} {m['within_one']:.1f}")


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def head_score(params, frames: np.ndarray) -> float:
    """Attention pool, cosine to prototypes, MLP; the expected level in
    classification mode."""
    a = np.tanh(frames @ params.attn_W.T + params.attn_b)
    x = _softmax(a @ params.attn_u) @ frames
    protos = params.prototypes
    s = protos @ x / (np.linalg.norm(protos, axis=1) * np.linalg.norm(x))
    out = params.mlp_W @ np.concatenate([x, s]) + params.mlp_b
    if params.mode == "regression":
        return float(out[0])
    return float(_softmax(out) @ params.levels)


def macro_f1(pred, ref) -> float:
    """Mean per-class F1 after snapping predictions to the 0.5 grid."""
    snapped = np.clip(np.floor(2.0 * np.asarray(pred) + 0.5) / 2.0, 2.0, 5.5)
    ref = np.asarray(ref)
    f1s = []
    for c in np.unique(np.concatenate([ref, snapped])):
        tp = np.sum((snapped == c) & (ref == c))
        denom = np.sum(snapped == c) + np.sum(ref == c)
        f1s.append(2.0 * tp / denom)
    return float(np.mean(f1s))

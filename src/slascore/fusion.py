"""Score-conditioned fusion of the two grader streams.

The multimodal score selects one of eight fixed intervals, one around each of
``core``'s reference levels (``DEFAULT_EDGES``); each carries an interpolation weight w_k
calibrated by grid search on a dev set (RMSE objective), then fixed for evaluation:

    fused = (1 - w_k) * w2v + w_k * mllm

One stable sort by interval gives each interval its dev rows; three dot products over
them give the closed-form quadratic that shortlists the weights whose RMSE is computed.

Overall speaker scores are the mean of the four part scores.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .core import (OVERALL, PART_VALUES, PARTS, REFERENCE_LEVELS, SCORE_RANGE, JoinedDataset,
                   Scores, key_rows)
from .errors import EmptyDataset, InvalidConfig, MissingPart, NonFiniteScore, NoReferences

log = logging.getLogger(__name__)

#: The interval edges: the level midpoints between the ends of ``SCORE_RANGE``, the last closed.
DEFAULT_EDGES = (SCORE_RANGE[0], *((lo + hi) / 2 for lo, hi in
                                   zip(REFERENCE_LEVELS, REFERENCE_LEVELS[1:])), SCORE_RANGE[1])

N_BINS = len(REFERENCE_LEVELS)
GRID_STEP = 0.01
#: The weights ``calibrate`` searches, {0, 0.01, ..., 1}: fixed, like the edges.
WEIGHT_GRID = tuple(i * GRID_STEP for i in range(round(1 / GRID_STEP) + 1))


@dataclass(frozen=True, slots=True)
class FusionCalibration:
    """Per-interval weights fixed after dev-set grid search; every field is checked."""

    weights: tuple[float, ...]
    #: The dev RMSE under these weights; 0.0, like the zero counts, for a
    #: calibration built without a dev set, so that its file reads back.
    dev_rmse: float = 0.0
    per_bin_counts: tuple[int, ...] = (0,) * N_BINS
    #: Each bin's dev RMSE under its weight, None for an empty bin; known
    #: only to the calibration ``calibrate`` returns, never written to file.
    per_bin_rmse: tuple[float | None, ...] = field(default=(None,) * N_BINS, compare=False)

    def __post_init__(self):
        # tuples, as the file reads back, so a calibration equals its read-back
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "per_bin_counts", tuple(self.per_bin_counts))
        if not all(map(_is_number, (self.dev_rmse, *self.weights))):
            raise InvalidConfig("dev_rmse and each weight must be an int or float, not a bool")
        if not 0 <= self.dev_rmse <= sys.float_info.max:
            raise InvalidConfig(f"dev_rmse {self.dev_rmse!r} is not finite and >= 0")
        counts = self.per_bin_counts
        if len(counts) != N_BINS or not all(_is_number(c) and isinstance(c, int) for c in counts):
            raise InvalidConfig(f"need {N_BINS} integer per_bin_counts, got {list(counts)}")
        if min(counts) < 0:
            raise InvalidConfig(f"per_bin_counts {list(counts)} hold a negative count")
        if len(self.weights) != N_BINS:
            raise InvalidConfig(f"need {N_BINS} weights, got {len(self.weights)}")
        for w in self.weights:
            if not 0.0 <= w <= 1.0:
                raise InvalidConfig(f"weight {w} outside [0, 1]")


def _is_number(x) -> bool:
    """An int or float, as a JSON number reads back, and not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def bin_index(mllm_score: float | np.ndarray) -> np.integer | np.ndarray:
    """Index of the ``DEFAULT_EDGES`` interval containing each multimodal score.

    Elementwise: a scalar gives a numpy integer, an array an array of them. The
    last interval is closed at its right edge; scores outside the edges
    clamp to the end bins, with one warning per call giving their count.
    """
    s = np.asarray(mllm_score, dtype=np.float64)
    finite = np.isfinite(s)
    if not finite.all():
        raise NonFiniteScore(f"cannot bin {np.count_nonzero(~finite)} non-finite score(s)")
    outside = np.count_nonzero(np.clip(s, *SCORE_RANGE) != s)  # the edges' ends
    if outside:
        log.warning("%d score(s) outside [%s, %s] clamped to the end bins", outside, *SCORE_RANGE)
    return np.clip(np.searchsorted(DEFAULT_EDGES, s, side="right") - 1, 0, N_BINS - 1)


def _mix(w2v, mllm, w):
    """The fusion formula, given each row's interval weight."""
    return (1.0 - w) * w2v + w * mllm


def fuse_one(
    w2v: float | np.ndarray,
    mllm: float | np.ndarray,
    calib: FusionCalibration,
) -> np.floating | np.ndarray:
    """Convex combination with the weight of the mllm score's interval.

    Elementwise: scalars give a numpy float, arrays an array.
    """
    w2v, mllm = np.asarray(w2v, dtype=np.float64), np.asarray(mllm, dtype=np.float64)
    if not np.isfinite(w2v).all():
        raise NonFiniteScore("cannot fuse non-finite w2v score(s)")
    return _mix(w2v, mllm, np.asarray(calib.weights)[bin_index(mllm)])


def calibrate(dev: JoinedDataset) -> FusionCalibration:
    """Grid-search each interval's weight on a dev set with references.

    Each populated bin independently gets the ``WEIGHT_GRID`` weight minimizing the
    bin-restricted RMSE (ties toward the smallest w, favoring the speech
    grader); empty bins fall back to the single best global weight. The
    result carries the dev RMSE overall and per bin under those weights.

    One stable sort by bin gives each bin its rows in row order; ``_best_weight``
    searches them, and all rows for the global weight.
    """
    if len(dev) == 0:
        raise EmptyDataset("cannot calibrate on an empty dev set")
    if dev.blind:
        raise NoReferences("calibration requires reference scores")

    bins = bin_index(dev.mllm)
    counts = np.bincount(bins, minlength=N_BINS)
    in_bin = np.split(np.argsort(bins, kind="stable"), np.cumsum(counts)[:-1])
    columns = (dev.w2v, dev.mllm, dev.reference)
    global_w = _best_weight(*columns) if 0 in counts else None
    weights = tuple(_best_weight(*(col[rows] for col in columns)) if rows.size else global_w
                    for rows in in_bin)
    fused = _mix(dev.w2v, dev.mllm, np.asarray(weights)[bins])
    return FusionCalibration(
        weights=weights,
        dev_rmse=metrics.rmse(fused, dev.reference),
        per_bin_counts=tuple(counts.tolist()),
        per_bin_rmse=tuple(metrics.rmse(fused[rows], dev.reference[rows]) if rows.size else None
                           for rows in in_bin),
    )


def _best_weight(w2v: np.ndarray, mllm: np.ndarray, ref: np.ndarray) -> float:
    """The weight a scan of all of ``WEIGHT_GRID`` picks over these rows, the first of least
    RMSE. Over n rows the squared fusion error at weight w is A + 2wB + w²C, for the sums
    A = e·e, B = e·d and C = d·d (e = w2v - ref, d = mllm - w2v); only the weights whose
    computed quadratic lies within (6n + 50)·EPS·V of its least value, V = Σ(|w2v| +
    |mllm| + |ref|)², are rescored, by the scan's own expression.

    Why the bound holds, with EPS = 2u the float64 epsilon and V the exact scale:
    - The scan's sum of squares at w in [0, 1] is within (n + 8)u·V of the exact
      A + 2wB + w²C: each row's fused error is off by at most 4u(|w2v| + |mllm| + |ref|)
      before it is squared, and n non-negative terms summed in any order gain at
      most (n - 1)u of their total.
    - The computed quadratic is within (4n + 24)u·V of it: the sums A, B and C are each
      off by at most (n + 2)u·V, and evaluating it adds at most 16u·V.
    - sqrt(sum / n) rounds to one value only for sums within 7u of each other, relatively.
    So at the scan's first minimiser the computed quadratic exceeds its least value by
    at most 2((n + 8) + (4n + 24))u·V + 8u·V = (10n + 72)u·V, below the (6n + 50)·EPS·V
    used; the margin covers the rounding of V and, for V >= n·2**-1000, any underflow.
    Below that every weight is kept, as it is when a score above 2**478 could overflow a sum.
    """
    n, w = len(w2v), np.asarray(WEIGHT_GRID)
    near = np.arange(len(w))
    if (max(float(np.abs(col).max()) for col in (w2v, mllm, ref)) <= 2.0**478
            and (scale := (size := np.abs(w2v) + np.abs(mllm) + np.abs(ref)) @ size)
            >= n * 2.0**-1000):
        e, d = w2v - ref, mllm - w2v
        q = e @ e + w * (2.0 * (e @ d) + w * (d @ d))
        near = np.flatnonzero(q <= q.min() + (6 * n + 50) * np.finfo(np.float64).eps * scale)
    sq = (w2v + w[near, None] * (mllm - w2v) - ref) ** 2
    return WEIGHT_GRID[near[int(np.argmin(np.sqrt(np.mean(sq, axis=1))))]]


def fuse_dataset(
    data: JoinedDataset,
    calib: FusionCalibration,
    clamp: bool = False,
) -> Scores:
    """Fuse every row; key- and order-preserving.

    ``clamp`` optionally clips fused scores to the ends of ``REFERENCE_LEVELS``
    (off by default: references never leave them, but graders may).
    """
    fused = fuse_one(data.w2v, data.mllm, calib)
    if clamp:
        fused = np.clip(fused, REFERENCE_LEVELS[0], REFERENCE_LEVELS[-1])
    return Scores(data.speaker_id, data.part, fused)


def aggregate_overall(per_part: Scores) -> Scores:
    """Per-speaker mean of the four part scores (parts 1, 3, 4, 5),
    sorted by speaker."""
    (grid,) = key_rows((per_part,), ("per-part",))  # columns OVERALL, *PARTS
    incomplete = np.flatnonzero((grid[:, 0] >= 0) | (grid[:, 1:] < 0).any(axis=1))
    if incomplete.size:
        at = grid[incomplete[0]]
        raise MissingPart(f"speaker {per_part.speaker_id[at.max()]} has part(s) "
                          f"{[part for part, row in zip(PART_VALUES, at) if row >= 0]}, "
                          f"needs exactly {list(PARTS)}")
    rows = grid[:, 1:]
    # sum() adds the parts left to right, starting from 0
    total = sum(per_part.score[rows].T, np.zeros(len(rows)))
    return Scores(per_part.speaker_id[rows[:, 0]], np.full(len(rows), OVERALL), total / 4.0)

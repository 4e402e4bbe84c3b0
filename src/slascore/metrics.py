"""Challenge metric suite: RMSE, PCC, SRC, within-tolerance accuracy,
plus macro F1 for model selection.

RMSE is the primary ranking criterion; correlations use the population
(n-denominator) form in both covariance and variances, which leaves the
ratio unchanged but pins down a bit-exact oracle. Macro F1 uses ``core``'s level grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import is_on_grid, snap_to_grid
from .errors import ConstantInput, EmptyInput, LengthMismatch, OffGridReference


@dataclass(frozen=True, slots=True)
class MetricReport:
    """The five challenge metrics for one system on one dataset."""

    rmse: float
    pcc: float
    src: float
    within_half: float
    within_one: float
    n: int


def _pair(pred, ref) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    if p.shape != r.shape or p.ndim != 1:
        raise LengthMismatch(f"shapes {p.shape} vs {r.shape}")
    if p.size == 0:
        raise EmptyInput("empty prediction/reference lists")
    return p, r


def rmse(pred, ref) -> float:
    """Root mean squared error over paired scores."""
    p, r = _pair(pred, ref)
    return float(np.sqrt(np.mean((p - r) ** 2)))


def pearson(pred, ref) -> float:
    """Sample Pearson correlation; raises ConstantInput on zero variance."""
    p, r = _pair(pred, ref)
    if p.size < 2:
        raise EmptyInput("correlation needs at least 2 pairs")
    pc = p - p.mean()
    rc = r - r.mean()
    var_p = np.mean(pc * pc)
    var_r = np.mean(rc * rc)
    if var_p == 0.0 or var_r == 0.0:
        raise ConstantInput("zero variance input: correlation undefined")
    return float(np.mean(pc * rc) / np.sqrt(var_p * var_r))


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties receive the mean of the ranks they span."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    # first (i) and last (j) sorted position of each tie run; NaN never ties
    i = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    j = np.r_[i[1:], v.size] - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (i + j) + 1.0, j - i + 1)
    return ranks


def spearman(pred, ref) -> float:
    """Spearman rank correlation: Pearson over average ranks."""
    p, r = _pair(pred, ref)
    return pearson(average_ranks(p), average_ranks(r))


def within_tolerance(pred, ref, tol: float) -> float:
    """Percentage of pairs with |pred - ref| <= tol (inclusive boundary)."""
    p, r = _pair(pred, ref)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return float(100.0 * np.mean(np.abs(p - r) <= tol))


def macro_f1(pred, ref) -> float:
    """Unweighted mean of per-class F1 over all classes seen in the
    references or the snapped predictions.

    Predictions are snapped to the level grid first. A class's F1 is
    2 * tp / (its reference count + its prediction count), never 0/0.
    """
    p, r = _pair(pred, ref)
    off = ~is_on_grid(r)
    if off.any():
        raise OffGridReference(f"reference {r[off][0]} not on the 0.5 level grid")
    # canonicalize references so exact class comparison is safe
    classes, label = np.unique(np.concatenate([snap_to_grid(r), snap_to_grid(p)]),
                               return_inverse=True)
    ref_label, pred_label = label[:r.size], label[r.size:]
    tp = np.bincount(ref_label[ref_label == pred_label], minlength=classes.size)
    return float(np.mean(2.0 * tp / np.bincount(label, minlength=classes.size)))


def full_report(pred, ref) -> MetricReport:
    """All five challenge metrics computed on the same pairing."""
    p, r = _pair(pred, ref)
    return MetricReport(
        rmse=rmse(p, r),
        pcc=pearson(p, r),
        src=spearman(p, r),
        within_half=within_tolerance(p, r, 0.5),
        within_one=within_tolerance(p, r, 1.0),
        n=int(p.size),
    )


def format_metric_row(report: MetricReport, sep: str = " ") -> str:
    """Render one leaderboard-style row, fields joined by ``sep``: RMSE/PCC/SRC
    to 3 decimals, percentages to 1."""
    return sep.join([f"{report.rmse:.3f}", f"{report.pcc:.3f}", f"{report.src:.3f}",
                     f"{report.within_half:.1f}", f"{report.within_one:.1f}"])

"""Synthetic datasets for desk-scale verification.

Stands in for the real corpus: grader predictions are simulated as the
reference level plus per-interval Gaussian noise, and frame features as
class-conditional Gaussians, so calibration and training behaviour can
be checked against exhaustive/nearest-mean oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PARTS, REFERENCE_LEVELS, JoinedDataset
from .errors import InvalidConfig
from .fusion import N_BINS, IntervalLayout, bin_index
from .head import FrameSequence


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Per-interval noise model for the two simulated grader streams."""

    n_speakers: int = 100
    parts: tuple[int, ...] = PARTS
    w2v_noise: tuple[float, ...] = (0.3,) * N_BINS
    mllm_noise: tuple[float, ...] = (0.3,) * N_BINS
    seed: int = 0
    level_weights: tuple[float, ...] = (1.0,) * N_BINS

    def __post_init__(self):
        if self.n_speakers < 1:
            raise InvalidConfig("need at least one speaker")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if not self.parts or any(p not in PARTS for p in self.parts):
            raise InvalidConfig(f"parts must be a nonempty subset of {PARTS}")
        for name in ("w2v_noise", "mllm_noise"):
            sigmas = getattr(self, name)
            if len(sigmas) != N_BINS or not all(0 <= s < math.inf for s in sigmas):
                raise InvalidConfig(f"{name} must be {N_BINS} finite non-negative sigmas")
        if len(self.level_weights) != N_BINS:
            raise InvalidConfig(f"level_weights must have length {N_BINS}")
        if not all(0 <= w < math.inf for w in self.level_weights) or sum(self.level_weights) == 0:
            raise InvalidConfig("level_weights must be finite, non-negative and not all zero")


def heteroscedastic_config(n_speakers: int = 500, seed: int = 0) -> SynthConfig:
    """mllm accurate in the top four intervals, w2v in the bottom four."""
    return SynthConfig(
        n_speakers=n_speakers,
        w2v_noise=(0.1,) * 4 + (0.6,) * 4,
        mllm_noise=(0.6,) * 4 + (0.1,) * 4,
        seed=seed,
    )


def generate_scores(cfg: SynthConfig) -> JoinedDataset:
    """Draw reference levels and noisy grader predictions per (speaker, part)."""
    rng = np.random.default_rng(cfg.seed)
    weights = np.asarray(cfg.level_weights, dtype=np.float64)
    weights = weights / weights.sum()
    levels = np.asarray(REFERENCE_LEVELS)
    bins = bin_index(levels, IntervalLayout())  # the interval of each level
    rows = []
    for i in range(cfg.n_speakers):
        sid = f"spk{i:04d}"
        for part in cfg.parts:
            j = rng.choice(len(levels), p=weights)
            ref, k = float(levels[j]), bins[j]
            rows.append((sid, part, ref + rng.normal(0.0, cfg.w2v_noise[k]),
                         ref + rng.normal(0.0, cfg.mllm_noise[k]), ref))
    return JoinedDataset(*zip(*rows))


def generate_frames(
    n_per_class: int,
    levels: list[float],
    d: int,
    separation: float,
    seed: int = 0,
    t_range: tuple[int, int] = (5, 20),
) -> list[FrameSequence]:
    """Class-conditional Gaussian frame sequences, unit within-class sigma.

    Class means sit ``separation`` apart along distinct coordinate axes;
    sequence lengths are uniform over ``t_range``.
    """
    if separation < 0:
        raise InvalidConfig("separation must be >= 0")
    if n_per_class < 1 or d < 1 or not levels:
        raise InvalidConfig("need n_per_class >= 1, d >= 1, and at least one level")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    out = []
    for k, level in enumerate(levels):
        mean = np.zeros(d)
        mean[k % d] = separation
        for _ in range(n_per_class):
            t = int(rng.integers(t_range[0], t_range[1] + 1))
            frames = mean + rng.standard_normal((t, d))
            out.append(FrameSequence(frames=frames, label=float(level)))
    return out

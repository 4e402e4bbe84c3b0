"""Synthetic datasets for desk-scale verification.

Stands in for the real corpus: each speaker's four part scores are
simulated as the reference level plus Gaussian noise set per level, drawn
straight into numpy columns, and frame features as
class-conditional Gaussians, so calibration and training behaviour can be
checked against exhaustive/nearest-mean oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PARTS, REFERENCE_LEVELS, JoinedDataset
from .errors import InvalidConfig
from .head import FrameSequence

N_LEVELS = len(REFERENCE_LEVELS)
MAX_SPEAKERS = 250_000  # 1M score rows
MAX_FRAME_VALUES = 10**7  # the most frame values generate_frames may draw
FRAME_LENGTHS = (5, 20)  # the fewest and most frames of a drawn sequence
FEATURE_LEVELS = (2.5, 3.5, 4.5)  # the levels generate_frames draws sequences of
FEATURE_DIM = 8  # values per frame
SEPARATION = 8.0  # the distance of each level's mean from the origin, on its own axis


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Per-level noise model for the two simulated grader streams."""

    n_speakers: int = 100
    w2v_noise: tuple[float, ...] = (0.3,) * N_LEVELS
    mllm_noise: tuple[float, ...] = (0.3,) * N_LEVELS
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 1:
            raise InvalidConfig("need at least one speaker")
        if self.n_speakers > MAX_SPEAKERS:
            raise InvalidConfig(f"n_speakers {self.n_speakers} exceeds {MAX_SPEAKERS}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        for name in ("w2v_noise", "mllm_noise"):
            sigmas = getattr(self, name)
            if len(sigmas) != N_LEVELS or not all(0 <= s < math.inf for s in sigmas):
                raise InvalidConfig(f"{name} must be {N_LEVELS} finite non-negative sigmas")


def heteroscedastic_config(n_speakers: int = 500, seed: int = 0) -> SynthConfig:
    """mllm accurate on the top four levels, w2v on the bottom four."""
    return SynthConfig(
        n_speakers=n_speakers,
        w2v_noise=(0.1,) * 4 + (0.6,) * 4,
        mllm_noise=(0.6,) * 4 + (0.1,) * 4,
        seed=seed,
    )


def generate_scores(cfg: SynthConfig) -> JoinedDataset:
    """Draw uniform reference levels and noisy grader predictions per (speaker,
    part); ``InvalidConfig`` if a drawn prediction is not finite."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_speakers * len(PARTS)
    level, w2v, mllm = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    for i in range(n):  # the draw order (level, w2v, mllm) fixes the random stream
        # choice(N_LEVELS, p=equal) finds one random() u in a cdf of exact eighths: floor(8u)
        k = level[i] = int(N_LEVELS * rng.random())
        w2v[i] = 0.0 + cfg.w2v_noise[k] * rng.standard_normal()  # normal(0.0, sigma)
        mllm[i] = 0.0 + cfg.mllm_noise[k] * rng.standard_normal()  # on floats, overflow is inf
    ref = np.asarray(REFERENCE_LEVELS)[level]
    ids = np.repeat(np.array([f"spk{i:04d}" for i in range(cfg.n_speakers)], object), len(PARTS))
    data = JoinedDataset(ids, np.tile(PARTS, cfg.n_speakers), ref + w2v, ref + mllm, ref)
    # a finite but huge sigma can still draw a score past the float range
    for name in ("w2v", "mllm"):
        if not np.isfinite(getattr(data, name)).all():
            raise InvalidConfig(f"a drawn {name} score is not finite; {name}_noise is too large")
    return data


def generate_frames(n_per_class: int, seed: int = 0) -> list[FrameSequence]:
    """Class-conditional Gaussian frame sequences, unit within-class sigma.

    ``n_per_class`` sequences of each of ``FEATURE_LEVELS``, class means ``SEPARATION``
    out along distinct axes, lengths uniform over ``FRAME_LENGTHS``. A request that
    could draw more than ``MAX_FRAME_VALUES`` values is refused before anything is drawn.
    """
    if n_per_class < 1:
        raise InvalidConfig(f"need n_per_class >= 1, got {n_per_class}")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    size = n_per_class * len(FEATURE_LEVELS) * FRAME_LENGTHS[1] * FEATURE_DIM
    if size > MAX_FRAME_VALUES:
        raise InvalidConfig(f"up to {size} frame values requested, more than {MAX_FRAME_VALUES}")
    rng = np.random.default_rng(seed)
    out = []
    for k, level in enumerate(FEATURE_LEVELS):
        mean = np.zeros(FEATURE_DIM)
        mean[k] = SEPARATION
        for _ in range(n_per_class):
            t = int(rng.integers(FRAME_LENGTHS[0], FRAME_LENGTHS[1] + 1))
            frames = mean + rng.standard_normal((t, FEATURE_DIM))
            out.append(FrameSequence(frames=frames, label=level))
    return out

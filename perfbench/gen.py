"""Seeded input generator for the benchmark workloads.

Writes the repository's canonical formats (``speaker_id,part,score``
CSV and ``slascore-features v1`` text) with the benchmark's own numpy
code. It deliberately does not import ``slascore.synth``: the workloads
must stay the same when the library's synthetic-data module changes.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

LEVELS = 2.0 + 0.5 * np.arange(8)
PARTS = (1, 3, 4, 5)
# Share of each reference level, peaked in the middle as in a real test.
LEVEL_SHARE = np.array([0.04, 0.08, 0.14, 0.20, 0.20, 0.16, 0.10, 0.08])
# Share of grader predictions replaced by gross errors outside [0, 6].
OUTLIER_SHARE = 0.015
CSV_HEADER = "speaker_id,part,score"
FEATURE_MAGIC = "slascore-features v1"


def write_csv(path: Path, sids: list[str], parts: np.ndarray, scores: np.ndarray) -> None:
    """One row per entry, shortest-repr floats, LF line ends."""
    lines = [CSV_HEADER]
    lines += [f"{s},{p},{x!r}" for s, p, x in zip(sids, parts.tolist(), scores.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _keys(rng: np.random.Generator, prefix: str, n_speakers: int):
    sids = np.repeat([f"{prefix}{i:06d}" for i in range(n_speakers)], len(PARTS))
    parts = np.tile(np.array(PARTS), n_speakers)
    ref = LEVELS[rng.choice(LEVELS.size, size=sids.size, p=LEVEL_SHARE)]
    return sids, parts, ref


def _outliers(rng: np.random.Generator, scores: np.ndarray) -> np.ndarray:
    """Replace a few predictions with values in [-1, 0) or (6, 7]."""
    out = scores.copy()
    hit = rng.random(out.size) < OUTLIER_SHARE
    low = rng.random(out.size) < 0.5
    mag = rng.uniform(0.01, 1.0, size=out.size)
    out[hit & low] = -mag[hit & low]
    out[hit & ~low] = 6.0 + mag[hit & ~low]
    return out


def _shuffled(rng, path, sids, parts, scores) -> None:
    order = rng.permutation(sids.size)
    write_csv(path, sids[order].tolist(), parts[order], scores[order])


def score_split(rng: np.random.Generator, out_dir: Path, prefix: str, n_speakers: int) -> dict:
    """w2v.csv, mllm.csv, refs.csv and refs_overall.csv for one split.

    w2v is accurate at the four low levels and mllm at the four high
    ones, the setting score-conditioned fusion is built for. Each file
    lists the rows in its own random order, so the join has real work.
    Returns the columns sorted by (speaker, part), the order of the join.
    """
    sids, parts, ref = _keys(rng, prefix, n_speakers)
    low = ref < 4.0
    w2v = ref + rng.normal(0.0, 1.0, ref.size) * np.where(low, 0.15, 0.6)
    mllm = ref + rng.normal(0.0, 1.0, ref.size) * np.where(low, 0.6, 0.15)
    out_dir.mkdir(parents=True, exist_ok=True)
    w2v, mllm = _outliers(rng, w2v), _outliers(rng, mllm)
    _shuffled(rng, out_dir / "w2v.csv", sids, parts, w2v)
    _shuffled(rng, out_dir / "mllm.csv", sids, parts, mllm)
    _shuffled(rng, out_dir / "refs.csv", sids, parts, ref)
    by_part = ref.reshape(-1, len(PARTS))
    overall = (((by_part[:, 0] + by_part[:, 1]) + by_part[:, 2]) + by_part[:, 3]) / 4.0
    speakers = sids[::len(PARTS)]
    _shuffled(rng, out_dir / "refs_overall.csv", speakers,
              np.full(speakers.size, "overall"), overall)
    return {"sids": sids, "parts": parts.astype(str), "w2v": w2v, "mllm": mllm, "ref": ref,
            "ref_overall": overall}


def write_features(path: Path, seqs: list[tuple[np.ndarray, float]]) -> None:
    lines = [FEATURE_MAGIC]
    for frames, label in seqs:
        t, d = frames.shape
        lines.append(f"record {t} {d} {label!r}")
        lines += [" ".join(map(repr, row)) for row in frames.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def feature_split(rng, means: np.ndarray, n_per_level: int, t_min: int, t_max: int):
    """Labelled frame sequences with log-uniform lengths in [t_min, t_max].

    The lengths are the quantiles of the log-uniform law, dealt out in a
    random order: every seed gets the same lengths, so the work of a pass
    does not depend on the seed.

    Each sequence gets one speaker offset shared by all its frames. The
    offset does not average out over frames, so neighbouring levels
    overlap and dev macro F1 stays below 1.0.
    """
    d = means.shape[1]
    n = LEVELS.size * n_per_level
    quantiles = (np.arange(n) + 0.5) / n
    lengths = np.exp(np.log(t_min) + quantiles * np.log((t_max + 1) / t_min)).astype(int)
    lengths = rng.permutation(lengths).tolist()
    seqs = []
    for k, level in enumerate(LEVELS.tolist()):
        for _ in range(n_per_level):
            t = lengths.pop()
            offset = rng.normal(0.0, 0.9, d)
            seqs.append((means[k] + offset + rng.standard_normal((t, d)), level))
    order = rng.permutation(len(seqs))
    return [seqs[i] for i in order]


def features(rng: np.random.Generator, out_dir: Path, n_per_level: int, dim: int,
             t_min: int, t_max: int) -> list[tuple[np.ndarray, float]]:
    """train_features.txt and dev_features.txt over the eight levels;
    returns the dev sequences.

    Level means step along one random direction (levels are ordinal)
    plus a small level-specific part.
    """
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    means = (np.arange(8)[:, None] * 0.9 * direction[None, :]
             + rng.normal(0.0, 0.35, (8, dim)))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_features(out_dir / "train_features.txt",
                   feature_split(rng, means, n_per_level, t_min, t_max))
    dev = feature_split(rng, means, max(1, n_per_level // 2), t_min, t_max)
    write_features(out_dir / "dev_features.txt", dev)
    return dev

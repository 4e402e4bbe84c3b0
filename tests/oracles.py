"""Independent second transcriptions of the metric formulas and
brute-force helpers, used only as test oracles.

The metric oracles deliberately avoid sharing code with slascore.metrics:
different formulations (np.corrcoef, explicit confusion counts,
loop-based ranking) of the same definitions. The calibration oracle
takes plain score sequences; the separability oracle works on the
library's own frame sequences. The prediction-CSV reader, the key join
and the per-speaker aggregate are per-line and dict versions of the
library's bulk reader, key index, key-grid join and pairing, and key-grid aggregate.
The grid-scan calibration is the library's search as it stood before its closed
form, kept unchanged but for its weight grid, which it builds itself as i * grid_step:
every grid weight's fused RMSE over each bin's rows.
The synthetic-score oracle draws row tuples where the library fills columns;
the frame oracle is the library's frame draw as it stood with its levels,
dimension and separation as arguments, kept unchanged. The level test
compares each value with every level, where the library compares it with
its snapped level only.
"""

import math
import re

import numpy as np

from slascore.core import OVERALL, PARTS, REFERENCE_LEVELS, JoinedDataset, Scores
from slascore.errors import (
    DuplicateKey,
    EmptyJoin,
    InvalidConfig,
    InvalidPart,
    MissingPart,
    MissingReference,
    NonFiniteScore,
    NoReferences,
    OffGridReference,
    ParseError,
    ValidationError,
)
from slascore.fileio import OVERALL_TEXT, PREDICTION_HEADER
from slascore import metrics
from slascore.fusion import N_BINS, FusionCalibration, _mix, bin_index
from slascore.head import FrameSequence
from slascore.metrics import macro_f1
from slascore.synth import FRAME_LENGTHS, MAX_FRAME_VALUES, SynthConfig


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


def is_on_grid_oracle(values):
    """Within 1e-9 of one of the eight levels, by one column per level."""
    diff = np.abs(np.asarray(values, dtype=np.float64)[:, None] - np.asarray(_LEVELS))
    return (diff <= 1e-9).any(axis=1)


def level_index_oracle(targets, levels):
    """Each target's index among ``levels`` by a scan of all of them; None
    when a target lies within 1e-9 of no level or of two."""
    out = []
    for t in targets:
        hits = [k for k, level in enumerate(levels) if abs(level - t) <= 1e-9]
        out.append(hits[0] if len(hits) == 1 else None)
    return out


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


def grid_scan_calibration(dev: JoinedDataset, grid_step: float = 0.01) -> FusionCalibration:
    """``fusion.calibrate`` by a scan of the whole weight grid {i * grid_step}: one
    (grid x rows) matrix of squared fusion errors per bin, and the first weight of least RMSE."""
    grid = [i * grid_step for i in range(round(1 / grid_step) + 1)]

    bins = bin_index(dev.mllm)
    counts = np.bincount(bins, minlength=N_BINS)
    g = np.asarray(grid)[:, None]

    def best_weight(rows):
        # sq[i, j]: squared fusion error of row j under grid weight i
        w2v_r, mllm_r = dev.w2v[rows], dev.mllm[rows]
        sq = (w2v_r + g * (mllm_r - w2v_r) - dev.reference[rows]) ** 2
        return grid[int(np.argmin(np.sqrt(np.mean(sq, axis=1))))]

    in_bin = [bins == k if counts[k] else None for k in range(N_BINS)]
    global_w = best_weight(slice(None)) if 0 in counts else None
    weights = tuple(global_w if rows is None else best_weight(rows) for rows in in_bin)
    fused = _mix(dev.w2v, dev.mllm, np.asarray(weights)[bins])
    return FusionCalibration(
        weights=weights,
        dev_rmse=metrics.rmse(fused, dev.reference),
        per_bin_counts=tuple(counts.tolist()),
        per_bin_rmse=tuple(None if rows is None else metrics.rmse(fused[rows], dev.reference[rows])
                           for rows in in_bin),
    )


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


def read_predictions_oracle(path, kind="prediction") -> Scores:
    """Per-line reader of a prediction CSV: every line is split on its own
    and each kind of fault is looked for over all rows, in the order the
    library looks for them; the first fault raises the library's error.
    The kind-part, finiteness and grid rules are applied here, row by row."""
    with open(path, encoding="utf-8", newline="") as fh:  # no newline translation
        lines = re.split(r"\r\n|\r|\n", fh.read())
    for n, line in enumerate(lines, start=1):
        # str.splitlines() would also end a line at these; a score file does not
        for ch in line:
            if ch in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
                raise ParseError(f"{path}:{n}: line break {ch!r}; only LF, CR and CRLF "
                                 f"end a line")
    if not lines or lines[0] != PREDICTION_HEADER:
        raise ParseError(f"{path}: expected header {PREDICTION_HEADER!r}")
    numbered = [(f"{path}:{n}", line.split(","))
                for n, line in enumerate(lines[1:], start=2) if line.strip()]
    for where, cells in numbered:
        if len(cells) != 3:
            raise ParseError(f"{where}: expected 3 fields, got {len(cells)}")
    for where, (sid, _, _) in numbered:
        if sid == "":
            raise ParseError(f"{where}: empty speaker id")

    def number(text, parse):
        # digit-group underscores and non-ASCII digits are not numbers in a file
        if "_" in text or any(ord(ch) > 127 for ch in text):
            raise ValueError(text)
        return parse(text)

    scores = []
    for where, (_, _, text) in numbered:
        try:
            scores.append(number(text, float))
        except ValueError:
            raise ParseError(f"{where}: bad score {text!r}") from None
    # an overall file spells every part `overall`, a per-part file none
    parts = []
    for where, (_, text, _) in numbered:
        try:
            if (text == OVERALL_TEXT) != (kind == "overall"):
                raise ValueError(text)
            part = OVERALL if text == OVERALL_TEXT else number(text, int)
            if not -2**63 <= part < 2**63:  # a part is held as an int64
                raise ValueError(text)
        except ValueError:
            raise ParseError(f"{where}: bad part {text!r} for {kind} scores") from None
        parts.append(part)
    rows = list(zip(numbered, parts, scores))
    kind_parts = (OVERALL,) if kind == "overall" else PARTS
    for (where, (sid, _, _)), part, _ in rows:
        if part not in kind_parts:
            raise InvalidPart(f"{where}: part {part} not in {kind_parts}, the {kind} parts "
                              f"(speaker {sid})")
    for (where, (sid, _, _)), part, score in rows:
        if not math.isfinite(score):
            raise NonFiniteScore(f"{where}: non-finite score for ({sid}, {part})")
    for (where, (sid, _, _)), part, score in rows:
        if kind == "reference" and not any(abs(score - lvl) <= 1e-9 for lvl in _LEVELS):
            raise OffGridReference(f"{where}: reference {score} for ({sid}, {part}) is not a "
                                   f"0.5-step level in [2.0, 5.5]")
    seen = set()
    for (where, (sid, text, _)), part, _ in rows:
        if (sid, part) in seen:
            raise DuplicateKey(f"{where}: duplicate key ({sid}, {text})")
        seen.add((sid, part))
    return Scores([cells[0] for _, cells in numbered], parts, scores)


def aggregate_oracle(per_part: Scores) -> list[tuple]:
    """Dict-of-dicts per-speaker overall scores: (speaker, OVERALL, mean) rows
    in speaker order, each mean ``0.0 + p1 + p3 + p4 + p5`` divided by 4. The
    first row repeating a key raises DuplicateKey; else the first speaker whose
    parts are not exactly the four raises MissingPart."""
    by_speaker: dict[str, dict[int, float]] = {}
    for sid, part, score in zip(*(c.tolist() for c in (per_part.speaker_id, per_part.part,
                                                        per_part.score))):
        if part in by_speaker.setdefault(sid, {}):
            raise DuplicateKey(f"duplicate per-part key {(sid, part)}")
        by_speaker[sid][part] = score
    out = []
    for sid in sorted(by_speaker):
        held = by_speaker[sid]
        if sorted(held) != list(PARTS):
            raise MissingPart(f"speaker {sid} has part(s) {sorted(held)}, "
                              f"needs exactly {list(PARTS)}")
        p1, p3, p4, p5 = (held[part] for part in PARTS)
        out.append((sid, OVERALL, (0.0 + p1 + p3 + p4 + p5) / 4))
    return out


def key_index_oracle(table: Scores) -> tuple[list[str], list[list[int]], int | None]:
    """Dict scan of ``Scores.key_index``: the sorted distinct ids, each key's first
    row as nested lists (a row per id, a column per part value, -1 for none) and
    the first row whose key an earlier row holds, or None."""
    first, repeat = {}, None
    for row, key in enumerate(zip(table.speaker_id.tolist(), table.part.tolist())):
        if key not in first:
            first[key] = row
        elif repeat is None:
            repeat = row
    ids = sorted({sid for sid, _ in first})
    return ids, [[first.get((sid, part), -1) for part in (OVERALL, *PARTS)] for sid in ids], repeat


def _key_index(table: Scores, label: str) -> dict:
    """(speaker, part) -> row; the first repeated key raises DuplicateKey."""
    index = {}
    for row, key in enumerate(zip(table.speaker_id.tolist(), table.part.tolist())):
        if key in index:
            raise DuplicateKey(f"duplicate {label} key {key}")
        index[key] = row
    return index


def pair_on_keys_oracle(pred: Scores, ref: Scores):
    """Dict pairing: the prediction and reference scores of each prediction
    key, in prediction order, and the warning messages ``pair_on_keys`` logs.
    Prediction keys are checked for repeats before reference keys."""
    in_pred, in_ref = _key_index(pred, "prediction"), _key_index(ref, "reference")
    missing = [key for key in in_pred if key not in in_ref]  # in prediction order
    if len(missing) == len(in_pred):
        raise EmptyJoin("no shared (speaker, part) keys between predictions and references")
    if missing:
        raise MissingReference(f"{len(missing)} prediction key(s) without a reference, "
                               f"first {missing[:3]}")
    dropped = sorted(in_ref.keys() - in_pred.keys())
    warnings = [f"{len(dropped)} reference key(s) without a prediction dropped, "
                f"first {dropped[:3]}"] if dropped else []
    return ([pred.score[row] for row in in_pred.values()],
            [ref.score[in_ref[key]] for key in in_pred], warnings)


def join_oracle(w2v: Scores, mllm: Scores, refs: Scores | None = None):
    """Dict-of-tuples inner join: the joined rows as (speaker, part, w2v,
    mllm, reference-or-None) tuples sorted by key, and the warning
    messages ``join`` logs for keys in only one grader stream and for
    reference keys that join no prediction."""
    in_w2v, in_mllm = _key_index(w2v, "w2v"), _key_index(mllm, "mllm")
    in_refs = None if refs is None else _key_index(refs, "reference")
    shared = sorted(in_w2v.keys() & in_mllm.keys())
    if not shared:
        raise EmptyJoin("no (speaker, part) keys shared by the two grader streams")
    warnings = []
    for side, index, other in (("w2v", in_w2v, in_mllm), ("mllm", in_mllm, in_w2v)):
        only = sorted(index.keys() - other.keys())
        if only:
            warnings.append(f"{len(only)} key(s) only in {side} stream, first {only[:3]}")
    reference = [None] * len(shared)
    if refs is not None:
        missing = [key for key in shared if key not in in_refs]
        if missing:
            raise MissingReference(f"{len(missing)} joined key(s) without a reference, "
                                   f"first {missing[:3]}")
        reference = [refs.score[in_refs[key]] for key in shared]
        unused = sorted(in_refs.keys() - set(shared))
        if unused:
            warnings.append(f"{len(unused)} reference key(s) without a joined prediction "
                            f"dropped, first {unused[:3]}")
    rows = [(*key, w2v.score[in_w2v[key]], mllm.score[in_mllm[key]], ref)
            for key, ref in zip(shared, reference)]
    return rows, warnings


def generate_scores_oracle(cfg: SynthConfig,
                           weights: tuple[float, ...] = (1.0,) * len(REFERENCE_LEVELS)
                           ) -> JoinedDataset:
    """``synth.generate_scores`` as a loop of (speaker, part, w2v, mllm,
    reference) row tuples, each row's interval found by ``bin_index``; each
    level is drawn in proportion to its entry of ``weights`` (uniform, as
    ``generate_scores`` draws, by default)."""
    rng = np.random.default_rng(cfg.seed)
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    levels = np.asarray(REFERENCE_LEVELS)
    bins = bin_index(levels)  # the interval of each level
    rows = []
    for i in range(cfg.n_speakers):
        sid = f"spk{i:04d}"
        for part in PARTS:
            j = rng.choice(len(levels), p=weights)
            ref, k = float(levels[j]), bins[j]
            rows.append((sid, part, ref + rng.normal(0.0, cfg.w2v_noise[k]),
                         ref + rng.normal(0.0, cfg.mllm_noise[k]), ref))
    return JoinedDataset(*zip(*rows))


def generate_frames_oracle(
    n_per_class: int,
    levels: list[float],
    d: int,
    separation: float,
    seed: int = 0,
) -> list[FrameSequence]:
    """``synth.generate_frames`` at any levels, dimension and separation:
    class-conditional Gaussian frame sequences, unit within-class sigma.

    Class means sit ``separation`` apart along distinct coordinate axes;
    sequence lengths are uniform over ``FRAME_LENGTHS``. A request that could draw
    more than ``MAX_FRAME_VALUES`` values is refused before anything is drawn.
    """
    if separation < 0:
        raise InvalidConfig("separation must be >= 0")
    if n_per_class < 1 or d < 1 or not levels:
        raise InvalidConfig("need n_per_class >= 1, d >= 1, and at least one level")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if (size := n_per_class * len(levels) * FRAME_LENGTHS[1] * d) > MAX_FRAME_VALUES:
        raise InvalidConfig(f"up to {size} frame values requested, more than {MAX_FRAME_VALUES}")
    rng = np.random.default_rng(seed)
    out = []
    for k, level in enumerate(levels):
        mean = np.zeros(d)
        mean[k % d] = separation
        for _ in range(n_per_class):
            t = int(rng.integers(FRAME_LENGTHS[0], FRAME_LENGTHS[1] + 1))
            frames = mean + rng.standard_normal((t, d))
            out.append(FrameSequence(frames=frames, label=float(level)))
    return out

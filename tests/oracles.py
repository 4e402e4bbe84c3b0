"""Independent second transcriptions of the metric formulas and
brute-force helpers, used only as test oracles.

The metric oracles deliberately avoid sharing code with slascore.metrics:
different formulations (np.corrcoef, explicit confusion counts,
loop-based ranking) of the same definitions. The calibration oracle
takes plain score sequences; the separability oracle works on the
library's own frame sequences. The prediction-CSV reader and the key
join are per-line and dict-of-tuples versions of the library's bulk
reader and integer-code join.
"""

import math
import re

import numpy as np

from slascore.core import OVERALL, PARTS, Scores, validate_record
from slascore.errors import (
    DuplicateKey,
    EmptyJoin,
    InvalidConfig,
    InvalidPart,
    MissingReference,
    NonFiniteScore,
    NoReferences,
    ParseError,
    ValidationError,
)
from slascore.fileio import OVERALL_TEXT, PREDICTION_HEADER
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


def read_predictions_oracle(path, kind="prediction", allow_overall=False) -> Scores:
    """Per-line reader of a prediction CSV: every line is split on its own
    and each kind of fault is looked for over all rows, in the order the
    library looks for them; the first fault raises the library's error."""
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
    parts = []
    for where, (_, text, _) in numbered:
        if text == OVERALL_TEXT:
            if not allow_overall:
                raise ParseError(f"{where}: part {text!r} not allowed here")
            parts.append(OVERALL)
            continue
        try:
            parts.append(number(text, int))
        except ValueError:
            raise ParseError(f"{where}: bad part {text!r}") from None
        if parts[-1] not in PARTS:
            raise InvalidPart(f"{where}: part {text!r} not in {PARTS}")
    for (where, (sid, _, _)), part, score in zip(numbered, parts, scores):
        if part == OVERALL and not math.isfinite(score):
            raise NonFiniteScore(f"{where}: non-finite overall score for {sid}")
    sids = [cells[0] for _, cells in numbered]
    table = Scores(sids, parts, scores)
    validate_record(table.take(table.part != OVERALL), kind)
    seen = set()
    for (where, (sid, text, _)), part in zip(numbered, parts):
        if (sid, part) in seen:
            raise DuplicateKey(f"{where}: duplicate key ({sid}, {text})")
        seen.add((sid, part))
    return table


def _key_index(table: Scores, label: str) -> dict:
    """(speaker, part) -> row; the first repeated key raises DuplicateKey."""
    index = {}
    for row, key in enumerate(zip(table.speaker_id.tolist(), table.part.tolist())):
        if key in index:
            raise DuplicateKey(f"duplicate {label} key {key}")
        index[key] = row
    return index


def match_keys_oracle(rows: Scores, table: Scores, label: str) -> list[int]:
    index = _key_index(table, label)
    return [index.get(key, -1) for key in zip(rows.speaker_id.tolist(), rows.part.tolist())]


def join_oracle(w2v: Scores, mllm: Scores, refs: Scores | None = None):
    """Dict-of-tuples inner join: the joined rows as (speaker, part, w2v,
    mllm, reference-or-None) tuples sorted by key, and the warning
    messages ``join`` logs for keys in only one grader stream."""
    in_w2v, in_mllm = _key_index(w2v, "w2v"), _key_index(mllm, "mllm")
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
        in_refs = _key_index(refs, "reference")
        missing = [key for key in shared if key not in in_refs]
        if missing:
            raise MissingReference(f"{len(missing)} joined key(s) without a reference, "
                                   f"first {missing[:3]}")
        reference = [refs.score[in_refs[key]] for key in shared]
    rows = [(*key, w2v.score[in_w2v[key]], mllm.score[in_mllm[key]], ref)
            for key, ref in zip(shared, reference)]
    return rows, warnings

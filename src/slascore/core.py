"""Domain types: score tables and joined grader datasets, held as numpy
columns with one entry per (speaker, part) row, plus validation and key
matching. Speaker ids are ``object`` arrays of ``str``, so every id survives
exactly; keys are matched and ordered as integer codes (``key_codes``).

Scores live on a CEFR-aligned numeric scale: references take the eight
levels 2.0, 2.5, ..., 5.5; grader predictions are unconstrained finite
reals (counted when outside [0.0, 6.0]).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyJoin,
    InvalidPart,
    LengthMismatch,
    MissingReference,
    NonFiniteScore,
    OffGridReference,
)

log = logging.getLogger(__name__)

#: The four speaking-task parts (Interview, Opinion, Presentation,
#: Communication Activity).
PARTS = (1, 3, 4, 5)

#: Sentinel part id for per-speaker overall scores; score files spell it
#: ``overall``.
OVERALL = 0

#: Every part value a table may hold, in key order.
PART_VALUES = (OVERALL, *PARTS)

#: Valid reference levels: 2.0 through 5.5 in 0.5 steps.
REFERENCE_LEVELS = tuple(2.0 + 0.5 * i for i in range(8))

_GRID_TOL = 1e-9


def is_on_grid(values: np.ndarray) -> np.ndarray:
    """True where a value is one of the eight 0.5-step reference levels."""
    diff = np.abs(np.asarray(values, dtype=np.float64)[:, None] - np.asarray(REFERENCE_LEVELS))
    return (diff <= _GRID_TOL).any(axis=1)


def _store_columns(table, **dtypes) -> None:
    """Store each named field of ``table`` (except a ``None`` one) as a 1-D
    array of its dtype; all of them must have one length, each part in ``PART_VALUES``."""
    columns = {name: np.asarray(getattr(table, name), dtype=dtype)
               for name, dtype in dtypes.items() if getattr(table, name) is not None}
    shapes = {col.shape for col in columns.values()}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise LengthMismatch(f"need 1-D columns of one length, got shapes "
                             f"{[col.shape for col in columns.values()]}")
    for name, col in columns.items():
        object.__setattr__(table, name, col)
    bad = ~np.isin(table.part, PART_VALUES)
    if bad.any():
        raise InvalidPart(f"part {table.part[bad][0]} not in {PART_VALUES} "
                          f"(speaker {table.speaker_id[bad][0]})")


@dataclass(frozen=True, eq=False)
class Scores:
    """One score per (speaker, part) row: grader predictions, references,
    fused or overall scores."""

    speaker_id: np.ndarray
    part: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        _store_columns(self, speaker_id=object, part=np.int64, score=np.float64)

    def __len__(self) -> int:
        return len(self.score)


def _keys(table, rows=slice(None)) -> list[tuple[str, int]]:
    """(speaker, part) tuples of the selected rows, for messages."""
    return list(zip(table.speaker_id[rows].tolist(), table.part[rows].tolist()))


def validate_record(scores: Scores, kind: str) -> Scores:
    """Validate the scores of a ``"prediction"``, ``"reference"`` or ``"overall"``
    table: finite, and references on the 0.5-step level grid. Predictions outside
    [0.0, 6.0] are counted in one warning, not rejected, since both graders regress
    continuously. The error raised for the first fault names its row in ``row``.
    A file's parts are checked against its kind by the reader."""
    if kind not in ("prediction", "reference", "overall"):
        raise ValueError(f"unknown record kind {kind!r}")
    faults = [(~np.isfinite(scores.score), NonFiniteScore, "non-finite score for ({0}, {1})")]
    if kind == "reference":
        faults.append((~is_on_grid(scores.score), OffGridReference,
                       "reference {2} for ({0}, {1}) is not a 0.5-step level in [2.0, 5.5]"))
    for bad, error, message in faults:
        if bad.any():
            row = int(np.argmax(bad))
            exc = error(message.format(scores.speaker_id[row], scores.part[row],
                                       scores.score[row]))
            exc.row = row
            raise exc
    if kind == "prediction":
        outside = np.count_nonzero((scores.score < 0.0) | (scores.score > 6.0))
        if outside:
            log.warning("%d prediction(s) outside [0.0, 6.0]", outside)
    return scores


@dataclass(frozen=True, eq=False)
class JoinedDataset:
    """Inner join of the two grader streams, keyed by (speaker, part).

    ``blind`` datasets carry no reference column and can only be fused,
    not evaluated or calibrated.
    """

    speaker_id: np.ndarray
    part: np.ndarray
    w2v: np.ndarray
    mllm: np.ndarray
    reference: np.ndarray | None = None

    def __post_init__(self):
        _store_columns(self, speaker_id=object, part=np.int64, w2v=np.float64,
                       mllm=np.float64, reference=np.float64)

    @property
    def blind(self) -> bool:
        return self.reference is None

    def __len__(self) -> int:
        return len(self.w2v)


def key_codes(*tables: Scores) -> tuple[list[np.ndarray], int]:
    """Each table's (speaker, part) keys as integer codes shared by the tables, and
    the number of codes. A code is ``speaker rank * 5 + part slot`` (speakers in
    ``str`` order, parts in ``PART_VALUES`` order), so codes sort as the keys do."""
    ids = [table.speaker_id.tolist() for table in tables]
    rank = dict(zip(sorted(set().union(*ids)), count()))
    codes = [np.fromiter(map(rank.__getitem__, i), dtype=np.intp, count=len(i))
             * len(PART_VALUES) + np.searchsorted(PART_VALUES, table.part)
             for i, table in zip(ids, tables)]
    return codes, len(rank) * len(PART_VALUES)


def first_repeat(codes: np.ndarray) -> int | None:
    """The first row whose code an earlier row holds, None when no code repeats."""
    if (np.bincount(codes) < 2).all():
        return None
    order = np.argsort(codes, kind="stable")
    return int(order[1:][codes[order[1:]] == codes[order[:-1]]].min())


def _row_at(table: Scores, codes: np.ndarray, n_codes: int, label: str) -> np.ndarray:
    """Row of ``table`` holding each code, -1 for none; DuplicateKey on a repeat."""
    row = first_repeat(codes)
    if row is not None:
        raise DuplicateKey(f"duplicate {label} key {_keys(table, [row])[0]}")
    at = np.full(n_codes, -1, dtype=np.intp)
    at[codes] = np.arange(len(codes))
    return at


def key_grid(table: Scores, label: str) -> np.ndarray:
    """Row of ``table`` holding each (speaker, part) key, -1 for none, as an
    ``(n_speakers, len(PART_VALUES))`` grid: speakers in ``str`` order, parts in
    ``PART_VALUES`` order. Raises DuplicateKey when a key repeats."""
    (codes,), n_codes = key_codes(table)
    return _row_at(table, codes, n_codes, label).reshape(-1, len(PART_VALUES))


def match_keys(rows: Scores, table: Scores, label: str) -> np.ndarray:
    """Row of ``table`` holding each row's (speaker, part) key, -1 where
    ``table`` has none; raises DuplicateKey when a key repeats in ``table``."""
    (row_codes, codes), n_codes = key_codes(rows, table)
    return _row_at(table, codes, n_codes, label)[row_codes]


def join(w2v: Scores, mllm: Scores, refs: Scores | None = None) -> JoinedDataset:
    """Inner-join the grader streams (and optional references) on key,
    sorted by (speaker, part).

    Keys present in only one grader stream are dropped with a warning.
    When references are supplied, every joined key must have one:
    partial reference coverage raises rather than silently shrinking
    the evaluation set.
    """
    tables = (w2v, mllm) if refs is None else (w2v, mllm, refs)
    codes, n_codes = key_codes(*tables)
    in_w2v = _row_at(w2v, codes[0], n_codes, "w2v")
    in_mllm = _row_at(mllm, codes[1], n_codes, "mllm")
    shared = (in_w2v >= 0) & (in_mllm >= 0)
    if not shared.any():
        raise EmptyJoin("no (speaker, part) keys shared by the two grader streams")
    for side, table, only in (("w2v", w2v, in_w2v[(in_w2v >= 0) & (in_mllm < 0)]),
                              ("mllm", mllm, in_mllm[(in_mllm >= 0) & (in_w2v < 0)])):
        if only.size:
            log.warning("%d key(s) only in %s stream, first %s", only.size, side,
                        _keys(table, only[:3]))
    rows = in_w2v[shared]
    reference = None
    if refs is not None:
        in_refs = _row_at(refs, codes[2], n_codes, "reference")[shared]
        missing = rows[in_refs < 0]
        if missing.size:
            raise MissingReference(f"{missing.size} joined key(s) without a reference, "
                                   f"first {_keys(w2v, missing[:3])}")
        reference = refs.score[in_refs]
    return JoinedDataset(w2v.speaker_id[rows], w2v.part[rows], w2v.score[rows],
                         mllm.score[in_mllm[shared]], reference)


def pair_on_keys(pred: Scores, ref: Scores) -> tuple[np.ndarray, np.ndarray]:
    """Prediction and reference scores matched on (speaker, part), in
    prediction order.

    Every prediction needs a reference; references without a prediction
    are dropped with one warning giving their count.
    """
    at = match_keys(pred, ref, "reference")
    missing = np.flatnonzero(at < 0)
    if len(missing) == len(pred):
        raise EmptyJoin("no shared (speaker, part) keys between predictions and references")
    if len(missing):
        raise MissingReference(f"{len(missing)} prediction key(s) without a reference, "
                               f"first {_keys(pred, missing[:3])}")
    if len(ref) > len(pred):  # each file holds every key once
        log.warning("%d reference key(s) without a prediction dropped", len(ref) - len(pred))
    return pred.score, ref.score[at]

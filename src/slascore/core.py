"""Domain types: score tables and joined grader datasets, held as numpy
columns with one entry per (speaker, part) row, plus validation and key
matching. Speaker ids are ``object`` arrays of ``str``, so every id survives
exactly; each score table derives its key grid and first repeated key once
(``Scores.key_index``), and ``key_rows`` aligns tables' grids on one speaker axis.

This module owns the score scale, from which every level test, snap, clamp and
fusion edge derives: references take the eight ``REFERENCE_LEVELS``; grader predictions
are unconstrained finite reals (counted when outside ``SCORE_RANGE``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count

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
SCORE_RANGE = (0.0, 6.0)  # the graders' range, and fusion's outer edges
LEVEL_TOL = 1e-9  # how far a value may lie from a level and still be that level


def snap_to_grid(pred) -> np.ndarray:
    """Nearest level to each score, half-way up (3.25 -> 3.5); clipped first, so none overflows."""
    p = np.clip(np.asarray(pred, dtype=np.float64), REFERENCE_LEVELS[0], REFERENCE_LEVELS[-1])
    return np.floor(2.0 * p + 0.5) / 2.0


def is_on_grid(values: np.ndarray) -> np.ndarray:
    """True where a value lies within ``LEVEL_TOL`` of a reference level."""
    return np.abs(np.asarray(values, dtype=np.float64) - snap_to_grid(values)) <= LEVEL_TOL


def _int64(value) -> int:
    """``value`` as an int, or -1 (no part) when its int64 conversion fails or differs from it."""
    try:
        exact = int(np.int64(value))
    except (TypeError, ValueError, OverflowError):
        return -1
    return exact if exact == value else -1


def _store_columns(table, **dtypes) -> None:
    """Store each named field of ``table`` (except a ``None`` one) as a read-only 1-D
    array of its dtype; all of them must have one length, each part in ``PART_VALUES``.
    A part whose int64 conversion fails or differs from it (1.7, "3", NaN, 1e30) is none."""
    given = table.part
    if not isinstance(given, np.ndarray):  # as objects, or numpy reads [1, "3"] as text
        given = np.array(given, dtype=object)
    if not np.can_cast(given.dtype, np.int64):  # an integer column is taken as it is
        object.__setattr__(table, "part", np.reshape(
            [_int64(value) for value in given.ravel().tolist()], given.shape))
    columns = {name: np.asarray(getattr(table, name), dtype=dtype).view()
               for name, dtype in dtypes.items() if getattr(table, name) is not None}
    shapes = {col.shape for col in columns.values()}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise LengthMismatch(f"need 1-D columns of one length, got shapes "
                             f"{[col.shape for col in columns.values()]}")
    for name, col in columns.items():
        col.flags.writeable = False
        object.__setattr__(table, name, col)
    bad = ~np.isin(table.part, PART_VALUES)
    if bad.any():
        raise InvalidPart(f"part {given[bad].tolist()[0]!r} not in {PART_VALUES} "
                          f"(speaker {table.speaker_id[bad][0]})")


@dataclass(frozen=True, eq=False)
class Scores:
    """One score per (speaker, part) row: grader predictions, references,
    fused or overall scores."""

    speaker_id: np.ndarray
    part: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        # the ids and parts are the table's own, so no caller can change them under key_index
        object.__setattr__(self, "speaker_id", np.array(self.speaker_id, dtype=object))
        if isinstance(self.part, np.ndarray):  # a list is stored as a new array anyway
            object.__setattr__(self, "part", self.part.copy())
        _store_columns(self, speaker_id=object, part=np.int64, score=np.float64)

    def __len__(self) -> int:
        return len(self.score)

    @cached_property
    def key_index(self) -> tuple[list[str], np.ndarray, int | None]:
        """The distinct speaker ids in ``str`` order; the read-only ``(n_speakers,
        len(PART_VALUES))`` grid of each (speaker, part) key's first row, -1 for none; the
        first row repeating an earlier key, or None. Derived once per table; the ids are
        ranked by ``_rank``, which sorts only the distinct ones."""
        ids, rank = _rank(self.speaker_id.tolist())
        key = (rank, np.searchsorted(PART_VALUES, self.part))
        rows = np.arange(len(self))
        grid = np.full((len(ids), len(PART_VALUES)), len(self), dtype=np.intp)
        np.minimum.at(grid, key, rows)  # each key's first row
        repeats = np.flatnonzero(grid[key] != rows)  # rows whose key an earlier row holds
        grid[grid == len(self)] = -1
        grid.flags.writeable = False
        return ids, grid, int(repeats[0]) if repeats.size else None


def _rank(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ``ids`` in ``str`` order (each the first object the list holds for it)
    and each id's rank among them: only the distinct ids are sorted, and one dict numbers them."""
    distinct = sorted(set(ids))
    rank = dict(zip(distinct, count()))
    return distinct, np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))


def _keys(table, rows=slice(None)) -> list[tuple[str, int]]:
    """(speaker, part) tuples of the selected rows, for messages."""
    return list(zip(table.speaker_id[rows].tolist(), table.part[rows].tolist()))


def validate_record(scores: Scores, kind: str, *, where=None) -> Scores:
    """Validate the scores of a ``"prediction"``, ``"reference"`` or ``"overall"``
    table: finite, and references on the 0.5-step level grid. Predictions outside
    ``SCORE_RANGE`` are counted in one warning, not rejected, since both graders regress
    continuously. Only the first fault is raised; given ``where``, a reader's row
    namer, its message starts with ``where(row)``, as in ``f.csv:2: ...``.
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
            text = message.format(scores.speaker_id[row], scores.part[row], scores.score[row])
            raise error(text if where is None else f"{where(row)}: {text}")
    if kind == "prediction":
        outside = np.count_nonzero(np.clip(scores.score, *SCORE_RANGE) != scores.score)
        if outside:
            log.warning("%d prediction(s) outside [%s, %s]", outside, *SCORE_RANGE)
    return scores


@dataclass(frozen=True, eq=False)
class JoinedDataset:
    """Inner join of the two grader streams, keyed by (speaker, part).

    ``blind`` datasets carry no reference column and can only be fused,
    not evaluated or calibrated. Having no key index, a dataset shares its
    columns: it stores read-only views of the arrays it is given.
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


def key_rows(tables: tuple[Scores, ...], labels: tuple[str, ...]) -> list[np.ndarray]:
    """Each table's row for each (speaker, part) key, -1 for none, as one grid per table on
    one speaker axis (the tables' ids in ``str`` order): their own ``key_index`` grids when
    they hold the same ids. The first table with a repeated key raises DuplicateKey."""
    indexes = [table.key_index for table in tables]
    for table, label, (_, _, repeat) in zip(tables, labels, indexes):
        if repeat is not None:
            raise DuplicateKey(f"duplicate {label} key {_keys(table, [repeat])[0]}")
    if all(own == indexes[0][0] for own, _, _ in indexes):
        return [grid for _, grid, _ in indexes]
    merged, rank = _rank(list(chain.from_iterable(own for own, _, _ in indexes)))
    ends = np.cumsum([len(own) for own, _, _ in indexes])[:-1]
    grids = [np.full((len(merged), len(PART_VALUES)), -1, dtype=np.intp) for _ in indexes]
    for out, (_, grid, _), rows in zip(grids, indexes, np.split(rank, ends)):
        out[rows] = grid  # one row scatter per table
    return grids


def join(w2v: Scores, mllm: Scores, refs: Scores | None = None) -> JoinedDataset:
    """Inner-join the grader streams (and optional references) on key,
    sorted by (speaker, part).

    Keys present in only one grader stream are dropped with a warning.
    When references are supplied, every joined key must have one:
    partial reference coverage raises rather than silently shrinking
    the evaluation set; reference keys that join no prediction are
    dropped with one more warning.
    """
    tables = (w2v, mllm) if refs is None else (w2v, mllm, refs)
    in_w2v, in_mllm, *in_refs = (grid.ravel() for grid in
                                 key_rows(tables, ("w2v", "mllm", "reference")))
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
        at = in_refs[0][shared]
        missing = rows[at < 0]
        if missing.size:
            raise MissingReference(f"{missing.size} joined key(s) without a reference, "
                                   f"first {_keys(w2v, missing[:3])}")
        reference = refs.score[at]
        unused = in_refs[0][(in_refs[0] >= 0) & ~shared]
        if unused.size:
            log.warning("%d reference key(s) without a joined prediction dropped, first %s",
                        unused.size, _keys(refs, unused[:3]))
    return JoinedDataset(w2v.speaker_id[rows], w2v.part[rows], w2v.score[rows],
                         mllm.score[in_mllm[shared]], reference)


def pair_on_keys(pred: Scores, ref: Scores) -> tuple[np.ndarray, np.ndarray]:
    """Prediction and reference scores matched on (speaker, part), in
    prediction order.

    Every prediction needs a reference; references without a prediction
    are dropped with one warning giving their count and the first three. A
    repeated key raises DuplicateKey, in the predictions first.
    """
    in_pred, in_ref = (grid.ravel() for grid in key_rows((pred, ref), ("prediction", "reference")))
    held = in_pred >= 0
    at = np.full(len(pred), -1, dtype=np.intp)
    at[in_pred[held]] = in_ref[held]
    missing = np.flatnonzero(at < 0)
    if len(missing) == len(pred):
        raise EmptyJoin("no shared (speaker, part) keys between predictions and references")
    if len(missing):
        raise MissingReference(f"{len(missing)} prediction key(s) without a reference, "
                               f"first {_keys(pred, missing[:3])}")
    unused = in_ref[(in_ref >= 0) & ~held]  # in (speaker, part) key order
    if unused.size:
        log.warning("%d reference key(s) without a prediction dropped, first %s",
                    unused.size, _keys(ref, unused[:3]))
    return pred.score, ref.score[at]

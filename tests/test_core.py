import logging
import math
import re
import sys
from functools import cached_property

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slascore.core import (
    LEVEL_TOL,
    OVERALL,
    PARTS,
    REFERENCE_LEVELS,
    JoinedDataset,
    Scores,
    is_on_grid,
    join,
    key_rows,
    pair_on_keys,
    validate_record,
)
from slascore.errors import (
    DuplicateKey,
    EmptyJoin,
    InvalidPart,
    LengthMismatch,
    MissingReference,
    NonFiniteScore,
    NoReferences,
    OffGridReference,
)
from slascore import fileio
from slascore.fusion import aggregate_overall, calibrate
from oracles import is_on_grid_oracle, join_oracle, key_index_oracle, pair_on_keys_oracle
from tables import rows, scores


def rec(sid, part, score):
    return scores((sid, part, score))


class TestValidateRecord:
    def test_valid_reference(self):
        r = rec("a1", 3, 3.5)
        assert validate_record(r, "reference") is r

    def test_off_grid_reference(self):
        with pytest.raises(OffGridReference):
            validate_record(rec("a1", 3, 3.3), "reference")

    def test_reference_outside_range(self):
        with pytest.raises(OffGridReference):
            validate_record(rec("a1", 3, 6.0), "reference")

    def test_invalid_part(self):
        with pytest.raises(InvalidPart):
            validate_record(rec("a1", 2, 3.0), "prediction")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown record kind 'overal'$"):
            validate_record(rec("a1", 1, 3.0), "overal")

    def test_non_finite_prediction(self):
        with pytest.raises(NonFiniteScore):
            validate_record(rec("a1", 1, math.nan), "prediction")

    def test_where_names_the_faulty_row(self):
        def where(row):
            return f"f.csv:{row + 2}"
        with pytest.raises(NonFiniteScore,
                           match=r"^f\.csv:2: non-finite score for \(a1, 1\)$"):
            validate_record(rec("a1", 1, math.nan), "prediction", where=where)
        with pytest.raises(OffGridReference, match=r"^f\.csv:3: reference 3\.3 for \(b2, 3\) "
                                                   r"is not a 0\.5-step level in \[2\.0, 5\.5\]$"):
            validate_record(scores(("a1", 1, 3.5), ("b2", 3, 3.3)), "reference", where=where)
        with pytest.raises(NonFiniteScore, match=r"^non-finite score for \(a1, 1\)$"):
            validate_record(rec("a1", 1, math.nan), "prediction")

    def test_prediction_any_finite_real(self, caplog):
        validate_record(rec("a1", 1, 3.33), "prediction")
        validate_record(rec("a1", 1, -1.0), "prediction")  # warned, not rejected
        # k = 3 out-of-range predictions in one column: one warning giving k
        column = scores(("a", 1, -1.0), ("a", 3, 3.0), ("a", 4, 6.5), ("b", 1, 6.0),
                        ("b", 3, 0.0), ("b", 4, 1e9))
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert validate_record(column, "prediction") is column
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().startswith("3 prediction(s) outside")

    @pytest.mark.parametrize("level", REFERENCE_LEVELS)
    def test_all_levels_valid(self, level):
        validate_record(rec("a1", 5, level), "reference")


class TestJoin:
    def test_single_match(self):
        ds = join(rec("a", 1, 3.0), rec("a", 1, 4.0))
        assert len(ds) == 1
        assert ds.w2v[0] == 3.0 and ds.mllm[0] == 4.0
        assert ds.blind

    def test_unmatched_keys_dropped(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            ds = join(scores(("a", 1, 3.0), ("b", 1, 3.0)), rec("a", 1, 4.0))
        assert len(ds) == 1
        assert "b" in caplog.text

    def test_disjoint_keys(self):
        with pytest.raises(EmptyJoin):
            join(rec("a", 1, 3.0), rec("b", 1, 4.0))

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey):
            join(scores(("a", 1, 3.0), ("a", 1, 3.5)), rec("a", 1, 4.0))

    def test_symmetric_row_content(self):
        w2v = [("a", 1, 3.0), ("b", 3, 4.0)]
        mllm = [("b", 3, 4.5), ("a", 1, 3.5)]
        ds1 = join(scores(*w2v), scores(*mllm))
        ds2 = join(scores(*reversed(w2v)), scores(*reversed(mllm)))
        assert rows(ds1) == rows(ds2)

    def test_with_references(self):
        ds = join(rec("a", 1, 3.1), rec("a", 1, 3.9), rec("a", 1, 3.5))
        assert not ds.blind
        assert ds.reference.tolist() == [3.5]

    def test_partial_references_error(self):
        with pytest.raises(MissingReference):
            join(
                scores(("a", 1, 3.0), ("b", 1, 3.0)),
                scores(("a", 1, 4.0), ("b", 1, 4.0)),
                rec("a", 1, 3.5),
            )

    def test_blind_references_raise(self):
        ds = join(rec("a", 1, 3.0), rec("a", 1, 4.0))
        assert ds.reference is None
        with pytest.raises(NoReferences):
            calibrate(ds)

    def test_rejoin_projections_idempotent(self):
        ds = join(
            scores(("a", 1, 3.0), ("b", 3, 4.2)),
            scores(("a", 1, 3.4), ("b", 3, 4.4)),
            scores(("a", 1, 3.0), ("b", 3, 4.5)),
        )
        w2v, mllm, refs = (Scores(ds.speaker_id, ds.part, column)
                           for column in (ds.w2v, ds.mllm, ds.reference))
        assert rows(join(w2v, mllm, refs)) == rows(ds)

    def test_case_sensitive_keys(self):
        with pytest.raises(EmptyJoin):
            join(rec("A", 1, 3.0), rec("a", 1, 4.0))


# Each level, the level +- LEVEL_TOL, and the float either side of all three.
_NEAR_LEVELS = [x for level in REFERENCE_LEVELS
                for y in (level - LEVEL_TOL, level, level + LEVEL_TOL)
                for x in (np.nextafter(y, -math.inf), y, np.nextafter(y, math.inf))]
GRID_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_NEAR_LEVELS + [math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                                    sys.float_info.min, sys.float_info.max,
                                    -sys.float_info.max, 0.0, -0.0]))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(GRID_VALUES, max_size=40))
def test_is_on_grid_agrees_with_the_level_columns(values):
    """The one-snap level test equals one comparison per level on any float,
    and raises no floating-point error under the CLI's error state."""
    with np.errstate(over="raise", invalid="raise"):
        got = is_on_grid(values)
    expected = is_on_grid_oracle(values)
    assert got.shape == expected.shape and got.tolist() == expected.tolist()


def test_parts_constant():
    assert PARTS == (1, 3, 4, 5)


def test_dataset_accessors():
    ds = JoinedDataset([], [], [], [], [])
    assert len(ds) == 0 and not ds.blind


def test_part_values_checked_when_built():
    """A table holds only OVERALL and the four parts, so the key grids of
    any tables have five columns, one row per distinct speaker. A part is taken
    exactly: one int64 does not hold as it is (1.7, "3", NaN, 1e30) is neither
    truncated nor parsed, but named by the InvalidPart it raises, also in a plain
    list that mixes it with a valid part."""
    for bad in (2, 6, -1, 2**40, 1.7, "3", math.nan, 1e30):
        with pytest.raises(InvalidPart, match=re.escape(f"part {bad!r} not in")):
            Scores(["a", "b"], np.array([1, bad], dtype=object), [3.0, 3.0])
        with pytest.raises(InvalidPart, match=re.escape(f"part {bad!r} not in")):
            JoinedDataset(["a"], [bad], [3.0], [3.0])
        with pytest.raises(InvalidPart, match=re.escape(f"part {bad!r} not in")):
            Scores(["a", "b"], [1, bad], [3.0, 3.0])
        with pytest.raises(InvalidPart, match=re.escape(f"part {bad!r} not in")):
            JoinedDataset(["a", "b"], [1, bad], [3.0, 3.0], [3.0, 3.0])
    assert Scores(["a"], [3.0], [3.0]).part.tolist() == [3]
    first = Scores(["b", "a", "b", "a"], [OVERALL, 5, 1, 1], np.zeros(4))
    second = Scores(["c", "a"], [4, 3], np.zeros(2))
    grid, other = key_rows((first, second), ("first", "second"))
    assert grid.shape == other.shape == (3, 5)  # speakers a, b, c; parts OVERALL, 1, 3, 4, 5
    assert np.argwhere(grid >= 0).tolist() == [[0, 1], [0, 4], [1, 0], [1, 1]]
    assert grid[grid >= 0].tolist() == [3, 1, 0, 2]
    assert np.argwhere(other >= 0).tolist() == [[0, 2], [2, 3]]
    assert other[other >= 0].tolist() == [1, 0]


@pytest.mark.parametrize("columns, shapes", [
    ((["a", "b"], [1], [3.0, 3.5]), "[(2,), (1,), (2,)]"),
    ((["a"], [1], [[3.0]]), "[(1,), (1,), (1, 1)]"),
], ids=["lengths", "matrix"])
def test_columns_of_one_length_when_built(columns, shapes):
    with pytest.raises(LengthMismatch, match=re.escape(
            f"need 1-D columns of one length, got shapes {shapes}") + "$"):
        Scores(*columns)


def test_columns_are_read_only():
    """A table's columns cannot be changed in place, so its derived key index
    cannot go stale, nor can the index's grid; the caller's own array keeps its flags."""
    ids = np.array(["a", "b"], dtype=object)
    table = Scores(ids, [1, 1], [3.0, 4.0])
    for column in (table.speaker_id, table.part, table.score, table.key_index[1]):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    with pytest.raises(ValueError, match="read-only"):
        table.speaker_id[0] = "z"
    assert ids.flags.writeable


def test_ids_are_the_tables_own():
    """Changing the caller's id array after the table ranked its ids changes
    neither the table's ids nor where ``key_rows`` files its rows."""
    ids = np.array(["b", "a"], dtype=object)
    t = Scores(ids, [1, 1], [1.0, 2.0])
    t.key_index
    ids[0] = "z"
    assert t.speaker_id.tolist() == ["b", "a"]
    assert t.key_index[0] == ["a", "b"]
    (grid,) = key_rows((t,), ("prediction",))
    assert grid is t.key_index[1]  # one table's own grid, handed out as it is
    assert grid[:, 1].tolist() == [1, 0]  # a in row 1, b in row 0


def test_parts_are_the_tables_own():
    """Changing the caller's part array after the table indexed its keys changes
    neither the table's parts nor its first repeated key: the index still agrees
    with a fresh table built from the table's columns."""
    part = np.array([1, 3, 1], dtype=np.int64)
    t = Scores(["a", "a", "b"], part, [1.0, 2.0, 3.0])
    assert t.key_index[2] is None
    part[1] = 1
    assert t.part.tolist() == [1, 3, 1]
    fresh = Scores(t.speaker_id, t.part, t.score)
    assert (t.key_index[1].tolist(), t.key_index[2]) == (fresh.key_index[1].tolist(),
                                                         fresh.key_index[2])


def test_only_score_tables_copy_their_ids():
    """A ``Scores`` table keeps a key index, so it copies its ids; a
    ``JoinedDataset`` keeps none and stores a read-only view of the ids it is given."""
    ids = np.array(["b", "a"], dtype=object)
    joined = JoinedDataset(ids, [1, 1], [1.0, 2.0], [1.0, 2.0])
    assert np.shares_memory(joined.speaker_id, ids)
    assert not joined.speaker_id.flags.writeable
    assert not np.shares_memory(Scores(ids, [1, 1], [1.0, 2.0]).speaker_id, ids)
    assert not np.shares_memory(Scores(joined.speaker_id, [1, 1], [1.0, 2.0]).speaker_id, ids)


def test_each_table_ranks_its_ids_once(tmp_path, monkeypatch):
    """Reading three files, joining them, pairing two of them and averaging one
    derives each table's key index once: the reader's duplicate check derives it
    and ``join``, ``pair_on_keys`` and ``aggregate_overall`` reuse it."""
    derived = []
    key_index = Scores.key_index

    def counted(table):
        derived.append(table)
        return key_index.func(table)

    prop = cached_property(counted)
    prop.__set_name__(Scores, "key_index")
    monkeypatch.setattr(Scores, "key_index", prop)
    sids, parts = zip(*((sid, part) for sid in ("b", "a", "c") for part in PARTS))
    paths = {}
    for name, offset in (("w2v", 2.0), ("mllm", 2.25), ("refs", 2.5)):
        paths[name] = tmp_path / f"{name}.csv"
        fileio.write_predictions(paths[name], Scores(sids, parts, offset + np.arange(12) % 4 * 0.5))
    w2v, mllm = (fileio.read_predictions(paths[name]) for name in ("w2v", "mllm"))
    refs = fileio.read_predictions(paths["refs"], "reference")
    assert derived == [w2v, mllm, refs]
    assert len(join(w2v, mllm, refs)) == 12
    assert pair_on_keys(w2v, refs)[1].tolist() == refs.score.tolist()
    assert aggregate_overall(w2v).speaker_id.tolist() == ["a", "b", "c"]
    assert derived == [w2v, mllm, refs]
    assert all("key_index" in vars(table) for table in (w2v, mllm, refs))


def test_pair_on_keys_rejects_a_repeated_prediction_key():
    pred = Scores(["a", "a", "b"], [1, 1, 1], [3.0, 4.0, 2.0])
    with pytest.raises(DuplicateKey, match=r"^duplicate prediction key \('a', 1\)$"):
        pair_on_keys(pred, Scores(["a", "b"], [1, 1], [3.0, 2.0]))
    with pytest.raises(DuplicateKey, match="prediction"):  # checked before the references
        pair_on_keys(pred, pred)


# Speaker ids that sort, compare or survive differently: "1" against
# "01", a trailing NUL, padding, non-ASCII and mixed case.
KEY_IDS = st.sampled_from(["1", "01", "a", "A", "a\x00", " a", "a ", "\u00e9", "\u4e2d", "b"])


@st.composite
def key_tables(draw) -> tuple[Scores, Scores, Scores | None]:
    """w2v, mllm and (or None) reference tables drawn from one pool of
    keys: each may be empty, hold keys the others lack or repeat a key."""
    pool = draw(st.lists(st.tuples(KEY_IDS, st.sampled_from((*PARTS, OVERALL))),
                         max_size=12, unique=True))
    tables = []
    for _ in range(3):
        keys = [key for key in draw(st.permutations(pool)) if draw(st.integers(0, 3))]
        if keys and not draw(st.integers(0, 5)):
            keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
        values = draw(st.lists(st.floats(width=64), min_size=len(keys), max_size=len(keys)))
        tables.append(Scores([k[0] for k in keys], [k[1] for k in keys], values))
    return tables[0], tables[1], tables[2] if draw(st.booleans()) else None


@settings(max_examples=300, deadline=None)
@given(tables=key_tables())
def test_key_index_agrees_with_a_dict_scan(tables):
    """Each table's distinct ids, key grid and first repeated row are those a
    dict scan of its rows finds; so are those of the tables' rows stacked, which
    repeat every key two tables share."""
    drawn = [table for table in tables if table is not None]
    stacked = Scores(*(np.concatenate([getattr(table, name) for table in drawn])
                       for name in ("speaker_id", "part", "score")))
    for table in (*drawn, stacked):
        ids, grid, repeat = table.key_index
        assert grid.dtype == np.intp and grid.shape == (len(ids), 5)
        assert (ids, grid.tolist(), repeat) == key_index_oracle(table)


def outcome(fn, *args):
    """``fn``'s result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (DuplicateKey, EmptyJoin, MissingReference) as exc:
        return type(exc), str(exc)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables=key_tables())
# four keys only in the second table, out of key order: the warnings name the first three
@example(tables=(Scores(["b"], [1], [3.0]),
                 Scores(["d", "b", "a", "c", "a"], [1, 1, 3, 1, 1], [3.0] * 5), None))
def test_join_and_pair_on_keys_agree_with_dict_oracles(caplog, tables):
    """``join`` and ``pair_on_keys`` give the dict joins' rows and scores, in
    their order and bit for bit, their DuplicateKey, EmptyJoin and
    MissingReference messages and their warnings."""
    w2v, mllm, refs = tables
    other = refs if refs is not None else mllm
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="slascore.core"):
        got = outcome(pair_on_keys, w2v, other)
    want = outcome(pair_on_keys_oracle, w2v, other)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert [bits(column) for column in got] == [bits(column) for column in want[:2]]
        assert [r.getMessage() for r in caplog.records] == want[2]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="slascore.core"):
        got = outcome(join, w2v, mllm, refs)
    want = outcome(join_oracle, w2v, mllm, refs)
    if isinstance(want[0], type):
        assert got == want
        return
    want_rows, want_warnings = want
    assert [r.getMessage() for r in caplog.records] == want_warnings
    columns = list(zip(*want_rows))  # join raises EmptyJoin rather than return no rows
    assert got.speaker_id.tolist() == list(columns[0])
    assert got.part.tolist() == list(columns[1])
    assert bits(got.w2v) == bits(columns[2]) and bits(got.mllm) == bits(columns[3])
    assert got.blind == (refs is None)
    if refs is not None:
        assert bits(got.reference) == bits(columns[4])

import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slascore.core import (
    OVERALL,
    PARTS,
    REFERENCE_LEVELS,
    JoinedDataset,
    Scores,
    join,
    key_codes,
    match_keys,
    validate_record,
)
from slascore.errors import (
    DuplicateKey,
    EmptyJoin,
    InvalidPart,
    MissingReference,
    NonFiniteScore,
    NoReferences,
    OffGridReference,
)
from slascore.fusion import calibrate
from oracles import join_oracle, match_keys_oracle
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

    def test_non_finite_prediction(self):
        with pytest.raises(NonFiniteScore):
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


def test_parts_constant():
    assert PARTS == (1, 3, 4, 5)


def test_dataset_accessors():
    ds = JoinedDataset([], [], [], [], [])
    assert len(ds) == 0 and not ds.blind


def test_part_values_checked_when_built():
    """A table holds only OVERALL and the four parts, so the key codes of
    any tables number five per distinct speaker."""
    for bad in (2, 6, -1, 2**40):
        with pytest.raises(InvalidPart, match=f"part {bad} not in"):
            Scores(["a", "b"], [1, bad], [3.0, 3.0])
        with pytest.raises(InvalidPart):
            JoinedDataset(["a"], [bad], [3.0], [3.0])
    first = Scores(["b", "a", "b", "a"], [OVERALL, 5, 1, 1], np.zeros(4))
    second = Scores(["c", "a"], [4, 3], np.zeros(2))
    (codes, other), n_codes = key_codes(first, second)
    assert n_codes == 5 * 3
    assert codes.tolist() == [5, 4, 6, 1] and other.tolist() == [13, 2]


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
def test_join_and_match_keys_agree_with_dict_oracle(caplog, tables):
    """``join`` and ``match_keys`` give the dict-of-tuples join's rows, in
    its (speaker, part) order and bit for bit, its row indices (-1 for a
    missing key), its DuplicateKey message and its one-stream warnings."""
    w2v, mllm, refs = tables
    other = refs if refs is not None else mllm
    got = outcome(match_keys, w2v, other, "reference")
    want = outcome(match_keys_oracle, w2v, other, "reference")
    assert (got.tolist() if isinstance(got, np.ndarray) else got) == want
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

import logging
import math

import pytest

from slascore.core import (
    PARTS,
    REFERENCE_LEVELS,
    JoinedDataset,
    Scores,
    join,
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

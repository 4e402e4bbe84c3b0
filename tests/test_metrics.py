import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from slascore import metrics
from slascore.errors import (
    ConstantInput,
    EmptyInput,
    LengthMismatch,
    OffGridReference,
)

finite_scores = st.floats(min_value=0.0, max_value=6.0, allow_nan=False)
score_lists = st.lists(finite_scores, min_size=2, max_size=50)


def paired_lists(min_size=1):
    return st.integers(min_value=min_size, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(finite_scores, min_size=n, max_size=n),
            st.lists(finite_scores, min_size=n, max_size=n),
        )
    )


class TestRmse:
    def test_identity(self):
        assert metrics.rmse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_single(self):
        assert metrics.rmse([2.0], [3.0]) == 1.0

    def test_symmetric_errors(self):
        assert metrics.rmse([3.0, 3.5], [3.5, 3.0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            metrics.rmse([], [])

    @given(paired_lists())
    def test_symmetry_and_nonnegativity(self, pair):
        a, b = pair
        r = metrics.rmse(a, b)
        assert r == metrics.rmse(b, a)
        assert r >= 0.0
        if a == b:
            assert r == 0.0


class TestPearson:
    def test_exact_linear(self):
        assert metrics.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_anti_linear(self):
        assert metrics.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # cov = 1.0, both variances 1.25 (population form)
        assert metrics.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            metrics.pearson([1.0, 1.0], [1.0, 2.0])

    def test_too_short(self):
        with pytest.raises(EmptyInput):
            metrics.pearson([1.0], [2.0])

    @given(paired_lists(min_size=2),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=50)
    def test_positive_affine_invariance(self, pair, scale, shift):
        a, b = pair
        if np.std(a) < 1e-6 or np.std(b) < 1e-6:
            return
        base = metrics.pearson(a, b)
        shifted = metrics.pearson([scale * x + shift for x in a], b)
        assert shifted == pytest.approx(base, abs=1e-9)


class TestSpearman:
    def test_monotone(self):
        assert metrics.spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed(self):
        assert metrics.spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_hand_computed(self):
        # pred ranks (1.5, 1.5, 3), ref ranks (1, 2, 3)
        got = metrics.spearman([3.0, 3.0, 4.0], [2.0, 3.0, 4.0])
        assert got == pytest.approx(0.8660254037844387)

    def test_equals_pearson_on_ranked_tie_free(self):
        rng = np.random.default_rng(3)
        a = rng.permutation(20).astype(float) + 1
        b = rng.permutation(20).astype(float) + 1
        assert metrics.spearman(a, b) == pytest.approx(metrics.pearson(a, b))

    @given(paired_lists(min_size=3))
    @settings(max_examples=50)
    def test_monotone_transform_invariance(self, pair):
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        ta = [x**3 + 2 * x for x in a]
        if len(set(ta)) != len(set(a)):  # rounding collapsed near-ties
            return
        base = metrics.spearman(a, b)
        assert metrics.spearman(ta, b) == pytest.approx(base, abs=1e-9)


class TestWithinTolerance:
    def test_boundary_inclusive(self):
        got = metrics.within_tolerance([3.0, 4.0, 5.0], [3.5, 4.6, 5.0], 0.5)
        assert got == pytest.approx(200.0 / 3.0)

    def test_wider_tolerance(self):
        assert metrics.within_tolerance([3.0, 4.0, 5.0], [3.5, 4.6, 5.0], 1.0) == 100.0

    def test_identity(self):
        assert metrics.within_tolerance([3.0, 4.0], [3.0, 4.0], 0.5) == 100.0

    def test_nonpositive_tol(self):
        with pytest.raises(ValueError):
            metrics.within_tolerance([3.0], [3.0], 0.0)

    @given(paired_lists())
    @settings(max_examples=50)
    def test_monotone_in_tol(self, pair):
        a, b = pair
        half = metrics.within_tolerance(a, b, 0.5)
        one = metrics.within_tolerance(a, b, 1.0)
        assert half <= one


class TestSnapToGrid:
    @pytest.mark.parametrize("raw,snapped", [
        (3.2, 3.0), (3.3, 3.5), (3.25, 3.5), (3.75, 4.0),
        (0.0, 2.0), (9.9, 5.5), (2.0, 2.0), (5.5, 5.5),
    ])
    def test_values(self, raw, snapped):
        assert metrics.snap_to_grid([raw])[0] == snapped

    @given(st.floats(min_value=-2.0, max_value=8.0, allow_nan=False))
    def test_matches_oracle(self, x):
        assert metrics.snap_to_grid([x])[0] == oracles.snap_oracle(x)


class TestMacroF1:
    def test_hand_computed(self):
        got = metrics.macro_f1([2.0, 3.0, 3.0], [2.0, 2.0, 3.0])
        assert got == pytest.approx(2.0 / 3.0)

    def test_perfect(self):
        assert metrics.macro_f1([2.0, 3.5, 5.5], [2.0, 3.5, 5.5]) == 1.0

    def test_no_overlap(self):
        assert metrics.macro_f1([5.5, 5.5], [2.0, 2.0]) == 0.0

    def test_off_grid_reference(self):
        with pytest.raises(OffGridReference):
            metrics.macro_f1([3.0], [3.1])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            metrics.macro_f1([], [])

    def test_snaps_predictions(self):
        assert metrics.macro_f1([2.1, 3.6], [2.0, 3.5]) == 1.0

    @given(st.lists(st.sampled_from([2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_one_iff_snapped_equal(self, refs):
        assert metrics.macro_f1(refs, refs) == 1.0


class TestFullReport:
    def test_identity_pairs(self):
        rep = metrics.full_report([2.0, 3.0, 4.0], [2.0, 3.0, 4.0])
        assert rep.rmse == 0.0
        assert rep.pcc == pytest.approx(1.0)
        assert rep.within_half == 100.0 and rep.within_one == 100.0
        assert rep.n == 3

    def test_invariant_within_ordering(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(2, 5.5, 50), rng.uniform(2, 5.5, 50)
        rep = metrics.full_report(a, b)
        assert rep.within_half <= rep.within_one

    def test_random_matches_oracles(self):
        rng = np.random.default_rng(7)
        a = list(rng.uniform(2, 5.5, 100))
        b = list(rng.uniform(2, 5.5, 100))
        rep = metrics.full_report(a, b)
        assert rep.rmse == pytest.approx(oracles.rmse_oracle(a, b), rel=1e-9)
        assert rep.pcc == pytest.approx(oracles.pearson_oracle(a, b), rel=1e-9)
        assert rep.src == pytest.approx(oracles.spearman_oracle(a, b), rel=1e-9)
        assert rep.within_half == pytest.approx(oracles.within_oracle(a, b, 0.5), rel=1e-9)


class TestFormatting:
    def test_table1_row_renders_verbatim(self):
        rep = metrics.MetricReport(rmse=0.394, pcc=0.790, src=0.797,
                                   within_half=81.3, within_one=99.3, n=300)
        assert metrics.format_metric_row(rep) == "0.394 0.790 0.797 81.3 99.3"

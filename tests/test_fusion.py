import inspect
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slascore import metrics
from slascore.core import OVERALL, PARTS, REFERENCE_LEVELS, JoinedDataset, Scores
from slascore.errors import (
    DuplicateKey,
    EmptyDataset,
    InvalidConfig,
    MissingPart,
    NonFiniteScore,
    NoReferences,
)
from slascore.fusion import (
    DEFAULT_EDGES,
    GRID_STEP,
    N_BINS,
    WEIGHT_GRID,
    FusionCalibration,
    aggregate_overall,
    bin_index,
    calibrate,
    fuse_dataset,
    fuse_one,
)
from slascore.synth import SynthConfig, generate_scores, heteroscedastic_config
from oracles import aggregate_oracle, grid_scan_calibration
import tables
from tables import rows, scores


@st.composite
def per_part_tables(draw) -> Scores:
    """Per-part tables of several speakers in shuffled row order: most speakers
    hold the four parts once; some lack one, add an OVERALL row or repeat a part."""
    speakers = draw(st.lists(st.sampled_from(["1", "01", "a", "A", "a\x00", " a", "\u00e9", "b"]),
                             max_size=5, unique=True))
    keys = []
    for sid in speakers:
        held = list(PARTS)
        fault = draw(st.integers(0, 9))
        if fault == 0:
            held.remove(draw(st.sampled_from(PARTS)))
        elif fault in (1, 2):
            held.append(OVERALL if fault == 1 else draw(st.sampled_from(PARTS)))
        keys += [(sid, part) for part in held]
    keys = draw(st.permutations(keys))
    # four parts sum without overflow, which the CLI reports as exit 2
    values = draw(st.lists(st.floats(-1e300, 1e300), min_size=len(keys), max_size=len(keys)))
    return Scores([sid for sid, _ in keys], [part for _, part in keys], values)


def make_calib(weights, **kw):
    return FusionCalibration(weights=tuple(weights), **kw)


def dataset(rows):
    return tables.dataset(*rows)


class TestLayout:
    def test_default_edges(self):
        assert DEFAULT_EDGES == (0.0, 2.25, 2.75, 3.25, 3.75, 4.25, 4.75, 5.25, 6.0)


class TestBinIndex:
    @pytest.mark.parametrize("score,expected", [
        (3.0, 2), (2.25, 1), (6.0, 7), (0.0, 0), (2.24, 0),
        (5.25, 7), (5.24, 6), (4.999, 6),
        # reference level k lies in interval k (3.0 -> 2 is listed above)
        (2.0, 0), (2.5, 1), (3.5, 3), (4.0, 4), (4.5, 5), (5.0, 6), (5.5, 7),
    ])
    def test_examples(self, score, expected):
        assert bin_index(score) == expected

    def test_clamping(self, caplog):
        assert bin_index(-0.5) == 0
        assert bin_index(6.5) == 7
        # four scores outside [0, 6]: one warning for the whole call
        scores = np.array([-0.5, 0.0, 3.0, 6.0, 6.5, 7.0, -2.0])
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert bin_index(scores).tolist() == [0, 0, 2, 7, 7, 7, 0]
        assert len(caplog.records) == 1
        assert "4" in caplog.records[0].getMessage()

    def test_non_finite(self):
        with pytest.raises(NonFiniteScore):
            bin_index(math.nan)
        with pytest.raises(NonFiniteScore):
            bin_index(np.array([3.0, math.inf]))

    @given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
           st.lists(st.floats(min_value=-10.0, max_value=16.0, allow_nan=False),
                    max_size=40))
    def test_partition(self, score, scores):
        k = bin_index(score)
        assert 0 <= k <= 7
        lo, hi = DEFAULT_EDGES[k], DEFAULT_EDGES[k + 1]
        assert lo <= score and (score < hi or (k == 7 and score <= hi))
        ks = bin_index(np.array(scores))
        assert ks.shape == (len(scores),)
        for s, k in zip(np.clip(scores, 0.0, 6.0), ks.tolist()):
            lo, hi = DEFAULT_EDGES[k], DEFAULT_EDGES[k + 1]
            assert lo <= s and (s < hi or (k == 7 and s <= hi))

    @pytest.mark.parametrize("edge_i", range(1, 8))
    def test_adjacent_bins_at_edges(self, edge_i):
        e = DEFAULT_EDGES[edge_i]
        eps = 1e-9
        assert bin_index(e - eps) == edge_i - 1
        assert bin_index(e) == edge_i
        assert bin_index(e + eps) == edge_i


class TestFuseOne:
    def test_midpoint(self):
        calib = make_calib([0.5] * N_BINS)
        assert fuse_one(3.0, 4.0, calib) == 3.5

    def test_w_zero_returns_w2v_exactly(self):
        calib = make_calib([0.0] * N_BINS)
        assert fuse_one(3.123456789, 4.7, calib) == 3.123456789

    def test_w_one_returns_mllm_exactly(self):
        calib = make_calib([1.0] * N_BINS)
        assert fuse_one(3.123456789, 4.7, calib) == 4.7

    @pytest.mark.parametrize("w2v", [math.nan, np.array([3.0, math.inf])], ids=["nan", "inf"])
    def test_non_finite_w2v(self, w2v):
        with pytest.raises(NonFiniteScore, match=r"^cannot fuse non-finite w2v score\(s\)$"):
            fuse_one(w2v, np.full(np.shape(w2v), 3.0), make_calib([0.5] * N_BINS))

    def test_uses_mllm_bin(self):
        weights = [0.0] * N_BINS
        weights[7] = 1.0
        calib = make_calib(weights)
        # mllm=5.5 is in bin 7 -> weight 1.0
        assert fuse_one(2.0, 5.5, calib) == 5.5
        # mllm=3.0 is in bin 2 -> weight 0.0
        assert fuse_one(2.0, 3.0, calib) == 2.0

    @given(st.floats(min_value=0, max_value=6, allow_nan=False),
           st.floats(min_value=0, max_value=6, allow_nan=False),
           st.floats(min_value=0, max_value=1, allow_nan=False),
           st.lists(st.tuples(st.floats(min_value=-10, max_value=16, allow_nan=False),
                              st.floats(min_value=-10, max_value=16, allow_nan=False)),
                    max_size=40))
    def test_convexity(self, w2v, mllm, w, pairs):
        calib = make_calib([w] * N_BINS)
        fused = fuse_one(w2v, mllm, calib)
        assert min(w2v, mllm) - 1e-12 <= fused <= max(w2v, mllm) + 1e-12
        a, b = np.array(pairs).reshape(-1, 2).T
        fused = fuse_one(a, b, calib)
        assert fused.shape == a.shape
        assert np.all(np.minimum(a, b) - 1e-12 <= fused)
        assert np.all(fused <= np.maximum(a, b) + 1e-12)

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(InvalidConfig):
            make_calib([1.5] * N_BINS)

    @pytest.mark.parametrize("fields,message", [
        ({"dev_rmse": math.nan}, "dev_rmse nan is not finite and >= 0"),
        ({"dev_rmse": -1, "per_bin_counts": (-1,) * N_BINS}, "dev_rmse -1 is not finite and >= 0"),
        ({"dev_rmse": 10**400}, f"dev_rmse {10**400} is not finite and >= 0"),
        ({"per_bin_counts": (0,) * 7 + (-1,)},
         r"per_bin_counts \[0, 0, 0, 0, 0, 0, 0, -1\] hold a negative count"),
        ({"per_bin_counts": (-1,) * N_BINS, "weights": (2.0,) * N_BINS},
         r"per_bin_counts \[-1, .*\] hold a negative count"),
    ], ids=["nan-dev-rmse", "dev-rmse-before-counts",
            "huge-int-dev-rmse", "negative-count", "counts-before-weights"])
    def test_every_field_checked_when_built(self, fields, message):
        """The calibration file's value rules, in the reader's order and words."""
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            FusionCalibration(**{"weights": (0.5,) * N_BINS, **fields})

    def test_default_grid_step(self):
        """The step is fixed at 0.01: neither calibrate nor a calibration takes another."""
        assert GRID_STEP == 0.01 == WEIGHT_GRID[1]
        assert "grid_step" not in inspect.signature(calibrate).parameters
        assert not hasattr(make_calib([0.5] * N_BINS), "grid_step")


class TestWeightGrid:
    def test_default_grid(self):
        """The one grid is the scan {i * 0.01 : i = 0..100}, bit for bit."""
        assert [w.hex() for w in WEIGHT_GRID] == [(i * 0.01).hex() for i in range(101)]
        assert WEIGHT_GRID[0] == 0.0 and WEIGHT_GRID[-1] == 1.0


class TestCalibrate:
    def test_mllm_exact_gives_weight_one(self):
        rng = np.random.default_rng(0)
        rows = []
        for i, ref in enumerate([2.0, 3.0, 4.0, 5.0] * 5):
            rows.append((f"s{i}", 1, ref + rng.normal(0, 0.4), ref, ref))
        calib = calibrate(dataset(rows))
        for k, cnt in enumerate(calib.per_bin_counts):
            if cnt:
                assert calib.weights[k] == 1.0
        assert calib.dev_rmse == 0.0

    def test_w2v_exact_gives_weight_zero(self):
        rng = np.random.default_rng(0)
        rows = []
        for i, ref in enumerate([2.0, 3.0, 4.0, 5.0] * 5):
            rows.append((f"s{i}", 1, ref, ref + rng.normal(0, 0.4), ref))
        calib = calibrate(dataset(rows))
        for k, cnt in enumerate(calib.per_bin_counts):
            if cnt:
                assert calib.weights[k] == 0.0

    def test_heteroscedastic_pattern(self):
        data = generate_scores(heteroscedastic_config(500, seed=0))
        calib = calibrate(data)
        low = [calib.weights[k] for k in range(4) if calib.per_bin_counts[k] > 10]
        high = [calib.weights[k] for k in range(4, 8) if calib.per_bin_counts[k] > 10]
        # binning is on the (noisy) mllm score, so bins just above the
        # noise boundary stay contaminated by misbinned low-level rows
        assert all(w <= 0.25 for w in low)
        assert all(w >= 0.5 for w in high)

    def test_dominance_over_components(self):
        data = generate_scores(SynthConfig(n_speakers=80, seed=5))
        calib = calibrate(data)
        ref = data.reference
        assert calib.dev_rmse <= metrics.rmse(data.w2v, ref)
        assert calib.dev_rmse <= metrics.rmse(data.mllm, ref)

    def test_dev_rmse_recomputable(self):
        data = generate_scores(SynthConfig(n_speakers=50, seed=2))
        calib = calibrate(data)
        fused = fuse_dataset(data, calib)
        got = metrics.rmse(fused.score, data.reference)
        assert got == calib.dev_rmse

    def test_weights_on_grid(self):
        data = generate_scores(SynthConfig(n_speakers=60, seed=9))
        calib = calibrate(data)
        assert all(w in WEIGHT_GRID for w in calib.weights)

    def test_deterministic(self):
        data = generate_scores(SynthConfig(n_speakers=40, seed=11))
        assert calibrate(data) == calibrate(data)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            calibrate(dataset([]))

    def test_blind_dataset(self):
        with pytest.raises(NoReferences):
            calibrate(dataset([("a", 1, 3.0, 3.5, None)]))

    def test_empty_bins_get_global_weight(self):
        # all refs at 3.0 -> only bin 2 populated
        rng = np.random.default_rng(4)
        rows = [(f"s{i}", 1, 3.0 + rng.normal(0, 0.3), 3.0 + rng.normal(0, 0.05), 3.0)
                for i in range(30)]
        calib = calibrate(dataset(rows))
        populated = [k for k, c in enumerate(calib.per_bin_counts) if c]
        empty = [k for k, c in enumerate(calib.per_bin_counts) if not c]
        assert len(empty) >= 5
        global_w = {calib.weights[k] for k in empty}
        assert len(global_w) == 1  # single global fallback weight

    def test_memory_is_a_few_columns(self):
        """No (grid x rows) matrix: on 100k dev rows a scan of the 101-weight
        grid peaks near 22 MB under tracemalloc, the closed form below 8 MB."""
        n = 100_000
        rng = np.random.default_rng(0)
        ref = rng.choice(REFERENCE_LEVELS, n)
        dev = JoinedDataset(np.full(n, "s", dtype=object), np.ones(n, dtype=np.int64),
                            ref + rng.normal(0, 0.5, n), ref + rng.normal(0, 0.4, n), ref)
        calibrate(dev)  # first-call allocations are not the search's
        tracemalloc.start()
        try:
            calibrate(dev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@st.composite
def calibration_bins(draw):
    """The w2v, mllm and reference columns of 1 to 50 rows in one of three forms:
    scores rounded to 0.1, so that weights tie; w2v equal to mllm on every row, so
    that every weight ties; or all three a few ulps around one magnitude from 1 to
    1e6, where rounding alone tells the weights apart."""
    n = draw(st.integers(1, 50))
    form = draw(st.sampled_from(["tenths", "equal", "ulps"]))
    if form == "ulps":
        centre = draw(st.sampled_from([1.0, 3.0, 4.5]) | st.floats(1.0, 1e6))
        steps = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        return tuple(centre + np.spacing(centre) * np.array(draw(steps), dtype=np.float64)
                     for _ in range(3))
    scores = st.lists(st.integers(0, 60), min_size=n, max_size=n).map(lambda k: np.array(k) / 10)
    if form == "equal":
        scores = st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n).map(np.array)
    w2v = draw(scores)
    mllm = w2v if form == "equal" else draw(scores)
    return w2v, mllm, np.array(draw(st.lists(st.sampled_from(REFERENCE_LEVELS), min_size=n,
                                             max_size=n)))


# Three rows a few ulps around 3.0, where the scan picks 0.51 and a shortlist
# whose tolerance scales with A, B and C alone, not with the scores, picks 0.42.
ULPS_AROUND_3 = tuple(3.0 + np.spacing(3.0) * np.array(steps) for steps in
                      ([-2.0, -2.0, 2.0], [2.0, -1.0, -1.0], [0.0, 1.0, 2.0]))


@settings(max_examples=400, deadline=None)
@given(groups=st.lists(calibration_bins(), min_size=1, max_size=3))
@example(groups=[ULPS_AROUND_3])
def test_calibrate_agrees_with_grid_scan(groups):
    """The closed-form search picks the weights a scan of the whole grid picks,
    and the same figures follow, bit for bit. Three groups of rows at most
    mostly leave some bin empty, so the global weight is searched too."""
    w2v, mllm, ref = (np.concatenate(column) for column in zip(*groups))
    dev = JoinedDataset([f"s{i}" for i in range(len(ref))], [1] * len(ref), w2v, mllm, ref)
    got, want = calibrate(dev), grid_scan_calibration(dev)

    def bits(calib):
        return [None if x is None else float(x).hex() for x in (calib.dev_rmse,
                                                                *calib.per_bin_rmse)]

    assert got.weights == want.weights
    assert got.per_bin_counts == want.per_bin_counts
    assert bits(got) == bits(want)


class TestFuseDataset:
    def test_single_row(self):
        calib = make_calib([0.5] * N_BINS)
        out = fuse_dataset(dataset([("a", 1, 3.0, 4.0, None)]), calib)
        assert rows(out) == [("a", 1, 3.5)]

    def test_empty(self):
        assert len(fuse_dataset(dataset([]), make_calib([0.5] * N_BINS))) == 0

    def test_order_and_keys_preserved(self):
        calib = make_calib([0.0] * N_BINS)
        out = fuse_dataset(dataset([("b", 3, 3.0, 4.0, None), ("a", 1, 2.5, 2.5, None)]), calib)
        assert [(sid, part) for sid, part, _ in rows(out)] == [("b", 3), ("a", 1)]

    def test_clamp(self):
        calib = make_calib([1.0] * N_BINS)
        out = fuse_dataset(dataset([("a", 1, 3.0, 5.9, None)]), calib, clamp=True)
        assert out.score[0] == 5.5


class TestAggregateOverall:
    def test_mean_of_parts(self):
        recs = scores(*[("a", p, s) for p, s in [(1, 3.0), (3, 3.0), (4, 4.0), (5, 4.0)]])
        out = aggregate_overall(recs)
        assert rows(out) == [("a", OVERALL, 3.5)]

    def test_identity(self):
        recs = scores(*[("a", p, 3.5) for p in (1, 3, 4, 5)])
        assert aggregate_overall(recs).score[0] == 3.5
        # sum() starts from 0, so four -0.0 parts give +0.0
        recs = scores(*[("a", p, -0.0) for p in (1, 3, 4, 5)])
        assert math.copysign(1.0, aggregate_overall(recs).score[0]) == 1.0

    def test_missing_part(self):
        recs = scores(*[("a", p, 3.0) for p in (1, 3, 4)])
        with pytest.raises(MissingPart):
            aggregate_overall(recs)

    def test_duplicate_part(self):
        recs = scores(("a", 1, 3.0), ("a", 1, 3.5))
        with pytest.raises(DuplicateKey, match=r"^duplicate per-part key \('a', 1\)$"):
            aggregate_overall(recs)

    @settings(max_examples=300, deadline=None)
    @given(table=per_part_tables())
    def test_agrees_with_dict_oracle(self, table):
        """Rows bit for bit, or the oracle's error class and message (the
        speaker or key it names), on shuffled tables of several speakers."""
        try:
            want = aggregate_oracle(table)
        except (DuplicateKey, MissingPart) as exc:
            with pytest.raises(type(exc)) as raised:
                aggregate_overall(table)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return
        got = aggregate_overall(table)
        assert got.speaker_id.tolist() == [sid for sid, _, _ in want]
        assert got.part.tolist() == [part for _, part, _ in want]
        assert got.score.view(np.int64).tolist() == np.array(
            [mean for _, _, mean in want], dtype=np.float64).view(np.int64).tolist()

    @given(st.lists(st.floats(min_value=2, max_value=5.5, allow_nan=False),
                    min_size=4, max_size=4),
           st.floats(min_value=-1, max_value=1, allow_nan=False))
    @settings(max_examples=50)
    def test_commutes_with_uniform_shift(self, values, c):
        recs = Scores(["a"] * 4, [1, 3, 4, 5], values)
        shifted = Scores(["a"] * 4, [1, 3, 4, 5], [s + c for s in values])
        base = aggregate_overall(recs).score[0]
        assert aggregate_overall(shifted).score[0] == pytest.approx(base + c, abs=1e-12)

    def test_multiple_speakers_sorted(self):
        recs = scores(*[(sid, p, 3.0) for sid in ("b", "a") for p in (1, 3, 4, 5)])
        out = aggregate_overall(recs)
        assert out.speaker_id.tolist() == ["a", "b"]

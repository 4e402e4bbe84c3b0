import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EmptyBin,
    brute_force_bin_weight,
    generate_frames_oracle,
    generate_scores_oracle,
    nearest_class_mean_f1,
)
from tables import rows
from slascore import metrics
from slascore.core import PARTS, REFERENCE_LEVELS
from slascore.errors import InvalidConfig, NoReferences
from slascore.fusion import N_BINS, bin_index, calibrate
from slascore import synth
from slascore.synth import (
    MAX_FRAME_VALUES,
    MAX_SPEAKERS,
    SynthConfig,
    generate_frames,
    generate_scores,
    heteroscedastic_config,
)


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()

    def test_bad_noise_length(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(w2v_noise=(0.1, 0.2))

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig, match="seed"):
            SynthConfig(seed=-1)

    def test_speaker_count_bounded(self):
        """At most 250,000 speakers, 1M score rows; the config draws nothing."""
        assert MAX_SPEAKERS == 250_000
        assert SynthConfig(n_speakers=MAX_SPEAKERS).n_speakers == MAX_SPEAKERS
        with pytest.raises(InvalidConfig, match="^n_speakers 250001 exceeds 250000$"):
            SynthConfig(n_speakers=MAX_SPEAKERS + 1)

    @pytest.mark.parametrize("field, value, message", [
        ("n_speakers", 0, "need at least one speaker"),
    ])
    def test_rejects_bad_field(self, field, value, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field", ["w2v_noise", "mllm_noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            SynthConfig(**{field: (1.0,) * 7 + (value,)})


class TestGenerateScores:
    def test_zero_noise_exact(self):
        cfg = SynthConfig(n_speakers=20, seed=3,
                          w2v_noise=(0.0,) * 8, mllm_noise=(0.0,) * 8)
        data = generate_scores(cfg)
        assert data.w2v.tolist() == data.reference.tolist()
        assert data.mllm.tolist() == data.reference.tolist()
        assert metrics.rmse(data.w2v, data.reference) == 0.0

    def test_seed_determinism(self):
        cfg = SynthConfig(n_speakers=20, seed=7)
        assert rows(generate_scores(cfg)) == rows(generate_scores(cfg))

    def test_references_on_grid(self):
        data = generate_scores(SynthConfig(n_speakers=50, seed=1))
        for ref in data.reference.tolist():
            assert ref in REFERENCE_LEVELS

    def test_row_count_and_keys(self):
        data = generate_scores(SynthConfig(n_speakers=10, seed=0))
        assert len(data) == 40
        assert len(set(zip(data.speaker_id, data.part.tolist()))) == 40

    def test_one_id_string_per_speaker(self):
        """The four rows of a speaker hold one ``str`` object, not four equal copies."""
        ids = generate_scores(SynthConfig(n_speakers=10, seed=0)).speaker_id
        for first, *rest in ids.reshape(-1, len(PARTS)).tolist():
            assert type(first) is str and all(other is first for other in rest)

    @settings(max_examples=50, deadline=None)
    @given(st.builds(
        SynthConfig,
        n_speakers=st.integers(1, 30),
        w2v_noise=st.tuples(*[st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5])] * N_BINS),
        mllm_noise=st.tuples(*[st.floats(0.0, 3.0)] * N_BINS),
        seed=st.integers(0, 2**32)))
    def test_columns_match_row_oracle(self, cfg):
        """The column draw gives the row loop's ids, parts and scores, bit for bit."""
        got, want = generate_scores(cfg), generate_scores_oracle(cfg)
        assert got.speaker_id.tolist() == want.speaker_id.tolist()
        assert got.part.tolist() == want.part.tolist()
        for name in ("w2v", "mllm", "reference"):
            np.testing.assert_array_equal(getattr(got, name).view(np.int64),
                                          getattr(want, name).view(np.int64))

    @pytest.mark.parametrize("name", ["w2v", "mllm"])
    def test_non_finite_draw_rejected(self, name):
        # 1e308 passes the finite-sigma check, but most draws overflow to inf
        with pytest.raises(InvalidConfig, match=f"{name} score is not finite"):
            generate_scores(SynthConfig(n_speakers=50, **{f"{name}_noise": (1e308,) * N_BINS}))

    def test_huge_finite_draws_kept(self):
        data = generate_scores(SynthConfig(n_speakers=3, w2v_noise=(1e300,) * N_BINS))
        assert np.isfinite(data.w2v).all() and np.abs(data.w2v).max() > 1e290

    def test_heteroscedastic_weights_track_better_grader(self):
        data = generate_scores(heteroscedastic_config(500, seed=2))
        calib = calibrate(data)
        for k in range(N_BINS):
            if calib.per_bin_counts[k] < 20:
                continue
            if k < 4:
                assert calib.weights[k] < 0.5
            else:
                assert calib.weights[k] > 0.5


class TestGenerateFrames:
    def test_separable(self):
        train = generate_frames(40, seed=0)
        dev = generate_frames(20, seed=1)
        assert nearest_class_mean_f1(train, dev) >= 0.95

    @pytest.mark.parametrize("n_per_class, seed", [(1, 0), (1, 9), (20, 3), (50, 0), (67, 5)])
    def test_matches_oracle_at_the_fixed_setting(self, n_per_class, seed):
        """The draw is the oracle's, bit for bit, at levels 2.5, 3.5 and 4.5,
        d = 8 and separation 8.0."""
        assert (synth.FEATURE_LEVELS, synth.FEATURE_DIM, synth.SEPARATION) == (
            (2.5, 3.5, 4.5), 8, 8.0)
        got = generate_frames(n_per_class, seed=seed)
        want = generate_frames_oracle(n_per_class, [2.5, 3.5, 4.5], d=8, separation=8.0,
                                      seed=seed)
        assert len(got) == len(want) == 3 * n_per_class
        for a, b in zip(got, want):
            assert a.label == b.label and a.frames.tobytes() == b.frames.tobytes()
            assert a.frames.shape == b.frames.shape

    def test_seed_determinism(self):
        a = generate_frames(5, seed=9)
        b = generate_frames(5, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.frames, y.frames)

    def test_lengths_in_range(self):
        data = generate_frames(30, seed=0)
        assert all(5 <= seq.frames.shape[0] <= 20 for seq in data)

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig, match="seed"):
            generate_frames(5, seed=-1)

    def test_size_bounded_before_drawing(self, monkeypatch):
        """A request whose longest sequences (20 frames of 8 values, 3 levels)
        would draw more than 10**7 values is refused; one at the bound passes the
        check and starts drawing."""

        class Drawing(Exception):
            pass

        def no_draw(seed):
            raise Drawing

        monkeypatch.setattr(synth.np.random, "default_rng", no_draw)
        assert MAX_FRAME_VALUES == 10**7
        with pytest.raises(Drawing):
            generate_frames(20_833)
        with pytest.raises(InvalidConfig, match=r"^up to 10000320 frame values requested, "
                                                r"more than 10000000$"):
            generate_frames(20_834)


class TestBruteForceBinWeight:
    def test_mllm_exact(self):
        assert brute_force_bin_weight([3.4, 2.8], [3.0, 3.0], [3.0, 3.0]) == (1.0, 0.0)

    def test_w2v_exact(self):
        assert brute_force_bin_weight([3.0, 3.0], [3.4, 2.6], [3.0, 3.0]) == (0.0, 0.0)

    def test_empty_bin(self):
        with pytest.raises(EmptyBin):
            brute_force_bin_weight([], [], [])

    def test_no_references(self):
        with pytest.raises(NoReferences):
            brute_force_bin_weight([3.0], [3.0], None)

    def test_agrees_with_calibrate(self):
        for seed in range(5):
            data = generate_scores(SynthConfig(n_speakers=40, seed=seed))
            calib = calibrate(data)
            for k in range(N_BINS):
                in_bin = bin_index(data.mllm) == k
                if not in_bin.any():
                    continue
                w, _ = brute_force_bin_weight(data.w2v[in_bin], data.mllm[in_bin],
                                              data.reference[in_bin])
                assert w == calib.weights[k], (seed, k)


def test_fused_beats_components_on_heteroscedastic():
    data = generate_scores(heteroscedastic_config(400, seed=6))
    calib = calibrate(data)
    ref = data.reference
    w2v_rmse = metrics.rmse(data.w2v, ref)
    mllm_rmse = metrics.rmse(data.mllm, ref)
    assert calib.dev_rmse < min(w2v_rmse, mllm_rmse)

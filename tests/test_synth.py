import numpy as np
import pytest

from oracles import EmptyBin, brute_force_bin_weight, nearest_class_mean_f1
from tables import rows
from slascore import metrics
from slascore.core import REFERENCE_LEVELS
from slascore.errors import InvalidConfig, NoReferences
from slascore.fusion import N_BINS, bin_index, calibrate
from slascore.synth import (
    SynthConfig,
    generate_frames,
    generate_scores,
    heteroscedastic_config,
)


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()

    def test_bad_parts(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(parts=(2,))

    def test_bad_noise_length(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(w2v_noise=(0.1, 0.2))

    def test_zero_weights(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(level_weights=(0.0,) * 8)

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig, match="seed"):
            SynthConfig(seed=-1)

    @pytest.mark.parametrize("field", ["w2v_noise", "mllm_noise", "level_weights"])
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
        cfg = SynthConfig(n_speakers=10, parts=(1, 3), seed=0)
        data = generate_scores(cfg)
        assert len(data) == 20
        assert len(set(zip(data.speaker_id, data.part.tolist()))) == 20

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
        train = generate_frames(40, [2.5, 3.5, 4.5], d=8, separation=8.0, seed=0)
        dev = generate_frames(20, [2.5, 3.5, 4.5], d=8, separation=8.0, seed=1)
        assert nearest_class_mean_f1(train, dev) >= 0.95

    def test_no_separation_near_chance(self):
        train = generate_frames(100, [2.5, 3.5, 4.5], d=8, separation=0.0, seed=0)
        dev = generate_frames(100, [2.5, 3.5, 4.5], d=8, separation=0.0, seed=1)
        f1 = nearest_class_mean_f1(train, dev)
        assert abs(f1 - 1.0 / 3.0) <= 0.10

    def test_seed_determinism(self):
        a = generate_frames(5, [3.0], d=4, separation=2.0, seed=9)
        b = generate_frames(5, [3.0], d=4, separation=2.0, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.frames, y.frames)

    def test_lengths_in_range(self):
        data = generate_frames(30, [3.0], d=4, separation=1.0, seed=0)
        assert all(5 <= seq.frames.shape[0] <= 20 for seq in data)

    def test_negative_separation(self):
        with pytest.raises(InvalidConfig):
            generate_frames(5, [3.0], d=4, separation=-1.0)

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig, match="seed"):
            generate_frames(5, [3.0], d=4, separation=1.0, seed=-1)


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

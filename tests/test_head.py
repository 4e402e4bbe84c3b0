import math

import numpy as np
import pytest

from oracles import nearest_class_mean_f1
from slascore import head
from slascore.errors import (
    EmptyDataset,
    InvalidConfig,
    OffGridTarget,
    ShapeMismatch,
    StaleCache,
    ValidationError,
    ZeroNormVector,
)
from slascore.head import (
    CLASSIFICATION,
    REGRESSION,
    FrameSequence,
    HeadParameters,
    TrainConfig,
    attn_pool,
    backward,
    forward,
    init_parameters,
    loss,
    predict_score,
    prototype_similarity,
    train,
)
from slascore.synth import generate_frames

PARAM_NAMES = ("attn_W", "attn_b", "attn_u", "prototypes", "mlp_W", "mlp_b")


def random_params(rng, d, n, d_a=None, mode=REGRESSION):
    d_a = d_a or d
    out = 1 if mode == REGRESSION else n
    levels = np.sort(rng.choice(np.arange(2.0, 5.51, 0.5), size=n, replace=False))
    return HeadParameters(
        attn_W=rng.standard_normal((d_a, d)),
        attn_b=rng.standard_normal(d_a),
        attn_u=rng.standard_normal(d_a),
        prototypes=rng.standard_normal((n, d)),
        levels=levels,
        mlp_W=rng.standard_normal((out, d + n)),
        mlp_b=rng.standard_normal(out),
        mode=mode,
    )


def numeric_gradient(seq, params, target, name, idx, step=1e-5):
    arr = getattr(params, name)
    orig = arr.flat[idx]
    arr.flat[idx] = orig + step
    pred, _ = forward(seq, params)
    lp = loss(pred, target, params)[0]
    arr.flat[idx] = orig - step
    pred, _ = forward(seq, params)
    lm = loss(pred, target, params)[0]
    arr.flat[idx] = orig
    return (lp - lm) / (2 * step)


def check_gradients(seq, params, target, rel_tol=1e-4):
    pred, cache = forward(seq, params)
    grads = backward(cache, loss(pred, target, params)[1])
    for name in PARAM_NAMES:
        analytic = grads[name]
        for idx in range(analytic.size):
            num = numeric_gradient(seq, params, target, name, idx)
            ana = analytic.flat[idx]
            denom = max(abs(num), abs(ana), 1e-8)
            assert abs(num - ana) / denom < rel_tol, (name, idx, num, ana)


class TestFrameSequence:
    def test_valid(self):
        FrameSequence(frames=np.ones((3, 2)), label=3.0)

    def test_bad_shape(self):
        with pytest.raises(ValidationError):
            FrameSequence(frames=np.ones(3))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            FrameSequence(frames=np.array([[1.0, math.nan]]))


class TestHeadParameters:
    @pytest.mark.parametrize("name", ["attn_W", "attn_b", "attn_u", "prototypes", "levels",
                                      "mlp_W", "mlp_b"])
    @pytest.mark.parametrize("mode", [REGRESSION, CLASSIFICATION])
    def test_wrong_shape_rejected_at_construction(self, name, mode):
        params = random_params(np.random.default_rng(20), d=4, n=3, d_a=5, mode=mode)
        fields = {f: getattr(params, f) for f in ("levels", *head.PARAM_FIELDS)}
        shape = fields[name].shape
        fields[name] = np.zeros(shape[:-1] + (shape[-1] + 1,))
        with pytest.raises(ShapeMismatch, match=r"expected \("):
            HeadParameters(mode=mode, **fields)

    def test_copy_checks_shapes(self):
        params = random_params(np.random.default_rng(21), d=4, n=3)
        params.mlp_b = np.zeros(2)  # assignment is not checked; building a copy is
        with pytest.raises(ShapeMismatch):
            params.copy()


class TestAttnPool:
    def test_single_frame_passthrough(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, d=4, n=3)
        h = rng.standard_normal((1, 4))
        x = attn_pool(FrameSequence(frames=h), params)
        np.testing.assert_allclose(x, h[0])

    def test_identical_frames(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, d=4, n=3)
        frame = rng.standard_normal(4)
        x = attn_pool(FrameSequence(frames=np.tile(frame, (6, 1))), params)
        np.testing.assert_allclose(x, frame)

    def test_zero_context_vector_gives_mean(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, d=4, n=3)
        params.attn_u = np.zeros_like(params.attn_u)
        h = rng.standard_normal((5, 4))
        x = attn_pool(FrameSequence(frames=h), params)
        np.testing.assert_allclose(x, h.mean(axis=0))

    def test_weights_form_simplex_and_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = random_params(rng, d=5, n=3)
            h = 3 * rng.standard_normal((int(rng.integers(1, 12)), 5))
            a, alpha, x = head._pool(h, params)
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) < 1e-12
            assert np.all(x >= h.min(axis=0) - 1e-12)
            assert np.all(x <= h.max(axis=0) + 1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, d=4, n=3)
        with pytest.raises(ShapeMismatch):
            attn_pool(FrameSequence(frames=np.ones((3, 5))), params)


class TestPrototypeSimilarity:
    def test_identical_vector(self):
        p = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = prototype_similarity(np.array([1.0, 2.0]), p)
        assert s[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        p = np.array([[0.0, 1.0]])
        s = prototype_similarity(np.array([1.0, 0.0]), p)
        assert s[0] == pytest.approx(0.0)

    def test_opposite(self):
        p = np.array([[1.0, 1.0]])
        s = prototype_similarity(np.array([-1.0, -1.0]), p)
        assert s[0] == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        p = rng.standard_normal((4, 6))
        np.testing.assert_allclose(prototype_similarity(3.7 * x, p),
                                   prototype_similarity(x, p), atol=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(6)
        s = prototype_similarity(rng.standard_normal(8), rng.standard_normal((5, 8)))
        assert np.all(np.abs(s) <= 1.0 + 1e-12)

    def test_zero_norm(self):
        with pytest.raises(ZeroNormVector):
            prototype_similarity(np.zeros(3), np.ones((2, 3)))


class TestForwardLoss:
    def test_zero_mlp_weights_regression(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, d=4, n=3, mode=REGRESSION)
        params.mlp_W = np.zeros_like(params.mlp_W)
        params.mlp_b = np.array([2.75])
        pred, _ = forward(FrameSequence(frames=rng.standard_normal((5, 4))), params)
        assert pred == 2.75

    def test_equal_logits_uniform_probabilities(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, d=4, n=3, mode=CLASSIFICATION)
        params.mlp_W = np.zeros_like(params.mlp_W)
        params.mlp_b = np.full(3, 1.7)
        seq = FrameSequence(frames=rng.standard_normal((5, 4)))
        logits, _ = forward(seq, params)
        target = float(params.levels[0])
        assert loss(logits, target, params)[0] == pytest.approx(math.log(3))
        assert predict_score(seq, params) == pytest.approx(float(params.levels.mean()))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, d=4, n=3)
        seq = FrameSequence(frames=rng.standard_normal((5, 4)))
        p1, _ = forward(seq, params)
        p2, _ = forward(seq, params)
        assert p1 == p2

    def test_regression_loss_zero_at_target(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, d=4, n=3, mode=REGRESSION)
        assert loss(3.5, 3.5, params)[0] == 0.0

    def test_classification_off_grid_target(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, d=4, n=3, mode=CLASSIFICATION)
        with pytest.raises(OffGridTarget):
            loss(np.zeros(3), 1.23, params)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            t = int(rng.integers(1, 6))
            mode = REGRESSION if trial % 2 else CLASSIFICATION
            params = random_params(rng, d=d, n=n, d_a=int(rng.integers(2, 5)), mode=mode)
            seq = FrameSequence(frames=rng.standard_normal((t, d)))
            target = float(rng.choice(params.levels))
            check_gradients(seq, params, target)

    def test_zero_upstream_zero_gradients(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, d=4, n=3, mode=REGRESSION)
        _, cache = forward(FrameSequence(frames=rng.standard_normal((5, 4))), params)
        grads = backward(cache, 0.0)
        for name in PARAM_NAMES:
            assert np.all(grads[name] == 0.0)

    def test_single_frame_attention_gradients_zero(self):
        rng = np.random.default_rng(14)
        params = random_params(rng, d=4, n=3, mode=REGRESSION)
        pred, cache = forward(FrameSequence(frames=rng.standard_normal((1, 4))), params)
        grads = backward(cache, loss(pred, 3.0, params)[1])
        for name in ("attn_W", "attn_b", "attn_u"):
            assert np.all(grads[name] == 0.0)

    def test_stale_cache(self):
        rng = np.random.default_rng(15)
        params = random_params(rng, d=4, n=3, mode=REGRESSION)
        _, cache = forward(FrameSequence(frames=rng.standard_normal((3, 4))), params)
        params.version += 1
        with pytest.raises(StaleCache):
            backward(cache, 1.0)


class TestPredictScore:
    def test_classification_certain_level(self):
        rng = np.random.default_rng(16)
        params = random_params(rng, d=4, n=3, mode=CLASSIFICATION)
        params.levels = np.array([3.0, 3.5, 4.0])
        params.mlp_W = np.zeros_like(params.mlp_W)
        params.mlp_b = np.array([0.0, 60.0, 0.0])
        score = predict_score(FrameSequence(frames=rng.standard_normal((4, 4))), params)
        assert score == pytest.approx(3.5)

    def test_classification_even_split(self):
        rng = np.random.default_rng(17)
        params = random_params(rng, d=4, n=2, mode=CLASSIFICATION)
        params.levels = np.array([3.0, 4.0])
        params.mlp_W = np.zeros_like(params.mlp_W)
        params.mlp_b = np.array([5.0, 5.0])
        score = predict_score(FrameSequence(frames=rng.standard_normal((4, 4))), params)
        assert score == pytest.approx(3.5)

    def test_bounded_by_levels(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            params = random_params(rng, d=4, n=4, mode=CLASSIFICATION)
            score = predict_score(FrameSequence(frames=rng.standard_normal((6, 4))), params)
            assert params.levels.min() <= score <= params.levels.max()

    def test_regression_passthrough(self):
        rng = np.random.default_rng(19)
        params = random_params(rng, d=4, n=3, mode=REGRESSION)
        seq = FrameSequence(frames=rng.standard_normal((5, 4)))
        pred, _ = forward(seq, params)
        assert predict_score(seq, params) == pred


@pytest.fixture(scope="module")
def toy_data():
    train_d = generate_frames(30, [2.5, 3.5, 4.5], d=8, separation=8.0, seed=0)
    dev_d = generate_frames(15, [2.5, 3.5, 4.5], d=8, separation=8.0, seed=1)
    return train_d, dev_d


class TestTrain:
    def test_separable_data_learns(self, toy_data):
        train_d, dev_d = toy_data
        assert nearest_class_mean_f1(train_d, dev_d) >= 0.95
        cfg = TrainConfig(epochs=15, learning_rate=0.01, warmup_steps=20, seed=0)
        _, history = train(train_d, dev_d, cfg)
        assert max(h["dev_macro_f1"] for h in history) >= 0.9

    def test_zero_learning_rate(self, toy_data):
        train_d, dev_d = toy_data
        cfg = TrainConfig(epochs=3, learning_rate=0.0, warmup_steps=5, seed=0)
        params, history = train(train_d, dev_d, cfg)
        init = init_parameters(train_d, cfg.mode, cfg.seed)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(params, name), getattr(init, name))
        losses = [h["train_loss"] for h in history]
        assert len(set(losses)) == 1

    def test_seed_determinism(self, toy_data):
        train_d, dev_d = toy_data
        cfg = TrainConfig(epochs=3, learning_rate=0.01, warmup_steps=10, seed=42)
        p1, h1 = train(train_d, dev_d, cfg)
        p2, h2 = train(train_d, dev_d, cfg)
        assert h1 == h2
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))

    def test_loss_decreases_on_fixed_batch(self, toy_data):
        train_d, _ = toy_data
        batch = train_d[:16]
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, warmup_steps=0,
                          weight_decay=0.0, batch_size=16, seed=0)
        _, history = train(batch, batch, cfg)
        assert history[1]["train_loss"] <= history[0]["train_loss"]

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train([], [], TrainConfig())

    @pytest.mark.parametrize("n_train,train_labelled,n_dev,dev_labelled,error", [
        (0, True, 2, True, EmptyDataset),
        (2, True, 0, True, EmptyDataset),
        (2, False, 0, True, EmptyDataset),
        (0, True, 2, False, EmptyDataset),
        (2, False, 2, True, ValidationError),
        (2, True, 2, False, ValidationError),
    ])
    def test_input_check_order(self, n_train, train_labelled, n_dev, dev_labelled, error):
        def seqs(n, labelled):
            return [FrameSequence(frames=np.eye(2) + i, label=3.0 if labelled else None)
                    for i in range(n)]
        with pytest.raises(error) as info:
            train(seqs(n_train, train_labelled), seqs(n_dev, dev_labelled), TrainConfig())
        assert type(info.value) is error  # EmptyDataset is a ValidationError too

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_size", 0), ("batch_size", -1), ("warmup_steps", -1),
        ("seed", -1), ("learning_rate", -0.1), ("learning_rate", math.nan),
        ("weight_decay", math.inf), ("mode", "ordinal"),
    ])
    def test_config_rejects_bad_field(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            TrainConfig(**{field: value})

    def test_regression_mode_trains(self, toy_data):
        train_d, dev_d = toy_data
        cfg = TrainConfig(epochs=10, learning_rate=0.01, warmup_steps=20,
                          seed=0, mode=REGRESSION)
        _, history = train(train_d, dev_d, cfg)
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_prototype_init_uses_class_means(self, toy_data):
        train_d, _ = toy_data
        params = init_parameters(train_d, CLASSIFICATION, seed=0)
        assert params.prototypes.shape == (3, 8)
        np.testing.assert_array_equal(params.levels, [2.5, 3.5, 4.5])

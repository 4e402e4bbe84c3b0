import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import generate_frames_oracle, level_index_oracle, nearest_class_mean_f1
from slascore import head
from slascore.errors import (
    EmptyDataset,
    InvalidConfig,
    NonFiniteLoss,
    OffGridReference,
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
    backward,
    forward,
    init_parameters,
    predict_score,
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


def output_loss(params, target):
    """The loss ``train`` takes of one forward output, as a function of that output:
    squared error against ``target``, or cross-entropy against its level's index."""
    if params.mode == REGRESSION:
        return functools.partial(head._squared_error, target=target)
    return functools.partial(head._cross_entropy, idx=params.levels.tolist().index(target))


def numeric_gradient(seq, params, target, name, idx, step=1e-5):
    arr = getattr(params, name)
    orig = arr.flat[idx]
    arr.flat[idx] = orig + step
    pred, _ = forward(seq, params)
    lp = output_loss(params, target)(pred)[0]
    arr.flat[idx] = orig - step
    pred, _ = forward(seq, params)
    lm = output_loss(params, target)(pred)[0]
    arr.flat[idx] = orig
    return (lp - lm) / (2 * step)


def check_gradients(seq, params, target, rel_tol=1e-4):
    pred, cache = forward(seq, params)
    grads = backward(cache, output_loss(params, target)(pred)[1])
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

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_empty_axis(self, shape):
        """A record of no frames or of width 0 is one the feature reader rejects."""
        with pytest.raises(ValidationError, match=r"T, d >= 1"):
            FrameSequence(np.zeros(shape), 2.5)

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

    def test_mode_checked_at_construction(self):
        params = random_params(np.random.default_rng(22), d=4, n=3)
        fields = {f: getattr(params, f) for f in ("levels", *head.PARAM_FIELDS)}
        with pytest.raises(InvalidConfig, match="got 'ordinal'"):
            HeadParameters(mode="ordinal", **fields)

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
        x = forward(FrameSequence(frames=h), params)[1].x
        np.testing.assert_allclose(x, h[0])

    def test_identical_frames(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, d=4, n=3)
        frame = rng.standard_normal(4)
        x = forward(FrameSequence(frames=np.tile(frame, (6, 1))), params)[1].x
        np.testing.assert_allclose(x, frame)

    def test_zero_context_vector_gives_mean(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, d=4, n=3)
        params.attn_u = np.zeros_like(params.attn_u)
        h = rng.standard_normal((5, 4))
        x = forward(FrameSequence(frames=h), params)[1].x
        np.testing.assert_allclose(x, h.mean(axis=0))

    def test_weights_form_simplex_and_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = random_params(rng, d=5, n=3)
            h = 3 * rng.standard_normal((int(rng.integers(1, 12)), 5))
            cache = forward(FrameSequence(frames=h), params)[1]
            alpha, x = cache.alpha, cache.x
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) < 1e-12
            assert np.all(x >= h.min(axis=0) - 1e-12)
            assert np.all(x <= h.max(axis=0) + 1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, d=4, n=3)
        with pytest.raises(ShapeMismatch):
            forward(FrameSequence(frames=np.ones((3, 5))), params)


class TestPrototypeSimilarity:
    def test_identical_vector(self):
        p = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = head._cosine(np.array([1.0, 2.0]), p)[0]
        assert s[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        p = np.array([[0.0, 1.0]])
        s = head._cosine(np.array([1.0, 0.0]), p)[0]
        assert s[0] == pytest.approx(0.0)

    def test_opposite(self):
        p = np.array([[1.0, 1.0]])
        s = head._cosine(np.array([-1.0, -1.0]), p)[0]
        assert s[0] == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        p = rng.standard_normal((4, 6))
        np.testing.assert_allclose(head._cosine(3.7 * x, p)[0],
                                   head._cosine(x, p)[0], atol=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(6)
        s = head._cosine(rng.standard_normal(8), rng.standard_normal((5, 8)))[0]
        assert np.all(np.abs(s) <= 1.0 + 1e-12)

    def test_norms_match_linalg_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x, protos = rng.standard_normal(7) * 1e3, rng.standard_normal((5, 7))
            _, x_norm, p_norms = head._cosine(x, protos)
            assert x_norm == np.linalg.norm(x)
            np.testing.assert_array_equal(p_norms, np.linalg.norm(protos, axis=1))

    def test_zero_norm(self):
        with pytest.raises(ZeroNormVector):
            head._cosine(np.zeros(3), np.ones((2, 3)))


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
        idx = params.levels.tolist().index(target)
        assert head._cross_entropy(logits, idx)[0] == pytest.approx(math.log(3))
        assert predict_score(seq, params) == pytest.approx(float(params.levels.mean()))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, d=4, n=3)
        seq = FrameSequence(frames=rng.standard_normal((5, 4)))
        p1, _ = forward(seq, params)
        p2, _ = forward(seq, params)
        assert p1 == p2

    def test_regression_loss_zero_at_target(self):
        assert head._squared_error(3.5, 3.5)[0] == 0.0


# Values on or within a few 1e-9 of three levels, so runs of near levels form.
NEAR_VALUES = st.builds(lambda base, step: base + step * 4e-10,
                        st.sampled_from([2.0, 2.5, 5.5]), st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(NEAR_VALUES, min_size=1, max_size=8), mode=st.sampled_from(head.MODES))
@example(labels=[1e-9, 2e-9], mode=CLASSIFICATION)  # exactly LEVEL_TOL apart: refused
def test_label_classes_agree_with_a_scan_of_every_level(labels, mode):
    """``init_parameters`` classes each label as a scan of every distinct label
    does, and names the first label that lies near another level."""
    train_d = [FrameSequence(frames=np.eye(2) + i, label=lbl) for i, lbl in enumerate(labels)]
    levels = sorted(set(labels))
    expected = level_index_oracle(labels, levels)
    if None in expected:
        first = labels[expected.index(None)]
        with pytest.raises(OffGridTarget, match=f"^target {re.escape(str(first))} is not one "
                                                f"of the trained levels {re.escape(str(levels))}$"):
            init_parameters(train_d, mode)
    else:
        assert init_parameters(train_d, mode)[1].tolist() == expected


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
        grads = backward(cache, head._squared_error(pred, 3.0)[1])
        for name in ("attn_W", "attn_b", "attn_u"):
            assert np.all(grads[name] == 0.0)

    def test_stale_cache(self):
        rng = np.random.default_rng(15)
        params = random_params(rng, d=4, n=3, mode=REGRESSION)
        _, cache = forward(FrameSequence(frames=rng.standard_normal((3, 4))), params)
        params.version += 1
        with pytest.raises(StaleCache):
            backward(cache, 1.0)

    @pytest.mark.parametrize("mode, upstream, message", [
        (REGRESSION, np.zeros(3), r"upstream shape \(3,\) vs output \(1,\)"),
        (CLASSIFICATION, 1.0, r"upstream shape \(1,\) vs output \(3,\)"),
    ])
    def test_upstream_shape_checked(self, mode, upstream, message):
        rng = np.random.default_rng(15)
        params = random_params(rng, d=4, n=3, mode=mode)
        _, cache = forward(FrameSequence(frames=rng.standard_normal((3, 4))), params)
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            backward(cache, upstream)


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

    @pytest.mark.parametrize("mode", [REGRESSION, CLASSIFICATION])
    def test_matches_forward_bit_for_bit(self, mode):
        # predict_score skips the cache but must give the value forward gives
        rng = np.random.default_rng(20)
        for _ in range(20):
            params = random_params(rng, d=5, n=4, mode=mode)
            seq = FrameSequence(frames=rng.standard_normal((int(rng.integers(1, 30)), 5)))
            pred, _ = forward(seq, params)
            if mode == REGRESSION:
                expected = float(pred)
            else:
                e = np.exp(pred - np.max(pred))
                expected = float((e / np.sum(e)) @ params.levels)
            assert predict_score(seq, params) == expected


@pytest.fixture(scope="module")
def toy_data():
    train_d = generate_frames(30, seed=0)
    dev_d = generate_frames(15, seed=1)
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
        init, _ = init_parameters(train_d, cfg.mode, cfg.seed)
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

    @pytest.mark.parametrize("mode", [REGRESSION, CLASSIFICATION])
    def test_target_levels_found_once_per_run(self, toy_data, monkeypatch, mode):
        """Training labels are classed by ``init_parameters`` alone, once per run,
        however many epochs the run takes."""
        train_d, dev_d = toy_data
        calls = []

        def counting(data, *args, _init=head.init_parameters):
            calls.extend(data)
            return _init(data, *args)

        monkeypatch.setattr(head, "init_parameters", counting)
        counts = []
        for epochs in (1, 5):
            calls.clear()
            train(train_d, dev_d, TrainConfig(epochs=epochs, learning_rate=0.01, mode=mode))
            counts.append(len(calls))
        assert counts[0] == counts[1] == len(train_d)

    def test_loss_targets_are_the_classes_init_parameters_returns(self, toy_data, monkeypatch):
        """Every cross-entropy call of a run takes, as its target, the class
        ``init_parameters`` returned for the sequence just forwarded."""
        train_d, dev_d = toy_data
        returned, forwarded, targets = [], [], []

        def init_spy(*args, _init=head.init_parameters):
            returned.append(_init(*args))
            return returned[-1]

        def forward_spy(seq, params, _forward=head.forward):
            forwarded.append(seq)
            return _forward(seq, params)

        def loss_spy(logits, idx, _loss=head._cross_entropy):
            targets.append(idx)
            return _loss(logits, idx)

        for name, spy in (("init_parameters", init_spy), ("forward", forward_spy),
                          ("_cross_entropy", loss_spy)):
            monkeypatch.setattr(head, name, spy)
        train(train_d, dev_d, TrainConfig(epochs=2, learning_rate=0.01))
        [(_, label_class)] = returned
        classes = dict(zip(map(id, train_d), label_class.tolist()))
        assert len(targets) == len(forwarded) == 2 * len(train_d)
        assert targets == [classes[id(seq)] for seq in forwarded]

    @pytest.mark.parametrize("mode", [REGRESSION, CLASSIFICATION])
    @pytest.mark.parametrize("labels,target", [
        ([3.5, 2.5, 3.0000000000000004, 3.0], "3.0000000000000004"),
        ([2.5, 3.0, 3.0000000005, 3.000000001], "3.0"),  # a chain of near levels
    ], ids=["pair", "chain"])
    def test_label_near_two_levels_rejected(self, mode, labels, target):
        """A label within 1e-9 of another distinct label names no single level;
        the first such label in the training data is reported."""
        train_d = [FrameSequence(frames=np.eye(2) + i, label=lbl) for i, lbl in enumerate(labels)]
        levels = sorted(labels)
        with pytest.raises(OffGridTarget, match=f"^target {re.escape(target)} is not one of "
                                                f"the trained levels {re.escape(str(levels))}$"):
            train(train_d, train_d[:1], TrainConfig(epochs=1, mode=mode))

    @pytest.mark.parametrize("mode", [REGRESSION, CLASSIFICATION])
    def test_diverging_loss_raises(self, mode):
        train_d = generate_frames_oracle(5, [2.5, 3.5], 4, 4.0, seed=0)
        dev_d = generate_frames_oracle(5, [2.5, 3.5], 4, 4.0, seed=1)
        cfg = TrainConfig(learning_rate=1e308, warmup_steps=0, mode=mode)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="epoch 2"):
            train(train_d, dev_d, cfg)

    def test_float_overflow_in_the_loss_raises(self, toy_data, monkeypatch):
        """A regression output past about 1.3e154 overflows the loss's float square,
        under any errstate; the run reports that as a diverged epoch."""
        train_d, dev_d = toy_data

        def huge_bias(*args, _init=head.init_parameters):
            params, label_class = _init(*args)
            params.mlp_b[:] = 1e200
            return params, label_class

        monkeypatch.setattr(head, "init_parameters", huge_bias)
        with pytest.raises(NonFiniteLoss, match="epoch 1"):
            train(train_d, dev_d, TrainConfig(epochs=1, mode=REGRESSION))

    @pytest.mark.parametrize("mode", [REGRESSION, CLASSIFICATION])
    def test_no_warmup_and_one_warmup_step_agree(self, toy_data, mode):
        """No warm-up and a one-step warm-up both scale the first step, and every
        later one, by 1.0, so the two runs agree bit for bit."""
        train_d, dev_d = toy_data
        (p0, h0), (p1, h1) = (
            train(train_d, dev_d, TrainConfig(epochs=3, learning_rate=0.05, warmup_steps=w,
                                              seed=0, mode=mode))
            for w in (0, 1))
        assert h0 == h1
        for name in PARAM_NAMES:
            assert getattr(p0, name).tobytes() == getattr(p1, name).tobytes()

    @pytest.mark.parametrize("mode,learning_rate,epochs", [(CLASSIFICATION, 0.05, 4),
                                                           (REGRESSION, 0.01, 5)])
    def test_returned_parameters_own_their_arrays(self, toy_data, mode, learning_rate,
                                                  epochs):
        # train updates its parameters in one vector; the best epoch's copy shares
        # nothing with it, so the epochs after the best one leave that copy as it was
        train_d, dev_d = toy_data
        cfg = TrainConfig(epochs=epochs, learning_rate=learning_rate, warmup_steps=5,
                          mode=mode)
        params, history = train(train_d, dev_d, cfg)
        best = max(history, key=lambda h: h["dev_macro_f1"])["epoch"]
        assert best < epochs
        fields = ("levels", *head.PARAM_FIELDS)
        for i, a in enumerate(fields):
            for b in fields[i + 1:]:
                assert not np.shares_memory(getattr(params, a), getattr(params, b)), (a, b)
        # the same seed stopped at the best epoch returns the same parameters
        snapshot = params.copy()
        stopped, _ = train(train_d, dev_d, replace(cfg, epochs=best))
        for name in fields:
            np.testing.assert_array_equal(getattr(params, name), getattr(stopped, name))
            np.testing.assert_array_equal(getattr(params, name), getattr(snapshot, name))

    @pytest.mark.parametrize("bad,error,message", [
        (FrameSequence(frames=np.ones((2, 3)), label=3.5), ShapeMismatch,
         "frames have d=3, parameters expect d=8"),
        (FrameSequence(frames=np.ones((2, 8)), label=2.7), OffGridReference,
         "reference 2.7 not on the 0.5 level grid"),
    ], ids=["dev-width", "dev-label-off-grid"])
    def test_unusable_dev_data_rejected_before_training(self, toy_data, monkeypatch, bad,
                                                        error, message):
        train_d, dev_d = toy_data
        calls = []

        def counting(seq, params, _forward=head.forward):
            calls.append(seq)
            return _forward(seq, params)

        monkeypatch.setattr(head, "forward", counting)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            train(train_d, [*dev_d, bad], TrainConfig(epochs=1))
        assert calls == []
        train(train_d, dev_d, TrainConfig(epochs=1))  # the counter does see training
        assert len(calls) == len(train_d)

    def test_prototype_init_uses_class_means(self, toy_data):
        train_d, _ = toy_data
        params, _ = init_parameters(train_d, CLASSIFICATION, seed=0)
        assert params.prototypes.shape == (3, 8)
        np.testing.assert_array_equal(params.levels, [2.5, 3.5, 4.5])

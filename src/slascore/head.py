"""Toy-scale speech-grader head over precomputed frame features.

Pipeline: additive (tanh) attention pooling over T frame vectors, cosine
similarity against one learnable prototype per CEFR level, concatenation
[x; s], and a single-layer MLP emitting either a scalar score
(regression) or per-level logits (classification), trained on squared
error or cross-entropy. All gradients are analytic and finite-difference
checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LEVEL_TOL
from .errors import (
    EmptyDataset,
    InvalidConfig,
    NonFiniteLoss,
    OffGridTarget,
    ShapeMismatch,
    StaleCache,
    ValidationError,
    ZeroNormVector,
)
from .metrics import macro_f1

REGRESSION = "regression"
CLASSIFICATION = "classification"
MODES = (REGRESSION, CLASSIFICATION)

#: The trainable arrays of ``HeadParameters``: ``backward``'s gradient keys, the
#: parameter file's keys, and ``train``'s layout of one vector, in which the
#: weight-decayed fields come first and the two biases, not decayed, last.
PARAM_FIELDS = ("attn_W", "attn_u", "prototypes", "mlp_W", "attn_b", "mlp_b")


@dataclass(frozen=True, slots=True)
class FrameSequence:
    """T x d matrix of frame-level features, optionally labeled."""

    frames: np.ndarray
    label: float | None = None

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2 or min(f.shape) < 1:
            raise ValidationError(f"frames must be a T x d matrix with T, d >= 1, got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValidationError("frames contain non-finite entries")
        if self.label is not None and not math.isfinite(self.label):
            raise ValidationError(f"label {self.label!r} is not finite")
        object.__setattr__(self, "frames", f)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InvalidConfig(f"mode must be {REGRESSION!r} or {CLASSIFICATION!r}, got {mode!r}")


@dataclass(slots=True)
class HeadParameters:
    """Attention, prototype bank (one row per CEFR level), and MLP.

    ``version`` increments on every optimizer step so stale backward
    caches can be detected. The mode and shapes are checked when an instance is
    built (``copy`` builds one too), so a field assigned later must keep its shape.
    """

    attn_W: np.ndarray  # d_a x d
    attn_b: np.ndarray  # d_a
    attn_u: np.ndarray  # d_a
    prototypes: np.ndarray  # N x d
    levels: np.ndarray  # N level values, ascending
    mlp_W: np.ndarray  # out x (d + N)
    mlp_b: np.ndarray  # out
    mode: str = REGRESSION
    version: int = 0

    @property
    def d(self) -> int:
        return self.attn_W.shape[1]

    def __post_init__(self):
        _check_mode(self.mode)
        d_a, d = self.attn_W.shape
        n = self.prototypes.shape[0]
        out = 1 if self.mode == REGRESSION else n
        expected = {
            "attn_b": (d_a,),
            "attn_u": (d_a,),
            "prototypes": (n, d),
            "levels": (n,),
            "mlp_W": (out, d + n),
            "mlp_b": (out,),
        }
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeMismatch(f"{name}: expected {shape}, got {got}")

    def copy(self) -> "HeadParameters":
        return replace(self, levels=self.levels.copy(),
                       **{name: getattr(self, name).copy() for name in PARAM_FIELDS})


@dataclass(slots=True)
class ForwardCache:
    params: HeadParameters
    version: int
    h: np.ndarray
    a: np.ndarray  # tanh activations, T x d_a
    alpha: np.ndarray  # attention weights, T
    x: np.ndarray  # pooled vector, d
    s: np.ndarray  # prototype similarities, N
    x_norm: float
    p_norms: np.ndarray
    v: np.ndarray  # MLP input [x; s]
    output: np.ndarray


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _pool(h: np.ndarray, params: HeadParameters):
    """Tanh activations, attention weights and x = sum_t alpha_t h_t."""
    if h.shape[1] != params.d:
        raise ShapeMismatch(f"frames have d={h.shape[1]}, parameters expect d={params.d}")
    a = np.tanh(h @ params.attn_W.T + params.attn_b)  # T x d_a
    e = a @ params.attn_u  # T
    alpha = _softmax(e)
    x = alpha @ h
    return a, alpha, x


def _cosine(x: np.ndarray, prototypes: np.ndarray):
    """Cosine similarities, with |x| and the prototype row norms.

    The norms are the sums ``np.linalg.norm`` computes, without its
    per-call dispatch."""
    x_norm = math.sqrt(x.dot(x))
    p_norms = np.sqrt(np.add.reduce(prototypes * prototypes, axis=1))
    if x_norm == 0.0 or not p_norms.all():
        raise ZeroNormVector("cosine similarity undefined for zero-norm vectors")
    return (prototypes @ x) / (p_norms * x_norm), x_norm, p_norms


def _layers(h: np.ndarray, params: HeadParameters):
    """Every intermediate of the head on frames ``h``, in ``ForwardCache``
    field order from ``a`` on; the last one is the output."""
    a, alpha, x = _pool(h, params)
    s, x_norm, p_norms = _cosine(x, params.prototypes)
    v = np.concatenate([x, s])
    return a, alpha, x, s, x_norm, p_norms, v, params.mlp_W @ v + params.mlp_b


def forward(seq: FrameSequence, params: HeadParameters):
    """Run the head; returns (prediction, cache).

    Regression mode yields a scalar, classification mode an array of
    per-level logits.
    """
    cache = ForwardCache(params, params.version, seq.frames, *_layers(seq.frames, params))
    output = cache.output
    prediction = float(output[0]) if params.mode == REGRESSION else output
    return prediction, cache


def _squared_error(prediction: float, target: float) -> tuple[float, np.ndarray]:
    """The regression loss and its gradient d loss / d prediction, shaped as the output."""
    r = prediction - target
    return float(r**2), np.array([2.0 * r])


def _cross_entropy(logits, idx: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of ``logits`` against the level at index ``idx``, and its
    gradient d loss / d logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shift = logits.max()
    e = np.exp(logits - shift)
    total = e.sum()
    gradient = e / total
    gradient[idx] -= 1.0
    return float(shift + math.log(total) - logits[idx]), gradient


def backward(cache: ForwardCache, upstream) -> dict[str, np.ndarray]:
    """Analytic gradients of (upstream . output) w.r.t. every parameter,
    keyed by the names in ``PARAM_FIELDS``.

    ``upstream`` is d loss / d output: a scalar (or length-1 array) in
    regression mode, a logits-shaped array in classification mode.
    """
    params = cache.params
    if cache.version != params.version:
        raise StaleCache("parameters were updated after this forward pass")
    d_out = np.array(upstream, dtype=np.float64, ndmin=1)
    if d_out.shape != cache.output.shape:
        raise ShapeMismatch(f"upstream shape {d_out.shape} vs output {cache.output.shape}")

    d_v = params.mlp_W.T @ d_out

    d = params.d
    d_s = d_v[d:]

    # cosine: s_j = (x . p_j) / (|x| |p_j|)
    x, s = cache.x, cache.s
    xn, pn = cache.x_norm, cache.p_norms
    d_x = d_v[:d] + ((params.prototypes.T @ (d_s / pn)) / xn - (d_s @ s) * x / (xn * xn))
    d_p = (d_s / pn)[:, None] * (x[None, :] / xn - s[:, None] * params.prototypes / pn[:, None])

    # pooling: x = alpha @ h
    d_alpha = cache.h @ d_x
    d_e = cache.alpha * (d_alpha - float(cache.alpha @ d_alpha))
    d_z = d_e[:, None] * params.attn_u * (1.0 - cache.a**2)
    return {"attn_W": d_z.T @ cache.h, "attn_b": d_z.sum(axis=0), "attn_u": cache.a.T @ d_e,
            "prototypes": d_p, "mlp_W": d_out[:, None] * cache.v, "mlp_b": d_out}


def predict_score(seq: FrameSequence, params: HeadParameters) -> float:
    """Continuous score: the regression scalar, or the probability-
    weighted mean of level values in classification mode. Builds no
    ``ForwardCache``."""
    output = _layers(seq.frames, params)[-1]
    if params.mode == REGRESSION:
        return float(output[0])
    return float(_softmax(output) @ params.levels)


@dataclass(slots=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-4
    warmup_steps: int = 600
    weight_decay: float = 0.01
    batch_size: int = 16
    seed: int = 0
    mode: str = CLASSIFICATION

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("warmup_steps", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise InvalidConfig(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        _check_mode(self.mode)


def init_parameters(
    train_data: list[FrameSequence],
    mode: str,
    seed: int = 0,
) -> tuple[HeadParameters, np.ndarray]:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights and prototypes at the per-level
    means of the initially pooled embeddings; the levels are the distinct labels. Also
    returns each sequence's level index, ``train``'s cross-entropy targets."""
    if not train_data:
        raise EmptyDataset("cannot initialize from an empty training set")
    labels = [s.label for s in train_data]
    if any(lbl is None for lbl in labels):
        raise ValidationError("all training sequences must carry labels")
    levels, label_class = np.unique(np.asarray(labels, dtype=np.float64), return_inverse=True)
    # a label near another names no single level; the levels are sorted, so check neighbours
    near = np.concatenate([[False], np.diff(levels) <= LEVEL_TOL, [False]])
    if (bad := (near[:-1] | near[1:])[label_class]).any():
        raise OffGridTarget(f"target {labels[bad.argmax()]} is not one of the trained levels "
                            f"{levels.tolist()}")
    d = train_data[0].frames.shape[1]
    n = levels.size
    out = 1 if mode == REGRESSION else n

    rng = np.random.default_rng(seed)
    lim_attn = 1.0 / math.sqrt(d)
    lim_mlp = 1.0 / math.sqrt(d + n)
    params = HeadParameters(
        attn_W=rng.uniform(-lim_attn, lim_attn, size=(d, d)),
        attn_b=rng.uniform(-lim_attn, lim_attn, size=d),
        attn_u=rng.uniform(-lim_attn, lim_attn, size=d),
        prototypes=np.zeros((n, d)),
        levels=levels,
        mlp_W=rng.uniform(-lim_mlp, lim_mlp, size=(out, d + n)),
        mlp_b=np.zeros(out),
        mode=mode,
    )
    sums = np.zeros((n, d))
    for seq, k in zip(train_data, label_class.tolist()):
        sums[k] += _pool(seq.frames, params)[2]
    params.prototypes = sums / np.bincount(label_class, minlength=n)[:, None]
    return params, label_class


def train(
    train_data: list[FrameSequence],
    dev_data: list[FrameSequence],
    config: TrainConfig | None = None,
) -> tuple[HeadParameters, list[dict]]:
    """Minibatch AdamW with linear warm-up; best epoch by dev macro F1.

    Deterministic under a fixed seed: data order, init, and update order
    are all driven by one seeded generator.
    """
    config = config or TrainConfig()
    if not dev_data:
        raise EmptyDataset("the dev set must be nonempty")
    # init_parameters checks train_data; an empty train set is reported
    # before unlabelled dev sequences are
    params, label_class = init_parameters(train_data, config.mode, config.seed)
    if any(seq.label is None for seq in dev_data):
        raise ValidationError("all dev sequences must carry labels")
    # dev data that each epoch's dev predictions would reject fails before epoch 1
    bad_d = next((s.frames.shape[1] for s in dev_data if s.frames.shape[1] != params.d), None)
    if bad_d is not None:
        raise ShapeMismatch(f"frames have d={bad_d}, parameters expect d={params.d}")
    dev_refs = [seq.label for seq in dev_data]
    macro_f1(dev_refs, dev_refs)  # raises OffGridReference for an off-grid label
    step_loss, targets = ((_squared_error, [seq.label for seq in train_data])
                          if config.mode == REGRESSION else (_cross_entropy, label_class.tolist()))
    rng = np.random.default_rng(config.seed + 1)
    # one vector theta holds every trainable array; the fields become views into it
    sizes = [getattr(params, name).size for name in PARAM_FIELDS]
    theta = np.concatenate([getattr(params, name).ravel() for name in PARAM_FIELDS])
    for name, view in zip(PARAM_FIELDS, np.split(theta, np.cumsum(sizes)[:-1])):
        setattr(params, name, view.reshape(getattr(params, name).shape))
    decayed = theta[: theta.size - params.attn_b.size - params.mlp_b.size]
    m = v = 0.0  # AdamW moments
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_params = params.copy()
    best_f1 = -1.0
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        try:
            order = rng.permutation(len(train_data))
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                grad, scale = np.zeros(theta.size), 1.0 / len(batch)
                batch_loss = 0.0
                for i in batch:
                    pred, cache = forward(train_data[i], params)
                    value, d_pred = step_loss(pred, targets[i])
                    batch_loss += value
                    g = backward(cache, d_pred)
                    grad += scale * np.concatenate([g[name].ravel() for name in PARAM_FIELDS])
                batch_loss /= len(batch)
                if not math.isfinite(batch_loss):
                    raise NonFiniteLoss(f"loss diverged at epoch {epoch}")
                epoch_loss += batch_loss * len(batch)

                step += 1
                lr = config.learning_rate * min(1.0, step / max(config.warmup_steps, 1))
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad * grad
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                theta -= lr * (m_hat / (np.sqrt(v_hat) + eps))
                decayed -= lr * config.weight_decay * decayed
                params.version += 1

            dev_preds = [predict_score(seq, params) for seq in dev_data]
        except (FloatingPointError, OverflowError) as exc:  # numpy under errstate; float r**2
            raise NonFiniteLoss(f"loss diverged at epoch {epoch}") from exc
        dev_f1 = macro_f1(dev_preds, dev_refs)
        history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / len(train_data),
            "dev_macro_f1": dev_f1,
        })
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_params = params.copy()
    return best_params, history

"""Minimal dense-network layer in plain numpy.

Implements exactly what the pose models need and nothing more: Mish
activation, linear layers with explicit parameter dicts, a residual MLP
classifier, softmax cross-entropy with analytic gradients, and decoupled
AdamW with per-parameter freeze support. Gradients are hand-derived; the
test suite checks every one against central finite differences.

Softplus is formed from ``exp`` and ``log1p``, which numpy runs as vector
loops. The training forward keeps each Mish layer's softplus and its tanh,
and backprop forms Mish' from them without recomputing either; the scoring
forward keeps no cache and holds only the running activation.

Parameters live in a flat ``dict[str, np.ndarray]`` keyed by layer name
(``in.w``, ``res0.b``, ...). Freezing operates on those names, which is how
fine-tuning keeps feature layers fixed while the middle trains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import (N_CLASSES, N_FEATURES, CheckpointError, FeatureNormalizer, check_int_fields,
                   checkpoint_arrays)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) as log1p(e^-|x|) + max(x, 0): no overflow, exact at
    large |x|. The max is taken last so that at most two temporaries of
    x's size are alive at once."""
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def mish(x: np.ndarray) -> np.ndarray:
    """x * tanh(softplus(x))."""
    return x * np.tanh(softplus(x))


def _mish_derivative(x, sp, t):
    """Mish'(x) from sp = softplus(x) and t = tanh(sp); exp(x - sp) is
    sigmoid(x) without overflow."""
    return t + x * np.exp(x - sp) * (1.0 - t * t)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient wrt logits.

    logits: (B, C); labels: (B,) int class ids. Uses the max-shift trick, so
    extreme logits stay finite.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    batch, n_classes = logits.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(batch), labels]))
    grad = softmax(logits)
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


def linear_init(rng: np.random.Generator, fan_in: int, fan_out: int):
    """Weights and bias ~ uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, (fan_in, fan_out)), rng.uniform(-bound, bound, fan_out)


def n_params(params: dict[str, np.ndarray]) -> int:
    return sum(v.size for v in params.values())


# ---------------------------------------------------------------------------
# Residual MLP classifier: 36 -> 100 (Mish) -> 3 residual blocks -> 8.
# Each block is h <- h + Mish(h @ w + b). 34,808 parameters at this shape.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DnnConfig:
    n_features: int = N_FEATURES
    n_classes: int = N_CLASSES
    hidden: int = 100
    n_blocks: int = 3

    def __post_init__(self) -> None:
        if min(self.n_features, self.n_classes, self.hidden) < 1 or self.n_blocks < 0:
            raise ValueError("dimensions must be positive, n_blocks nonnegative")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes = {"in.w": (self.n_features, self.hidden), "in.b": (self.hidden,)}
        for i in range(self.n_blocks):
            shapes |= {f"res{i}.w": (self.hidden, self.hidden), f"res{i}.b": (self.hidden,)}
        return shapes | {"out.w": (self.hidden, self.n_classes), "out.b": (self.n_classes,)}


def dnn_init(config: DnnConfig, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params: dict[str, np.ndarray] = {}
    params["in.w"], params["in.b"] = linear_init(rng, config.n_features, config.hidden)
    for i in range(config.n_blocks):
        params[f"res{i}.w"], params[f"res{i}.b"] = linear_init(rng, config.hidden, config.hidden)
    params["out.w"], params["out.b"] = linear_init(rng, config.hidden, config.n_classes)
    return params


def _mish_layers(config: DnnConfig) -> tuple[str, ...]:
    """Names of the Mish layers in forward order: the input layer, then the
    residual blocks."""
    return ("in", *(f"res{i}" for i in range(config.n_blocks)))


def dnn_forward(params: dict[str, np.ndarray], x: np.ndarray, config: DnnConfig,
                cache: dict | None = None) -> np.ndarray:
    """Logits of an already normalized sample or (B, n_features) batch.

    Given a ``cache`` dict (training), records for backprop each Mish
    layer's input, pre-activation z, softplus(z) and tanh(softplus(z)) under
    the layer's name, and the last hidden state under ``h_out``. Without one
    (scoring), only the running activation is held.
    """
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for name in _mish_layers(config):
        z = h @ params[f"{name}.w"] + params[f"{name}.b"]
        if cache is None:
            a = mish(z)
        else:
            sp = softplus(z)
            t = np.tanh(sp)
            cache[name] = (h, z, sp, t)
            a = z * t
        if name != "in":
            a += h  # the residual sum, written into the fresh activation
        h = a
    if cache is not None:
        cache["h_out"] = h
    return h @ params["out.w"] + params["out.b"]


def dnn_backward(params, cache, grad_logits, config: DnnConfig):
    grads = {
        "out.w": cache["h_out"].T @ grad_logits,
        "out.b": grad_logits.sum(axis=0),
    }
    gh = grad_logits @ params["out.w"].T
    for name in reversed(_mish_layers(config)):
        h, z, sp, t = cache[name]
        gz = gh * _mish_derivative(z, sp, t)
        grads[f"{name}.w"] = h.T @ gz
        grads[f"{name}.b"] = gz.sum(axis=0)
        if name != "in":
            gh = gh + gz @ params[f"{name}.w"].T
    return grads


def dnn_loss_and_grad(params, x, labels, config: DnnConfig):
    cache: dict = {}
    logits = dnn_forward(params, x, config, cache)
    loss, grad_logits = softmax_cross_entropy(logits, labels)
    return loss, dnn_backward(params, cache, grad_logits, config)


@dataclass(eq=False)
class DnnModel:
    """Residual MLP pose classifier with its frozen feature normalizer."""

    config: DnnConfig
    params: dict[str, np.ndarray]
    normalizer: "FeatureNormalizer"

    kind = "dnn"
    # fine-tuning trains the residual blocks only
    transfer_frozen = frozenset({"in.w", "in.b", "out.w", "out.b"})

    @classmethod
    def create(cls, normalizer, config: DnnConfig = DnnConfig(), seed: int = 0) -> "DnnModel":
        return cls(config=config, params=dnn_init(config, seed), normalizer=normalizer)

    @classmethod
    def from_checkpoint(cls, config: dict, params: dict, normalizer) -> "DnnModel":
        check_int_fields(config, [f.name for f in fields(DnnConfig)])
        config = DnnConfig(**config)
        for name, want in (("n_features", N_FEATURES), ("n_classes", N_CLASSES)):
            if getattr(config, name) != want:
                raise CheckpointError(f"checkpoint field config.{name} is"
                                      f" {getattr(config, name)}, expected {want}")
        # n_blocks residual blocks take 2 * n_blocks names; check that before
        # param_shapes() builds them, so a huge n_blocks fails at once
        if isinstance(params, dict) and 2 * config.n_blocks > len(params):
            raise CheckpointError(f"checkpoint field config.n_blocks is {config.n_blocks},"
                                  f" but params holds only {len(params)} names")
        return cls(config=config, params=checkpoint_arrays("params", params, config.param_shapes()),
                   normalizer=normalizer)

    def checkpoint_sections(self) -> tuple[dict, dict]:
        return vars(self.config).copy(), {k: v.tolist() for k, v in self.params.items()}

    def param_counts(self) -> dict[str, int]:
        return {"total_params": n_params(self.params)}

    def logits(self, x: np.ndarray) -> np.ndarray:
        return dnn_forward(self.params, self.normalizer.transform(x), self.config)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(x))

    def loss_and_grad(self, x: np.ndarray, labels: np.ndarray, needed=None):
        """Mean batch loss and gradients. ``needed`` (names or None for all)
        restricts which gradients are worth computing; extras are harmless."""
        return dnn_loss_and_grad(self.params, self.normalizer.transform(x), labels, self.config)

    def copy(self) -> "DnnModel":
        return DnnModel(
            config=self.config,
            params={k: v.copy() for k, v in self.params.items()},
            normalizer=self.normalizer,
        )


# ---------------------------------------------------------------------------
# Decoupled AdamW: p <- p - lr*m_hat/(sqrt(v_hat)+EPS) - lr*wd*p, with the
# usual moment decays BETA1 and BETA2. Decay is applied to weights and biases
# uniformly; frozen parameters (by name) keep both their values and their
# moments untouched.
# ---------------------------------------------------------------------------

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamW:
    lr: float = 0.02
    weight_decay: float = 1e-4
    frozen: frozenset[str] = frozenset()
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("lr and weight_decay must be nonnegative")
        self.frozen = frozenset(self.frozen)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One in-place update. Frozen parameters are left untouched bit for
        bit; their optimizer moments are not advanced either."""
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            if name in self.frozen:
                continue
            g = np.asarray(grads[name])
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            p *= 1.0 - self.lr * self.weight_decay
            p -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

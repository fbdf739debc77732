"""Small differentiable classifiers with hand-written analytic gradients.

Two architectures at desk scale: multinomial logistic regression
(``linear_softmax``) and a one-hidden-layer tanh MLP (``mlp``). Parameters
live in a single flat float64 vector so that model updates, uploaded
gradients, and per-sample gradients are all directly comparable. tanh is
used in the hidden layer so finite-difference gradient checks are clean.

Every routine takes a batch: per-sample losses (``loss_many``) and
gradients (``grad_samples``) for the attack, the mean gradient
(``grad_batch``) for local SGD, which lives in ``fedsim``.

Layout of the flat parameter vector:

  linear_softmax : [W (C x d), b (C)]
  mlp            : [W1 (h x d), b1 (h), W2 (C x h), b2 (C)]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptySampleError, ShapeMismatchError
from .numstat import RngStream

MODEL_KINDS = ("linear_softmax", "mlp")

# Softmax probabilities are clamped at this value before the log, capping
# the loss near 69.08 for pathologically saturated predictions.
PROB_FLOOR = 1e-30
_LOSS_CAP = -math.log(PROB_FLOOR)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the parameter count is a pure function of it."""

    kind: str
    input_dim: int
    hidden_dim: int = 0
    num_classes: int = 2
    init_std: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.kind == "linear_softmax" and self.hidden_dim != 0:
            raise ConfigError("linear_softmax requires hidden_dim == 0")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ConfigError("mlp requires hidden_dim >= 1")
        if self.init_std < 0:
            raise ConfigError("init_std must be >= 0")

    def param_count(self) -> int:
        d, h, c = self.input_dim, self.hidden_dim, self.num_classes
        if self.kind == "linear_softmax":
            return c * d + c
        return h * d + h + c * h + c


def _check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.param_count(),):
        raise ShapeMismatchError(
            f"expected {spec.param_count()} parameters, got shape {params.shape}"
        )
    return params


def _unpack(spec: ModelSpec, params: np.ndarray):
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if spec.kind == "linear_softmax":
        w = params[: c * d].reshape(c, d)
        b = params[c * d :]
        return w, b
    o = 0
    w1 = params[o : o + h * d].reshape(h, d)
    o += h * d
    b1 = params[o : o + h]
    o += h
    w2 = params[o : o + c * h].reshape(c, h)
    o += c * h
    b2 = params[o:]
    return w1, b1, w2, b2


def _as_batch(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise ShapeMismatchError(
            f"feature dim {x.shape[1]} != input_dim {spec.input_dim}"
        )
    return x


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Logits plus the hidden activation needed for backprop (None for linear)."""
    if spec.kind == "linear_softmax":
        w, b = _unpack(spec, params)
        return x @ w.T + b, None
    w1, b1, w2, b2 = _unpack(spec, params)
    a1 = np.tanh(x @ w1.T + b1)
    return a1 @ w2.T + b2, a1


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def init_params(spec: ModelSpec, rng: RngStream) -> np.ndarray:
    """Gaussian(0, init_std^2) weights, zero biases."""
    g = rng.generator()
    params = np.zeros(spec.param_count())
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if spec.init_std == 0.0:
        return params
    if spec.kind == "linear_softmax":
        params[: c * d] = spec.init_std * g.standard_normal(c * d)
    else:
        params[: h * d] = spec.init_std * g.standard_normal(h * d)
        o = h * d + h
        params[o : o + c * h] = spec.init_std * g.standard_normal(c * h)
    return params


def loss_many(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy for a batch; clamped at -log(PROB_FLOOR)."""
    params = _check_params(spec, params)
    x = _as_batch(spec, x)
    y = np.asarray(y, dtype=np.int64)
    logits, _ = _forward(spec, params, x)
    logp = _log_softmax(logits)
    losses = -logp[np.arange(len(y)), y]
    return np.minimum(losses, _LOSS_CAP) + 0.0  # +0.0 normalizes -0.0


def grad_samples(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample gradients, one flat row per sample (n x param_count)."""
    params = _check_params(spec, params)
    x = _as_batch(spec, x)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    logits, a1 = _forward(spec, params, x)
    delta = _softmax(logits)
    delta[np.arange(n), y] -= 1.0
    if spec.kind == "linear_softmax":
        gw = delta[:, :, None] * x[:, None, :]
        return np.concatenate([gw.reshape(n, -1), delta], axis=1)
    w1, b1, w2, b2 = _unpack(spec, params)
    gw2 = delta[:, :, None] * a1[:, None, :]
    d1 = (delta @ w2) * (1.0 - a1 * a1)
    gw1 = d1[:, :, None] * x[:, None, :]
    return np.concatenate([gw1.reshape(n, -1), d1, gw2.reshape(n, -1), delta], axis=1)


def grad_batch(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean per-sample gradient over a non-empty batch."""
    params = _check_params(spec, params)
    x = _as_batch(spec, x)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n == 0:
        raise EmptySampleError("grad_batch of an empty batch")
    logits, a1 = _forward(spec, params, x)
    delta = _softmax(logits)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    if spec.kind == "linear_softmax":
        gw = delta.T @ x
        return np.concatenate([gw.ravel(), delta.sum(axis=0)])
    w1, b1, w2, b2 = _unpack(spec, params)
    gw2 = delta.T @ a1
    d1 = (delta @ w2) * (1.0 - a1 * a1)
    gw1 = d1.T @ x
    return np.concatenate([gw1.ravel(), d1.sum(axis=0), gw2.ravel(), delta.sum(axis=0)])


def accuracy(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class index."""
    params = _check_params(spec, params)
    x = _as_batch(spec, x)
    y = np.asarray(y, dtype=np.int64)
    if len(y) == 0:
        raise EmptySampleError("accuracy of an empty dataset")
    logits, _ = _forward(spec, params, x)
    return float(np.mean(np.argmax(logits, axis=1) == y))

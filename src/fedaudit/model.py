"""Small differentiable classifiers with hand-written analytic gradients.

Two architectures at desk scale: multinomial logistic regression
(``linear_softmax``) and a one-hidden-layer tanh MLP (``mlp``). Parameters
live in a single flat float64 vector so that model updates, uploaded
gradients, and per-sample gradients are all directly comparable. tanh is
used in the hidden layer so finite-difference gradient checks are clean.

Every routine takes a batch: per-sample losses (``loss_many``) and
gradients (``grad_samples``) for the attack. Local SGD, which lives in
``fedsim``, trains a group of clients as one stack: ``grad_batch`` takes
(K, P) parameters and a (K, b, d) batch and runs each product as a
stacked matmul, which NumPy executes as one 2-D gemm per client, so every
client's gradient is bitwise what it would be alone; ``sgd_step`` applies
it in place through per-layer views of the (K, P) buffer. Both reuse the
arrays of a workspace dict that the caller keeps for the whole loop, and
the layers ``grad_batch`` returns alias it until its next call.

Layout of the flat parameter vector:

  linear_softmax : [W (C x d), b (C)]
  mlp            : [W1 (h x d), b1 (h), W2 (C x h), b2 (C)]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FedAuditError
from .numstat import RngStream, _scratch

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
            raise ConfigError(f"kind: must be one of {list(MODEL_KINDS)}, got {self.kind!r}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim: must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes: must be >= 2, got {self.num_classes}")
        if self.kind == "linear_softmax" and self.hidden_dim != 0:
            raise ConfigError(f"hidden_dim: must be 0 for linear_softmax, got {self.hidden_dim}")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim: must be >= 1 for mlp, got {self.hidden_dim}")
        if self.init_std < 0:
            raise ConfigError(f"init_std: must be >= 0, got {self.init_std}")

    def param_count(self) -> int:
        d, h, c = self.input_dim, self.hidden_dim, self.num_classes
        if self.kind == "linear_softmax":
            return c * d + c
        return h * d + h + c * h + c


def _inputs(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray):
    """One model's float64 params (P,), features (n, d) and int64 labels, checked."""
    params, x = np.asarray(params, dtype=np.float64), np.asarray(x, dtype=np.float64)
    if params.shape != (spec.param_count(),):
        raise FedAuditError(f"expected {spec.param_count()} parameters, got {params.shape}")
    if x.shape[1] != spec.input_dim:
        raise FedAuditError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    return params, x, np.asarray(y, dtype=np.int64)


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[np.ndarray]:
    """Per-layer views of a flat parameter vector, or of every row of a (K, P) stack."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    shapes = [(c, d), (c,)] if spec.kind == "linear_softmax" else [(h, d), (h,), (c, h), (c,)]
    layers, o = [], 0
    for shape in shapes:
        size = math.prod(shape)
        layers.append(params[..., o : o + size].reshape(params.shape[:-1] + shape))
        o += size
    return layers


def _matmul(ws: dict | None, name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of operands with equal leading axes, into the workspace array ``name``."""
    return np.matmul(a, b, out=_scratch(ws, name, a.shape[:-1] + b.shape[-1:]))


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray, ws: dict | None = None):
    """Logits and hidden activation (None for linear) of params (P,) on x (n, d),
    or of a (K, P) stack on x (K, b, d), both in the workspace ``ws``."""
    *hidden, w, b = _unpack(spec, params)
    a1 = _matmul(ws, "a1", x, np.swapaxes(hidden[0], -1, -2)) if hidden else None
    if hidden:
        a1 += hidden[1][..., None, :]
        np.tanh(a1, out=a1)
    logits = _matmul(ws, "logits", x if a1 is None else a1, np.swapaxes(w, -1, -2))
    logits += b[..., None, :]
    return logits, a1


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def init_params(spec: ModelSpec, rng: RngStream) -> np.ndarray:
    """Gaussian(0, init_std^2) weights, zero biases."""
    g = rng.generator()
    params = np.zeros(spec.param_count())
    if spec.init_std > 0.0:
        for w in _unpack(spec, params)[::2]:  # the weight matrices; biases stay zero
            w[...] = spec.init_std * g.standard_normal(w.size).reshape(w.shape)
    return params


def loss_many(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy for a batch; clamped at -log(PROB_FLOOR)."""
    params, x, y = _inputs(spec, params, x, y)
    logits, _ = _forward(spec, params, x)
    logp = _log_softmax(logits)
    losses = -logp[np.arange(len(y)), y]
    return np.minimum(losses, _LOSS_CAP) + 0.0  # +0.0 normalizes -0.0


def grad_samples(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Per-sample gradients, one flat row per sample (n x param_count), written into
    ``out`` (a C-contiguous float64 array; its contents do not matter) when given."""
    params, x, y = _inputs(spec, params, x, y)
    n, shape = len(y), (len(y), spec.param_count())
    out = np.empty(shape) if out is None else out
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise FedAuditError(f"out must be a C-contiguous float64 {shape} array, got {out.shape}")
    logits, a1 = _forward(spec, params, x)
    delta = _softmax(logits)
    delta[np.arange(n), y] -= 1.0
    *hidden, gw, gb = _unpack(spec, out)
    gb[...] = delta
    np.multiply(delta[:, :, None], (x if a1 is None else a1)[:, None, :], out=gw)
    if hidden:
        gw1, d1 = hidden
        np.multiply(delta @ _unpack(spec, params)[2], 1.0 - a1 * a1, out=d1)
        np.multiply(d1[:, :, None], x[:, None, :], out=gw1)
    return out


def grad_batch(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray,
               lam: np.ndarray | None = None, ws: dict | None = None) -> list[np.ndarray]:
    """Mean batch gradients of K stacked models, as ``_unpack`` layers with a leading K axis.

    ``params`` is (K, P) and ``x`` (K, b, d). ``labels`` (L, K, b) holds one
    label set, or under mixup two that share one forward pass and give
    ``lam * g_a + (1 - lam) * g_b`` with ``lam`` (K,). Every product is a
    stack of the 2-D gemms of a lone model, so each row is bitwise the
    gradient that model computes alone. Its layers alias the workspace ``ws``.
    """
    k, n = labels.shape[1:]
    if params.shape != (k, spec.param_count()) or x.shape != (k, n, spec.input_dim):
        raise FedAuditError(f"params {params.shape}, x {x.shape}, labels {labels.shape}")
    if n == 0:
        raise FedAuditError("grad_batch of an empty batch")
    if len(labels) != (1 if lam is None else 2):
        raise FedAuditError(f"{len(labels)} label sets with lam {lam!r}")
    logits, a1 = _forward(spec, params, x, ws)
    probs = _softmax(logits)
    if a1 is not None:
        dtanh = np.multiply(a1, a1, out=_scratch(ws, "dtanh", a1.shape))
        np.subtract(1.0, dtanh, out=dtanh)
    grads: list[np.ndarray] = []
    for i, y in enumerate(labels):
        delta = probs
        if i + 1 < len(labels):
            delta = _scratch(ws, "delta", probs.shape)
            delta[...] = probs
        delta[np.arange(k)[:, None], np.arange(n), y] -= 1.0
        delta /= n
        delta_t = np.swapaxes(delta, 1, 2)
        if a1 is None:
            layers = [_matmul(ws, f"grad{i}.w", delta_t, x), delta.sum(axis=1)]
        else:
            d1 = _matmul(ws, "d1", delta, _unpack(spec, params)[2])
            d1 *= dtanh
            layers = [_matmul(ws, f"grad{i}.w1", np.swapaxes(d1, 1, 2), x), d1.sum(axis=1),
                      _matmul(ws, f"grad{i}.w2", delta_t, a1), delta.sum(axis=1)]
        if lam is None:
            return layers
        for j, g in enumerate(layers):
            g *= (lam if i == 0 else 1.0 - lam).reshape((k,) + (1,) * (g.ndim - 1))
            if i == 0:
                grads.append(g)
            else:
                grads[j] += g
    return grads


def sgd_step(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray, lr: float,
             lam: np.ndarray | None = None, ws: dict | None = None) -> None:
    """``params -= lr * grad_batch(...)`` in place, through per-layer views."""
    for w, g in zip(_unpack(spec, params), grad_batch(spec, params, x, labels, lam, ws)):
        g *= lr
        w -= g


def accuracy(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class index."""
    params, x, y = _inputs(spec, params, x, y)
    if len(y) == 0:
        raise FedAuditError("accuracy of an empty dataset")
    logits, _ = _forward(spec, params, x)
    return float(np.mean(np.argmax(logits, axis=1) == y))

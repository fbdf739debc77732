"""Small differentiable classifiers with hand-written analytic gradients.

Two architectures at desk scale: multinomial logistic regression
(``linear_softmax``) and a one-hidden-layer tanh MLP (``mlp``). Parameters
live in a single flat float64 vector so that model updates, uploaded
gradients, and per-sample gradients are all directly comparable. tanh is
used in the hidden layer so finite-difference gradient checks are clean.

Every routine runs a (K, P) stack of models through one forward pass,
``_forward``, whose activations are batch-major: (n, K, h) and (n, K, C).
Each of its products is the 2-D gemm a lone model issues, written into that
model's strided columns, so each model's result is bitwise what it computes
alone. Per-sample losses (``loss_many``) and gradients (``grad_samples``)
are its one-model case. ``_stacked_loss`` gives each record's loss under
every client's rebuilt model in blocks of ``_LOSS_BLOCK`` models, a few
large NumPy calls that release the GIL. Local SGD in ``fedsim`` trains a
group of clients as one stack: ``grad_batch`` takes a (K, b, d) batch and
returns one flat (K, P) gradient, laid out as the parameters are, whose
products are written straight into its per-layer views; ``sgd_step``
applies it to the (K, P) parameters in two whole-array operations. Both
reuse the arrays of a workspace dict that the caller keeps for the whole
loop; ``grad_batch``'s result aliases it until its next call.

Layout of the flat parameter vector:

  linear_softmax : [W (C x d), b (C)]
  mlp            : [W1 (h x d), b1 (h), W2 (C x h), b2 (C)]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numstat import RngStream, _scratch

MODEL_KINDS = ("linear_softmax", "mlp")

# Softmax probabilities are clamped at this value before the log, capping
# the loss near 69.08 for pathologically saturated predictions.
PROB_FLOOR = 1e-30
_LOSS_CAP = -math.log(PROB_FLOOR)
# Models per block of the stacked loss kernel: the smallest block as fast as
# larger ones. An audit of a benchmark filter-active trace (K=50, n=200) on
# two threads took 166 ms in blocks of 5 and 151-153 ms in blocks of 10, 25
# or 50, while the (n, B, h) activations grow with the block: 0.5 MB at 10.
_LOSS_BLOCK = 10


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


def _forward(spec: ModelSpec, stack: np.ndarray, x: np.ndarray, ws: dict | None = None):
    """Batch-major logits (n, K, C) and hidden activation (n, K, h), None for
    linear_softmax, of a (K, P) stack on features shared by every model (n, d) or
    one batch per model (K, n, d), in the workspace ``ws``. Model k's products
    are the 2-D gemms it issues alone, written into column k."""
    *hidden, w, b = _unpack(spec, stack)
    shape, inputs, a1 = (x.shape[-2], len(stack)), x, None
    if hidden:
        a1 = _scratch(ws, "a1", shape + (spec.hidden_dim,))
        np.matmul(x, np.swapaxes(hidden[0], 1, 2), out=np.swapaxes(a1, 0, 1))
        a1 += hidden[1]
        np.tanh(a1, out=a1)
        inputs = np.swapaxes(a1, 0, 1)
    logits = _scratch(ws, "logits", shape + (spec.num_classes,))
    np.matmul(inputs, np.swapaxes(w, 1, 2), out=np.swapaxes(logits, 0, 1))
    logits += b
    return logits, a1


def _row_max(logits: np.ndarray, ws: dict | None, name: str) -> np.ndarray:
    """The max over the last axis, as a chain of ``np.maximum`` over its columns
    into the workspace array ``name``: exact, so it equals ``max(axis=-1)``, and
    faster on the few classes of a wide stack."""
    top = np.maximum(logits[..., 0], logits[..., 1], out=_scratch(ws, name, logits.shape[:-1]))
    for j in range(2, logits.shape[-1]):
        np.maximum(top, logits[..., j], out=top)
    return top


def _softmax(logits: np.ndarray, ws: dict | None = None) -> np.ndarray:
    """Softmax over the last axis, in place."""
    logits -= _row_max(logits, ws, "softmax.top")[..., None]
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
    return _stacked_loss(spec, params[None], x, y, np.empty((len(y), 1)))[:, 0]


def _stacked_loss(spec: ModelSpec, stack: np.ndarray, x: np.ndarray, y: np.ndarray,
                  out: np.ndarray, ws: dict | None = None) -> np.ndarray:
    """``loss_many`` of every row of a (K, P) stack, into the columns of ``out`` (n, K).

    ``x`` and ``y`` are checked float64 and int64 arrays; ``_forward`` gives the
    (n, B, C) logits of a block. The softmax max is ``_row_max``, which equals a
    row-wise max; each row's exp-sum is the same contiguous reduction as for one
    model.
    """
    rows = np.arange(len(y))
    for lo in range(0, len(stack), _LOSS_BLOCK):
        logits, _ = _forward(spec, stack[lo : lo + _LOSS_BLOCK], x, ws)
        top = _row_max(logits, ws, "loss.top")
        picked = logits[rows, :, y]
        picked -= top
        logits -= top[..., None]
        np.exp(logits, out=logits)
        logsum = np.add.reduce(logits, axis=-1, out=_scratch(ws, "loss.sum", logits.shape[:2]))
        np.log(logsum, out=logsum)
        # -(picked - logsum), up to the sign of a zero loss, which the +0.0 below clears.
        np.subtract(logsum, picked, out=out[:, lo : lo + _LOSS_BLOCK])
    np.minimum(out, _LOSS_CAP, out=out)
    out += 0.0  # normalizes -0.0
    return out


def grad_samples(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Per-sample gradients, one flat row per sample (n x param_count), written into
    ``out`` when given, a C-contiguous float64 array of that shape; its contents do not matter."""
    n, shape = len(y), (len(y), spec.param_count())
    out = np.empty(shape) if out is None else out
    logits, a1 = _forward(spec, params[None], x)
    delta = _softmax(logits[:, 0])
    delta[np.arange(n), y] -= 1.0
    *hidden, gw, gb = _unpack(spec, out)
    gb[...] = delta
    a1 = None if a1 is None else a1[:, 0]
    np.multiply(delta[:, :, None], (x if a1 is None else a1)[:, None, :], out=gw)
    if hidden:
        gw1, d1 = hidden
        np.multiply(delta @ _unpack(spec, params)[2], 1.0 - a1 * a1, out=d1)
        np.multiply(d1[:, :, None], x[:, None, :], out=gw1)
    return out


def grad_batch(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray,
               lam: np.ndarray | None = None, ws: dict | None = None) -> np.ndarray:
    """Mean batch gradients of K stacked models, as one flat (K, P) array.

    ``params`` is (K, P) and ``x`` (K, b, d). ``labels`` (L, K, b) holds one
    label set, or under mixup two that share one forward pass and give
    ``lam * g_a + (1 - lam) * g_b`` with ``lam`` (K,). Every product is a
    stack of the 2-D gemms of a lone model, written into the ``_unpack``
    views of a label set's (K, P) block, so each row is bitwise the gradient
    that model computes alone. The result aliases the workspace ``ws``.
    """
    k, n = labels.shape[1:]
    if k > 1 and 1 in (spec.input_dim, spec.hidden_dim):
        # With a layer one unit wide the backward products are gemv calls, whose
        # bits depend on the matrix's leading dimension: each model runs alone.
        return np.concatenate([
            grad_batch(spec, params[j : j + 1], x[j : j + 1], labels[:, j : j + 1],
                       None if lam is None else lam[j : j + 1]) for j in range(k)])
    logits, a1 = _forward(spec, params, x, ws)
    probs = _softmax(logits, ws)
    if a1 is not None:
        dtanh = np.multiply(a1, a1, out=_scratch(ws, "dtanh", a1.shape))
        np.subtract(1.0, dtanh, out=dtanh)
    blocks = []
    for i, y in enumerate(labels):
        delta = probs
        if i + 1 < len(labels):
            delta = _scratch(ws, "delta", probs.shape)
            delta[...] = probs
        delta[np.arange(n), np.arange(k)[:, None], y] -= 1.0
        delta /= n
        grads = _scratch(ws, f"grad{i}", params.shape)
        *hidden, gw, gb = _unpack(spec, grads)
        inputs = x
        if hidden:
            d1, w2 = _scratch(ws, "d1", a1.shape), _unpack(spec, params)[2]
            np.matmul(np.swapaxes(delta, 0, 1), w2, out=np.swapaxes(d1, 0, 1))
            d1 *= dtanh
            np.matmul(np.transpose(d1, (1, 2, 0)), x, out=hidden[0])
            np.add.reduce(d1, axis=0, out=hidden[1])
            inputs = np.swapaxes(a1, 0, 1)
        np.matmul(np.transpose(delta, (1, 2, 0)), inputs, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        blocks.append(grads)
    if lam is None:
        return blocks[0]
    mixed, other = blocks
    mixed *= lam[:, None]
    other *= (1.0 - lam)[:, None]
    mixed += other
    return mixed


def sgd_step(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray, lr: float,
             lam: np.ndarray | None = None, ws: dict | None = None) -> None:
    """``params -= lr * grad_batch(...)`` in place."""
    g = grad_batch(spec, params, x, labels, lam, ws)
    g *= lr
    params -= g


def accuracy(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class index."""
    logits, _ = _forward(spec, params[None], x)
    return float(np.mean(np.argmax(logits[:, 0], axis=1) == y))

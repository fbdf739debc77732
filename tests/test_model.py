import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import fedsim as fed
from fedaudit import model as mdl
from fedaudit.errors import ConfigError
from fedaudit.numstat import RngStream
from helpers import batch_grad_2d, finite_diff_grad, loss_2d

LINEAR = mdl.ModelSpec("linear_softmax", input_dim=3, num_classes=4, init_std=0.1)
MLP = mdl.ModelSpec("mlp", input_dim=3, hidden_dim=5, num_classes=4, init_std=0.1)


def random_case(seed, spec):
    """Random parameters and one record as a one-row batch (x, y)."""
    g = RngStream(seed).generator()
    params = 0.5 * g.standard_normal(spec.param_count())
    x = g.standard_normal(spec.input_dim)[None, :]
    y = np.array([g.integers(spec.num_classes)])
    return params, x, y


def loss_one(spec, params, x, y):
    """Loss of one record, given as a one-row batch."""
    return float(mdl.loss_many(spec, params, x, y)[0])


def local_sgd(spec, params, x, y, lr, epochs, batch_size, rng):
    """A client's parameters after local SGD with no data-level defense,
    rebuilt from its upload as a group of one (exact for dyadic values)."""
    config = fed.FedConfig(
        rounds=1, local_epochs=epochs, lr=lr, lr_decay=1.0, batch_size=batch_size
    )
    return params - lr * fed.client_update(
        spec, x[None], y[None], params, config, fed.DefenseConfig(), lr, [rng]
    )[0]


def batch_grad(spec, params, x, y):
    """Mean gradient of one batch as a flat vector: the stacked kernel's one row."""
    return mdl.grad_batch(spec, params[None], x[None], np.asarray(y)[None, None])[0]


class TestModelSpec:
    def test_param_counts(self):
        assert LINEAR.param_count() == 4 * 3 + 4
        assert MLP.param_count() == 5 * 3 + 5 + 4 * 5 + 4

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            mdl.ModelSpec("perceptron", input_dim=3)
        with pytest.raises(ConfigError):
            mdl.ModelSpec("mlp", input_dim=3, hidden_dim=0)
        with pytest.raises(ConfigError):
            mdl.ModelSpec("linear_softmax", input_dim=3, hidden_dim=2)
        with pytest.raises(ConfigError):
            mdl.ModelSpec("linear_softmax", input_dim=3, num_classes=1)


class TestInit:
    def test_zero_std_all_zero(self):
        spec = mdl.ModelSpec("mlp", input_dim=3, hidden_dim=5, num_classes=4, init_std=0.0)
        assert np.array_equal(mdl.init_params(spec, RngStream(1)), np.zeros(spec.param_count()))

    def test_deterministic(self):
        rng = RngStream(7).derive(3)
        assert np.array_equal(mdl.init_params(MLP, rng), mdl.init_params(MLP, rng))

    def test_distinct_streams_differ(self):
        root = RngStream(7)
        vecs = [mdl.init_params(MLP, root.derive(i)) for i in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.any(vecs[i] != vecs[j])

    def test_biases_zero(self):
        params = mdl.init_params(LINEAR, RngStream(1))
        assert np.array_equal(params[4 * 3 :], np.zeros(4))


class TestLoss:
    def test_uniform_at_zero_params(self):
        params = np.zeros(LINEAR.param_count())
        for seed in range(5):
            _, x, y = random_case(seed, LINEAR)
            assert loss_one(LINEAR, params, x, y) == pytest.approx(math.log(4), abs=1e-12)

    def test_ln2_binary(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        x, y = np.array([[0.3, -0.7]]), np.array([1])
        assert loss_one(spec, np.zeros(spec.param_count()), x, y) == pytest.approx(
            0.693147, abs=1e-6
        )

    def test_strong_separation_drives_loss_to_zero(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        # weight row of the true class points along x with a huge margin
        params = np.array([50.0, 0.0, -50.0, 0.0, 0.0, 0.0])
        x, y = np.array([[1.0, 0.0]]), np.array([0])
        assert 0.0 <= loss_one(spec, params, x, y) < 1e-3

    def test_loss_nonnegative_and_capped(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=1, num_classes=2)
        params = np.array([1000.0, -1000.0, 0.0, 0.0])
        val = loss_one(spec, params, np.array([[1.0]]), np.array([1]))
        assert 0.0 <= val <= -math.log(1e-30) + 1e-9


class TestGradients:
    def test_linear_gradient_hand_value(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        x, y = np.array([[1.0, 0.0]]), np.array([0])
        grad = mdl.grad_samples(spec, np.zeros(spec.param_count()), x, y)[0]
        # softmax is uniform, so dlogits = [0.5 - 1, 0.5]; weight block is outer(dlogits, x)
        assert np.allclose(grad, [-0.5, 0.0, 0.5, 0.0, -0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
    def test_finite_differences(self, spec):
        for seed in range(50):
            params, x, y = random_case(seed, spec)
            analytic = mdl.grad_samples(spec, params, x, y)[0]
            numeric = finite_diff_grad(spec, params, x, y)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4

    def test_gradient_at_converged_minimum(self):
        # plain GD on a separable toy set until the gradient vanishes
        spec = mdl.ModelSpec("linear_softmax", input_dim=1, num_classes=2)
        x = np.array([[-5.0], [5.0]])
        y = np.array([0, 1])
        params = np.zeros(spec.param_count())
        for _ in range(50_000):
            g = batch_grad(spec, params, x, y)
            if np.linalg.norm(g) < 1e-6:
                break
            params -= 1.0 * g
        assert np.linalg.norm(batch_grad(spec, params, x, y)) < 1e-6

    def test_batch_of_one_equals_grad_sample(self):
        params, x, y = random_case(3, MLP)
        batch = batch_grad(MLP, params, x, y)
        assert np.allclose(batch, mdl.grad_samples(MLP, params, x, y)[0], atol=1e-15)

    def test_duplicate_averaging(self):
        params, x, y = random_case(4, LINEAR)
        assert np.allclose(
            batch_grad(LINEAR, params, np.vstack([x, x]), np.concatenate([y, y])),
            mdl.grad_samples(LINEAR, params, x, y)[0],
            atol=1e-15,
        )

    def test_batch_equals_mean_of_per_sample(self):
        g = RngStream(9).generator()
        x = g.standard_normal((20, 3))
        y = g.integers(4, size=20)
        params = 0.3 * g.standard_normal(MLP.param_count())
        direct = mdl.grad_samples(MLP, params, x, y).mean(axis=0)
        assert np.allclose(batch_grad(MLP, params, x, y), direct, atol=1e-12)

    def test_permutation_invariance(self):
        g = RngStream(10).generator()
        x = g.standard_normal((15, 3))
        y = g.integers(4, size=15)
        params = 0.3 * g.standard_normal(LINEAR.param_count())
        perm = g.permutation(15)
        a = batch_grad(LINEAR, params, x, y)
        b = batch_grad(LINEAR, params, x[perm], y[perm])
        assert np.allclose(a, b, atol=1e-12)


# The benchmark's model sizes.
BENCH_SPECS = [
    mdl.ModelSpec("mlp", input_dim=32, hidden_dim=32, num_classes=10),
    mdl.ModelSpec("linear_softmax", input_dim=32, num_classes=10),
]


# Models with a layer one unit wide: their backward products are gemv calls,
# so grad_batch runs each model of their stacks alone.
NARROW = [mdl.ModelSpec("mlp", input_dim=5, hidden_dim=1, num_classes=3),
          mdl.ModelSpec("linear_softmax", input_dim=1, num_classes=3)]
SPEC_IDS = ["mlp", "linear_softmax", "narrow_mlp", "narrow_linear"]


@pytest.mark.parametrize("k, b", [(50, 32), (50, 4), (3, 1), (1, 7)])
@pytest.mark.parametrize("spec", BENCH_SPECS + NARROW, ids=SPEC_IDS)
def test_stacked_matmul_is_per_client_gemm(spec, k, b):
    """Each model's slice of every stacked product the kernels issue is bitwise
    the 2-D product a lone model computes, which is what keeps grouped
    training's traces and the stacked loss identical; a NumPy or BLAS that
    batches or strides differently fails here. The forward writes into the
    strided columns of a batch-major (b, K, .) output, from a batch shared by
    every model or one batch per model, and an mlp's output layer reads the
    strided (b, K, h) activation. The backward, which no stack of NARROW
    models issues, reads the batch-major delta, activation and d1
    transposed or strided, writes d1 into strided columns, and writes each
    weight gradient into its layer's view of a flat (K, P) gradient, as
    contiguous arrays do."""
    g = RngStream(23).generator()
    w = g.standard_normal((k, spec.param_count()))
    layers = mdl._unpack(spec, w)
    first, out_w = layers[0], layers[-2]
    shared, x = g.standard_normal((b, spec.input_dim)), g.standard_normal((k, b, spec.input_dim))
    a1 = g.standard_normal((b, k, spec.hidden_dim))
    d1 = g.standard_normal((b, k, spec.hidden_dim))
    delta = g.standard_normal((b, k, spec.num_classes))
    t = lambda m: np.swapaxes(m, -1, -2)  # noqa: E731
    delta_t = np.transpose(delta, (1, 2, 0))

    def batch_major(inputs, weights):
        out = np.empty((b, k, weights.shape[-1]))
        np.matmul(inputs, weights, out=np.swapaxes(out, 0, 1))
        return np.swapaxes(out, 0, 1)

    mlp, backward = spec.kind == "mlp", spec not in NARROW
    stacked = [batch_major(shared, t(first)), batch_major(x, t(first))]
    stacked += [batch_major(np.swapaxes(a1, 0, 1), t(out_w))] if mlp else []
    grad = mdl._unpack(spec, np.empty((k, spec.param_count())))  # grad_batch's layer views
    stacked += [delta_t @ x] if backward else []
    stacked += [np.matmul(delta_t, x, out=grad[0])] if backward and not mlp else []
    if backward and mlp:
        stacked += [batch_major(np.swapaxes(delta, 0, 1), out_w),
                    np.transpose(d1, (1, 2, 0)) @ x, delta_t @ np.swapaxes(a1, 0, 1),
                    np.matmul(np.transpose(d1, (1, 2, 0)), x, out=grad[0]),
                    np.matmul(delta_t, np.swapaxes(a1, 0, 1), out=grad[2])]
    for i in range(k):
        lone = mdl._unpack(spec, w[i].copy())
        xi, ai, di, deli = x[i].copy(), a1[:, i].copy(), d1[:, i].copy(), delta[:, i].copy()
        alone = [shared.copy() @ lone[0].T, xi @ lone[0].T]
        alone += [ai @ lone[2].T] if mlp else []
        alone += [deli.T @ xi] if backward else []
        alone += [deli.T @ xi] if backward and not mlp else []
        if backward and mlp:
            alone += [deli @ lone[2], di.T @ xi, deli.T @ ai, di.T @ xi, deli.T @ ai]
        for s, a in zip(stacked, alone, strict=True):
            assert s[i].tobytes() == a.tobytes()


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixup"])
@pytest.mark.parametrize("b", [1, 4, 32])
@pytest.mark.parametrize("k", [1, 9, 50])
@pytest.mark.parametrize("spec", BENCH_SPECS + NARROW, ids=SPEC_IDS)
def test_grad_batch_rows_are_each_client_alone(spec, k, b, mixed):
    """Each row of ``grad_batch`` and ``sgd_step`` is bitwise the 2-D reference
    ``helpers.batch_grad_2d`` of that client alone; under mixup it is
    ``lam * g_a + (1 - lam) * g_b`` of the two label sets."""
    g = RngStream(26).generator()
    params = 0.3 * g.standard_normal((k, spec.param_count()))
    x = g.standard_normal((k, b, spec.input_dim))
    labels = g.integers(spec.num_classes, size=(2 if mixed else 1, k, b))
    lam = g.uniform(size=k) if mixed else None
    grads = mdl.grad_batch(spec, params, x, labels, lam)
    assert grads.shape == (k, spec.param_count())
    stepped = params.copy()
    mdl.sgd_step(spec, stepped, x, labels, 0.3, lam)
    for i in range(k):
        alone = [batch_grad_2d(spec, params[i].copy(), x[i].copy(), y[i]) for y in labels]
        expect = alone[0] if lam is None else lam[i] * alone[0] + (1.0 - lam[i]) * alone[1]
        assert grads[i].tobytes() == expect.tobytes()
        assert stepped[i].tobytes() == (params[i] - 0.3 * expect).tobytes()


@pytest.mark.parametrize("k", [1, mdl._LOSS_BLOCK - 1, mdl._LOSS_BLOCK + 1, 50])
@pytest.mark.parametrize("spec", BENCH_SPECS + NARROW, ids=SPEC_IDS)
def test_stacked_loss_is_loss_many_of_each_model(spec, k):
    """Each column of the stacked loss kernel is bitwise ``loss_many`` of that
    model alone and the 2-D reference, a reused workspace included. Model 0
    favours class 0 by far: its class-0 records lose -0.0, which reads 0.0,
    and the others hit the PROB_FLOOR cap."""
    g = RngStream(25).generator()
    n = 200
    stack = 0.3 * g.standard_normal((k, spec.param_count()))
    mdl._unpack(spec, stack)[-1][0, 0] = 200.0
    x = g.standard_normal((n, spec.input_dim))
    y = g.integers(spec.num_classes, size=n)
    ws: dict = {}
    got = mdl._stacked_loss(spec, stack, x, y, np.empty((n, k)), ws)
    assert mdl._stacked_loss(spec, stack, x, y, np.empty((n, k)), ws).tobytes() == got.tobytes()
    for j in range(k):
        alone = mdl.loss_many(spec, stack[j], x, y)
        assert got[:, j].tobytes() == alone.tobytes() == loss_2d(spec, stack[j], x, y).tobytes()
    favoured = y == 0
    assert 0 < favoured.sum() < n
    assert got[favoured, 0].tobytes() == np.zeros(favoured.sum()).tobytes()  # not -0.0
    assert np.all(got[~favoured, 0] == -math.log(mdl.PROB_FLOOR))


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixup"])
@pytest.mark.parametrize("spec", [
    mdl.ModelSpec("mlp", input_dim=6, hidden_dim=5, num_classes=4),
    mdl.ModelSpec("linear_softmax", input_dim=6, num_classes=4),
], ids=["mlp", "linear_softmax"])
def test_shared_workspace_equals_fresh_calls(spec, mixed):
    """One workspace over a full batch, the short last batch and a batch of one
    (where mixup is skipped), then a full batch again: every gradient and step is
    bitwise that of a call with a fresh workspace."""
    g = RngStream(24).generator()
    k, ws = 3, {}
    for b in (8, 3, 1, 8):
        params = g.standard_normal((k, spec.param_count()))
        x = g.standard_normal((k, b, spec.input_dim))
        y = g.integers(spec.num_classes, size=(k, b))
        labels, lam = y[None], None
        if mixed and b >= 2:
            labels, lam = np.stack([y, g.permuted(y, axis=1)]), g.uniform(size=k)
        fresh = mdl.grad_batch(spec, params, x, labels, lam)
        shared = mdl.grad_batch(spec, params, x, labels, lam, ws)
        assert fresh.shape == shared.shape == params.shape
        assert fresh.tobytes() == shared.tobytes()
        stepped, stepped_ws = params.copy(), params.copy()
        mdl.sgd_step(spec, stepped, x, labels, 0.3, lam)
        mdl.sgd_step(spec, stepped_ws, x, labels, 0.3, lam, ws)
        assert stepped.tobytes() == stepped_ws.tobytes()


@pytest.mark.parametrize("spec", [MLP, LINEAR], ids=["mlp", "linear_softmax"])
def test_grad_samples_into_a_used_buffer_equals_a_fresh_call(spec):
    g = RngStream(25).generator()
    params = g.standard_normal(spec.param_count())
    x, y = g.standard_normal((7, 3)), g.integers(4, size=7)
    out = np.full((7, spec.param_count()), np.nan)
    assert mdl.grad_samples(spec, params, x, y, out) is out
    assert out.tobytes() == mdl.grad_samples(spec, params, x, y).tobytes()


class TestSgd:
    def test_full_batch_single_epoch_is_one_gd_step_exact(self):
        # dyadic inputs and power-of-two lr: every term is exact in binary,
        # so the in-epoch shuffle cannot perturb the sum
        g = RngStream(11).generator()
        x = g.integers(-2, 3, size=(8, 3)) / 2.0
        y = np.asarray(g.integers(4, size=8))
        start = np.zeros(LINEAR.param_count())
        lr = 0.5
        out = local_sgd(LINEAR, start, x, y, lr, epochs=1, batch_size=8, rng=RngStream(12))
        assert np.array_equal(out, start - lr * batch_grad(LINEAR, start, x, y))

    def test_full_batch_single_epoch_is_one_gd_step_general(self):
        g = RngStream(21).generator()
        x = g.standard_normal((8, 3))
        y = np.asarray(g.integers(4, size=8))
        start = 0.1 * g.standard_normal(LINEAR.param_count())
        out = local_sgd(LINEAR, start, x, y, 0.3, epochs=1, batch_size=8, rng=RngStream(22))
        expect = start - 0.3 * batch_grad(LINEAR, start, x, y)
        assert np.allclose(out, expect, atol=1e-14, rtol=0)

    def test_lr_zero_rejected(self):
        # local SGD takes its learning rate from a FedConfig, which rejects 0
        with pytest.raises(ConfigError):
            local_sgd(LINEAR, np.zeros(LINEAR.param_count()), np.zeros((2, 3)),
                      np.zeros(2, dtype=int), 0.0, 1, 2, RngStream(1))

    def test_training_reduces_loss_on_separable_blobs(self):
        g = RngStream(13).generator()
        n = 60
        x = np.concatenate([g.normal(-2, 1, (n, 2)), g.normal(2, 1, (n, 2))])
        y = np.array([0] * n + [1] * n)
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        params = np.zeros(spec.param_count())
        losses = [float(mdl.loss_many(spec, params, x, y).mean())]
        for e in range(20):
            params = local_sgd(spec, params, x, y, 0.1, 1, 16, RngStream(14).derive(e))
            losses.append(float(mdl.loss_many(spec, params, x, y).mean()))
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert drops >= 0.9 * (len(losses) - 1)

    def test_reproducible(self):
        g = RngStream(15).generator()
        x = g.standard_normal((30, 3))
        y = g.integers(4, size=30)
        start = mdl.init_params(MLP, RngStream(16))
        a = local_sgd(MLP, start, x, y, 0.05, 3, 8, RngStream(17))
        b = local_sgd(MLP, start, x, y, 0.05, 3, 8, RngStream(17))
        assert np.array_equal(a, b)

    def test_input_params_not_mutated(self):
        g = RngStream(18).generator()
        x = g.standard_normal((10, 3))
        y = g.integers(4, size=10)
        start = mdl.init_params(LINEAR, RngStream(19))
        before = start.copy()
        local_sgd(LINEAR, start, x, y, 0.1, 1, 4, RngStream(20))
        assert np.array_equal(start, before)


class TestAccuracy:
    def test_zero_params_balanced_binary(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        y = np.array([0, 1, 0, 1])
        # all-zero logits tie; argmax picks class 0
        assert mdl.accuracy(spec, np.zeros(spec.param_count()), x, y) == 0.5

    def test_hand_built_separator(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=1, num_classes=2)
        params = np.array([-1.0, 1.0, 0.0, 0.0])  # class 1 wins iff x > 0
        x = np.array([[-3.0], [-1.0], [1.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        assert mdl.accuracy(spec, params, x, y) == 1.0

    def test_all_labels_equal_predicted(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        x = np.ones((5, 2))
        y = np.zeros(5, dtype=int)
        assert mdl.accuracy(spec, np.zeros(spec.param_count()), x, y) == 1.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30)
def test_loss_nonnegative_property(seed):
    params, x, y = random_case(seed, MLP)
    assert loss_one(MLP, params, x, y) >= 0.0

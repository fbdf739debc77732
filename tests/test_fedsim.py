import filecmp
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import data as dat
from fedaudit import fedsim as fed
from fedaudit import model as mdl
from fedaudit.errors import ConfigError, IntegrityError, ParameterError, ShapeMismatchError
from fedaudit.numstat import RngStream
from helpers import federation_loop, scaled_updates, trace_prefix


class TestDefenseConfig:
    def test_ranges_enforced(self):
        with pytest.raises(ConfigError):
            fed.DefenseConfig(kind="perturb", clip_norm=0.0, noise_std=0.1)
        with pytest.raises(ConfigError):
            fed.DefenseConfig(kind="quantize", bits=11)
        with pytest.raises(ConfigError):
            fed.DefenseConfig(kind="sparsify", rate=0.995)
        with pytest.raises(ConfigError):
            fed.DefenseConfig(kind="mixup", alpha=0.0)
        with pytest.raises(ConfigError):
            fed.DefenseConfig(kind="sample", portion=0.0)
        with pytest.raises(ConfigError):
            fed.DefenseConfig(kind="banish")

    def test_dict_roundtrip(self):
        d = fed.DefenseConfig(kind="perturb", clip_norm=1.0, noise_std=0.05)
        assert fed.DefenseConfig.from_dict(d.to_dict()) == d
        d2 = fed.DefenseConfig(
            kind="augment_and_sample", portion=0.5,
            augment_ops=dat.AugmentOps(flip_h=True, noise_std=0.1),
        )
        assert fed.DefenseConfig.from_dict(d2.to_dict()) == d2


class TestDefendUpdate:
    def test_perturb_clip_only(self):
        d = fed.DefenseConfig(kind="perturb", clip_norm=1.0, noise_std=0.0)
        out = fed.defend_update(np.array([3.0, 4.0]), d, RngStream(1))
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_perturb_below_clip_untouched(self):
        d = fed.DefenseConfig(kind="perturb", clip_norm=10.0, noise_std=0.0)
        v = np.array([1.0, 2.0])
        assert np.array_equal(fed.defend_update(v, d, RngStream(1)), v)

    def test_perturb_noise_deterministic(self):
        d = fed.DefenseConfig(kind="perturb", clip_norm=1.0, noise_std=0.5)
        a = fed.defend_update(np.array([3.0, 4.0]), d, RngStream(2))
        b = fed.defend_update(np.array([3.0, 4.0]), d, RngStream(2))
        assert np.array_equal(a, b)
        assert not np.allclose(a, [0.6, 0.8])

    @given(seed=st.integers(0, 500), clip=st.floats(0.1, 5.0))
    @settings(max_examples=40)
    def test_clipping_bound(self, seed, clip):
        v = RngStream(seed).generator().standard_normal(16) * 3
        d = fed.DefenseConfig(kind="perturb", clip_norm=clip, noise_std=0.0)
        assert np.linalg.norm(fed.defend_update(v, d, RngStream(0))) <= clip + 1e-12

    def test_quantize_one_bit_fixture(self):
        d = fed.DefenseConfig(kind="quantize", bits=1)
        out = fed.defend_update(np.array([1.0, -0.5, 0.25]), d, RngStream(1))
        m = 1.75 / 3
        assert np.allclose(out, [m, -m, m], atol=1e-15)

    def test_quantize_preserves_extremes(self):
        d = fed.DefenseConfig(kind="quantize", bits=3)
        v = np.array([-2.0, 0.1, 1.3, 2.0])
        out = fed.defend_update(v, d, RngStream(1))
        assert out[0] == -2.0 and out[3] == 2.0

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 10])
    def test_quantize_idempotent(self, bits):
        d = fed.DefenseConfig(kind="quantize", bits=bits)
        for seed in range(5):
            v = RngStream(seed).generator().standard_normal(33)
            q1 = fed.defend_update(v, d, RngStream(0))
            q2 = fed.defend_update(q1, d, RngStream(0))
            assert np.array_equal(q1, q2)

    def test_quantize_level_count(self):
        d = fed.DefenseConfig(kind="quantize", bits=2)
        v = RngStream(9).generator().standard_normal(100)
        out = fed.defend_update(v, d, RngStream(0))
        assert len(np.unique(out)) <= 4

    def test_sparsify_fixture(self):
        d = fed.DefenseConfig(kind="sparsify", rate=0.5)
        out = fed.defend_update(np.array([1.0, -3.0, 2.0, 0.1]), d, RngStream(1))
        assert np.array_equal(out, [0.0, -3.0, 2.0, 0.0])

    def test_sparsify_ties_by_index(self):
        d = fed.DefenseConfig(kind="sparsify", rate=0.5)
        out = fed.defend_update(np.array([1.0, 1.0, 1.0, 1.0]), d, RngStream(1))
        assert np.array_equal(out, [0.0, 0.0, 1.0, 1.0])

    @given(seed=st.integers(0, 500), rate=st.floats(0.0, 0.99))
    @settings(max_examples=40)
    def test_sparsify_preserves_survivors(self, seed, rate):
        v = RngStream(seed).generator().standard_normal(24)
        d = fed.DefenseConfig(kind="sparsify", rate=rate)
        out = fed.defend_update(v, d, RngStream(0))
        kept = out != 0.0
        assert np.array_equal(out[kept], v[kept])
        assert np.count_nonzero(~kept) >= int(rate * 24)  # zeros may coincide
        assert np.linalg.norm(out) <= np.linalg.norm(v)

    def test_data_level_kind_rejected(self):
        d = fed.DefenseConfig(kind="mixup", alpha=1.0)
        with pytest.raises(ConfigError):
            fed.defend_update(np.ones(3), d, RngStream(1))

    def test_none_is_identity(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(fed.defend_update(v, fed.DefenseConfig(), RngStream(1)), v)


class TestAggregate:
    def test_hand_fixture(self):
        out = fed.aggregate([np.array([1.0, 3.0]), np.array([3.0, 5.0])], np.zeros(2), 1.0)
        assert np.array_equal(out, [-2.0, -4.0])

    def test_zero_updates_no_move(self):
        w = np.array([1.0, -1.0])
        assert np.array_equal(fed.aggregate([np.zeros(2)] * 3, w, 0.1), w)

    def test_identical_updates(self):
        u = np.array([2.0, 4.0])
        out = fed.aggregate([u, u, u], np.zeros(2), 0.5)
        assert np.allclose(out, -0.5 * u, atol=1e-15)

    def test_linearity(self):
        g = RngStream(3).generator()
        ups = [g.standard_normal(6) for _ in range(4)]
        w = g.standard_normal(6)
        base = fed.aggregate(ups, w, 0.2) - w
        scaled = fed.aggregate([3.0 * u for u in ups], w, 0.2) - w
        assert np.allclose(scaled, 3.0 * base, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fed.aggregate([np.zeros(2), np.zeros(2)], np.zeros(3), 0.1)


def client_update(spec, x, y, omega, config, lr_eff, rng):
    """One client's upload, trained as a group of one."""
    return fed.client_update(spec, x[None], y[None], omega, config, lr_eff, [rng])[0]


class TestClientUpdate:
    @pytest.fixture()
    def toy(self):
        # n and num_classes are powers of two and features are dyadic, so
        # batch gradients are exact and immune to summation order
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        g = RngStream(4).generator()
        x = g.integers(-2, 3, size=(16, 2)) / 2.0
        y = np.asarray(g.integers(2, size=16))
        return spec, x, y

    def test_one_epoch_full_batch_equals_grad_batch(self, toy):
        spec, x, y = toy
        config = fed.FedConfig(num_clients=2, rounds=1, local_epochs=1, lr=0.5, batch_size=64)
        omega = np.zeros(spec.param_count())
        upd = client_update(spec, x, y, omega, config, 0.5, RngStream(5))
        layers = mdl.grad_batch(spec, omega[None], x[None], y[None, None])
        assert np.array_equal(upd, np.concatenate([g[0].ravel() for g in layers]))

    def test_tiny_lr_parameters_barely_move(self, toy):
        spec, x, y = toy
        config = fed.FedConfig(num_clients=2, rounds=1, local_epochs=3, lr=1e-8, batch_size=4)
        omega = mdl.init_params(spec, RngStream(6))
        lr_eff = 1e-8
        upd = client_update(spec, x, y, omega, config, lr_eff, RngStream(7))
        assert lr_eff * np.linalg.norm(upd) < 1e-3

    def test_deterministic(self, toy):
        spec, x, y = toy
        config = fed.FedConfig(num_clients=2, rounds=1, local_epochs=2, lr=0.1, batch_size=4)
        omega = mdl.init_params(spec, RngStream(8))
        a = client_update(spec, x, y, omega, config, 0.1, RngStream(9))
        b = client_update(spec, x, y, omega, config, 0.1, RngStream(9))
        assert np.array_equal(a, b)

    def test_empty_client_rejected(self, toy):
        spec, x, y = toy
        config = fed.FedConfig(num_clients=2, rounds=1)
        with pytest.raises(ConfigError):
            client_update(spec, x[:0], y[:0], np.zeros(spec.param_count()), config, 0.1, RngStream(1))

    @pytest.mark.parametrize(
        "defense",
        [
            fed.DefenseConfig(kind="mixup", alpha=0.5),
            fed.DefenseConfig(kind="sample", portion=0.5),
            fed.DefenseConfig(kind="augment", augment_ops=dat.AugmentOps(noise_std=0.2)),
            fed.DefenseConfig(
                kind="augment_and_sample", portion=0.5,
                augment_ops=dat.AugmentOps(noise_std=0.2),
            ),
        ],
        ids=["mixup", "sample", "augment", "augment_and_sample"],
    )
    def test_data_defenses_change_training(self, toy, defense):
        spec, x, y = toy
        base_cfg = fed.FedConfig(num_clients=2, rounds=1, local_epochs=2, lr=0.1, batch_size=4)
        def_cfg = fed.FedConfig(
            num_clients=2, rounds=1, local_epochs=2, lr=0.1, batch_size=4, defense=defense
        )
        omega = mdl.init_params(spec, RngStream(10))
        plain = client_update(spec, x, y, omega, base_cfg, 0.1, RngStream(11))
        defended = client_update(spec, x, y, omega, def_cfg, 0.1, RngStream(11))
        assert not np.array_equal(plain, defended)


class TestRunFederation:
    def test_trace_shape(self, tiny_setup):
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(num_clients=4, rounds=1, seed=1)
        trace = fed.run_federation(dataset, partition, spec, config)
        assert trace.num_rounds == 1
        assert trace.rounds[0].updates.shape == (4, spec.param_count())
        assert len(trace.round_accuracy) == 1

    def test_separable_reaches_high_accuracy(self):
        ds = dat.synth_blobs(RngStream(40), 2, 4, 200, 6.0)
        part = dat.partition_iid(RngStream(41), ds, 3, 80, 80)
        spec = mdl.ModelSpec("linear_softmax", input_dim=4, num_classes=2, init_std=0.1)
        config = fed.FedConfig(num_clients=3, rounds=8, local_epochs=2, lr=0.2, seed=5)
        trace = fed.run_federation(ds, part, spec, config)
        assert trace.round_accuracy[-1] > 0.9

    def test_rerun_identical_trace_bytes(self, tiny_setup, tmp_path):
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(num_clients=4, rounds=3, seed=11)
        for name in ("a", "b"):
            trace = fed.run_federation(dataset, partition, spec, config)
            fed.save_trace(trace, str(tmp_path / name))
        files = sorted(os.listdir(tmp_path / "a"))
        assert files == sorted(os.listdir(tmp_path / "b"))
        for f in files:
            assert filecmp.cmp(tmp_path / "a" / f, tmp_path / "b" / f, shallow=False), f

    def test_partition_mismatch(self, tiny_setup):
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(num_clients=5, rounds=1)
        with pytest.raises(ConfigError):
            fed.run_federation(dataset, partition, spec, config)

    def test_aggregation_is_model_averaging(self, tiny_setup):
        # with the delta/lr convention, the new global model is the client mean
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(num_clients=4, rounds=1, local_epochs=1, lr=0.1, seed=3)
        trace = fed.run_federation(dataset, partition, spec, config)
        rec = trace.rounds[0]
        locals_ = [rec.global_before - rec.lr_effective * u for u in rec.updates]
        assert np.allclose(trace.final_model, np.mean(locals_, axis=0), atol=1e-12)

    def test_lr_effective_schedule(self):
        config = fed.FedConfig(num_clients=2, rounds=10, lr=0.1, lr_decay=0.9)
        assert fed.lr_effective(config, 0) == 0.1
        assert fed.lr_effective(config, 2) == pytest.approx(0.1 * 0.81)

    def test_diverged_round_names_round_and_client(self, tiny_setup):
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(num_clients=4, rounds=3, lr=1e308, seed=1)
        with pytest.raises(ParameterError, match=r"round \d+: client \d+'s upload is not finite"):
            fed.run_federation(dataset, partition, spec, config)


STACK_DEFENSES = [
    fed.DefenseConfig(),
    fed.DefenseConfig(kind="perturb", clip_norm=0.5, noise_std=0.1),
    fed.DefenseConfig(kind="quantize", bits=3),
    fed.DefenseConfig(kind="sparsify", rate=0.5),
    fed.DefenseConfig(kind="mixup", alpha=0.5),
    fed.DefenseConfig(
        kind="augment", augment_ops=dat.AugmentOps(flip_h=True, shift=True, noise_std=0.1)
    ),
    fed.DefenseConfig(kind="sample", portion=0.68),
    fed.DefenseConfig(
        kind="augment_and_sample", portion=0.68,
        augment_ops=dat.AugmentOps(flip_h=True, shift=True, noise_std=0.1),
    ),
]


def _stack_partition(kind, dataset):
    if kind == "iid":
        return dat.partition_iid(RngStream(61), dataset, 5, 25, 20)
    if kind == "dirichlet":
        return dat.partition_dirichlet(RngStream(62), dataset, 5, 0.5, 20)
    # two groups of two equal-size clients, interleaved, plus a lone client
    perm = RngStream(63).generator().permutation(len(dataset))
    cuts = np.cumsum([25, 17, 25, 17, 9])
    return dat.Partition(np.split(perm[: cuts[-1]], cuts[:-1]), perm[cuts[-1] : cuts[-1] + 20])


class TestStackedTrainerMatchesLoop:
    """``run_federation`` trains clients of equal size as one stack; its trace
    must equal the client-by-client loop of 2-D products bit for bit."""

    @pytest.mark.parametrize("partition_kind", ["iid", "dirichlet", "grouped"])
    @pytest.mark.parametrize("model_kind", ["mlp", "linear_softmax"])
    @pytest.mark.parametrize("defense", STACK_DEFENSES, ids=lambda d: d.kind)
    def test_trace_bits_equal_reference_loop(self, defense, model_kind, partition_kind):
        ds = dat.synth_blobs(RngStream(60), 3, 4, 60, 1.5)
        ds = dat.Dataset(ds.features, ds.labels, 3, (2, 2))
        part = _stack_partition(partition_kind, ds)
        sizes = [len(c) for c in part.client_indices]
        assert min(sizes) > 0
        # batch size 8: a client of 25 records (17 under sample) ends each
        # epoch on a batch of one, the branch where mixup is skipped
        spec = mdl.ModelSpec(model_kind, 4, 3 if model_kind == "mlp" else 0, 3, 0.1)
        config = fed.FedConfig(
            num_clients=5, rounds=2, local_epochs=2, lr=0.3, lr_decay=0.9, batch_size=8,
            defense=defense, seed=64,
        )
        trace = fed.run_federation(ds, part, spec, config)
        rounds, final = federation_loop(ds, part, spec, config)
        for rec, (omega, updates) in zip(trace.rounds, rounds, strict=True):
            assert rec.global_before.tobytes() == omega.tobytes()
            assert rec.updates.tobytes() == updates.tobytes()
        assert trace.final_model.tobytes() == final.tobytes()


class TestTracePersistence:
    def test_roundtrip(self, tiny_trace, tmp_path):
        fed.save_trace(tiny_trace, str(tmp_path / "t"))
        loaded = fed.load_trace(str(tmp_path / "t"))
        assert loaded.num_rounds == tiny_trace.num_rounds
        assert loaded.model_spec == tiny_trace.model_spec
        assert loaded.defense == tiny_trace.defense
        for a, b in zip(loaded.rounds, tiny_trace.rounds):
            assert np.array_equal(a.global_before, b.global_before)
            assert np.array_equal(a.updates, b.updates)
            assert a.lr_effective == b.lr_effective
        assert np.array_equal(loaded.final_model, tiny_trace.final_model)

    def test_missing_file(self, tiny_trace, tmp_path):
        fed.save_trace(tiny_trace, str(tmp_path / "t"))
        os.remove(tmp_path / "t" / "round_0002_updates.npy")
        with pytest.raises(IntegrityError, match="round_0002_updates"):
            fed.load_trace(str(tmp_path / "t"))

    def test_truncated_file(self, tiny_trace, tmp_path):
        fed.save_trace(tiny_trace, str(tmp_path / "t"))
        path = tmp_path / "t" / "round_0001_updates.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IntegrityError):
            fed.load_trace(str(tmp_path / "t"))

    def test_prefix(self, tiny_trace):
        p = trace_prefix(tiny_trace, 3)
        assert p.num_rounds == 3
        assert np.array_equal(p.final_model, tiny_trace.rounds[3].global_before)
        full = trace_prefix(tiny_trace, tiny_trace.num_rounds)
        assert np.array_equal(full.final_model, tiny_trace.final_model)

    def test_scaled_updates(self, tiny_trace):
        s = scaled_updates(tiny_trace, 2.0)
        assert np.array_equal(s.rounds[0].updates, 2.0 * tiny_trace.rounds[0].updates)
        assert np.array_equal(s.rounds[0].global_before, tiny_trace.rounds[0].global_before)

import filecmp
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import data as dat
from fedaudit import fedsim as fed
from fedaudit import model as mdl
from fedaudit.artifacts import commit
from fedaudit.errors import ConfigError, FedAuditError, IntegrityError
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

    def test_negative_augment_noise_names_its_key_path(self):
        with pytest.raises(ConfigError, match=r"^defense\.augment_ops\.noise_std: must be >= 0, "
                                              r"got -1\.0$"):
            fed.DefenseConfig.from_dict({"kind": "augment", "augment_ops": {"noise_std": -1.0}},
                                        "defense")

    def test_takes_exactly_the_parameters_of_its_kind(self):
        with pytest.raises(ConfigError, match="^noise_std: required by defense 'perturb'$"):
            fed.DefenseConfig(kind="perturb", clip_norm=1.0)
        with pytest.raises(ConfigError, match="^augment_ops: required by defense 'augment'$"):
            fed.DefenseConfig(kind="augment")
        with pytest.raises(ConfigError, match="^rate: not a parameter of defense 'none'$"):
            fed.DefenseConfig(rate=0.5)
        with pytest.raises(ConfigError, match="^portion: not a parameter of defense 'mixup'$"):
            fed.DefenseConfig(kind="mixup", alpha=1.0, portion=0.5)

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


class TestAggregate:
    def test_hand_fixture(self):
        out = fed.aggregate(np.array([[1.0, 3.0], [3.0, 5.0]]), np.zeros(2), 1.0)
        assert np.array_equal(out, [-2.0, -4.0])

    def test_zero_updates_no_move(self):
        w = np.array([1.0, -1.0])
        assert np.array_equal(fed.aggregate(np.zeros((3, 2)), w, 0.1), w)

    def test_identical_updates(self):
        u = np.array([2.0, 4.0])
        out = fed.aggregate(np.array([u, u, u]), np.zeros(2), 0.5)
        assert np.allclose(out, -0.5 * u, atol=1e-15)

    def test_linearity(self):
        g = RngStream(3).generator()
        ups = np.array([g.standard_normal(6) for _ in range(4)])
        w = g.standard_normal(6)
        base = fed.aggregate(ups, w, 0.2) - w
        scaled = fed.aggregate(np.array([3.0 * u for u in ups]), w, 0.2) - w
        assert np.allclose(scaled, 3.0 * base, atol=1e-12)


def client_update(spec, x, y, omega, config, lr_eff, rng, defense=fed.DefenseConfig()):
    """One client's upload, trained as a group of one."""
    return fed.client_update(spec, x[None], y[None], omega, config, defense, lr_eff, [rng])[0]


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
        config = fed.FedConfig(rounds=1, local_epochs=1, lr=0.5, lr_decay=1.0, batch_size=64)
        omega = np.zeros(spec.param_count())
        upd = client_update(spec, x, y, omega, config, 0.5, RngStream(5))
        assert np.array_equal(upd, mdl.grad_batch(spec, omega[None], x[None], y[None, None])[0])

    def test_tiny_lr_parameters_barely_move(self, toy):
        spec, x, y = toy
        config = fed.FedConfig(rounds=1, local_epochs=3, lr=1e-8, lr_decay=1.0, batch_size=4)
        omega = mdl.init_params(spec, RngStream(6))
        lr_eff = 1e-8
        upd = client_update(spec, x, y, omega, config, lr_eff, RngStream(7))
        assert lr_eff * np.linalg.norm(upd) < 1e-3

    def test_deterministic(self, toy):
        spec, x, y = toy
        config = fed.FedConfig(rounds=1, local_epochs=2, lr=0.1, lr_decay=1.0, batch_size=4)
        omega = mdl.init_params(spec, RngStream(8))
        a = client_update(spec, x, y, omega, config, 0.1, RngStream(9))
        b = client_update(spec, x, y, omega, config, 0.1, RngStream(9))
        assert np.array_equal(a, b)

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
        config = fed.FedConfig(rounds=1, local_epochs=2, lr=0.1, lr_decay=1.0, batch_size=4)
        omega = mdl.init_params(spec, RngStream(10))
        plain = client_update(spec, x, y, omega, config, 0.1, RngStream(11))
        defended = client_update(spec, x, y, omega, config, 0.1, RngStream(11), defense)
        assert not np.array_equal(plain, defended)

    @pytest.mark.parametrize("defense", [
        fed.DefenseConfig(),
        fed.DefenseConfig(kind="mixup", alpha=0.5),
        fed.DefenseConfig(kind="augment", augment_ops=dat.AugmentOps(noise_std=0.2)),
    ], ids=["none", "mixup", "augment"])
    def test_workspace_is_reused_across_rounds(self, defense):
        """Rounds that share a workspace upload what fresh ones do, and after the
        first the workspace gains no key and no buffer."""
        spec = mdl.ModelSpec("mlp", input_dim=3, hidden_dim=4, num_classes=3)
        g = RngStream(12).generator()
        x, y = g.standard_normal((2, 13, 3)), g.integers(3, size=(2, 13))
        config = fed.FedConfig(rounds=3, local_epochs=2, lr=0.1, lr_decay=1.0, batch_size=5)
        omega, ws, buffers = mdl.init_params(spec, RngStream(13)), {}, None
        for t in range(3):
            rngs = [RngStream(14).derive(t, k) for k in range(2)]
            fresh = fed.client_update(spec, x, y, omega, config, defense, 0.1, rngs)
            shared = fed.client_update(spec, x, y, omega, config, defense, 0.1, rngs, None, ws)
            assert shared.tobytes() == fresh.tobytes()
            if buffers is not None:
                assert {k: id(v) for k, v in ws.items()} == buffers
            buffers = {k: id(v) for k, v in ws.items()}
            omega = omega - 0.1 * shared.mean(axis=0)
        assert {"local", "batch", "logits", "grad0"} <= set(buffers)


class TestRunFederation:
    def test_trace_shape(self, tiny_setup):
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(rounds=1, local_epochs=1, lr_decay=1.0)
        trace = fed.run_federation(dataset, partition, spec, config, fed.DefenseConfig(), 1)
        assert trace.num_rounds == 1
        assert trace.rounds[0].updates.shape == (4, spec.param_count())
        assert len(trace.round_accuracy) == 1

    def test_separable_reaches_high_accuracy(self):
        ds = dat.synth_blobs(RngStream(40), 2, 4, 200, 6.0)
        part = dat.partition_iid(RngStream(41), ds, 3, 80, 80)
        spec = mdl.ModelSpec("linear_softmax", input_dim=4, num_classes=2, init_std=0.1)
        config = fed.FedConfig(rounds=8, local_epochs=2, lr=0.2, lr_decay=1.0)
        trace = fed.run_federation(ds, part, spec, config, fed.DefenseConfig(), 5)
        assert trace.round_accuracy[-1] > 0.9

    def test_rerun_identical_trace_bytes(self, tiny_setup, tmp_path):
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(rounds=3, local_epochs=1, lr_decay=1.0)
        for name in ("a", "b"):
            trace = fed.run_federation(dataset, partition, spec, config, fed.DefenseConfig(), 11)
            fed.save_trace(trace, str(tmp_path / name))
        files = sorted(os.listdir(tmp_path / "a"))
        assert files == sorted(os.listdir(tmp_path / "b"))
        for f in files:
            assert filecmp.cmp(tmp_path / "a" / f, tmp_path / "b" / f, shallow=False), f

    def test_aggregation_is_model_averaging(self, tiny_setup):
        # with the delta/lr convention, the new global model is the client mean
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(rounds=1, local_epochs=1, lr=0.1, lr_decay=1.0)
        trace = fed.run_federation(dataset, partition, spec, config, fed.DefenseConfig(), 3)
        rec = trace.rounds[0]
        locals_ = [rec.global_before - rec.lr_effective * u for u in rec.updates]
        assert np.allclose(trace.final_model, np.mean(locals_, axis=0), atol=1e-12)

    def test_lr_effective_schedule(self):
        config = fed.FedConfig(rounds=10, local_epochs=1, lr=0.1, lr_decay=0.9)
        assert fed.lr_effective(config, 0) == 0.1
        assert fed.lr_effective(config, 2) == pytest.approx(0.1 * 0.81)

    def test_diverged_round_names_round_and_client(self, tiny_setup):
        dataset, partition, spec = tiny_setup
        config = fed.FedConfig(rounds=3, local_epochs=1, lr=1e308, lr_decay=1.0)
        with pytest.raises(FedAuditError, match=r"round \d+: client \d+'s upload is not finite"):
            fed.run_federation(dataset, partition, spec, config, fed.DefenseConfig(), 1)


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


@pytest.mark.parametrize("defense", STACK_DEFENSES, ids=lambda d: d.kind)
def test_every_defense_trains_a_fedavg_chain(defense):
    """Each round's ``aggregate`` is the next global model, or the final one, bit
    for bit, and each round's accuracy lies in [0, 1]: the writer's guarantee,
    which ``load_trace`` no longer re-checks."""
    ds = dat.synth_blobs(RngStream(60), 3, 4, 60, 1.5)
    ds = dat.Dataset(ds.features, ds.labels, 3, (2, 2))
    spec = mdl.ModelSpec("mlp", 4, 3, 3, 0.1)
    config = fed.FedConfig(rounds=3, local_epochs=1, lr=0.3, lr_decay=0.9, batch_size=8)
    trace = fed.run_federation(ds, _stack_partition("grouped", ds), spec, config, defense, 65)
    nexts = [r.global_before for r in trace.rounds[1:]] + [trace.final_model]
    for r, after in zip(trace.rounds, nexts):
        chained = fed.aggregate(r.updates, r.global_before, r.lr_effective)
        assert chained.tobytes() == after.tobytes()
    assert len(trace.round_accuracy) == 3 and all(0 <= a <= 1 for a in trace.round_accuracy)


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
        config = fed.FedConfig(rounds=2, local_epochs=2, lr=0.3, lr_decay=0.9, batch_size=8)
        trace = fed.run_federation(ds, part, spec, config, defense, 64)
        rounds, final = federation_loop(ds, part, spec, config, defense, 64)
        for rec, (omega, updates) in zip(trace.rounds, rounds, strict=True):
            assert rec.global_before.tobytes() == omega.tobytes()
            assert rec.updates.tobytes() == updates.tobytes()
        assert trace.final_model.tobytes() == final.tobytes()


def _edit_meta(path, edit):
    """Apply ``edit`` to the parsed trace_meta.json at ``path`` and write it back."""
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


def _edit_array(path, edit):
    """Apply ``edit`` to a saved array in place and save it back."""
    arr = np.load(path)
    edit(arr)
    np.save(path, arr)


def _scale_second_lr(meta):
    meta["lr_effective"][1] *= 1.5


def _one_ulp_up(arr):
    arr[3] = np.nextafter(arr[3], np.inf)


def _negate(arr):
    arr *= -1.0


def _committed(trace, tmp_path):
    """The trace directory of a run directory ``artifacts.commit`` wrote."""
    commit(str(tmp_path / "run"), {"trace": lambda p: fed.save_trace(trace, p)})
    return tmp_path / "run" / "trace"


def _mismatch(name):
    """The start of the error of an edited trace file ``name``."""
    return rf"^corrupt file .*/trace/{re.escape(name)}: its bytes do not match those listed"


class TestTracePersistence:
    def test_roundtrip(self, tiny_trace, tmp_path):
        loaded = fed.load_trace(str(_committed(tiny_trace, tmp_path)))
        assert loaded.num_rounds == tiny_trace.num_rounds
        assert loaded.model_spec == tiny_trace.model_spec
        assert loaded.defense == tiny_trace.defense
        for a, b in zip(loaded.rounds, tiny_trace.rounds):
            assert np.array_equal(a.global_before, b.global_before)
            assert np.array_equal(a.updates, b.updates)
            assert a.lr_effective == b.lr_effective
        assert np.array_equal(loaded.final_model, tiny_trace.final_model)

    def test_missing_file(self, tiny_trace, tmp_path):
        trace_dir = _committed(tiny_trace, tmp_path)
        os.remove(trace_dir / "round_0002_updates.npy")
        with pytest.raises(IntegrityError, match="^missing run artifact: .*round_0002_updates"):
            fed.load_trace(str(trace_dir))

    def test_truncated_file(self, tiny_trace, tmp_path):
        trace_dir = _committed(tiny_trace, tmp_path)
        path = trace_dir / "round_0001_updates.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IntegrityError, match=_mismatch("round_0001_updates.npy")):
            fed.load_trace(str(trace_dir))

    def test_directory_without_a_manifest_rejected(self, tiny_trace, tmp_path):
        """A trace written before manifests were kept, or by ``save_trace`` alone."""
        fed.save_trace(tiny_trace, str(tmp_path / "t"))
        with pytest.raises(IntegrityError, match=f"^missing {tmp_path / 't'}/manifest.json: rerun"):
            fed.load_trace(str(tmp_path / "t"))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, ">f8"])
    def test_array_not_float64_rejected(self, tiny_trace, tmp_path, dtype):
        trace_dir = _committed(tiny_trace, tmp_path)
        path = trace_dir / "round_0001_updates.npy"
        np.save(path, np.load(path).astype(dtype))
        with pytest.raises(IntegrityError, match=_mismatch("round_0001_updates.npy")):
            fed.load_trace(str(trace_dir))

    @pytest.mark.parametrize("name, cut", [("round_0001_updates.npy", np.s_[:, 1:]),
                                           ("round_0001_global.npy", np.s_[1:]),
                                           ("final_model.npy", np.s_[None])])
    def test_array_of_another_shape_rejected(self, tiny_trace, tmp_path, name, cut):
        """The door of the trace's shapes: ``aggregate`` and the model kernels
        take what ``load_trace`` passes them unchecked."""
        trace_dir = _committed(tiny_trace, tmp_path)
        path = trace_dir / name
        np.save(path, np.load(path)[cut])
        with pytest.raises(IntegrityError, match=_mismatch(name)):
            fed.load_trace(str(trace_dir))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_array_not_finite_rejected(self, tiny_trace, tmp_path, value):
        trace_dir = _committed(tiny_trace, tmp_path)
        path = trace_dir / "round_0001_updates.npy"
        updates = np.load(path)
        updates[1, 2] = value
        np.save(path, updates)
        with pytest.raises(IntegrityError, match=_mismatch("round_0001_updates.npy")):
            fed.load_trace(str(trace_dir))

    @pytest.mark.parametrize("value", [7.5, float("nan"), -0.1])
    def test_round_accuracy_outside_unit_interval_rejected(self, tiny_trace, tmp_path, value):
        trace_dir = _committed(tiny_trace, tmp_path)
        _edit_meta(trace_dir / "trace_meta.json",
                   lambda meta: meta["round_accuracy"].__setitem__(-1, value))
        with pytest.raises(IntegrityError, match=_mismatch("trace_meta.json")):
            fed.load_trace(str(trace_dir))

    @pytest.mark.parametrize("name, edit, round_index", [
        ("trace_meta.json", _scale_second_lr, 1),
        ("round_0001_global.npy", _one_ulp_up, 0),
        ("final_model.npy", _negate, 5),
    ])
    def test_edit_breaks_the_fedavg_chain(self, tiny_trace, tmp_path, name, edit, round_index):
        """An edit that breaks the chain at ``round_index`` is rejected as an edit."""
        trace_dir = _committed(tiny_trace, tmp_path)
        (_edit_meta if name.endswith(".json") else _edit_array)(trace_dir / name, edit)
        with pytest.raises(IntegrityError, match=_mismatch(name)):
            fed.load_trace(str(trace_dir))

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

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import data as dat
from fedaudit import fedsim as fed
from fedaudit import model as mdl
from fedaudit.errors import ConfigError
from fedaudit.numstat import RngStream
from helpers import augment_batch_loop, flip_horizontal, shift_grid


def train_linear_accuracy(dataset, eval_dataset=None, seed=0, epochs=30):
    """Accuracy after a client's local SGD (no defense) on the whole dataset."""
    spec = mdl.ModelSpec(
        "linear_softmax", input_dim=dataset.input_dim, num_classes=dataset.num_classes
    )
    config = fed.FedConfig(rounds=1, local_epochs=epochs, lr=0.1, lr_decay=1.0, batch_size=32)
    start = np.zeros(spec.param_count())
    params = start - 0.1 * fed.client_update(
        spec, dataset.features[None], dataset.labels[None], start, config, fed.DefenseConfig(),
        0.1, [RngStream(seed)],
    )[0]
    ev = eval_dataset if eval_dataset is not None else dataset
    return mdl.accuracy(spec, params, ev.features, ev.labels)


class TestSynthBlobs:
    def test_sample_count(self):
        ds = dat.synth_blobs(RngStream(1), 4, 6, 25, 1.0)
        assert len(ds) == 100
        assert ds.input_dim == 6
        assert sorted(np.unique(ds.labels)) == [0, 1, 2, 3]

    def test_zero_separation_unlearnable(self):
        ds = dat.synth_blobs(RngStream(2), 4, 6, 150, 0.0)
        fresh = dat.synth_blobs(RngStream(2).derive(1), 4, 6, 150, 0.0)
        acc = train_linear_accuracy(ds, eval_dataset=fresh)
        assert acc == pytest.approx(0.25, abs=0.05)

    def test_large_separation_separable(self):
        ds = dat.synth_blobs(RngStream(3), 2, 4, 200, 10.0)
        assert train_linear_accuracy(ds) > 0.99

    def test_deterministic(self):
        a = dat.synth_blobs(RngStream(4), 3, 5, 10, 1.0)
        b = dat.synth_blobs(RngStream(4), 3, 5, 10, 1.0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestLoadCsv:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,0.5,0.25\n0,1.0,2.0\n")
        ds = dat.load_csv(str(p), num_classes=2)
        assert len(ds) == 2
        assert ds.labels[0] == 1
        assert np.array_equal(ds.features[0], [0.5, 0.25])
        assert (ds.features.dtype, ds.labels.dtype) == (np.float64, np.int64)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ConfigError, match="empty dataset file"):
            dat.load_csv(str(p))

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(ConfigError, match="line 2: non-numeric feature value"):
            dat.load_csv(str(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_names_line(self, tmp_path, value):
        p = tmp_path / "nan.csv"
        p.write_text(f"0,1.0,2.0\n\n1,2.0,{value}\n")  # row 2 is on line 3
        with pytest.raises(ConfigError, match="^line 3: non-finite feature value$"):
            dat.load_csv(str(p))

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "oor.csv"
        p.write_text("5,1.0\n")
        with pytest.raises(ConfigError, match="line 1: label 5 out of range for 3 classes"):
            dat.load_csv(str(p), num_classes=3)

    def test_inferred_class_count_below_row_count(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("0,1.0\n100000000,2.0\n1,3.0\n")
        with pytest.raises(ConfigError, match="^line 2: label 100000000 is not below the row "
                                              "count 3$"):
            dat.load_csv(str(p))
        with pytest.raises(ConfigError, match="^dataset.num_classes 100000001 is above the row "
                                              "count 3$"):
            dat.load_csv(str(p), num_classes=100000001)
        p.write_text("0,1.0\n2,2.0\n1,3.0\n")
        assert dat.load_csv(str(p)).num_classes == 3
        assert dat.load_csv(str(p), num_classes=3).num_classes == 3
        with pytest.raises(ConfigError, match="^dataset.num_classes 4 is above the row count 3$"):
            dat.load_csv(str(p), num_classes=4)

    def test_labels_naming_one_class(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0,1.0\n0,2.0\n0,3.0\n")
        with pytest.raises(ConfigError, match="^every label is 0: a dataset needs at least 2 "
                                              "classes$"):
            dat.load_csv(str(p))
        p.write_text("1,1.0\n1,2.0\n")  # the class count is max(label) + 1, not the labels seen
        assert dat.load_csv(str(p)).num_classes == 2

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            dat.load_csv("/nonexistent/path.csv")

    def test_inconsistent_width(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("0,1.0,2.0\n0,1.0\n")
        with pytest.raises(ConfigError, match="line 2: expected 2 features, got 1"):
            dat.load_csv(str(p))


class TestPartitionIid:
    def test_single_client(self):
        ds = dat.synth_blobs(RngStream(5), 2, 3, 30, 1.0)
        part = dat.partition_iid(RngStream(6), ds, 1, 40, 10)
        assert part.num_clients == 1
        assert len(part.client_indices[0]) == 40
        assert len(part.holdout_indices) == 10

    def test_disjoint_thousand(self):
        ds = dat.synth_blobs(RngStream(7), 5, 4, 250, 1.0)
        part = dat.partition_iid(RngStream(8), ds, 10, 100, 200)
        all_client = np.concatenate(part.client_indices)
        assert len(all_client) == 1000
        assert len(np.unique(all_client)) == 1000
        assert len(np.intersect1d(all_client, part.holdout_indices)) == 0

    def test_class_histogram_concentration(self):
        ds = dat.synth_blobs(RngStream(9), 5, 4, 250, 1.0)
        part = dat.partition_iid(RngStream(10), ds, 10, 100, 200)
        for idx in part.client_indices:
            counts = np.bincount(ds.labels[idx], minlength=5)
            expected = 100 / 5
            assert np.all(np.abs(counts - expected) <= 3 * math.sqrt(expected))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_disjointness_property(self, seed):
        ds = dat.synth_blobs(RngStream(13), 3, 3, 40, 1.0)
        part = dat.partition_iid(RngStream(seed), ds, 4, 20, 30)
        seen = np.concatenate(part.client_indices + [part.holdout_indices])
        assert len(np.unique(seen)) == len(seen)


class TestPartitionDirichlet:
    def test_inf_beta_aliases_iid(self):
        ds = dat.synth_blobs(RngStream(14), 4, 4, 100, 1.0)
        a = dat.partition_dirichlet(RngStream(15), ds, 5, math.inf, 50)
        b = dat.partition_iid(RngStream(15), ds, 5, (len(ds) - 50) // 5, 50)
        for ca, cb in zip(a.client_indices, b.client_indices):
            assert np.array_equal(ca, cb)
        assert np.array_equal(a.holdout_indices, b.holdout_indices)

    def test_huge_beta_near_iid(self):
        ds = dat.synth_blobs(RngStream(16), 4, 4, 300, 1.0)
        part = dat.partition_dirichlet(RngStream(17), ds, 5, 1e6, 100)
        overall = np.bincount(ds.labels, minlength=4) / len(ds)
        for idx in part.client_indices:
            frac = np.bincount(ds.labels[idx], minlength=4) / len(idx)
            assert np.all(np.abs(frac - overall) <= 0.05)

    def test_tiny_beta_concentrates(self):
        for seed in range(10):
            ds = dat.synth_blobs(RngStream(18).derive(seed), 10, 4, 100, 1.0)
            part = dat.partition_dirichlet(RngStream(19).derive(seed), ds, 10, 0.01, 100)
            top = []
            for idx in part.client_indices:
                if len(idx) == 0:
                    continue
                counts = np.bincount(ds.labels[idx], minlength=10)
                top.append(counts.max() / len(idx))
            assert max(top) > 0.8

    def test_all_samples_used_once(self):
        ds = dat.synth_blobs(RngStream(20), 3, 4, 50, 1.0)
        part = dat.partition_dirichlet(RngStream(21), ds, 4, 0.5, 30)
        seen = np.concatenate(part.client_indices + [part.holdout_indices])
        assert len(seen) == len(ds)
        assert len(np.unique(seen)) == len(ds)


class TestMakeEvalSplit:
    @pytest.fixture()
    def setup(self):
        ds = dat.synth_blobs(RngStream(24), 4, 4, 100, 1.0)
        part = dat.partition_iid(RngStream(25), ds, 4, 80, 60)
        return ds, part

    def test_holdout_mode(self, setup):
        _, part = setup
        members, nonmembers = dat.make_eval_split(RngStream(26), part, 0, "holdout", 0.1, 0.1)
        assert np.array_equal(members, part.client_indices[0])
        assert np.array_equal(nonmembers, part.holdout_indices)

    def test_mixed_mode(self, setup):
        _, part = setup
        _, nonmembers = dat.make_eval_split(RngStream(27), part, 0, "holdout+others", 0.1, 0.1)
        assert len(np.intersect1d(nonmembers, part.client_indices[0])) == 0
        expected = math.ceil(0.1 * 60) + 3 * math.ceil(0.1 * 80)
        assert len(nonmembers) == expected

    @pytest.mark.parametrize("source", ["holdout", "holdout+others"])
    def test_pools_disjoint(self, setup, source):
        ds, _ = setup
        part = dat.partition_dirichlet(RngStream(28), ds, 4, 0.5, 60)
        for target in range(part.num_clients):
            members, nonmembers = dat.make_eval_split(RngStream(29), part, target, source, 1.0, 1.0)
            assert len(members) and len(nonmembers)
            assert len(np.intersect1d(members, nonmembers)) == 0


def mix_one(x, y, partner, lam):
    """``mix_with_lambda`` on a stack of one batch."""
    return dat.mix_with_lambda(x[None], y[None], np.asarray(partner)[None], np.array([lam]))


class TestMixup:
    def test_lambda_one_is_identity(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        y = np.array([0, 1])
        features, labels, _ = mix_one(x, y, [1, 0], 1.0)
        assert np.array_equal(features[0], x)
        assert np.array_equal(labels[0, 0], y)

    def test_lambda_half_midpoint(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        y = np.array([0, 1])
        features, _, _ = mix_one(x, y, [1, 0], 0.5)
        assert np.array_equal(features[0], np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_lambda_zero_is_partner(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        y = np.array([0, 1])
        features, labels, _ = mix_one(x, y, [1, 0], 0.0)
        assert np.array_equal(features[0], x[[1, 0]])
        assert np.array_equal(labels[1, 0], y[[1, 0]])

    def test_concentrated_alpha_lambda_near_half(self):
        gens = [RngStream(29).derive(i).generator() for i in range(10_000)]
        lams = dat.mixup(gens, np.zeros((10_000, 2, 2)), np.zeros((10_000, 2), dtype=int), 1e5)[2]
        assert np.mean(lams) == pytest.approx(0.5, abs=0.01)

    def test_draws_lambda_then_partner(self):
        g = RngStream(32).generator()
        x, y = g.standard_normal((2, 5, 3)), np.arange(10).reshape(2, 5)
        features, labels, lams = dat.mixup(
            [RngStream(33).generator(), RngStream(34).generator()], x, y, 0.7)
        for k, seed in enumerate((33, 34)):
            ref = RngStream(seed).generator()
            lam = float(ref.beta(0.7, 0.7))
            expect_features, expect_labels, _ = mix_one(x[k], y[k], ref.permutation(5), lam)
            assert lams[k] == lam
            assert np.array_equal(features[k], expect_features[0])
            assert np.array_equal(labels[:, k], expect_labels[:, 0])


    @pytest.mark.parametrize("n", [1, 2, 32, 100])
    def test_permutations_are_each_generators_permutation(self, n):
        """Bit for bit and draw for draw, on 50 Philox streams: the block, then
        the next draw of every stream."""
        streams = [RngStream(36).derive(k) for k in range(50)]
        gens, refs = [s.generator() for s in streams], [s.generator() for s in streams]
        block = dat.permutations(gens, n)
        expect = np.stack([g.permutation(n) for g in refs])
        assert block.dtype == expect.dtype and block.tobytes() == expect.tobytes()
        assert [g.random() for g in gens] == [g.random() for g in refs]

    def test_workspace_gives_the_same_bits(self):
        g = RngStream(35).generator()
        ws = {"mixed": np.full(64, np.nan), "lam_x": np.full(64, np.inf)}
        for b in (5, 2, 5):
            x, y = g.standard_normal((3, b, 4)), g.integers(3, size=(3, b))
            partner, lam = g.permuted(np.tile(np.arange(b), (3, 1)), axis=1), g.uniform(size=3)
            fresh = dat.mix_with_lambda(x, y, partner, lam)
            shared = dat.mix_with_lambda(x, y, partner, lam, ws)
            assert shared[0].tobytes() == fresh[0].tobytes()
            assert np.array_equal(shared[1], fresh[1])


class TestAugment:
    GEOM = (2, 3)

    def test_double_flip_identity(self):
        x = np.arange(6.0)
        assert np.array_equal(flip_horizontal(flip_horizontal(x, self.GEOM), self.GEOM), x)

    def test_zero_shift_identity(self):
        x = np.arange(6.0)
        assert np.array_equal(shift_grid(x, self.GEOM, 0, 0), x)

    def test_shift_zero_fill(self):
        x = np.arange(6.0)
        shifted = shift_grid(x, self.GEOM, 0, 1)
        assert np.array_equal(shifted.reshape(2, 3)[:, 0], [0.0, 0.0])

    @pytest.mark.parametrize("geometry", [(2, 3), (1, 4), (4, 1), (1, 1), (5, 6)])
    @pytest.mark.parametrize("n", [0, 1, 7, 32])
    def test_batch_is_the_record_loop_bit_for_bit(self, geometry, n):
        """Every op mix, on inputs with -0.0 entries: the same bits and the
        same draws as the record-by-record reference."""
        g = RngStream(34).generator()
        d = geometry[0] * geometry[1]
        for flip_h, shift, noise_std in itertools.product((False, True), (False, True), (0.0, 0.5)):
            x = g.standard_normal((n, d))
            x[g.uniform(size=(n, d)) < 0.2] = -0.0
            ops = dat.AugmentOps(flip_h=flip_h, shift=shift, noise_std=noise_std)
            seed = int(g.integers(2**31))
            want_g, got_g = np.random.default_rng(seed), np.random.default_rng(seed)
            want = augment_batch_loop(want_g, x, geometry, ops)
            got = dat.augment_batch(got_g, x, geometry, ops)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got_g.bit_generator.state == want_g.bit_generator.state

    def test_zero_noise_identity(self):
        x = np.arange(12.0).reshape(2, 6)
        out = dat.augment_batch(RngStream(32).generator(), x, self.GEOM, dat.AugmentOps())
        assert np.array_equal(out, x)
        assert out is not x

    def test_label_and_dim_preserved(self):
        # labels are not an input: augmentation transforms features only
        x = np.arange(12.0).reshape(2, 6)
        ops = dat.AugmentOps(flip_h=True, shift=True, noise_std=0.3)
        for i in range(10):
            out = dat.augment_batch(RngStream(33).derive(i).generator(), x, self.GEOM, ops)
            assert out.shape == x.shape


class TestSubsample:
    def test_full_portion_keeps_all(self):
        out = dat.subsample(RngStream(35).generator(), 10, 1.0)
        assert sorted(out.tolist()) == list(range(10))

    def test_half_portion_ceil(self):
        out = dat.subsample(RngStream(36).generator(), 10, 0.5)
        assert len(out) == 5
        assert len(np.unique(out)) == 5

    def test_ceiling_rule(self):
        out = dat.subsample(RngStream(37).generator(), 7, 0.3)
        assert len(out) == math.ceil(0.3 * 7)

    def test_deterministic(self):
        a = dat.subsample(RngStream(38).generator(), 20, 0.4)
        b = dat.subsample(RngStream(38).generator(), 20, 0.4)
        assert np.array_equal(a, b)


class TestPartitionType:
    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            dat.Partition([np.array([0, 1]), np.array([1, 2])], np.array([], dtype=np.int64))

    def test_holdout_overlap_rejected(self):
        with pytest.raises(ConfigError):
            dat.Partition([np.array([0, 1])], np.array([1]))

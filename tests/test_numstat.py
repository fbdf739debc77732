import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import attack as atk
from fedaudit import data as dat
from fedaudit import fedsim as fed
from fedaudit import model as mdl
from fedaudit import numstat as ns
from fedaudit.errors import ConfigError, FedAuditError, ZeroVectorError
from conftest import make_toy_trace
from helpers import normal_cdf_quadrature

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestGaussianCdf:
    def test_symmetry_point(self):
        assert ns.gaussian_cdf(0.0, 0.0, 1.0) == 0.5

    def test_one_sigma(self):
        # frozen from the quadrature oracle in helpers.py
        assert ns.gaussian_cdf(1.0, 0.0, 1.0) == pytest.approx(0.841345, abs=1e-6)

    def test_minus_three_sigma(self):
        assert ns.gaussian_cdf(-3.0, 0.0, 1.0) == pytest.approx(0.001350, abs=1e-6)

    @pytest.mark.parametrize("x", [-6.0, -2.5, -0.3, 0.0, 0.7, 1.0, 3.3, 5.0])
    def test_against_quadrature(self, x):
        assert abs(ns.gaussian_cdf(x) - normal_cdf_quadrature(x)) <= 1e-9

    def test_nonunit_params_against_quadrature(self):
        got = ns.gaussian_cdf(2.0, 0.5, 4.0)
        assert abs(got - normal_cdf_quadrature(2.0, 0.5, 4.0)) <= 1e-9

    @given(x=finite_floats, mean=finite_floats)
    def test_symmetry_invariant(self, x, mean):
        total = ns.gaussian_cdf(x, mean, 1.0) + ns.gaussian_cdf(2 * mean - x, mean, 1.0)
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(x1=finite_floats, x2=finite_floats)
    def test_monotone(self, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert ns.gaussian_cdf(lo) <= ns.gaussian_cdf(hi)

    def test_degenerate_variance(self):
        with pytest.raises(FedAuditError, match="variance must be > 0, got 0.0"):
            ns.gaussian_cdf(0.0, 0.0, 0.0)
        with pytest.raises(FedAuditError, match="variance must be > 0, got -1.0"):
            ns.gaussian_cdf(0.0, 0.0, -1.0)

    def test_nonfinite_input(self):
        with pytest.raises(FedAuditError, match="gaussian_cdf requires finite inputs"):
            ns.gaussian_cdf(float("nan"))


class TestSummary:
    def test_constant(self):
        s = ns.summary([2, 2, 2])
        assert (s.mean, s.variance, s.count) == (2.0, 0.0, 3)

    def test_constant_nondyadic_exact_zero(self):
        assert ns.summary([0.1, 0.1, 0.1]).variance == 0.0

    def test_nine_values(self):
        s = ns.summary([0] * 8 + [1])
        assert s.mean == pytest.approx(1 / 9, abs=1e-15)
        assert s.variance == pytest.approx(8 / 81, abs=1e-15)
        assert s.count == 9

    def test_single(self):
        s = ns.summary([1])
        assert (s.mean, s.variance, s.count) == (1.0, 0.0, 1)

    def test_empty(self):
        with pytest.raises(FedAuditError, match="summary of an empty sample"):
            ns.summary([])

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_variance_nonnegative(self, values):
        assert ns.summary(values).variance >= 0.0


# A linear-softmax record at zero parameters: x = [1], y = 0 has the unit
# gradient G = [-0.5, 0.5, -0.5, 0.5], so hand-picked uploads give exact
# inner products, norms and cosines.
SPEC1 = mdl.ModelSpec("linear_softmax", input_dim=1, num_classes=2)
G = np.array([-0.5, 0.5, -0.5, 0.5])


def measure_uploads(uploads, kind, params=np.zeros(4)):
    """The attack's (K,) measurements of the record against one round of uploads."""
    trace = make_toy_trace([np.array(uploads, dtype=float)], [params], SPEC1, lr_eff=0.1)
    return atk.measure_cohort(trace, np.array([[1.0]]), np.array([0]), kind)[0, 0]


class TestVectorOps:
    """Inner products, norms and cosines of the attack's measurements."""

    def test_dot_norm_axpy(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        assert measure_uploads([u, u], "grad_diff")[0] == -0.5 + 1.0 - 1.5 + 2.0
        trace = make_toy_trace([np.array([[3.0, 4.0, 0.0, 0.0], u])], [np.zeros(4)], SPEC1)
        audit = atk.audit_cohort(trace, np.array([[1.0]]), np.array([0]), 0, ["grad_norm"])
        assert audit.series["update_norm"][0, 0] == 5.0
        local = np.zeros(4) - 0.1 * u  # the client's model, rebuilt from its upload
        expect = mdl.loss_many(SPEC1, local, np.array([[1.0]]), np.array([0]))[0]
        assert measure_uploads([u, u], "loss")[0] == expect

    def test_cosine_parallel(self):
        assert measure_uploads([2.0 * G, G], "cosine")[0] == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert measure_uploads([[1.0, 1.0, 0.0, 0.0], G], "cosine")[0] == 0.0

    def test_cosine_45_degrees(self):
        # frozen: 1/sqrt(2); [0.5, 0.5, 0.5, 0.5] is a unit vector orthogonal to G
        got = measure_uploads([G + 0.5, G], "cosine")[0]
        assert got == pytest.approx(0.707107, abs=1e-6)

    def test_zero_norm(self):
        assert measure_uploads([np.zeros(4), G], "cosine")[0] == 0.0  # zero upload
        saturated = np.array([1000.0, -1000.0, 0.0, 0.0])  # zero record gradient
        with pytest.raises(ZeroVectorError):
            measure_uploads([G, G], "cosine", params=saturated)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=4),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_cosine_scale_invariance(self, values, c):
        a = np.array(values)
        if np.linalg.norm(a) < 1e-6:  # below this the squared norm loses precision
            return
        cos = measure_uploads([c * a, a], "cosine")
        assert cos[0] == pytest.approx(cos[1], abs=1e-12)


class TestRngStream:
    def test_replay_bit_identical(self):
        s = ns.RngStream(seed=123, stream_id=9)
        a = s.generator().standard_normal(16)
        b = s.generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        root = ns.RngStream(seed=5)
        draws = [root.derive(i).generator().standard_normal(4) for i in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(draws[i], draws[j])

    def test_derive_order_sensitive(self):
        root = ns.RngStream(seed=5)
        assert root.derive(1, 2).stream_id != root.derive(2, 1).stream_id

    def test_first_draws_look_standard(self):
        root = ns.RngStream(seed=17)
        firsts = np.array(
            [root.derive(i).generator().standard_normal() for i in range(2000)]
        )
        assert abs(firsts.mean()) < 0.1
        assert abs(firsts.std() - 1.0) < 0.1


class TestSamplers:
    """Laws of the pipeline's random draws: perturb noise, the mixup
    coefficient and Dirichlet client shares."""

    @staticmethod
    def _noise(rng, std, dim):
        d = fed.DefenseConfig(kind="perturb", clip_norm=1.0, noise_std=std)
        return fed.defend_update(np.zeros(dim), d, rng)

    @staticmethod
    def _lam(rng, alpha):
        return dat.mixup([rng.generator()], np.zeros((1, 2, 2)), np.zeros((1, 2), int), alpha)[2][0]

    @staticmethod
    def _shares(seed, beta, clients, per_class=20, holdout=6):
        ds = dat.synth_blobs(ns.RngStream(8), 3, 2, per_class, 1.0)
        return ds, dat.partition_dirichlet(ns.RngStream(seed), ds, clients, beta, holdout)

    def test_gaussian_zero_std(self):
        assert np.array_equal(self._noise(ns.RngStream(1), 0.0, 3), np.zeros(3))

    def test_gaussian_law_of_large_numbers(self):
        draws = self._noise(ns.RngStream(2), 1.0, 10**5)
        assert abs(draws.mean()) <= 0.02  # 4/sqrt(n) ~ 0.0126

    def test_gaussian_variance(self):
        draws = self._noise(ns.RngStream(3), 0.5, 10**5)
        assert np.mean(draws**2) == pytest.approx(0.25, abs=0.01)

    def test_gaussian_negative_std(self):
        with pytest.raises(ConfigError):
            self._noise(ns.RngStream(1), -0.1, 3)

    def test_beta_uniform(self):
        root = ns.RngStream(4)
        draws = root.generator().beta(1.0, 1.0, size=10**5)
        assert draws.mean() == pytest.approx(0.5, abs=0.01)
        assert self._lam(root, 1.0) == draws[0]

    def test_beta_concentrated(self):
        draws = np.array([self._lam(ns.RngStream(5).derive(i), 1e5) for i in range(2000)])
        # Beta(a,a) std = sqrt(1/(4*(2a+1))) ~ 1.1e-3 at a=1e5
        assert draws.std() < 0.01

    def test_beta_bimodal(self):
        draws = np.array([self._lam(ns.RngStream(6).derive(i), 1e-5) for i in range(2000)])
        assert np.mean((draws > 0.1) & (draws < 0.9)) < 0.01

    def test_dirichlet_dim_one(self):
        ds, part = self._shares(1, 2.0, 1)
        assert len(part.client_indices[0]) == len(ds) - 6

    def test_dirichlet_concentrated(self):
        ds, part = self._shares(7, 1e6, 4, per_class=400, holdout=0)
        for idx in part.client_indices:
            share = np.bincount(ds.labels[idx], minlength=3) / 400
            assert np.all(np.abs(share - 0.25) <= 0.01)

    @given(beta=st.floats(min_value=1e-3, max_value=1e4), dim=st.integers(1, 12), seed=st.integers(0, 100))
    @settings(max_examples=50)
    def test_dirichlet_simplex(self, beta, dim, seed):
        ds, part = self._shares(seed, beta, dim)
        seen = np.concatenate(part.client_indices + [part.holdout_indices])
        assert np.array_equal(np.sort(seen), np.arange(len(ds)))

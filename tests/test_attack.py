import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import attack as atk
from fedaudit import model as mdl
from fedaudit.errors import ConfigError, FedAuditError, ZeroVectorError
from fedaudit.numstat import RngStream
from conftest import make_toy_trace
from helpers import (
    MeasurementMatrix,
    RoundOutDistribution,
    estimate_out,
    scalar_fedmia,
    scaled_updates,
    score_temporal,
)

SPEC2 = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)


def _grad_and_orth(spec, params, x, y):
    """Gradient of a one-record batch plus a vector orthogonal to it."""
    g = mdl.grad_samples(spec, params, x, y)[0]
    e = np.zeros_like(g)
    e[int(np.argmin(np.abs(g)))] = 1.0
    orth = e - (e @ g) / (g @ g) * g
    return g, orth


class TestMeasure:
    def setup_method(self):
        self.params = mdl.init_params(SPEC2, RngStream(1).derive(5))
        self.x, self.y = np.array([[1.0, -0.5]]), np.array([0])
        self.g, self.orth = _grad_and_orth(SPEC2, self.params, self.x, self.y)

    def _trace(self, updates):
        return make_toy_trace([np.stack(updates)], [self.params], SPEC2, lr_eff=0.1)

    def _measure(self, trace, kind, x=None, y=None):
        """(T, K) measurements of one record, given as a one-row batch."""
        if x is None:
            x, y = self.x, self.y
        return atk.measure_cohort(trace, x, y, kind)[0]

    def test_parallel_update_cosine_one(self):
        trace = self._trace([3.0 * self.g, self.orth])
        m = self._measure(trace, "cosine")
        assert m[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_update_cosine_zero(self):
        trace = self._trace([3.0 * self.g, self.orth])
        m = self._measure(trace, "cosine")
        assert m[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_45_degree_update(self):
        u = self.g / np.linalg.norm(self.g) + self.orth / np.linalg.norm(self.orth)
        trace = self._trace([u, self.g])
        m = self._measure(trace, "cosine")
        assert m[0, 0] == pytest.approx(0.707107, abs=1e-6)

    def test_loss_kind_matches_reconstructed_model(self):
        u = 2.0 * self.g
        trace = self._trace([u, self.orth])
        m = self._measure(trace, "loss")
        local = self.params - 0.1 * u
        assert m[0, 0] == pytest.approx(mdl.loss_many(SPEC2, local, self.x, self.y)[0], abs=1e-12)

    def test_grad_diff_kind(self):
        u = 2.0 * self.g
        trace = self._trace([u, self.orth])
        m = self._measure(trace, "grad_diff")
        assert m[0, 0] == pytest.approx(float(u @ self.g), rel=1e-12)

    def test_zero_update_measures_zero_cosine(self):
        trace = self._trace([np.zeros_like(self.g), self.g])
        m = self._measure(trace, "cosine")
        assert m[0, 0] == 0.0

    def test_zero_target_gradient_rejected(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=1, num_classes=2)
        saturated = np.array([1000.0, -1000.0, 0.0, 0.0])
        trace = make_toy_trace([np.ones((2, 4))] * 2, [np.zeros(4), saturated], spec)
        # the second record's softmax saturates at round 1's global model only
        x, y = np.array([[-1.0], [1.0]]), np.array([0, 0])
        with pytest.raises(ZeroVectorError, match="round 1, cohort row 1") as exc:
            atk.measure_cohort(trace, x, y, "cosine")
        assert exc.value.row == 1

    def test_grad_diff_equals_cosine_times_norms(self, tiny_trace):
        g = RngStream(2).generator()
        x = g.standard_normal((4, 8))
        y = np.asarray(g.integers(3, size=4))
        cos = atk.measure_cohort(tiny_trace, x, y, "cosine")
        gd = atk.measure_cohort(tiny_trace, x, y, "grad_diff")
        for t, rec in enumerate(tiny_trace.rounds):
            grads = mdl.grad_samples(tiny_trace.model_spec, rec.global_before, x, y)
            gn = np.linalg.norm(grads, axis=1)
            un = np.linalg.norm(rec.updates, axis=1)
            assert np.allclose(gd[:, t, :], cos[:, t, :] * gn[:, None] * un[None, :], atol=1e-9)

    def test_unknown_kind(self, tiny_trace):
        with pytest.raises(ConfigError):
            atk.measure_cohort(tiny_trace, np.zeros((1, 8)), np.zeros(1, dtype=int), "entropy")


class TestEstimateOut:
    def _matrix(self, non_target_values, target_value=99.0):
        # target client at index 0
        row = np.array([target_value] + list(non_target_values))
        return MeasurementMatrix(0, 0, row[None, :])

    def test_sixteen_values_outlier_removed(self):
        m = self._matrix([0.0] * 15 + [1.0])
        out = estimate_out(m, 0, "member_high")
        # mean 1/16, population std sqrt(15)/16 ~ 0.2421, bound ~ 0.7887 < 1
        assert len(out.kept_clients) == 15
        assert 16 not in out.kept_clients
        assert out.mu_out == 0.0
        assert out.v_out == 0.0

    def test_nine_values_outlier_survives(self):
        m = self._matrix([0.1] * 8 + [5.0])
        out = estimate_out(m, 0, "member_high")
        # mean 0.6444, std 1.5399; bound 5.2642 exceeds the outlier at 5.0
        assert len(out.kept_clients) == 9
        assert out.mu_out == pytest.approx(5.8 / 9, abs=1e-12)
        assert out.v_out == pytest.approx(2.3713580246913575, abs=1e-12)

    def test_constant_values(self):
        m = self._matrix([0.25] * 6)
        out = estimate_out(m, 0, "member_high")
        assert len(out.kept_clients) == 6
        assert out.mu_out == 0.25
        assert out.v_out == 0.0

    def test_member_low_mirrored_filter(self):
        m = self._matrix([0.0] * 15 + [-1.0])
        out = estimate_out(m, 0, "member_low")
        assert len(out.kept_clients) == 15
        assert out.mu_out == 0.0

    def test_member_low_keeps_high_outlier(self):
        m = self._matrix([0.0] * 15 + [1.0])
        out = estimate_out(m, 0, "member_low")
        assert len(out.kept_clients) == 16

    def test_target_never_used(self):
        a = estimate_out(self._matrix([0.1] * 8 + [5.0], target_value=1e9), 0, "member_high")
        b = estimate_out(self._matrix([0.1] * 8 + [5.0], target_value=-1e9), 0, "member_high")
        assert a == b
        assert 0 not in a.kept_clients

    def test_insufficient_clients(self):
        m = MeasurementMatrix(0, 0, np.array([[1.0, 2.0]]))
        with pytest.raises(FedAuditError, match="need at least 3 clients"):
            estimate_out(m, 0, "member_high")

    def test_leave_one_out_removes_small_cohort_outlier(self):
        m = self._matrix([0.1] * 8 + [5.0])
        out = estimate_out(m, 0, "member_high", leave_one_out=True)
        assert len(out.kept_clients) == 8
        assert out.mu_out == pytest.approx(0.1)


class TestScoreRound:
    OUT = RoundOutDistribution(0, (1, 2, 3), 0.3, 0.04)

    def test_at_mean_half(self):
        assert atk.score_round(0.3, self.OUT, "member_high") == pytest.approx(0.5)
        assert atk.score_round(0.3, self.OUT, "member_low") == pytest.approx(0.5)

    def test_one_sigma_above(self):
        got = atk.score_round(0.3 + 0.2, self.OUT, "member_high")
        assert got == pytest.approx(0.841345, abs=1e-6)

    def test_degenerate_null_saturates(self):
        out = RoundOutDistribution(0, (1,), 0.0, 0.0)
        floor = atk.SIGMA_FLOOR_REL * 1.0
        assert atk.score_round(10 * floor, out, "member_high") >= 1 - 1e-9
        assert atk.score_round(-10 * floor, out, "member_high") <= 1e-9

    @given(m1=st.floats(-5, 5), m2=st.floats(-5, 5))
    def test_monotone_in_measurement(self, m1, m2):
        lo, hi = min(m1, m2), max(m1, m2)
        assert atk.score_round(lo, self.OUT, "member_high") <= atk.score_round(
            hi, self.OUT, "member_high"
        )

    def test_temporal_mean(self):
        assert score_temporal([0.5, 0.5, 0.5]) == 0.5
        assert score_temporal([0.9, 0.6]) == pytest.approx(0.75)
        assert score_temporal([0.7]) == 0.7


def _planted_trace_and_targets(num_targets=6, rounds=3, clients=4):
    """Target client's update IS the first target's gradient every round."""
    spec = mdl.ModelSpec("linear_softmax", input_dim=4, num_classes=3)
    g = RngStream(77).generator()
    x, y = g.standard_normal((num_targets, 4)), np.asarray(g.integers(3, size=num_targets))
    globals_, updates_ = [], []
    for t in range(rounds):
        params = 0.2 * RngStream(78).derive(t).generator().standard_normal(spec.param_count())
        grad0 = mdl.grad_samples(spec, params, x[:1], y[:1])[0]
        others = 0.5 * RngStream(79).derive(t).generator().standard_normal(
            (clients - 1, spec.param_count())
        )
        globals_.append(params)
        updates_.append(np.vstack([grad0[None, :], others]))
    return make_toy_trace(updates_, globals_, spec), (x, y)


def _fedmia(trace, targets, target_client, variant, delta):
    """(per-round, aggregate) scores and their decision masks at one threshold
    for records (x, y)."""
    scores = atk.fedmia_scores(trace, *targets, target_client, variant)
    return scores, atk.decision_sets(*scores, delta)


class TestFedmia:
    def test_planted_member_ranks_first(self):
        trace, targets = _planted_trace_and_targets()
        (_, agg), _ = _fedmia(trace, targets, target_client=0, variant="II", delta=0.5)
        assert agg.shape == (len(targets[1]),)
        assert all(agg[0] > a for a in agg[1:])

    def test_delta_above_one_empty(self):
        trace, targets = _planted_trace_and_targets()
        _, (_, flagged) = _fedmia(trace, targets, 0, "II", delta=1.5)
        assert not flagged.any()

    def test_delta_below_zero_all(self):
        trace, targets = _planted_trace_and_targets()
        _, (_, flagged) = _fedmia(trace, targets, 0, "II", delta=-0.5)
        assert flagged.shape == (len(targets[1]),) and flagged.all()

    def test_aggregate_is_mean_of_rounds(self):
        trace, targets = _planted_trace_and_targets()
        (per_round, agg), _ = _fedmia(trace, targets, 0, "II", delta=0.5)
        assert per_round.shape == (len(targets[1]), trace.num_rounds)
        for row, a in zip(per_round, agg):
            assert a == pytest.approx(float(np.mean(row)), abs=1e-12)

    def test_variant_i_runs_member_low(self):
        trace, targets = _planted_trace_and_targets()
        (_, agg), _ = _fedmia(trace, targets, 0, "I", delta=0.5)
        assert all(0.0 <= a <= 1.0 for a in agg)

    def test_scale_invariance_of_variant_ii(self):
        trace, targets = _planted_trace_and_targets()
        (per_round, agg), sets = _fedmia(trace, targets, 0, "II", delta=0.6)
        (scaled_per_round, scaled_agg), scaled_sets = _fedmia(
            scaled_updates(trace, 3.7), targets, 0, "II", delta=0.6
        )
        for i in range(len(agg)):
            assert abs(agg[i] - scaled_agg[i]) <= 1e-9
            assert np.max(np.abs(per_round[i] - scaled_per_round[i])) <= 1e-9
        assert all(np.array_equal(a, b) for a, b in zip(sets, scaled_sets))

    def test_bad_variant(self):
        trace, targets = _planted_trace_and_targets()
        with pytest.raises(ConfigError):
            _fedmia(trace, targets, 0, "III", delta=0.5)

    def test_needs_three_clients(self):
        trace, targets = _planted_trace_and_targets(clients=2)
        with pytest.raises(FedAuditError, match="need at least 3 clients"):
            _fedmia(trace, targets, 0, "II", delta=0.5)


def _filter_trace(nan_at=None, clients=14, rounds=4):
    """K=14 trace on which the 3-sigma filter bites, plus its 8 records.

    Non-target uploads share one direction, so their measurements are tight
    and a planted upload along a record's gradient is an outlier: high for
    cosine, low for loss (client 3), and the mirror image (client 7). Round
    1 has a zero-norm upload (client 5). In round 2 every non-target upload
    is the same, so the null collapses to the variance floor, and the
    target's upload is within about one floor width of them. ``nan_at``
    puts a NaN into round 1's "upload" of client 4 or its "global" model.
    """
    spec = mdl.ModelSpec("linear_softmax", input_dim=4, num_classes=3)
    g = RngStream(91).generator()
    x, y = g.standard_normal((8, 4)), g.integers(3, size=8)
    globals_, updates_ = [], []
    for t in range(rounds):
        params = 0.3 * g.standard_normal(spec.param_count())
        u = g.standard_normal(spec.param_count()) + 0.05 * g.standard_normal(
            (clients, spec.param_count())
        )
        if t == 2:
            u[1:] = u[1]
            u[0] = u[1] + 1e-9 * g.standard_normal(spec.param_count())
        else:
            grads = mdl.grad_samples(spec, params, x, y)
            u[3], u[7] = 5.0 * grads[t], -5.0 * grads[t + 4]
        if t == 1:
            u[5] = 0.0
            if nan_at == "upload":
                u[4, 0] = np.nan
            elif nan_at == "global":
                params[0] = np.nan
        globals_.append(params)
        updates_.append(u)
    return make_toy_trace(updates_, globals_, spec), x, y


def _rows_against_reference(values, orient, leave_one_out, target=0):
    """One round's (n, K) values scored by the engine and by the scalar rule,
    bit for bit; returns the scalar rule's null fit of every row."""
    got = atk._score_rows(values, target, orient, 0, atk.SIGMA_FLOOR_REL, leave_one_out)
    ref, _, fits = scalar_fedmia(values[:, None, :], target, orient, leave_one_out)
    assert got.tobytes() == ref[:, 0].tobytes()
    return [f[0] for f in fits]


ORIENTS = ["member_high", "member_low"]


class TestVectorisedNullMatchesScalar:
    """The grouped null fit against the scalar rule of tests/helpers.py, bit for bit."""

    @pytest.mark.parametrize("leave_one_out", [False, True])
    @pytest.mark.parametrize("variant", ["I", "II"])
    def test_bit_exact_where_the_filter_drops(self, variant, leave_one_out):
        trace, x, y = _filter_trace()
        kind, orient = ("loss", "member_low") if variant == "I" else ("cosine", "member_high")
        got = atk.fedmia_scores(trace, x, y, 0, variant, leave_one_out=leave_one_out)
        values = atk.measure_cohort(trace, x, y, kind)
        per_round, aggregate, fits = scalar_fedmia(values, 0, orient, leave_one_out)
        assert got[0].tobytes() == per_round.tobytes()
        assert got[1].tobytes() == aggregate.tobytes()
        outs = [out for row in fits for out in row]
        dropped = sum(len(out.kept_clients) < trace.num_clients - 1 for out in outs)
        assert 0 < dropped < len(outs)  # rows on the fast path and rows with drops
        assert sum(out.v_out == 0.0 for out in outs) >= len(y)  # round 2 hits the floor

    @pytest.mark.parametrize("variant,nan_at", [("I", "upload"), ("II", "global")])
    def test_nan_measurement_rejected(self, variant, nan_at):
        trace, x, y = _filter_trace(nan_at)
        with pytest.raises(FedAuditError, match="non-finite measurement in round 1"):
            atk.fedmia_scores(trace, x, y, 0, variant)
        kind = "loss" if variant == "I" else "cosine"
        matrix = MeasurementMatrix(0, 0, atk.measure_cohort(trace, x, y, kind)[0])
        with pytest.raises(FedAuditError, match="summary requires finite values"):
            estimate_out(matrix, 1, atk.DEFAULT_ORIENTATION[kind])

    @pytest.mark.parametrize("orient", ORIENTS)
    def test_several_survivor_counts_in_one_round(self, orient):
        # 59 non-target values; row i plants i % 4 outliers near 10 on the
        # member side, so rows drop zero to three values.
        g = RngStream(93).generator()
        values = g.standard_normal((24, 60))
        sign = 1.0 if orient == "member_high" else -1.0
        for i in range(len(values)):
            values[i, 1 : 1 + i % 4] = sign * (10.0 + g.random(i % 4))
        fits = _rows_against_reference(values, orient, leave_one_out=False)
        counts = {len(out.kept_clients) for out in fits}
        assert len(counts - {59}) >= 3, counts

    @pytest.mark.parametrize("orient", ORIENTS)
    @pytest.mark.parametrize("level", [0.25, 0.1])
    def test_constant_survivors_hit_the_variance_floor(self, orient, level):
        sign = 1.0 if orient == "member_high" else -1.0
        values = np.full((3, 30), level)
        values[:, 0] = [level, level + 1e-9, level - 3e-9]  # target near the collapsed null
        values[:2, 29] = sign * 5.0  # dropped; the 28 survivors are constant
        values[2, 1:] += np.linspace(0.0, 0.01, 29)  # a non-constant row, nothing drops
        fits = _rows_against_reference(values, orient, leave_one_out=False)
        assert [len(out.kept_clients) for out in fits] == [28, 28, 29]
        assert [out.v_out for out in fits[:2]] == [0.0, 0.0]
        assert all(out.mu_out == level for out in fits[:2])

    @pytest.mark.parametrize("orient", ORIENTS)
    @pytest.mark.parametrize("clients", [14, 20])
    def test_leave_one_out_at_fourteen_clients_and_more(self, orient, clients):
        g = RngStream(94).generator()
        values = g.standard_normal((30, clients))
        sign = 1.0 if orient == "member_high" else -1.0
        for i in range(len(values)):
            values[i, 1 : 1 + i % 3] = sign * (4.0 + g.random(i % 3))
        values[-1, 1:] = 0.5  # constant row: every rest is constant
        fits = _rows_against_reference(values, orient, leave_one_out=True)
        counts = [len(out.kept_clients) for out in fits]
        assert clients - 1 in counts and min(counts) < clients - 1, counts

    @pytest.mark.parametrize(
        "orient,base,ulps",
        [
            ("member_low", "-0x1.614b309f1b756p-996", [0, -1, 0, 0]),
            ("member_high", "-0x1.d37b63ce71d4cp-966",
             [0, -1, -1, 2, -1, 1, 4, 0, 0, 0, 4, 0, 3, 0, 3]),
        ],
    )
    def test_leave_one_out_flags_every_value_and_keeps_all(self, orient, base, ulps):
        # Values a few ulps apart near 1e-300: squared deviations underflow,
        # so every rest has variance 0, and rounding puts each value beyond
        # the mean of its rest on the member side.
        x = float.fromhex(base)
        row = np.concatenate([[0.0], x + np.array(ulps) * math.ulp(x)])
        fits = _rows_against_reference(row[None, :], orient, leave_one_out=True)
        assert fits[0].kept_clients == tuple(range(1, len(row)))


class TestDecisionSetsInclusion:
    def _scores(self, rows):
        per_round = np.array(rows, dtype=float)
        return per_round, per_round.mean(axis=1)

    def test_hand_fixture(self):
        per_round, aggregate = atk.decision_sets(*self._scores([[0.9, 0.6]]), 0.7)
        assert aggregate.tolist() == [True]  # mean 0.75 > 0.7
        assert per_round.tolist() == [[True, False]]
        assert atk.check_aggregate_inclusion(per_round, aggregate)
        # an aggregate flag on a record that no round flags breaks inclusion
        assert atk.check_aggregate_inclusion(np.zeros_like(per_round), aggregate) is False

    def test_single_round_equality(self):
        per_round, aggregate = atk.decision_sets(*self._scores([[0.9], [0.2]]), 0.5)
        assert np.array_equal(aggregate, per_round[:, 0])
        assert atk.check_aggregate_inclusion(per_round, aggregate)

    def test_strict_threshold(self):
        _, aggregate = atk.decision_sets(*self._scores([[0.5, 0.5]]), 0.5)
        assert not aggregate.any()  # boundary equality is non-member

    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 10),
        samples=st.integers(1, 50),
        delta=st.floats(-0.1, 1.1),
    )
    @settings(max_examples=100, deadline=None)
    def test_inclusion_randomized(self, seed, rounds, samples, delta):
        g = RngStream(seed).generator()
        scores = self._scores(g.uniform(size=(samples, rounds)))
        assert atk.check_aggregate_inclusion(*atk.decision_sets(*scores, delta))


def _baselines(trace, x, y, methods):
    """Baseline scores as ``harness.run_attacks`` makes them, from one audit."""
    return atk.baselines(trace, x, y, methods, atk.audit_cohort(trace, x, y, 0, methods))


class TestBaselines:
    def test_zero_loss_sample_tops_loss_series(self):
        spec = mdl.ModelSpec("linear_softmax", input_dim=2, num_classes=2)
        params = np.array([10.0, 0.0, -10.0, 0.0, 0.0, 0.0])  # strong separator
        trace = make_toy_trace(
            [np.ones((3, 6)), np.ones((3, 6))], [params, params], spec, final_model=params
        )
        deep = [50.0, 0.0]  # huge correct margin
        shallow = [0.05, 0.0]
        wrong = [-0.5, 0.0]
        x, y = np.array([deep, shallow, wrong]), np.zeros(3, dtype=int)
        out = _baselines(trace, x, y, ["loss_series"])
        scores = out["loss_series"]
        assert scores[0] == max(scores)
        assert scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_round_avg_equals_grad_cosine(self):
        trace, targets = _planted_trace_and_targets(rounds=1)
        out = _baselines(trace, *targets, ["grad_cosine", "avg_cosine"])
        for i in range(len(targets[1])):
            assert out["grad_cosine"][i] == pytest.approx(out["avg_cosine"][i], abs=1e-15)

    def test_grad_norm_is_record_independent(self):
        trace, targets = _planted_trace_and_targets()
        out = _baselines(trace, *targets, ["grad_norm"])
        vals = set(out["grad_norm"].tolist())
        assert len(vals) == 1
        expected = -float(np.linalg.norm(trace.rounds[-1].updates[0]))
        assert vals.pop() == expected

    def test_blackbox_uses_final_model(self):
        trace, targets = _planted_trace_and_targets()
        out = _baselines(trace, *targets, ["blackbox_loss"])
        x, y = targets
        for i in range(len(y)):
            one = (x[i : i + 1], y[i : i + 1])
            expected = -mdl.loss_many(trace.model_spec, trace.final_model, *one)[0]
            assert out["blackbox_loss"][i] == pytest.approx(expected, abs=1e-12)

    def test_requested_order_preserved(self):
        trace, targets = _planted_trace_and_targets()
        out = _baselines(trace, *targets, ["grad_diff", "blackbox_loss"])
        assert list(out) == ["grad_diff", "blackbox_loss"]


class TestMeasurementType:
    """The member side each measurement's fedmia score reads."""

    def test_default_orientations(self):
        assert atk.DEFAULT_ORIENTATION == {"cosine": "member_high", "loss": "member_low"}
        trace, targets = _planted_trace_and_targets()
        for method, side in (("fedmia_ii", "member_high"), ("fedmia_i", "member_low")):
            audit = atk.audit_cohort(trace, *targets, 0, [method])
            values = atk.measure_cohort(trace, *targets, atk.FEDMIA_KIND[method])
            ref, _, _ = scalar_fedmia(values, 0, side)
            assert audit.per_round[method].tobytes() == ref.tobytes()

    def test_invalid(self):
        trace, targets = _planted_trace_and_targets()
        for kind in ("entropy", "grad_norm"):
            with pytest.raises(ConfigError, match="unknown measurement kind"):
                atk.measure_cohort(trace, *targets, kind)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import metrics as met
from fedaudit.errors import CohortError, EmptySampleError, ParameterError, ReferencePointError
from helpers import cohort_from_pairs, mc_hypervolume, pairwise_auc, roc_threshold_loop

score_lists = st.lists(st.floats(-10, 10), min_size=1, max_size=30)
# Few distinct values, signed zeros included: ROC sweeps full of ties.
tied_lists = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 3.0]), min_size=1, max_size=40)


def cohort(members, nonmembers):
    return met.ScoredCohort(
        np.array(list(members) + list(nonmembers)),
        np.array([True] * len(members) + [False] * len(nonmembers)),
    )


def random_cohort(seed, n_max=200):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, n_max + 1))
    n_pos = int(g.integers(1, n))
    scores = np.round(g.normal(size=n), 2)  # rounding forces ties
    members = np.zeros(n, dtype=bool)
    members[:n_pos] = True
    return met.ScoredCohort(scores, members)


class TestCohort:
    def test_single_class_rejected(self):
        with pytest.raises(CohortError):
            met.ScoredCohort(np.array([1.0, 2.0]), np.array([True, True]))

    def test_nan_rejected(self):
        with pytest.raises(CohortError):
            met.ScoredCohort(np.array([np.nan, 1.0]), np.array([True, False]))

    def test_from_pairs(self):
        c = cohort_from_pairs([(0.5, True), (0.2, False)])
        assert c.scores.tolist() == [0.5, 0.2]


class TestRoc:
    def test_perfect_separation_passes_corner(self):
        c = cohort([0.9, 0.8], [0.1, 0.2])
        assert (0.0, 1.0) in met.roc(c).points

    def test_all_tied_is_diagonal_endpoints(self):
        c = cohort([0.5, 0.5], [0.5, 0.5])
        assert met.roc(c).points == ((0.0, 0.0), (1.0, 1.0))

    def test_hand_sweep(self):
        c = cohort([0.8, 0.3], [0.5, 0.1])
        assert met.roc(c).points == (
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)
        )

    @given(members=score_lists, nonmembers=score_lists)
    @settings(max_examples=60)
    def test_monotone_and_anchored(self, members, nonmembers):
        pts = met.roc(cohort(members, nonmembers)).points
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            assert x2 >= x1 and y2 >= y1


    @given(members=score_lists | tied_lists, nonmembers=score_lists | tied_lists)
    @settings(max_examples=300)
    def test_sort_sweep_equals_threshold_loop(self, members, nonmembers):
        c = cohort(members, nonmembers)
        assert met.roc(c).points == roc_threshold_loop(c.scores, c.is_member)

    def test_sort_sweep_equals_threshold_loop_large_cohorts(self):
        for seed in range(100):
            c = random_cohort(seed)
            assert met.roc(c).points == roc_threshold_loop(c.scores, c.is_member)


class TestRocMetrics:
    def test_equals_separate_calls(self):
        for seed in range(50):
            c = random_cohort(seed)
            for cap in (0.0, 0.01, 0.1, 0.5):
                assert met.roc_metrics(c, cap) == (met.auc(c), *met.operating_point(c, cap))

    def test_cap_out_of_range(self):
        with pytest.raises(ParameterError):
            met.roc_metrics(cohort([1.0], [0.0]), 1.0)


class TestAuc:
    def test_perfect(self):
        assert met.auc(cohort([0.9, 0.8], [0.1, 0.2])) == 1.0

    def test_all_tied_half(self):
        assert met.auc(cohort([0.5, 0.5], [0.5, 0.5])) == 0.5

    def test_hand_value(self):
        # pairwise oracle over the 4 pairs gives 3 wins / 4
        assert met.auc(cohort([0.8, 0.3], [0.5, 0.1])) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_oracle(self, seed):
        c = random_cohort(seed)
        assert met.auc(c) == pytest.approx(pairwise_auc(c.scores, c.is_member), abs=1e-12)

    def test_negation_flips_auc(self):
        g = np.random.default_rng(5)
        scores = g.permutation(np.arange(40.0))  # tie-free
        members = np.zeros(40, dtype=bool)
        members[:15] = True
        a = met.auc(met.ScoredCohort(scores, members))
        b = met.auc(met.ScoredCohort(-scores, members))
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestTprAtFpr:
    """The TPR of ``operating_point`` at a capped FPR."""

    def test_perfect_scores(self):
        assert met.operating_point(cohort([0.9, 0.8], [0.1, 0.2]), 0.4)[0] == 1.0

    def test_hand_enumeration(self):
        nonmembers = [round(0.1 * i, 1) for i in range(1, 11)]
        c = cohort([0.95, 0.85, 0.5], nonmembers)
        # cap 0.10 admits one false positive (the 1.0), TPR = 1/3
        assert met.operating_point(c, 0.10)[0] == pytest.approx(1 / 3)

    def test_cap_zero(self):
        c = cohort([0.9, 0.4], [0.5, 0.1])
        assert met.operating_point(c, 0.0)[0] == 0.5  # only the 0.9 member clears every non-member

    def test_achieved_fpr_reported(self):
        nonmembers = [round(0.1 * i, 1) for i in range(1, 11)]
        c = cohort([0.95, 0.85, 0.5], nonmembers)
        tpr, achieved = met.operating_point(c, 0.10)
        assert tpr == pytest.approx(1 / 3)
        assert achieved == pytest.approx(0.1)

    @given(members=score_lists, nonmembers=score_lists, caps=st.tuples(st.floats(0, 0.99), st.floats(0, 0.99)))
    @settings(max_examples=60)
    def test_nondecreasing_in_cap(self, members, nonmembers, caps):
        c = cohort(members, nonmembers)
        lo, hi = min(caps), max(caps)
        assert met.operating_point(c, lo)[0] <= met.operating_point(c, hi)[0]

    def test_invalid_cap(self):
        with pytest.raises(ParameterError):
            met.operating_point(cohort([1.0], [0.0]), 1.0)


class TestParetoFront:
    def test_single_point(self):
        assert met.pareto_front([(0.3, 0.4)]) == [met.ParetoPoint(0.3, 0.4)]

    def test_hand_fixture(self):
        front = met.pareto_front([(0.2, 0.8), (0.8, 0.2), (0.9, 0.9)])
        assert front == [met.ParetoPoint(0.2, 0.8), met.ParetoPoint(0.8, 0.2)]

    def test_duplicates_removed(self):
        front = met.pareto_front([(0.5, 0.5), (0.5, 0.5)])
        assert front == [met.ParetoPoint(0.5, 0.5)]

    def test_sorted_by_utility(self):
        front = met.pareto_front([(0.9, 0.1), (0.1, 0.9), (0.5, 0.5)])
        assert [p.utility_loss for p in front] == sorted(p.utility_loss for p in front)

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            met.pareto_front([])

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_front_is_nondominated(self, pts):
        front = met.pareto_front(pts)
        for p in front:
            for q in front:
                if q is p:
                    continue
                dominates = (
                    q.utility_loss <= p.utility_loss
                    and q.privacy_leakage <= p.privacy_leakage
                    and (q.utility_loss < p.utility_loss or q.privacy_leakage < p.privacy_leakage)
                )
                assert not dominates


class TestHypervolume:
    def test_single_box(self):
        assert met.hypervolume([(0.5, 0.5)]) == pytest.approx(0.25, abs=1e-15)

    def test_reference_point_itself(self):
        assert met.hypervolume([(1.0, 1.0)]) == 0.0

    def test_two_boxes_inclusion_exclusion(self):
        # 0.16 + 0.16 - 0.04 by hand
        assert met.hypervolume([(0.2, 0.8), (0.8, 0.2)]) == pytest.approx(0.28, abs=1e-15)

    def test_against_monte_carlo(self):
        pts = [(0.1, 0.7), (0.3, 0.4), (0.6, 0.2), (0.8, 0.15)]
        est, se = mc_hypervolume(pts, num_samples=10**6, seed=3)
        assert abs(met.hypervolume(pts) - est) <= 3 * se

    def test_monotone_under_addition(self):
        g = np.random.default_rng(7)
        pts = [tuple(p) for p in g.uniform(size=(6, 2))]
        hv = met.hypervolume(pts[:3])
        for k in range(4, 7):
            hv2 = met.hypervolume(pts[:k])
            assert hv2 >= hv - 1e-15
            hv = hv2

    def test_point_beyond_reference_rejected(self):
        with pytest.raises(ReferencePointError):
            met.hypervolume([(0.5, 0.5)], reference=(0.4, 1.0))

    def test_custom_reference(self):
        assert met.hypervolume([(0.0, 0.0)], reference=(0.5, 0.5)) == pytest.approx(0.25)

    def test_dominated_point_adds_nothing(self):
        base = met.hypervolume([(0.2, 0.2)])
        assert met.hypervolume([(0.2, 0.2), (0.5, 0.5)]) == pytest.approx(base, abs=1e-15)

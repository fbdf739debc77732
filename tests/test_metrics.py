import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import metrics as met
from fedaudit.errors import FedAuditError
from fedaudit.harness import _seed_mean
from helpers import (area_loop, best_point_loop, mc_hypervolume, pairwise_auc, roc_sweep_loop,
                     roc_threshold_loop)

score_lists = st.lists(st.floats(-10, 10), min_size=1, max_size=30)
# Few distinct values, signed zeros included: ROC sweeps full of ties.
tied_lists = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 3.0]), min_size=1, max_size=40)


def cohort(members, nonmembers):
    """(scores, is_member) of the member and non-member scores."""
    return (np.array(list(members) + list(nonmembers)),
            np.array([True] * len(members) + [False] * len(nonmembers)))


def points(scores, is_member):
    """``met.roc`` as a tuple of (fpr, tpr) points."""
    fpr, tpr = met.roc(scores, is_member)
    return tuple(zip(fpr.tolist(), tpr.tolist()))


def random_cohort(seed, n_max=200):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, n_max + 1))
    n_pos = int(g.integers(1, n))
    scores = np.round(g.normal(size=n), 2)  # rounding forces ties
    members = np.zeros(n, dtype=bool)
    members[:n_pos] = True
    return scores, members


class TestRoc:
    def test_perfect_separation_passes_corner(self):
        assert (0.0, 1.0) in points(*cohort([0.9, 0.8], [0.1, 0.2]))

    def test_all_tied_is_diagonal_endpoints(self):
        assert points(*cohort([0.5, 0.5], [0.5, 0.5])) == ((0.0, 0.0), (1.0, 1.0))

    def test_hand_sweep(self):
        assert points(*cohort([0.8, 0.3], [0.5, 0.1])) == (
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)
        )

    @given(members=score_lists, nonmembers=score_lists)
    @settings(max_examples=60)
    def test_monotone_and_anchored(self, members, nonmembers):
        pts = points(*cohort(members, nonmembers))
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            assert x2 >= x1 and y2 >= y1


    @given(members=score_lists | tied_lists, nonmembers=score_lists | tied_lists)
    @settings(max_examples=300)
    def test_sort_sweep_equals_threshold_loop(self, members, nonmembers):
        c = cohort(members, nonmembers)
        assert points(*c) == roc_threshold_loop(*c)

    def test_sort_sweep_equals_threshold_loop_large_cohorts(self):
        for seed in range(100):
            c = random_cohort(seed)
            assert points(*c) == roc_threshold_loop(*c)


def assert_rows_match_loops(scores, is_member, cap):
    """Each row's (AUC, TPR, achieved FPR) of ``roc_metrics`` has the bits of the
    scalar loops over the row's points."""
    got = np.stack(met.roc_metrics(scores, is_member, cap), axis=1)
    assert got.shape == (len(scores), 3)
    for row, values in zip(scores, got):
        pts = roc_sweep_loop(row, is_member)
        want = np.array([area_loop(pts), *best_point_loop(pts, cap)])
        assert values.tobytes() == want.tobytes(), (row, cap)


def membership(n, members):
    is_member = np.zeros(n, dtype=bool)
    is_member[members] = True
    return is_member


class TestRocMetrics:
    def test_equals_separate_calls(self):
        for seed in range(50):
            scores, members = random_cohort(seed)
            for cap in (0.0, 0.01, 0.1, 0.5):
                got = [a.tolist() for a in met.roc_metrics(scores[None], members, cap)]
                want = [met.auc(scores, members), *met.operating_point(scores, members, cap)]
                assert got == [[v] for v in want]

    @given(members=score_lists | tied_lists, nonmembers=score_lists | tied_lists)
    @settings(max_examples=300)
    def test_equals_scalar_loops_bit_for_bit(self, members, nonmembers):
        scores, is_member = cohort(members, nonmembers)
        for cap in (0.0, 0.01, 0.1):
            assert_rows_match_loops(scores[None], is_member, cap)

    @pytest.mark.parametrize("cap", [0.0, 0.01, 0.1, 1.0])
    def test_rows_equal_scalar_loops_bit_for_bit(self, cap):
        g = np.random.default_rng(11)
        n = 40
        mixed = membership(n, g.permutation(n)[:15])
        tied = g.choice([-1.0, -0.0, 0.0, 0.25, 3.0], size=(6, n))
        equal = np.stack([np.full(n, 0.7), np.zeros(n), np.ones(n)])
        saturated = g.choice([0.0, 1.0], size=(4, n))  # fedmia scores at their bounds
        saturated[1, :20] = g.random(20)
        continuous = g.normal(size=(5, n))
        for scores in (tied, equal, saturated, continuous, np.vstack([tied, equal, continuous])):
            for is_member in (mixed, membership(n, [3]), ~membership(n, [3])):
                assert_rows_match_loops(scores, is_member, cap)
                assert_rows_match_loops(scores[:1], is_member, cap)  # m = 1

    @given(rows=st.lists(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, 3.0]),
                                  min_size=12, max_size=12), min_size=1, max_size=6),
           members=st.sets(st.integers(0, 11), min_size=1, max_size=11),
           cap=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    @settings(max_examples=200)
    def test_tied_rows_equal_scalar_loops_bit_for_bit(self, rows, members, cap):
        assert_rows_match_loops(np.array(rows), membership(12, sorted(members)), cap)

    def test_roc_rows_repeat_the_point_before_inside_a_tie_group(self):
        g = np.random.default_rng(3)
        scores = g.choice([0.0, 0.5, 1.0], size=(5, 30))
        is_member = membership(30, range(12))
        fpr, tpr = met.roc(scores, is_member)
        assert fpr.shape == tpr.shape == (5, 31)
        for row, f, t in zip(scores, fpr, tpr):
            pts = list(zip(f.tolist(), t.tolist()))
            distinct = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
            assert tuple(distinct) == points(row, is_member) == roc_sweep_loop(row, is_member)


@pytest.mark.parametrize("num_seeds", range(1, 13))
def test_seed_mean_equals_np_mean_of_each_round_bit_for_bit(num_seeds):
    """8 or more seeds is where NumPy's pairwise sum departs from a running sum, so
    a reduction along the wrong axis would show there."""
    g = np.random.default_rng(num_seeds)
    per_seed = tuple(g.random(50) for _ in range(num_seeds))  # (T,) values per seed
    want = np.array([np.mean([v[t] for v in per_seed]) for t in range(50)])
    assert _seed_mean(per_seed).tobytes() == want.tobytes()


class TestAuc:
    def test_perfect(self):
        assert met.auc(*cohort([0.9, 0.8], [0.1, 0.2])) == 1.0

    def test_all_tied_half(self):
        assert met.auc(*cohort([0.5, 0.5], [0.5, 0.5])) == 0.5

    def test_hand_value(self):
        # pairwise oracle over the 4 pairs gives 3 wins / 4
        assert met.auc(*cohort([0.8, 0.3], [0.5, 0.1])) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_oracle(self, seed):
        c = random_cohort(seed)
        assert met.auc(*c) == pytest.approx(pairwise_auc(*c), abs=1e-12)

    def test_negation_flips_auc(self):
        g = np.random.default_rng(5)
        scores = g.permutation(np.arange(40.0))  # tie-free
        members = np.zeros(40, dtype=bool)
        members[:15] = True
        a = met.auc(scores, members)
        b = met.auc(-scores, members)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestTprAtFpr:
    """The TPR of ``operating_point`` at a capped FPR."""

    def test_perfect_scores(self):
        assert met.operating_point(*cohort([0.9, 0.8], [0.1, 0.2]), 0.4)[0] == 1.0

    def test_hand_enumeration(self):
        nonmembers = [round(0.1 * i, 1) for i in range(1, 11)]
        c = cohort([0.95, 0.85, 0.5], nonmembers)
        # cap 0.10 admits one false positive (the 1.0), TPR = 1/3
        assert met.operating_point(*c, 0.10)[0] == pytest.approx(1 / 3)

    def test_cap_zero(self):
        c = cohort([0.9, 0.4], [0.5, 0.1])
        assert met.operating_point(*c, 0.0)[0] == 0.5  # only the 0.9 member clears every non-member

    def test_achieved_fpr_reported(self):
        nonmembers = [round(0.1 * i, 1) for i in range(1, 11)]
        c = cohort([0.95, 0.85, 0.5], nonmembers)
        tpr, achieved = met.operating_point(*c, 0.10)
        assert tpr == pytest.approx(1 / 3)
        assert achieved == pytest.approx(0.1)

    @given(members=score_lists, nonmembers=score_lists, caps=st.tuples(st.floats(0, 0.99), st.floats(0, 0.99)))
    @settings(max_examples=60)
    def test_nondecreasing_in_cap(self, members, nonmembers, caps):
        c = cohort(members, nonmembers)
        lo, hi = min(caps), max(caps)
        assert met.operating_point(*c, lo)[0] <= met.operating_point(*c, hi)[0]


class TestParetoFront:
    def test_single_point(self):
        assert met.pareto_front([(0.3, 0.4)]) == [(0.3, 0.4)]

    def test_hand_fixture(self):
        front = met.pareto_front([(0.2, 0.8), (0.8, 0.2), (0.9, 0.9)])
        assert front == [(0.2, 0.8), (0.8, 0.2)]

    def test_duplicates_removed(self):
        front = met.pareto_front([(0.5, 0.5), (0.5, 0.5)])
        assert front == [(0.5, 0.5)]

    def test_sorted_by_utility(self):
        front = met.pareto_front([(0.9, 0.1), (0.1, 0.9), (0.5, 0.5)])
        assert front == sorted(front)

    def test_empty_rejected(self):
        with pytest.raises(FedAuditError, match="pareto_front of no points"):
            met.pareto_front([])

    def test_point_outside_unit_square_rejected(self):
        with pytest.raises(FedAuditError, match=r"coordinates must be in \[0, 1\]"):
            met.pareto_front([(0.5, 0.5), (-0.1, 0.2)])

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_front_is_nondominated(self, pts):
        front = met.pareto_front(pts)
        for p in front:
            for q in front:
                if q is p:
                    continue
                dominates = q[0] <= p[0] and q[1] <= p[1] and q != p
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

    def test_empty_rejected(self):
        with pytest.raises(FedAuditError, match="hypervolume of no points"):
            met.hypervolume([])

    def test_point_beyond_reference_rejected(self):
        with pytest.raises(FedAuditError, match=r"coordinates must be in \[0, 1\]"):
            met.hypervolume([(0.5, 1.5)])

    def test_dominated_point_adds_nothing(self):
        base = met.hypervolume([(0.2, 0.2)])
        assert met.hypervolume([(0.2, 0.2), (0.5, 0.5)]) == pytest.approx(base, abs=1e-15)

"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight fixtures (federation runs) are module-scoped and shared:
the 5-seed no-defense runs back criteria 3, 4, 7 and the end-to-end half
of 1; the defense sweeps back criterion 5; the epoch pair backs 6.
Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines and timings.
"""

import csv
import dataclasses
import json
import os
import pathlib
import time

import numpy as np
import pytest

from fedaudit import attack as atk
from fedaudit import fedsim as fed
from fedaudit import metrics as met
from fedaudit import harness as hns
from fedaudit.config import ExperimentConfig
from fedaudit.numstat import RngStream, gaussian_cdf
from fedaudit import model as mdl
from helpers import (
    MeasurementMatrix,
    estimate_out,
    finite_diff_grad,
    mc_hypervolume,
    normal_cdf_quadrature,
    pairwise_auc,
    scaled_updates,
)

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def load_default_dict():
    with open(CONFIG_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_json(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def mean_metric(report_dir, method, column="auc", where=None):
    with open(os.path.join(report_dir, "metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    vals = [
        float(r[column])
        for r in rows
        if r["method"] == method and (where is None or where(r))
    ]
    assert vals, f"no rows for {method}"
    return float(np.mean(vals))


def nonincreasing_with_tolerance(seq, tol=0.02, allowed_inversions=1):
    rises = [b - a for a, b in zip(seq, seq[1:]) if b > a]
    return len(rises) <= allowed_inversions and all(d <= tol + 1e-12 for d in rises)


@pytest.fixture(scope="module")
def default_config():
    return ExperimentConfig.from_dict(load_default_dict())


@pytest.fixture(scope="module")
def baseline_report(tmp_path_factory, default_config):
    """The default 5-seed no-defense experiment; wall time recorded."""
    out = str(tmp_path_factory.mktemp("baseline"))
    t0 = time.time()
    hns.run_experiment(default_config, out)
    return out, time.time() - t0


@pytest.fixture(scope="module")
def sweep_reports(tmp_path_factory):
    reports = {}
    for name in ("perturb_sweep", "sparsify_sweep"):
        path = os.path.join(os.path.dirname(CONFIG_PATH), f"{name}.json")
        cfg_dict = read_json(path)
        cfg_dict["attack"]["methods"] = ["fedmia_ii"]
        cfg = ExperimentConfig.from_dict(cfg_dict)
        out = str(tmp_path_factory.mktemp(name))
        hns.run_experiment(cfg, out)
        reports[name] = out
    return reports


@pytest.fixture(scope="module")
def epoch_reports(tmp_path_factory):
    reports = {}
    for epochs in (1, 9):
        d = load_default_dict()
        d["federation"]["local_epochs"] = epochs
        d["attack"]["methods"] = ["fedmia_ii"]
        cfg = ExperimentConfig.from_dict(d)
        out = str(tmp_path_factory.mktemp(f"epochs{epochs}"))
        hns.run_experiment(cfg, out)
        reports[epochs] = out
    return reports


def test_criterion_1_aggregate_inclusion(baseline_report, sweep_reports):
    t0 = time.time()
    g = RngStream(20_000).generator()
    checked = 0
    for _ in range(1000):
        rounds = int(g.integers(1, 11))
        delta = float(g.uniform(-0.1, 1.1))
        mat = g.uniform(size=(50, rounds))
        assert atk.check_aggregate_inclusion(*atk.decision_sets(mat, mat.mean(axis=1), delta))
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"randomized inclusion took {elapsed:.1f}s"

    end_to_end = 0
    for report_dir in [baseline_report[0]] + list(sweep_reports.values()):
        report = read_json(os.path.join(report_dir, "report.json"))
        for per_method in report["inclusion_checks"].values():
            for per_delta in per_method.values():
                for ok in per_delta.values():
                    assert ok
                    end_to_end += 1
    _report(1, f"{checked} randomized matrices in {elapsed:.2f}s; "
               f"{end_to_end} end-to-end decision-set checks, zero violations")


def test_criterion_2_numeric_oracles():
    t0 = time.time()
    # normal CDF vs quadrature
    grid = [(-6.0, 0.0, 1.0), (-2.5, 0.0, 1.0), (-0.3, 0.0, 1.0), (0.0, 0.0, 1.0),
            (0.7, 0.0, 1.0), (3.3, 0.0, 1.0), (5.5, 0.0, 1.0),
            (1.0, 0.5, 4.0), (-2.0, 1.0, 0.25), (0.2, -0.4, 9.0)]
    cdf_err = max(abs(gaussian_cdf(x, m, v) - normal_cdf_quadrature(x, m, v)) for x, m, v in grid)
    assert cdf_err <= 1e-9

    # AUC vs exhaustive pair statistic on 100 random cohorts (n <= 200)
    auc_err = 0.0
    for seed in range(100):
        g = np.random.default_rng(seed)
        n = int(g.integers(2, 201))
        n_pos = int(g.integers(1, n))
        scores = np.round(g.normal(size=n), 2)
        members = np.zeros(n, dtype=bool)
        members[:n_pos] = True
        auc_err = max(auc_err, abs(met.auc(scores, members) - pairwise_auc(scores, members)))
    assert auc_err <= 1e-12

    # hypervolume: exact fixtures plus Monte Carlo
    assert met.hypervolume([(0.5, 0.5)]) == pytest.approx(0.25, abs=1e-15)
    assert met.hypervolume([(1.0, 1.0)]) == 0.0
    assert met.hypervolume([(0.2, 0.8), (0.8, 0.2)]) == pytest.approx(0.28, abs=1e-15)
    pts = [(0.05, 0.9), (0.2, 0.5), (0.45, 0.3), (0.7, 0.25), (0.9, 0.05)]
    est, se = mc_hypervolume(pts, num_samples=10**6, seed=11)
    hv_dev = abs(met.hypervolume(pts) - est)
    assert hv_dev <= 3 * se

    # analytic gradients vs central finite differences, 100 random cases
    specs = [
        mdl.ModelSpec("linear_softmax", input_dim=4, num_classes=3),
        mdl.ModelSpec("mlp", input_dim=4, hidden_dim=5, num_classes=3),
    ]
    worst = 0.0
    for case in range(100):
        spec = specs[case % 2]
        g = RngStream(30_000 + case).generator()
        params = 0.5 * g.standard_normal(spec.param_count())
        x, y = g.standard_normal(spec.input_dim)[None, :], np.array([g.integers(3)])
        analytic = mdl.grad_samples(spec, params, x, y)[0]
        numeric = finite_diff_grad(spec, params, x, y)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4

    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle battery took {elapsed:.1f}s"
    _report(2, f"cdf err {cdf_err:.2e}; auc err {auc_err:.2e}; "
               f"hv dev {hv_dev:.4f} <= 3se {3*se:.4f}; grad rel err {worst:.2e}; "
               f"{elapsed:.1f}s total")


def test_criterion_3_attack_ordering(baseline_report):
    report_dir, train_seconds = baseline_report
    assert train_seconds < 600.0, f"default runs took {train_seconds:.0f}s"
    fedmia_ii = mean_metric(report_dir, "fedmia_ii")
    grad_cosine = mean_metric(report_dir, "grad_cosine")
    blackbox = mean_metric(report_dir, "blackbox_loss")
    assert fedmia_ii >= grad_cosine + 0.02
    assert fedmia_ii >= blackbox + 0.02
    assert fedmia_ii >= 0.70
    _report(3, f"mean AUC fedmia_ii={fedmia_ii:.3f} vs grad_cosine={grad_cosine:.3f} "
               f"vs blackbox_loss={blackbox:.3f}; runs took {train_seconds:.0f}s")


def test_criterion_4_temporal_aggregation(baseline_report, default_config):
    report_dir, _ = baseline_report
    details = []
    for seed in default_config.seeds:
        sidecar = read_json(
            os.path.join(report_dir, "runs", "none", f"seed{seed}", "attack_rounds.json"))
        per_round = np.array(sidecar["fedmia_ii"]["per_round"])
        members = np.array(sidecar["is_member"], dtype=bool)
        auc_10 = met.auc(per_round[:, :10].mean(axis=1), members)
        auc_full = met.auc(per_round.mean(axis=1), members)
        assert auc_10 <= auc_full + 0.01, f"seed {seed}: {auc_10:.3f} vs {auc_full:.3f}"
        details.append(f"{auc_10:.3f}<={auc_full:.3f}+0.01")
    _report(4, "per-seed AUC(first 10 rounds) vs AUC(all 50): " + ", ".join(details))


def test_criterion_5_defense_monotonicity(sweep_reports):
    perturb = sweep_reports["perturb_sweep"]
    noise_grid = ["0.0", "0.05", "0.2", "0.5"]
    tpr_seq = [
        mean_metric(perturb, "fedmia_ii", "tpr_at_fpr", where=lambda r, p=p: r["param"] == p)
        for p in noise_grid
    ]
    acc_seq = [
        1.0 - mean_metric(perturb, "fedmia_ii", "utility_loss", where=lambda r, p=p: r["param"] == p)
        for p in noise_grid
    ]
    assert nonincreasing_with_tolerance(tpr_seq), f"perturb TPR {tpr_seq}"
    assert nonincreasing_with_tolerance(acc_seq), f"perturb accuracy {acc_seq}"

    sparsify = sweep_reports["sparsify_sweep"]
    rate_grid = ["0.0", "0.5", "0.9", "0.99"]
    sp_seq = [
        mean_metric(sparsify, "fedmia_ii", "tpr_at_fpr", where=lambda r, p=p: r["param"] == p)
        for p in rate_grid
    ]
    assert nonincreasing_with_tolerance(sp_seq), f"sparsify TPR {sp_seq}"
    _report(5, f"perturb TPR {[round(v,3) for v in tpr_seq]}, "
               f"accuracy {[round(v,3) for v in acc_seq]}; "
               f"sparsify TPR {[round(v,3) for v in sp_seq]}")


def test_criterion_6_local_epoch_sensitivity(epoch_reports):
    auc_1 = mean_metric(epoch_reports[1], "fedmia_ii")
    auc_9 = mean_metric(epoch_reports[9], "fedmia_ii")
    assert auc_9 >= auc_1 + 0.02
    _report(6, f"mean AUC epochs=9 {auc_9:.3f} vs epochs=1 {auc_1:.3f}")


def test_criterion_7_scale_invariance(baseline_report, default_config):
    report_dir, _ = baseline_report
    run_dir = os.path.join(report_dir, "runs", "none", "seed1")
    trace = fed.load_trace(os.path.join(run_dir, "trace"))
    cohort = hns.load_targets_csv(os.path.join(run_dir, "targets.csv"))
    base = atk.fedmia_scores(trace, cohort.x, cohort.y, 0, "II")
    scaled = atk.fedmia_scores(scaled_updates(trace, 7.3), cohort.x, cohort.y, 0, "II")
    worst = max(float(np.max(np.abs(b - s))) for b, s in zip(base, scaled))
    assert worst <= 1e-9
    deltas = list(default_config.attack.delta_grid)
    deltas += [float(d) for d in RngStream(555).generator().uniform(size=20)]
    for delta in deltas:
        for b, s in zip(atk.decision_sets(*base, delta), atk.decision_sets(*scaled, delta)):
            assert np.array_equal(b, s)
    _report(7, f"max score shift {worst:.2e} after x7.3; decision sets identical "
               f"at {len(deltas)} thresholds")


def test_criterion_8_determinism_and_replay(tmp_path_factory, default_config):
    out_a = str(tmp_path_factory.mktemp("det_a"))
    out_b = str(tmp_path_factory.mktemp("det_b"))
    one_seed = dataclasses.replace(default_config, seeds=(1,))
    hns.run_experiment(one_seed, out_a)
    hns.run_experiment(one_seed, out_b)
    bytes_a = pathlib.Path(out_a, "metrics.csv").read_bytes()
    bytes_b = pathlib.Path(out_b, "metrics.csv").read_bytes()
    assert bytes_a == bytes_b

    trace_dir = os.path.join(out_a, "runs", "none", "seed1", "trace")
    replay_dir = str(tmp_path_factory.mktemp("replay"))
    hns.replay_attack(trace_dir, default_config.attack, replay_dir)
    inline = pathlib.Path(out_a, "runs", "none", "seed1", "attack_scores.csv").read_bytes()
    replayed = pathlib.Path(replay_dir, "attack_scores.csv").read_bytes()
    assert inline == replayed
    _report(8, "rerun metric CSVs byte-identical; replayed scores bit-exact "
               f"({len(inline)} bytes)")


def test_criterion_9_small_cohort_filter_property():
    # 9 non-target values with one arbitrary outlier: nothing can be removed
    # because the max standardized deviation (n-1)/sqrt(n) < 3 for n <= 10
    m9 = MeasurementMatrix(0, 0, np.array([[99.0] + [0.1] * 8 + [5.0]]))
    out9 = estimate_out(m9, 0, "member_high")
    assert len(out9.kept_clients) == 9
    assert out9.mu_out == pytest.approx(5.8 / 9, abs=1e-12)

    # 16 values with the fixture outlier: exactly the outlier goes
    m16 = MeasurementMatrix(0, 0, np.array([[99.0] + [0.0] * 15 + [1.0]]))
    out16 = estimate_out(m16, 0, "member_high")
    assert len(out16.kept_clients) == 15
    assert 16 not in out16.kept_clients
    assert out16.mu_out == 0.0 and out16.v_out == 0.0
    _report(9, "9-value cohort kept all; 16-value cohort removed exactly the outlier")

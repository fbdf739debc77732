import csv
import json
import os

import numpy as np
import pytest

from fedaudit import harness as hns
from fedaudit.errors import ConfigError, IntegrityError


def micro_config_dict(**overrides):
    d = {
        "schema_version": 1,
        "dataset": {
            "kind": "synthetic", "num_classes": 3, "input_dim": 6,
            "per_class": 60, "class_sep": 1.5,
        },
        "partition": {"kind": "iid", "clients": 3, "per_client": 40, "holdout": 40},
        "model": {"kind": "mlp", "hidden_dim": 8, "init_std": 0.1},
        "federation": {"rounds": 2, "local_epochs": 1, "lr": 0.1, "lr_decay": 0.99, "batch_size": 16},
        "attack": {
            "methods": ["fedmia_ii"], "delta_grid": [0.5, 0.9], "fpr_cap": 0.1,
            "target_client": 0, "targets_per_class": 15,
        },
        "sweep": {"defense": "none"},
        "seeds": [1],
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            d[key].update(value)
        else:
            d[key] = value
    return d


def write_config(tmp_path, d, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = hns.ExperimentConfig.from_dict(micro_config_dict())
        again = hns.ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_names_path(self):
        d = micro_config_dict()
        d["dataset"]["colour"] = "blue"
        with pytest.raises(ConfigError, match="dataset.*colour"):
            hns.ExperimentConfig.from_dict(d)

    def test_unknown_top_level_key(self):
        d = micro_config_dict()
        d["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            hns.ExperimentConfig.from_dict(d)

    def test_missing_block(self):
        d = micro_config_dict()
        del d["federation"]
        with pytest.raises(ConfigError, match="federation"):
            hns.ExperimentConfig.from_dict(d)

    def test_bad_schema_version(self):
        d = micro_config_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            hns.ExperimentConfig.from_dict(d)

    def test_unknown_method_rejected(self):
        d = micro_config_dict(attack={"methods": ["fedmia_ii", "shadow"]})
        with pytest.raises(ConfigError, match="shadow"):
            hns.ExperimentConfig.from_dict(d)

    def test_fedmia_needs_three_clients(self):
        d = micro_config_dict(partition={"clients": 2, "per_client": 40, "kind": "iid", "holdout": 40})
        with pytest.raises(ConfigError, match="3 clients"):
            hns.ExperimentConfig.from_dict(d)

    def test_beta_inf_roundtrip(self):
        d = micro_config_dict(partition={"kind": "dirichlet", "clients": 3, "holdout": 40, "beta": "inf"})
        cfg = hns.ExperimentConfig.from_dict(d)
        assert cfg.partition.beta == float("inf")
        assert cfg.to_dict()["partition"]["beta"] == "inf"
        assert hns.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_hash_stable(self):
        a = hns.ExperimentConfig.from_dict(micro_config_dict())
        b = hns.ExperimentConfig.from_dict(micro_config_dict())
        assert hns.config_hash(a) == hns.config_hash(b)
        c = hns.ExperimentConfig.from_dict(micro_config_dict(seeds=[2]))
        assert hns.config_hash(c) != hns.config_hash(a)


class TestSweep:
    def test_three_values_three_points(self):
        sw = hns.SweepConfig.from_dict(
            {"defense": "perturb", "clip_norm": 1.0, "noise_std": [0.0, 0.05, 0.5]}
        )
        points = sw.expand()
        assert [v for v, _ in points] == [0.0, 0.05, 0.5]
        assert all(d.kind == "perturb" and d.clip_norm == 1.0 for _, d in points)

    def test_none_single_point(self):
        points = hns.SweepConfig.from_dict({"defense": "none"}).expand()
        assert len(points) == 1 and points[0][0] is None

    def test_two_axes_rejected(self):
        with pytest.raises(ConfigError, match="one list"):
            hns.SweepConfig.from_dict(
                {"defense": "perturb", "clip_norm": [1.0, 2.0], "noise_std": [0.0, 0.1]}
            )

    def test_wrong_param_for_kind(self):
        with pytest.raises(ConfigError):
            hns.SweepConfig.from_dict({"defense": "sparsify", "bits": 3}).expand()

    def test_augment_params(self):
        sw = hns.SweepConfig.from_dict(
            {"defense": "augment", "flip_h": False, "augment_noise_std": [0.1, 0.3]}
        )
        points = sw.expand()
        assert [d.augment_ops.noise_std for _, d in points] == [0.1, 0.3]


class TestRunExperiment:
    def test_minimal_run_shape(self, tmp_path):
        cfg = hns.ExperimentConfig.from_dict(micro_config_dict())
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        rows = list(csv.DictReader(open(os.path.join(out, "metrics.csv"))))
        assert len(rows) == 1  # one seed, one method, one sweep point
        row = rows[0]
        assert row["method"] == "fedmia_ii"
        assert 0.0 <= float(row["auc"]) <= 1.0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["config_hash"] == hns.config_hash(cfg)
        assert "fedmia_ii" in report["per_method"]

    def test_deterministic_metrics_bytes(self, tmp_path):
        cfg = hns.ExperimentConfig.from_dict(micro_config_dict(seeds=[3]))
        a = hns.run_experiment(cfg, str(tmp_path / "a"))
        b = hns.run_experiment(cfg, str(tmp_path / "b"))
        bytes_a = open(os.path.join(a, "metrics.csv"), "rb").read()
        bytes_b = open(os.path.join(b, "metrics.csv"), "rb").read()
        assert bytes_a == bytes_b
        sa = open(os.path.join(a, "runs", "none", "seed3", "attack_scores.csv"), "rb").read()
        sb = open(os.path.join(b, "runs", "none", "seed3", "attack_scores.csv"), "rb").read()
        assert sa == sb

    def test_sweep_produces_pareto_points_and_hv(self, tmp_path):
        d = micro_config_dict(
            sweep={"defense": "perturb", "clip_norm": 1.0, "noise_std": [0.0, 0.05, 0.5]}
        )
        cfg = hns.ExperimentConfig.from_dict(d)
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        report = json.load(open(os.path.join(out, "report.json")))
        block = report["per_method"]["fedmia_ii"]
        assert len(block["points"]) == 3
        assert isinstance(block["hypervolume"], float)
        rows = list(csv.DictReader(open(os.path.join(out, "metrics.csv"))))
        assert len(rows) == 3

    def test_seed_override(self, tmp_path):
        cfg = hns.ExperimentConfig.from_dict(micro_config_dict(seeds=[1, 2, 3]))
        out = hns.run_experiment(cfg, str(tmp_path / "out"), seed_override=7)
        rows = list(csv.DictReader(open(os.path.join(out, "metrics.csv"))))
        assert [r["seed"] for r in rows] == ["7"]
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["config"]["seeds"] == [7]  # the seeds that ran
        assert hns.main(["plots", out]) == 0

    def test_inclusion_checks_recorded(self, tmp_path):
        cfg = hns.ExperimentConfig.from_dict(micro_config_dict())
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        report = json.load(open(os.path.join(out, "report.json")))
        checks = report["inclusion_checks"]["none::seed1"]["fedmia_ii"]
        assert set(checks) == {"0.5", "0.9"}
        assert all(checks.values())

    def test_parallel_jobs_identical_output(self, tmp_path):
        cfg = hns.ExperimentConfig.from_dict(micro_config_dict(seeds=[1, 2]))
        a = hns.run_experiment(cfg, str(tmp_path / "a"), jobs=1)
        b = hns.run_experiment(cfg, str(tmp_path / "b"), jobs=2)
        assert (
            open(os.path.join(a, "metrics.csv"), "rb").read()
            == open(os.path.join(b, "metrics.csv"), "rb").read()
        )


class TestReplay:
    @pytest.fixture()
    def completed_run(self, tmp_path):
        d = micro_config_dict(
            attack={"methods": ["fedmia_ii", "fedmia_i", "blackbox_loss", "grad_cosine"],
                    "delta_grid": [0.5], "fpr_cap": 0.1, "targets_per_class": 15}
        )
        cfg = hns.ExperimentConfig.from_dict(d)
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        return cfg, out

    def test_replay_bit_exact(self, completed_run, tmp_path):
        cfg, out = completed_run
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        rows = hns.replay_attack(trace_dir, cfg.attack, str(tmp_path / "replay"))
        inline = open(os.path.join(out, "runs", "none", "seed1", "attack_scores.csv"), "rb").read()
        replayed = open(os.path.join(tmp_path, "replay", "attack_scores.csv"), "rb").read()
        assert inline == replayed
        metric_rows = list(csv.DictReader(open(os.path.join(out, "metrics.csv"))))
        for got, want in zip(rows, metric_rows):
            assert got["method"] == want["method"]
            assert repr(got["auc"]) == want["auc"]

    def test_replay_new_delta_grid_same_scores(self, completed_run, tmp_path):
        cfg, out = completed_run
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        ac2 = hns.AttackSuiteConfig.from_dict(
            {**cfg.attack.to_dict(), "delta_grid": [0.25, 0.75]}
        )
        hns.replay_attack(trace_dir, ac2, str(tmp_path / "replay2"))
        inline = open(os.path.join(out, "runs", "none", "seed1", "attack_scores.csv"), "rb").read()
        replayed = open(os.path.join(tmp_path, "replay2", "attack_scores.csv"), "rb").read()
        assert inline == replayed  # scores identical, only decisions differ
        sidecar = json.load(open(os.path.join(tmp_path, "replay2", "attack_rounds.json")))
        assert set(sidecar["inclusion_checks"]["fedmia_ii"]) == {"0.25", "0.75"}

    def test_replay_missing_trace(self, tmp_path):
        with pytest.raises(IntegrityError):
            hns.replay_attack(str(tmp_path / "nope"), hns.AttackSuiteConfig())

    def test_replay_corrupt_trace(self, completed_run, tmp_path):
        cfg, out = completed_run
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        victim = os.path.join(trace_dir, "round_0001_updates.npy")
        data = open(victim, "rb").read()
        open(victim, "wb").write(data[: len(data) // 2])
        with pytest.raises(IntegrityError):
            hns.replay_attack(trace_dir, cfg.attack)


class TestPlots:
    @pytest.fixture()
    def run_with_plots(self, tmp_path):
        d = micro_config_dict(
            attack={"methods": ["fedmia_ii", "blackbox_loss"], "delta_grid": [0.5],
                    "fpr_cap": 0.1, "targets_per_class": 15},
            seeds=[1, 2],
        )
        cfg = hns.ExperimentConfig.from_dict(d)
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        hns.emit_plots(out)
        return cfg, out

    def test_histogram_counts_sum_to_cohort(self, run_with_plots):
        cfg, out = run_with_plots
        rows = list(csv.DictReader(open(os.path.join(out, "plots", "hist_fedmia_ii_none.csv"))))
        total = sum(int(r["count"]) for r in rows)
        assert total == 2 * 2 * 15  # seeds x classes x targets_per_class
        classes = {r["cls"] for r in rows}
        assert classes == {"member", "nonmember"}

    def test_round_curve_has_t_rows_per_method(self, run_with_plots):
        cfg, out = run_with_plots
        rows = list(csv.DictReader(open(os.path.join(out, "plots", "rounds_none.csv"))))
        per_method = {}
        for r in rows:
            per_method.setdefault(r["method"], []).append(int(r["round"]))
        assert set(per_method) == {"fedmia_ii", "blackbox_loss"}
        for rounds in per_method.values():
            assert rounds == list(range(cfg.federation.rounds))

    def test_pareto_sorted(self, run_with_plots):
        _, out = run_with_plots
        rows = list(csv.DictReader(open(os.path.join(out, "plots", "pareto_fedmia_ii.csv"))))
        utils = [float(r["utility_loss"]) for r in rows]
        assert utils == sorted(utils)

    def test_plots_without_report_fails(self, tmp_path):
        with pytest.raises(IntegrityError):
            hns.emit_plots(str(tmp_path))


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config_dict())
        out = str(tmp_path / "cli_out")
        assert hns.main(["run", path, "--out", out]) == 0
        assert hns.main(["report", out]) == 0
        captured = capsys.readouterr().out
        assert "fedmia_ii" in captured

    def test_plots_cli(self, tmp_path):
        path = write_config(tmp_path, micro_config_dict())
        out = str(tmp_path / "cli_out")
        assert hns.main(["run", path, "--out", out]) == 0
        assert hns.main(["plots", out]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        d = micro_config_dict()
        d["dataset"]["colour"] = "blue"
        path = write_config(tmp_path, d)
        assert hns.main(["run", path, "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert hns.main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 2

    def test_integrity_error_exit_code(self, tmp_path):
        ac = tmp_path / "attack.json"
        ac.write_text(json.dumps({"methods": ["fedmia_ii"]}))
        assert hns.main(["replay", str(tmp_path / "ghost"), str(ac)]) == 3

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv(hns.ENV_OUT, str(tmp_path / "env_out"))
        path = write_config(tmp_path, micro_config_dict())
        assert hns.main(["run", path]) == 0
        assert os.path.exists(tmp_path / "env_out" / "metrics.csv")

    def test_replay_cli(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config_dict())
        out = str(tmp_path / "out")
        assert hns.main(["run", path, "--out", out]) == 0
        ac = tmp_path / "attack.json"
        ac.write_text(json.dumps({"methods": ["fedmia_ii"], "fpr_cap": 0.1}))
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        assert hns.main(["replay", trace_dir, str(ac)]) == 0
        assert "fedmia_ii" in capsys.readouterr().out

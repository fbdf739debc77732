import contextlib
import csv
import io
import json
import os
import re
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


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

    @pytest.mark.parametrize("name, digest", [
        ("default", "89c6d5bad003a7641a97ab3e4aa026088f7c92a1d1186ffadb6309b16e5a29da"),
        ("perturb_sweep", "74f197b809b9350bbfe0152a94851feb096acb9e118bd0210ed8777267b92f30"),
        ("quick", "f9f7b32ee1cd7b8b6cbd60e5fceb5fd647ce3eae739142c208b11ad09c1ce7ec"),
        ("sparsify_sweep", "6111664611a3ec603fbd68a42a85cde6854b19e4fb8891dac3cc01a3b7e7a3c8"),
    ])
    def test_shipped_config_hash_pinned(self, name, digest):
        cfg = hns.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
        assert hns.config_hash(cfg) == digest
        assert hns.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_int_stays_int_in_float_field(self):
        d = micro_config_dict(federation={"lr": 1}, sweep={"defense": "perturb", "clip_norm": 1,
                                                            "noise_std": [0, 0.5]})
        cfg = hns.ExperimentConfig.from_dict(d)
        assert cfg.to_dict()["federation"]["lr"] == 1
        assert type(cfg.to_dict()["federation"]["lr"]) is int
        assert [v for v, _ in cfg.sweep.expand()] == [0, 0.5]
        assert hns._param_label(cfg.sweep.expand()[0][0]) == "0"

    def test_model_hidden_dim_defaults_by_kind(self):
        d = micro_config_dict(model={"kind": "linear_softmax"})
        del d["model"]["hidden_dim"]
        assert hns.ExperimentConfig.from_dict(d).model.hidden_dim == 0
        del d["model"]["init_std"]
        d["model"]["kind"] = "mlp"
        assert hns.ExperimentConfig.from_dict(d).to_dict()["model"] == {
            "kind": "mlp", "hidden_dim": 32, "init_std": 0.1,
        }


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

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="sweep.noise_std"):
            hns.SweepConfig.from_dict({"defense": "perturb", "clip_norm": 1.0, "noise_std": []})

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
            hns.replay_attack(str(tmp_path / "nope"), hns.AttackSuiteConfig(methods=("fedmia_ii",)))

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


NAN, INF = float("nan"), float("inf")
NON_FINITE = [NAN, INF, -INF]

# Every settable config key and the JSON kind it takes. Sweep parameter
# values are scalars or one list, so their wrong values differ.
CONFIG_FIELDS = [
    (("schema_version",), "int"),
    (("seeds",), "int_list"),
    (("dataset", "kind"), "str"),
    (("dataset", "num_classes"), "int"),
    (("dataset", "input_dim"), "int"),
    (("dataset", "per_class"), "int"),
    (("dataset", "class_sep"), "float"),
    (("dataset", "csv_path"), "str"),
    (("dataset", "geometry"), "int_pair"),
    (("partition", "kind"), "str"),
    (("partition", "clients"), "int"),
    (("partition", "per_client"), "int"),
    (("partition", "holdout"), "int"),
    (("partition", "beta"), "beta"),
    (("partition", "nonmember_source"), "str"),
    (("partition", "holdout_fraction"), "float"),
    (("partition", "others_fraction"), "float"),
    (("model", "kind"), "str"),
    (("model", "hidden_dim"), "int"),
    (("model", "init_std"), "float"),
    (("federation", "rounds"), "int"),
    (("federation", "local_epochs"), "int"),
    (("federation", "lr"), "float"),
    (("federation", "lr_decay"), "float"),
    (("federation", "batch_size"), "int"),
    (("attack", "methods"), "str_list"),
    (("attack", "delta_grid"), "float_list"),
    (("attack", "fpr_cap"), "float"),
    (("attack", "target_client"), "int"),
    (("attack", "targets_per_class"), "int"),
    (("attack", "sigma_floor_rel"), "float"),
    (("attack", "leave_one_out"), "bool"),
    (("sweep", "defense"), "str"),
    (("sweep", "clip_norm"), "sweep_float"),
    (("sweep", "bits"), "sweep_int"),
    (("sweep", "augment_noise_std"), "sweep_float"),
    (("sweep", "flip_h"), "sweep_bool"),
]
WRONG_VALUES = {
    "int": ["5", 2.5, 2.0, True, [1], {"n": 1}, *NON_FINITE],
    "float": ["0.1", True, [0.1], {"x": 0.1}, *NON_FINITE],
    "beta": ["1.0", "Infinity", True, [1.0], *NON_FINITE],
    "bool": ["yes", 1, 0.0, [True], NAN],
    "str": [5, 2.5, True, ["x"], NAN],
    "int_pair": [4, "4x4", [2], [2, 2.5], [2, True], [NAN, 2]],
    "str_list": ["fedmia_ii", 5, [5], [NAN]],
    "float_list": [0.5, "0.5", {"a": 0.5}, ["0.5"], [True], *[[v] for v in NON_FINITE]],
    "int_list": [1, "1", [1.5], [True], [NAN], [INF]],
    "sweep_float": ["0.1", True, {"x": 1}, ["0.1"], [True], *NON_FINITE, [NAN]],
    "sweep_int": ["3", 2.5, True, [2.5], [INF], NAN],
    "sweep_bool": ["yes", 1, [1], NAN],
}
TEXT_WRONG = {"int", "float", "beta", "bool", "sweep_float", "sweep_int", "sweep_bool"}


def _wrong_value(kind):
    fixed = st.sampled_from(WRONG_VALUES[kind])
    if kind in TEXT_WRONG:
        return st.one_of(fixed, st.text(max_size=6).filter(lambda t: t != "inf"))
    return fixed


def _wrong_field(fields):
    """(key path, wrong value) for one of ``fields``."""
    return st.sampled_from(fields).flatmap(lambda f: st.tuples(st.just(f[0]), _wrong_value(f[1])))


def _set(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def _main_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = hns.main(argv)
    return rc, err.getvalue()


def _assert_config_error(rc, err, key_path):
    assert rc == 2, err
    assert err.startswith("config error:"), err
    assert key_path in err, err


def _write_text(text):
    """An artifact mangler that overwrites the file with ``text``."""
    def mangle(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return mangle


def _edit_json(edit):
    """An artifact mangler that applies ``edit`` to the parsed JSON in place."""
    def mangle(path):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        edit(obj)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return mangle


class TestExitCodeContract:
    """2 config error (before any training), 3 integrity error."""

    @settings(max_examples=150, deadline=None)
    @given(_wrong_field(CONFIG_FIELDS))
    def test_run_wrong_typed_value_exits_2(self, mutation):
        path, value = mutation
        d = micro_config_dict()
        _set(d, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "config.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(d, fh)
            out = os.path.join(tmp, "out")
            rc, err = _main_captured(["run", cfg, "--out", out])
            _assert_config_error(rc, err, ".".join(path))
            assert not os.path.exists(os.path.join(out, "runs"))

    @settings(max_examples=60, deadline=None)
    @given(_wrong_field([f for f in CONFIG_FIELDS if f[0][0] == "attack"]))
    def test_replay_wrong_typed_value_exits_2(self, mutation):
        path, value = mutation
        attack = micro_config_dict()["attack"]
        attack[path[1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            ac = os.path.join(tmp, "attack.json")
            with open(ac, "w", encoding="utf-8") as fh:
                json.dump(attack, fh)
            out = os.path.join(tmp, "out")
            # The trace does not exist: an accepted config would exit 3.
            rc, err = _main_captured(["replay", os.path.join(tmp, "trace"), ac, "--out", out])
            _assert_config_error(rc, err, ".".join(path))
            assert not os.path.exists(out)

    @pytest.mark.parametrize("path, value, key_path", [
        (("federation", "rounds"), "5", "federation.rounds"),
        (("federation", "rounds"), 2.5, "federation.rounds"),
        (("seeds",), [1.5], "seeds[0]"),
        (("attack", "fpr_cap"), "0.1", "attack.fpr_cap"),
        (("attack", "delta_grid"), 0.5, "attack.delta_grid"),
        (("model", "hidden_dim"), "8", "model.hidden_dim"),
        (("attack", "targets_per_class"), "5", "attack.targets_per_class"),
        (("attack", "target_client"), 0.0, "attack.target_client"),
        (("dataset", "geometry"), 4, "dataset.geometry"),
        (("attack", "leave_one_out"), "yes", "attack.leave_one_out"),
        (("federation", "lr"), NAN, "federation.lr"),
        (("dataset", "per_class"), 0, "dataset.per_class"),
        (("dataset", "class_sep"), -1, "dataset.class_sep"),
        (("partition",), {"kind": "dirichlet", "clients": 3, "beta": 0, "holdout": 60},
         "partition.beta"),
        (("sweep",), {"defense": "augment", "augment_noise_std": -1}, "sweep.augment_noise_std"),
        (("partition",), {"kind": "dirichlet", "clients": 3, "beta": 0.5, "holdout": 400},
         "partition.holdout"),
    ], ids=["rounds_str", "rounds_float", "seed_float", "fpr_cap_str", "delta_grid_scalar",
            "hidden_dim_str", "targets_per_class_str", "target_client_float", "geometry_scalar",
            "leave_one_out_str", "lr_nan", "per_class_zero", "class_sep_negative",
            "dirichlet_beta_zero", "augment_noise_std_negative", "dirichlet_holdout_too_large"])
    def test_quick_config_mistyped_value_exits_2(self, tmp_path, capsys, path, value, key_path):
        with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        _set(d, path, value)
        out = tmp_path / "out"
        assert hns.main(["run", write_config(tmp_path, d), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key_path in err, err
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("overrides", [
        {"partition": {"per_client": 1000}},
        {"dataset": {"kind": "csv", "csv_path": "no_such_dataset.csv"}},
    ], ids=["too_few_samples", "missing_csv"])
    def test_bad_data_input_exits_2_before_training(self, tmp_path, capsys, overrides):
        d = micro_config_dict(**overrides)
        out = tmp_path / "out"
        assert hns.main(["run", write_config(tmp_path, d), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (out / "runs").exists()

    def test_zero_gradient_error_names_run_and_record(self, tmp_path, capsys):
        d = micro_config_dict(federation={"lr": 1000.0}, sweep={"defense": "sparsify", "rate": 0.1})
        assert hns.main(["run", write_config(tmp_path, d), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        for part in ("seed 1", '"kind": "sparsify"', '"rate": 0.1', "sample_id ", "round "):
            assert part in err, err

    def test_diverged_training_exits_4_naming_round_and_client(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        d["federation"]["lr"] = 1e308
        out = tmp_path / "out"
        assert hns.main(["run", write_config(tmp_path, d), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert re.search(r"training diverged in round \d+: client \d+'s upload", err), err
        assert not (out / "runs").exists()

    def test_diverged_training_prints_only_its_error(self, tmp_path):
        with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        d["federation"]["lr"] = 1e308
        argv = ["run", write_config(tmp_path, d), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = _main_captured(argv)
        assert rc == 4, err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert err.startswith("error: training diverged in round ") and err.count("\n") == 1, err

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        cfg = hns.ExperimentConfig.from_dict(micro_config_dict())
        out = hns.run_experiment(cfg, str(tmp_path_factory.mktemp("meta")))
        return os.path.join(out, "runs", "none", "seed1")

    @pytest.mark.parametrize("mangle", [
        lambda m: m["model"].update(extra=1),
        lambda m: m.pop("seed"),
        lambda m: m["defense"].update(colour="blue"),
        lambda m: m["model"].update(kind="cnn"),
    ], ids=["model_extra_key", "missing_seed", "defense_unknown_key", "unknown_model_kind"])
    def test_malformed_trace_meta_exits_3(self, run_dir, tmp_path, capsys, mangle):
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        meta_path = os.path.join(copy, "trace", "trace_meta.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        mangle(meta)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        ac = write_config(tmp_path, {"methods": ["fedmia_ii"]}, "attack.json")
        assert hns.main(["replay", os.path.join(copy, "trace"), ac]) == 3
        assert capsys.readouterr().err.startswith("integrity error:")

    @pytest.mark.parametrize("mangle, line", [
        (lambda rows: rows[1].__setitem__(0, "x"), 2),
        (lambda rows: rows[2].__delitem__(slice(2, None)), 3),
        (lambda rows: rows[2].__setitem__(3, "nan"), 3),
        (lambda rows: rows[1].__setitem__(1, "7"), 2),
    ], ids=["first_id_not_int", "short_row", "nan_feature", "is_member_not_0_or_1"])
    def test_malformed_targets_csv_exits_3(self, run_dir, tmp_path, capsys, mangle, line):
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        path = os.path.join(copy, "targets.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        mangle(rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        ac = write_config(tmp_path, {"methods": ["fedmia_ii"]}, "attack.json")
        assert hns.main(["replay", os.path.join(copy, "trace"), ac]) == 3
        err = capsys.readouterr().err
        assert err.startswith("integrity error:") and f"{path}: line {line}:" in err, err

    @pytest.fixture(scope="class")
    def report_dir(self, tmp_path_factory):
        d = micro_config_dict(attack={"methods": ["fedmia_ii", "grad_norm", "avg_cosine"]})
        return hns.run_experiment(hns.ExperimentConfig.from_dict(d),
                                  str(tmp_path_factory.mktemp("report")))

    @pytest.mark.parametrize("command, artifact, mangle", [
        ("plots", "runs/none/seed1/attack_rounds.json", os.remove),
        ("plots", "runs/none/seed1/attack_rounds.json", _write_text("{")),
        ("plots", "runs/none/seed1/attack_rounds.json", _write_text("{}")),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["fedmia_ii"]["per_round"][0].pop())),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["series"]["cosine_target"].pop())),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["series"]["update_norm_target"].append(1.0))),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["series"].pop("update_norm_target"))),
        ("plots", "report.json", _write_text("not json")),
        ("plots", "report.json", _write_text("{}")),
        ("report", "report.json", _write_text("not json")),
    ], ids=["sidecar_missing", "sidecar_not_json", "sidecar_empty_object",
            "per_round_short_row", "series_missing_record", "update_norm_extra_round",
            "series_key_missing", "plots_report_not_json", "plots_report_empty_object",
            "report_not_json"])
    def test_missing_or_corrupt_artifact_exits_3(self, report_dir, tmp_path, command,
                                                  artifact, mangle):
        copy = str(tmp_path / "report")
        shutil.copytree(report_dir, copy)
        path = os.path.join(copy, *artifact.split("/"))
        mangle(path)
        rc, err = _main_captured([command, copy])
        assert rc == 3, err
        assert err.startswith("integrity error:") and path in err, err


def test_final_scores_are_the_last_round_of_the_curve(tmp_path):
    """Every method but blackbox_loss scores the run and its last round alike."""
    out = str(tmp_path / "out")
    assert hns.main(["run", os.path.join(CONFIG_DIR, "quick.json"), "--out", out]) == 0
    assert hns.main(["plots", out]) == 0
    cfg = hns.load_config(os.path.join(CONFIG_DIR, "quick.json"))
    assert cfg.seeds == (1,)  # a one-seed mean is the run's own AUC
    last = cfg.federation.rounds - 1
    with open(os.path.join(out, "plots", "rounds_none.csv"), encoding="utf-8") as fh:
        curve = {r["method"]: r["auc"] for r in csv.DictReader(fh) if int(r["round"]) == last}
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
        final = {r["method"]: r["auc"] for r in csv.DictReader(fh)}
    methods = [m for m in cfg.attack.methods if m != "blackbox_loss"]
    assert len(methods) == 7
    assert {m: curve[m] for m in methods} == {m: final[m] for m in methods}

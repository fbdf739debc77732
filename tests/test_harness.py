import argparse
import ast
import builtins
import concurrent.futures
import contextlib
import csv
import dataclasses
import errno
import importlib.util
import inspect
import io
import json
import os
import pathlib
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedaudit import attack as atk
from fedaudit import config as fcfg
from fedaudit import data as dat
from fedaudit import errors
from fedaudit import fedsim as fed
from fedaudit import harness as hns
from fedaudit.config import (AUGMENT_KEYS, SWEEP_TYPES, AttackSuiteConfig, DatasetConfig,
                             ExperimentConfig, SweepConfig, config_hash)
from fedaudit.errors import ConfigError, IntegrityError
from fedaudit.schema import FloatOrInf, dump_value, field_types
from helpers import area_loop, best_point_loop, roc_sweep_loop


def _rows(path):
    """The rows of a CSV file as dicts."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


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


def _csv_dataset(tmp_path, rows):
    """A CSV dataset of ``rows`` records, three classes and eight features."""
    g = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{i % 3}," + ",".join(map(repr, g.standard_normal(8).tolist())) + "\n"
                            for i in range(rows)))
    return str(path)


# CSV classes of 1, 1, 3 and 2 records: the class-stratified deal to three clients
# gives them pools of 3, 3 and 1 records.
SHORT_POOL_CSV = "0,1.0\n1,1.0\n2,1.0\n2,2.0\n2,3.0\n3,1.0\n3,2.0\n"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(code, *args, blas="1", limit=None):
    """A fresh interpreter's run of ``code`` (dedented) with ``args``, importing
    fedaudit from ``src``, its stdout a buffered pipe. The BLAS thread variables
    are set to ``blas``, or unset when it is None; ``limit`` is a
    ``(resource, bytes)`` cap on the child."""
    argv, kw = _child(code, args, blas, limit)
    return subprocess.run(argv, **kw, capture_output=True, text=True, timeout=120)


def _child(code, args, blas, limit):
    """The argv and keywords of ``_python``'s child."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("PYTHONUNBUFFERED",)}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if blas is not None:
        env.update(dict.fromkeys(BLAS_VARS, blas))

    def cap():
        if limit is not None:
            import resource
            resource.setrlimit(limit[0], (limit[1], limit[1]))
    return [sys.executable, "-c", textwrap.dedent(code), *args], {"env": env, "preexec_fn": cap}


MAIN = "from fedaudit.harness import main; raise SystemExit(main())"


def _tree_bytes(root):
    """{path relative to ``root``: bytes} of every file under ``root``."""
    return {
        os.path.relpath(os.path.join(d, f), root): pathlib.Path(d, f).read_bytes()
        for d, _, files in os.walk(root) for f in files
    }


CREATED = re.compile(rb'\n  "created_utc": "[^"]*",')


def _untimed(tree):
    """A report directory's ``_tree_bytes`` without report.json's timestamp and the
    manifest entry that hashes it."""
    assert CREATED.search(tree["report.json"])
    tree["report.json"] = CREATED.sub(b"", tree["report.json"])
    listing = json.loads(tree["manifest.json"])
    del listing["files"]["report.json"]
    tree["manifest.json"] = listing
    return tree


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig.from_dict(micro_config_dict())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_names_path(self):
        d = micro_config_dict()
        d["dataset"]["colour"] = "blue"
        with pytest.raises(ConfigError, match="dataset.*colour"):
            ExperimentConfig.from_dict(d)

    def test_unknown_top_level_key(self):
        d = micro_config_dict()
        d["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            ExperimentConfig.from_dict(d)

    def test_missing_block(self):
        d = micro_config_dict()
        del d["federation"]
        with pytest.raises(ConfigError, match="federation"):
            ExperimentConfig.from_dict(d)

    def test_bad_schema_version(self):
        d = micro_config_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_dict(d)

    def test_unknown_method_rejected(self):
        d = micro_config_dict(attack={"methods": ["fedmia_ii", "shadow"]})
        with pytest.raises(ConfigError, match="shadow"):
            ExperimentConfig.from_dict(d)

    def test_fedmia_needs_three_clients(self):
        d = micro_config_dict(partition={"clients": 2, "per_client": 40, "kind": "iid", "holdout": 40})
        with pytest.raises(ConfigError, match="3 clients"):
            ExperimentConfig.from_dict(d)

    def test_beta_inf_roundtrip(self):
        d = micro_config_dict()
        d["partition"] = {"kind": "dirichlet", "clients": 3, "holdout": 40, "beta": "inf"}
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.partition.beta == float("inf")
        assert cfg.to_dict()["partition"]["beta"] == "inf"
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_hash_stable(self):
        a = ExperimentConfig.from_dict(micro_config_dict())
        b = ExperimentConfig.from_dict(micro_config_dict())
        assert config_hash(a) == config_hash(b)
        c = ExperimentConfig.from_dict(micro_config_dict(seeds=[2]))
        assert config_hash(c) != config_hash(a)

    @pytest.mark.parametrize("name, digest", [
        ("default", "89c6d5bad003a7641a97ab3e4aa026088f7c92a1d1186ffadb6309b16e5a29da"),
        ("perturb_sweep", "74f197b809b9350bbfe0152a94851feb096acb9e118bd0210ed8777267b92f30"),
        ("quick", "f9f7b32ee1cd7b8b6cbd60e5fceb5fd647ce3eae739142c208b11ad09c1ce7ec"),
        ("sparsify_sweep", "6111664611a3ec603fbd68a42a85cde6854b19e4fb8891dac3cc01a3b7e7a3c8"),
    ])
    def test_shipped_config_hash_pinned(self, name, digest):
        cfg = hns.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
        assert config_hash(cfg) == digest
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_int_stays_int_in_float_field(self):
        d = micro_config_dict(federation={"lr": 1}, sweep={"defense": "perturb", "clip_norm": 1,
                                                            "noise_std": [0, 0.5]})
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.to_dict()["federation"]["lr"] == 1
        assert type(cfg.to_dict()["federation"]["lr"]) is int
        assert [v for v, _ in cfg.sweep.points] == [0, 0.5]
        assert hns._param_label(cfg.sweep.points[0][0]) == "0"

    def test_federation_block_is_fedconfig_with_its_defaults(self):
        d = micro_config_dict()
        d["federation"] = {"rounds": 2}
        assert ExperimentConfig.from_dict(d).federation == fed.FedConfig(
            rounds=2, local_epochs=3, lr=0.1, lr_decay=0.99, batch_size=32
        )

    def test_model_hidden_dim_defaults_by_kind(self):
        d = micro_config_dict(model={"kind": "linear_softmax"})
        del d["model"]["hidden_dim"]
        assert ExperimentConfig.from_dict(d).model.hidden_dim == 0
        del d["model"]["init_std"]
        d["model"]["kind"] = "mlp"
        assert ExperimentConfig.from_dict(d).to_dict()["model"] == {
            "kind": "mlp", "hidden_dim": 32, "init_std": 0.1,
        }


class TestSweep:
    def test_three_values_three_points(self):
        sw = SweepConfig.from_dict(
            {"defense": "perturb", "clip_norm": 1.0, "noise_std": [0.0, 0.05, 0.5]}
        )
        points = sw.points
        assert [v for v, _ in points] == [0.0, 0.05, 0.5]
        assert all(d.kind == "perturb" and d.clip_norm == 1.0 for _, d in points)

    def test_none_single_point(self):
        points = SweepConfig.from_dict({"defense": "none"}).points
        assert len(points) == 1 and points[0][0] is None

    def test_two_axes_rejected(self):
        with pytest.raises(ConfigError, match="one list"):
            SweepConfig.from_dict(
                {"defense": "perturb", "clip_norm": [1.0, 2.0], "noise_std": [0.0, 0.1]}
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="sweep.noise_std"):
            SweepConfig.from_dict({"defense": "perturb", "clip_norm": 1.0, "noise_std": []})

    def test_each_point_is_built_once(self, monkeypatch):
        built, build = [], fcfg._defense_from_params
        monkeypatch.setattr(fcfg, "_defense_from_params",
                            lambda kind, p: built.append(kind) or build(kind, p))
        cfg = ExperimentConfig.from_dict(micro_config_dict(
            sweep={"defense": "perturb", "clip_norm": 1.0, "noise_std": [0.0, 0.1, 0.2]}))
        assert [v for v, _ in cfg.sweep.points] == [0.0, 0.1, 0.2]
        assert built == ["perturb"] * 3

    def test_wrong_param_for_kind(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"defense": "sparsify", "bits": 3}).points

    def test_augment_params(self):
        sw = SweepConfig.from_dict(
            {"defense": "augment", "flip_h": False, "augment_noise_std": [0.1, 0.3]}
        )
        points = sw.points
        assert [d.augment_ops.noise_std for _, d in points] == [0.1, 0.3]

    def test_negative_augment_noise_names_its_key_once(self):
        with pytest.raises(ConfigError, match=r"^sweep\.augment_noise_std: must be >= 0, "
                                              r"got -1\.0$"):
            SweepConfig.from_dict({"defense": "augment", "augment_noise_std": -1})


class TestRunExperiment:
    def test_minimal_run_shape(self, tmp_path):
        cfg = ExperimentConfig.from_dict(micro_config_dict())
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        rows = _rows(os.path.join(out, "metrics.csv"))
        assert len(rows) == 1  # one seed, one method, one sweep point
        row = rows[0]
        assert row["method"] == "fedmia_ii"
        assert 0.0 <= float(row["auc"]) <= 1.0
        report = _json(os.path.join(out, "report.json"))
        assert report["config_hash"] == config_hash(cfg)
        assert "fedmia_ii" in report["per_method"]

    def test_deterministic_metrics_bytes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(micro_config_dict(seeds=[3]))
        a = hns.run_experiment(cfg, str(tmp_path / "a"))
        b = hns.run_experiment(cfg, str(tmp_path / "b"))
        bytes_a = pathlib.Path(a, "metrics.csv").read_bytes()
        bytes_b = pathlib.Path(b, "metrics.csv").read_bytes()
        assert bytes_a == bytes_b
        sa = pathlib.Path(a, "runs", "none", "seed3", "attack_scores.csv").read_bytes()
        sb = pathlib.Path(b, "runs", "none", "seed3", "attack_scores.csv").read_bytes()
        assert sa == sb

    def test_report_groups_rows_by_point_in_first_seen_order(self):
        cfg = ExperimentConfig.from_dict(
            micro_config_dict(attack={"methods": ["grad_norm", "avg_cosine"]}))

        def row(method, param, seed, auc):
            return {"seed": seed, "method": method, "defense": "sparsify", "param": param,
                    "auc": auc, "tpr_at_fpr": auc / 3, "fpr_cap": 0.01, "achieved_fpr": 0.0,
                    "utility_loss": 0.1 * seed}

        rows = [row("avg_cosine", "0.5", 1, 0.6), row("grad_norm", "0.9", 1, 0.7),
                row("grad_norm", "0.5", 1, 0.8), row("avg_cosine", "0.9", 1, 0.9),
                row("grad_norm", "0.9", 2, 0.5), row("avg_cosine", "0.5", 2, 0.1)]
        per_method = hns._build_report(cfg, rows, {})["per_method"]
        assert list(per_method) == ["grad_norm", "avg_cosine"]
        got = {m: [(p["param"], p["mean_auc"], p["mean_tpr_at_fpr"], p["mean_utility_loss"])
                   for p in block["points"]] for m, block in per_method.items()}
        mean = lambda *v: float(np.mean(v))  # noqa: E731
        assert got == {
            "grad_norm": [("0.9", mean(0.7, 0.5), mean(0.7 / 3, 0.5 / 3), mean(0.1, 0.2)),
                          ("0.5", 0.8, 0.8 / 3, 0.1)],
            "avg_cosine": [("0.5", mean(0.6, 0.1), mean(0.6 / 3, 0.1 / 3), mean(0.1, 0.2)),
                           ("0.9", 0.9, 0.9 / 3, 0.1)],
        }

    def test_sweep_produces_pareto_points_and_hv(self, tmp_path):
        d = micro_config_dict(
            sweep={"defense": "perturb", "clip_norm": 1.0, "noise_std": [0.0, 0.05, 0.5]}
        )
        cfg = ExperimentConfig.from_dict(d)
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        report = _json(os.path.join(out, "report.json"))
        block = report["per_method"]["fedmia_ii"]
        assert len(block["points"]) == 3
        assert isinstance(block["hypervolume"], float)
        rows = _rows(os.path.join(out, "metrics.csv"))
        assert len(rows) == 3

    def test_inclusion_checks_recorded(self, tmp_path):
        cfg = ExperimentConfig.from_dict(micro_config_dict())
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        report = _json(os.path.join(out, "report.json"))
        checks = report["inclusion_checks"]["none::seed1"]["fedmia_ii"]
        assert set(checks) == {"0.5", "0.9"}
        assert all(checks.values())

    def test_parallel_jobs_identical_output(self, tmp_path):
        """Every file of the default and of a 2-worker pool equals --jobs 1's,
        report.json apart from its timestamp (a 1-core default is serial)."""
        cfg = ExperimentConfig.from_dict(micro_config_dict(seeds=[1, 2]))
        trees = []
        for jobs in (1, None, 2):
            tree = _tree_bytes(hns.run_experiment(cfg, str(tmp_path / str(jobs)), jobs=jobs))
            # Per seed 3 run files and 6 trace files, and a manifest in each directory.
            assert len(tree) == 3 + 2 * 11
            trees.append(_untimed(tree))
        assert trees[1] == trees[0]
        assert trees[2] == trees[0]

    @pytest.mark.parametrize("platform, start", [("linux", "fork"), ("darwin", "spawn")])
    @pytest.mark.parametrize("cores, jobs, workers", [(8, None, 3), (2, None, 2), (8, 2, 2)])
    def test_pool_is_forked_on_linux_with_one_worker_per_job_up_to_the_cores(
            self, tmp_path, monkeypatch, cores, jobs, workers, platform, start):
        """Workers are forked on Linux and spawned on any other platform."""
        seen = {}

        class Recorder(ThreadPoolExecutor):
            def __init__(self, max_workers, mp_context):
                seen.update(workers=max_workers, start=mp_context.get_start_method())
                super().__init__(max_workers)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(atk, "_usable_cores", lambda: cores)
        monkeypatch.setattr(sys, "platform", platform)
        cfg = ExperimentConfig.from_dict(micro_config_dict(seeds=[1, 2, 3]))
        hns.run_experiment(cfg, str(tmp_path / "out"), jobs=jobs)
        assert seen == {"workers": workers, "start": start}

    def test_text_buffered_before_a_forked_pool_is_written_once(self, tmp_path):
        """A forked worker inherits the parent's unflushed stdout buffer and writes
        its own copy when it exits, unless the buffer is flushed before the fork."""
        text = "unterminated text before the pool"
        done = _python(f"""
            import json, sys
            from fedaudit import harness as hns
            from fedaudit.config import ExperimentConfig
            sys.stdout.write({text!r})
            hns.run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2], jobs=2)
            """, json.dumps(micro_config_dict(seeds=[1, 2])), str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.count(text) == 1, done.stdout

    def test_pool_forked_with_live_blas_threads_writes_the_serial_bytes(self, tmp_path):
        """With the BLAS variables unset (OpenBLAS runs one thread per core) and
        after a replay whose attack ran its chains on two threads, a forked 2-job
        pool neither hangs nor changes a byte against --jobs 1 in the same
        environment."""
        d = micro_config_dict(seeds=[1, 2], attack={"methods": ["fedmia_ii", "fedmia_i"]})
        done = _python("""
            import json, sys, threading
            from fedaudit import harness as hns
            from fedaudit.config import ExperimentConfig
            cfg, root = ExperimentConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2]
            serial = hns.run_experiment(cfg, root + "/serial", jobs=1)
            hns.replay_attack(serial + "/runs/none/seed1/trace", cfg.attack)
            assert threading.active_count() == 1  # the attack's helper thread is joined
            hns.run_experiment(cfg, root + "/pool", jobs=2)
            """, json.dumps(d), str(tmp_path), blas=None)
        assert done.returncode == 0, done.stderr
        trees = [_untimed(_tree_bytes(tmp_path / name)) for name in ("serial", "pool")]
        assert trees[1] == trees[0]

    def test_pool_pickles_what_it_maps_when_run_single_is_wrapped(self, tmp_path, monkeypatch):
        """A tracer that replaces ``run_single`` with a local wrapper (as
        perfbench's does) leaves the pool a function it can send to a worker."""
        run_single, mapped = hns.run_single, []

        def traced(*args):
            return run_single(*args)

        class Pickling(ThreadPoolExecutor):
            def __init__(self, max_workers, mp_context):
                super().__init__(max_workers)

            def map(self, fn, *iterables):
                mapped.append(pickle.loads(pickle.dumps(fn)))
                return super().map(fn, *iterables)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pickling)
        monkeypatch.setattr(hns, "run_single", traced)
        cfg = ExperimentConfig.from_dict(micro_config_dict(seeds=[1, 2]))
        hns.run_experiment(cfg, str(tmp_path / "out"), jobs=2)
        assert len(mapped) == 1

    @pytest.mark.parametrize("jobs", [None, 4])
    def test_one_job_grid_builds_no_pool(self, tmp_path, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-job grid built a process pool")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = ExperimentConfig.from_dict(micro_config_dict())
        out = hns.run_experiment(cfg, str(tmp_path / "out"), jobs=jobs)
        assert os.path.exists(os.path.join(out, "metrics.csv"))

    @pytest.mark.parametrize("edit, rc, needle", [
        (lambda d, _: d["federation"].update(lr=1e308), 4, "error: training diverged in round "),
        (lambda d, _: d.update(partition={"kind": "dirichlet", "clients": 3, "beta": 0.5,
                                          "holdout": 400}), 2, "config error: partition.holdout"),
        (lambda d, tmp: d.update(dataset={"kind": "csv", "csv_path": _csv_dataset(tmp, 30)},
                                 partition={"kind": "dirichlet", "clients": 3, "beta": 0.5,
                                            "holdout": 400}),
         2, "config error: partition.holdout: holdout 400 >= dataset size 30"),
    ], ids=["diverged", "dirichlet_holdout_too_large", "csv_dirichlet_holdout_too_large"])
    def test_failed_job_in_a_worker_reports_as_serial(self, tmp_path, capfd, edit, rc, needle):
        """Workers write to the same stderr, so capfd sees all of it."""
        with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        d["seeds"] = [1, 2]
        edit(d, tmp_path)
        cfg = write_config(tmp_path, d)
        errs = []
        for name, jobs in (("serial", ["--jobs", "1"]), ("pool", [])):
            out = tmp_path / name
            assert hns.main(["run", cfg, "--out", str(out), *jobs]) == rc
            errs.append(capfd.readouterr().err)
            assert not out.exists()
        assert errs[0].startswith(needle) and errs[0].count("\n") == 1, errs[0]
        assert errs[1] == errs[0]


class TestReplay:
    @pytest.fixture()
    def completed_run(self, tmp_path):
        d = micro_config_dict(
            attack={"methods": ["fedmia_ii", "fedmia_i", "blackbox_loss", "grad_cosine"],
                    "delta_grid": [0.5], "fpr_cap": 0.1, "targets_per_class": 15}
        )
        cfg = ExperimentConfig.from_dict(d)
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        return cfg, out

    def test_replay_bit_exact(self, completed_run, tmp_path):
        cfg, out = completed_run
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        rows = hns.replay_attack(trace_dir, cfg.attack, str(tmp_path / "replay"))
        inline = pathlib.Path(out, "runs", "none", "seed1", "attack_scores.csv").read_bytes()
        replayed = pathlib.Path(tmp_path, "replay", "attack_scores.csv").read_bytes()
        assert inline == replayed
        metric_rows = _rows(os.path.join(out, "metrics.csv"))
        for got, want in zip(rows, metric_rows):
            assert got["method"] == want["method"]
            assert repr(got["auc"]) == want["auc"]

    def test_replay_into_its_run_dir_keeps_the_trace(self, completed_run):
        """``replay --out <run dir>`` replaces only the files it writes, here with
        the same bytes, and adds metrics.csv, to the files and to the manifest."""
        cfg, out = completed_run
        run_dir = os.path.join(out, "runs", "none", "seed1")
        before = _tree_bytes(run_dir)
        hns.replay_attack(os.path.join(run_dir, "trace"), cfg.attack, run_dir)
        after = _tree_bytes(run_dir)
        assert after.pop("metrics.csv").startswith(hns.METRICS_HEADER.encode())
        listed, was = (json.loads(tree.pop("manifest.json"))["files"] for tree in (after, before))
        assert listed.pop("metrics.csv")["size"] > len(hns.METRICS_HEADER)
        assert (after, listed) == (before, was)

    def test_replay_new_delta_grid_same_scores(self, completed_run, tmp_path):
        cfg, out = completed_run
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        ac2 = AttackSuiteConfig.from_dict(
            {**cfg.attack.to_dict(), "delta_grid": [0.25, 0.75]}
        )
        hns.replay_attack(trace_dir, ac2, str(tmp_path / "replay2"))
        with open(os.path.join(out, "runs", "none", "seed1", "attack_scores.csv"), "rb") as fh:
            inline = fh.read()
        with open(os.path.join(tmp_path, "replay2", "attack_scores.csv"), "rb") as fh:
            replayed = fh.read()
        assert inline == replayed  # scores identical, only decisions differ
        with open(os.path.join(tmp_path, "replay2", "attack_rounds.json"), encoding="utf-8") as fh:
            sidecar = json.load(fh)
        assert set(sidecar["inclusion_checks"]["fedmia_ii"]) == {"0.25", "0.75"}

    def test_replay_missing_trace(self, tmp_path):
        with pytest.raises(IntegrityError):
            hns.replay_attack(str(tmp_path / "nope"), AttackSuiteConfig(methods=("fedmia_ii",)))

    def test_replay_corrupt_trace(self, completed_run, tmp_path):
        cfg, out = completed_run
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        victim = pathlib.Path(trace_dir, "round_0001_updates.npy")
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
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
        cfg = ExperimentConfig.from_dict(d)
        out = hns.run_experiment(cfg, str(tmp_path / "out"))
        hns.emit_plots(out)
        return cfg, out

    def test_histogram_counts_sum_to_cohort(self, run_with_plots):
        cfg, out = run_with_plots
        rows = _rows(os.path.join(out, "plots", "hist_fedmia_ii_none.csv"))
        total = sum(int(r["count"]) for r in rows)
        assert total == 2 * 2 * 15  # seeds x classes x targets_per_class
        classes = {r["cls"] for r in rows}
        assert classes == {"member", "nonmember"}

    def test_round_curve_has_t_rows_per_method(self, run_with_plots):
        cfg, out = run_with_plots
        rows = _rows(os.path.join(out, "plots", "rounds_none.csv"))
        per_method = {}
        for r in rows:
            per_method.setdefault(r["method"], []).append(int(r["round"]))
        assert set(per_method) == {"fedmia_ii", "blackbox_loss"}
        for rounds in per_method.values():
            assert rounds == list(range(cfg.federation.rounds))

    def test_pareto_sorted(self, run_with_plots):
        _, out = run_with_plots
        rows = _rows(os.path.join(out, "plots", "pareto_fedmia_ii.csv"))
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

    @pytest.mark.parametrize("env, out", [("env_out", "env_out"), ("", "fedaudit_out")],
                             ids=["set", "empty"])
    def test_env_var_default_out(self, tmp_path, monkeypatch, env, out):
        monkeypatch.setenv(hns.ENV_OUT, env)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, micro_config_dict())
        assert hns.main(["run", path]) == 0
        assert os.path.exists(tmp_path / out / "report.json")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, micro_config_dict(seeds=[1, 2]))
        out = tmp_path / "out"
        assert hns.main(["run", path, "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"config error: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_replay_cli(self, tmp_path, capsys):
        path = write_config(tmp_path, micro_config_dict())
        out = str(tmp_path / "out")
        assert hns.main(["run", path, "--out", out]) == 0
        ac = tmp_path / "attack.json"
        ac.write_text(json.dumps({"methods": ["fedmia_ii"], "fpr_cap": 0.1}))
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        assert hns.main(["replay", trace_dir, str(ac)]) == 0
        assert "fedmia_ii" in capsys.readouterr().out

    @pytest.mark.parametrize("clients, attack, needle", [
        (3, {"methods": ["fedmia_ii"], "target_client": 7},
         "config error: attack.target_client: must be in [0, 3) for 3 clients, got 7\n"),
        (2, {"methods": ["fedmia_i", "avg_cosine"]},
         "config error: attack.methods: fedmia methods need at least 3 clients for a null "
         "estimate, got 2\n"),
    ], ids=["target_client_out_of_range", "fedmia_on_two_clients"])
    def test_replay_attack_block_against_the_trace_exits_2(
            self, tmp_path, capsys, clients, attack, needle):
        """The attack block's rules on the client count hold in replay as in
        run: exit 2 naming the key, before the attack writes anything."""
        d = micro_config_dict(partition={"clients": clients},
                              attack={"methods": ["avg_cosine"]})
        out = str(tmp_path / "out")
        assert hns.main(["run", write_config(tmp_path, d), "--out", out]) == 0
        ac = tmp_path / "attack.json"
        ac.write_text(json.dumps({**d["attack"], **attack}))
        trace_dir = os.path.join(out, "runs", "none", "seed1", "trace")
        capsys.readouterr()
        assert hns.main(["replay", trace_dir, str(ac), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == needle
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("script", ["run_baseline", "run_defense_sweeps"])
    def test_script_returns_a_failed_plots_exit_code(self, tmp_path, monkeypatch, script):
        path = os.path.join(os.path.dirname(__file__), "..", "scripts", f"{script}.py")
        spec = importlib.util.spec_from_file_location(script, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        commands = []

        def fake_main(argv):
            commands.append(argv[0])
            return 3 if argv[0] == "plots" else 0

        monkeypatch.setattr(hns, "main", fake_main)
        monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path)])
        assert module.main() == 3
        assert commands == ["run", "plots"]


NAN, INF = float("nan"), float("inf")
NON_FINITE = [NAN, INF, -INF]

REQUIRED = dataclasses.MISSING  # the default of a required key


def _field_default(f):
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return REQUIRED if f.default is dataclasses.MISSING else f.default


def _config_keys():
    """(key path, annotation, default) of every config key, read off the config classes."""
    keys = []
    for f in dataclasses.fields(ExperimentConfig):
        tp = field_types(ExperimentConfig)[f.name]
        keys.append(((f.name,), tp, _field_default(f)))
        if tp is SweepConfig:  # its keys are the fields of a DefenseConfig and its AugmentOps
            ops = {g.name: g.default for g in dataclasses.fields(dat.AugmentOps)}
            keys += [(("sweep", k), t, REQUIRED if k == "defense" else
                      ops[AUGMENT_KEYS[k]] if k in AUGMENT_KEYS else None)
                     for k, t in SWEEP_TYPES.items()]
        elif dataclasses.is_dataclass(tp):
            keys += [((f.name, g.name), field_types(tp)[g.name], _field_default(g))
                     for g in dataclasses.fields(tp)]
    return keys


VALUE_KINDS = {int: "int", float: "float", FloatOrInf: "beta", bool: "bool", str: "str",
               tuple[int, int]: "int_pair", tuple[str, ...]: "str_list",
               tuple[float, ...]: "float_list", tuple[int, ...]: "int_list"}


def _value_kind(path, tp):
    """The WRONG_VALUES kind of a key. A sweep parameter's value is a scalar or
    one list of them, so its wrong values differ."""
    args = typing.get_args(tp)
    if type(None) in args:
        (tp,) = [a for a in args if a is not type(None)]
    kind = VALUE_KINDS[tp]
    return f"sweep_{kind}" if path[0] == "sweep" and path != ("sweep", "defense") else kind


# Every settable config key and the JSON kind it takes.
CONFIG_FIELDS = [(path, _value_kind(path, tp)) for path, tp, _ in _config_keys()
                 if not dataclasses.is_dataclass(tp)]


def _readme_config_table():
    """{(block, key): default cell} of README's config table; block "" is the top level."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| block | key | type | default |\n|---|---|---|---|\n")[1]
    rows, block = {}, None
    for line in table.split("\n\n")[0].splitlines():
        block_cell, key_cell, _, default = [c.strip() for c in line.strip("|").split("|")]
        if block_cell:
            block = "" if block_cell == "top level" else block_cell.strip("`")
        for key in re.findall(r"`([^`]+)`", key_cell):
            assert (block, key) not in rows, f"{block}.{key} is listed twice"
            rows[(block, key)] = default
    return rows


def _documented_default(cell):
    """The default a README cell states: its text up to a ';' or ' (', read as
    JSON or else as a bare string; "required" is REQUIRED."""
    head = re.split(r";| \(", cell, maxsplit=1)[0].strip("` ")
    if head == "required":
        return REQUIRED
    try:
        return json.loads(head)
    except json.JSONDecodeError:
        return head


def test_readme_config_table_matches_the_config_classes():
    documented = {key: _documented_default(cell) for key, cell in _readme_config_table().items()}
    assert documented == {
        ("" if len(path) == 1 else path[0], path[-1]):
            default if default is REQUIRED else dump_value(default)
        for path, _, default in _config_keys()
    }


def _readme_section(heading):
    """README's text under ``heading`` up to the next section."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_block(heading):
    """The first fenced block of README's section ``heading``."""
    return _readme_section(heading).split("```\n")[1]


def test_readme_synopsis_is_the_parser():
    """Each synopsis line lists a subcommand's positionals, in order, and its options."""
    documented = {}
    for line in _readme_block("## CLI").splitlines():
        prog, command, *args = line.split()
        assert prog == "fedaudit" and command not in documented, line
        documented[command] = ([re.sub(r"\.json$", "", a.strip("<>")) for a in args
                                if a.startswith("<")], sorted(re.findall(r"\[(--[\w-]+)", line)))
    (sub,) = [a for a in hns._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert documented == {
        command: ([a.dest for a in p._actions if not a.option_strings],
                  sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")))
        for command, p in sub.choices.items()}


def test_readme_exit_codes_are_mains():
    """README's exit-code list holds each code ``main`` returns, each class an ``except``
    of ``main`` names with the code it returns, and each class of ``fedaudit.errors``
    with the code of the first ``except`` that catches it."""
    documented = [(int(code), re.findall(r"`(\w+)`", classes)) for code, classes
                  in re.findall(r"^- (\d+)([^:]*):", _readme_section("## CLI"), re.M)]
    tree = ast.parse(inspect.getsource(hns.main))
    returned = {n.value.value for n in ast.walk(tree) if isinstance(n, ast.Return)}
    handlers = []  # (classes, code) of each except clause, in order
    for h in (n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)):
        names = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
        (code,) = [n.value.value for n in ast.walk(h) if isinstance(n, ast.Return)]
        handlers.append((tuple(vars(hns).get(n.id) or getattr(builtins, n.id) for n in names),
                         code))
    codes = {c.__name__: code for classes, code in handlers for c in classes}
    for c in vars(errors).values():
        if isinstance(c, type) and c.__module__ == errors.__name__:
            codes[c.__name__] = next(code for classes, code in handlers if issubclass(c, classes))
    assert {code for code, _ in documented} == returned
    assert {name: code for code, names in documented for name in names} == codes
    assert sum(len(names) for _, names in documented) == len(codes)  # each listed once


# What each placeholder of README's artifact tree stands for; "[...]" is optional.
TREE_PLACEHOLDERS = {
    "<N>": r"\d+", "TTTT": r"\d{4}", "<param>": r"[^/]+", "[": "(?:", "]": ")?",
    "<method>": f"(?:{'|'.join(atk.ALL_METHODS)})",
    "<defense>": f"(?:{'|'.join(fed.DEFENSE_PARAMS)})",
}


def _readme_tree():
    """{root: [(pattern, regex)]} of README's artifact tree: each file, and each
    directory with a trailing slash, by its path under its root. A line indented
    more than one level past the entry above it continues that entry's text."""
    tree, names, last = {}, [], 0
    for line in _readme_block("## Artifacts").splitlines():
        indent = len(line) - len(line.lstrip())
        if indent > last + 2:
            continue
        last, name = indent, line.split()[0]
        if indent == 0:
            names = tree[name.rstrip("/")] = []
            parents = []
            continue
        del parents[indent // 2 - 1:]
        steps = re.findall(r"[^/]+/?", name)
        names += ["".join(parents + steps[:i + 1]) for i in range(len(steps))]
        parents.append(name)
    split = "(" + "|".join(map(re.escape, TREE_PLACEHOLDERS)) + ")"
    return {root: [(p, re.compile("".join(TREE_PLACEHOLDERS.get(t, re.escape(t))
                                          for t in re.split(split, p)))) for p in patterns]
            for root, patterns in tree.items()}


def _written(root):
    """Every file, and every directory with a trailing slash, under ``root``."""
    paths = []
    for d, dirs, files in os.walk(root):
        rel = os.path.relpath(d, root).replace(os.sep, "/")
        prefix = "" if rel == "." else rel + "/"
        paths += [prefix + name + "/" for name in dirs] + [prefix + name for name in files]
    return paths


def test_readme_artifact_tree_is_what_the_cli_writes(tmp_path):
    """``run``, ``plots`` and ``replay --out`` of a copy of quick.json with a sweep
    point write a file or directory for each entry of the tree, and nothing else."""
    with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
        d = json.load(fh)
    d["sweep"] = {"defense": "sparsify", "rate": [0.5]}
    roots = {"report_dir": str(tmp_path / "report"), "replay_dir": str(tmp_path / "replay")}
    attack = write_config(tmp_path, d["attack"], "attack.json")
    trace = os.path.join(roots["report_dir"], "runs", "sparsify_0.5", "seed1", "trace")
    for argv in (["run", write_config(tmp_path, d), "--out", roots["report_dir"]],
                 ["plots", roots["report_dir"]],
                 ["replay", trace, attack, "--out", roots["replay_dir"]]):
        assert _main_captured(argv) == (0, "")
    tree = _readme_tree()
    assert tree.keys() == roots.keys()
    for root, entries in tree.items():
        written = _written(roots[root])
        assert [w for w in written if not any(r.fullmatch(w) for _, r in entries)] == []
        assert [p for p, r in entries if not any(map(r.fullmatch, written))] == []


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
    """An artifact mangler that overwrites the file with ``text`` (str or bytes)."""
    def mangle(path):
        with open(path, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
    return mangle


def _mismatch(path):
    """The stderr of a command that read ``path`` after it was edited."""
    manifest = os.path.join(os.path.dirname(path), "manifest.json")
    return (f"integrity error: corrupt file {path}: its bytes do not match those listed "
            f"in {manifest}\n")


def _edit_json(edit):
    """An artifact mangler that applies ``edit`` to the parsed JSON in place."""
    def mangle(path):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        edit(obj)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return mangle


def _edit_csv(edit):
    """An artifact mangler that applies ``edit`` to the list of CSV rows in place."""
    def mangle(path):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return mangle


def _swap_first_member_and_nonmember(rows):
    j = next(i for i, r in enumerate(rows) if r[2] == "0")
    rows[1], rows[j] = rows[j], rows[1]


RUN_ENTRIES = ["attack_rounds.json", "attack_scores.csv", "manifest.json", "targets.csv", "trace"]
_TRIALS = np.random.default_rng(22)
# Caps from below the smallest trace file (4.8 kB) to above the sidecar (42 kB),
# and kills from interpreter start-up into the run, which ends after 0.3-0.5 s.
INTERRUPTIONS = ([("file_size", int(c)) for c in _TRIALS.integers(1_000, 50_000, 5)]
                 + [("kill", round(float(t), 3)) for t in _TRIALS.uniform(0.05, 0.4, 5)])


class TestInterruptedRuns:
    """A run directory appears whole, once its attack has run, or not at all."""

    @pytest.fixture(scope="class")
    def quick2(self, tmp_path_factory):
        """A 2-seed quick.json and its uninterrupted --out."""
        tmp = tmp_path_factory.mktemp("quick2")
        with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        d["seeds"] = [1, 2]
        cfg = write_config(tmp, d)
        with contextlib.redirect_stdout(io.StringIO()):
            assert hns.main(["run", cfg, "--out", str(tmp / "ref"), "--jobs", "1"]) == 0
        return d, cfg, str(tmp / "ref")

    @pytest.mark.parametrize("into", ["new", "existing"])
    @pytest.mark.parametrize("how, value", INTERRUPTIONS, ids=[f"{h}-{v}" for h, v in INTERRUPTIONS])
    def test_interrupted_run_leaves_only_whole_run_dirs(self, tmp_path, quick2, how, value, into):
        """Under a file-size cap (the child's ``preexec_fn``) or a SIGKILL of the
        child and its workers, every run directory left is the uninterrupted
        one, byte for byte, and replays to its own attack artifacts. A rerun
        into an existing --out keeps every run directory and each of its
        entries whole; a kill may leave a ``.partial-<pid>`` inside one."""
        import resource
        import signal
        d, cfg, ref = quick2
        out = str(tmp_path / "out")
        if into == "existing":
            shutil.copytree(ref, out)
        limit = (resource.RLIMIT_FSIZE, value) if how == "file_size" else None
        argv, kw = _child(MAIN, ("run", cfg, "--out", out), "1", limit)
        with subprocess.Popen(argv, **kw, start_new_session=True, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
            try:
                err = proc.communicate(timeout=value if how == "kill" else 120)[1]
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):  # the group has ended
                    os.killpg(proc.pid, signal.SIGKILL)
                err = proc.communicate(timeout=60)[1]
        if how == "file_size":
            assert proc.returncode in (0, 4), err
            assert proc.returncode == 0 or re.fullmatch(
                rf"error: .*: '{re.escape(out)}/runs/none/seed[12]/[^/]+'\n", err), err
        ac = AttackSuiteConfig.from_dict(d["attack"], "attack")
        run_dirs = [r for r in pathlib.Path(out).glob("runs/*/seed*") if ".partial-" not in r.name]
        if into == "existing":
            assert sorted(r.name for r in run_dirs) == ["seed1", "seed2"]
            assert (pathlib.Path(out, "metrics.csv").read_bytes()
                    == pathlib.Path(ref, "metrics.csv").read_bytes())
        for run_dir in run_dirs:
            stray = [n for n in os.listdir(run_dir) if n.startswith(".partial-")]
            assert into == "existing" or not stray
            assert sorted(set(os.listdir(run_dir)) - set(stray)) == RUN_ENTRIES
            assert ({k: v for k, v in _tree_bytes(run_dir).items() if not k.startswith(".partial-")}
                    == _tree_bytes(os.path.join(ref, "runs", "none", run_dir.name)))
            replay = str(tmp_path / f"replay_{run_dir.name}")
            hns.replay_attack(str(run_dir / "trace"), ac, replay)
            for name in ("attack_scores.csv", "attack_rounds.json"):
                assert (run_dir / name).read_bytes() == pathlib.Path(replay, name).read_bytes()

    def test_failed_grid_leaves_no_out(self, tmp_path, quick2, capfd):
        """With ``federation.lr`` 1e3 both jobs fail in the attack (a zero
        gradient): exit 4, and neither job's trace is written."""
        d, _, _ = quick2
        d = json.loads(json.dumps(d))
        d["federation"]["lr"] = 1e3
        out = str(tmp_path / "out")
        assert hns.main(["run", write_config(tmp_path, d), "--out", out]) == 4
        assert "target record has zero gradient" in capfd.readouterr().err
        assert not os.path.exists(out)


class TestExitCodeContract:
    """2 config error (before any training), 3 integrity error, 4 a failed environment."""

    def test_out_under_a_regular_file_exits_4_naming_it(self, tmp_path, capfd):
        """``run``, whose job fails alike in a forked worker and in this process,
        and ``replay``."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, micro_config_dict(seeds=[1, 2]))
        not_a_dir = f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}"
        for jobs in ([], ["--jobs", "1"]):
            assert hns.main(["run", cfg, "--out", str(blocker / "out"), *jobs]) == 4
            assert capfd.readouterr().err == f"{not_a_dir}: '{blocker / 'out'}'\n"
        run = str(tmp_path / "run")
        assert hns.main(["run", cfg, "--out", run]) == 0
        ac = tmp_path / "attack.json"
        ac.write_text(json.dumps(micro_config_dict()["attack"]))
        trace = os.path.join(run, "runs", "none", "seed1", "trace")
        capfd.readouterr()
        assert hns.main(["replay", trace, str(ac), "--out", str(blocker / "r")]) == 4
        assert capfd.readouterr().err == f"{not_a_dir}: '{blocker / 'r'}'\n"
        assert sorted(os.listdir(tmp_path)) == ["attack.json", "config.json", "file", "run"]

    @pytest.mark.parametrize("limit, edit, needle", [
        # A synthetic dataset of 5.72 GiB under a 1 GiB address space: the
        # allocation fails at once, and nothing near that size is committed.
        ("RLIMIT_AS", lambda d: d["dataset"].update(per_class=4_000_000, input_dim=64),
         "error: out of memory: Unable to allocate 5.72 GiB"),
        # Files of at most 20 kB: the run's 23 kB attack_scores.csv fails, named
        # under --out (written as <out>), not under its staging sibling.
        ("RLIMIT_FSIZE", lambda d: None, f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
         f": '{os.path.join('<out>', 'runs', 'none', 'seed1', 'attack_scores.csv')}'\n"),
    ], ids=["memory", "file_size"])
    def test_resource_limit_exits_4_in_a_worker_as_in_serial(self, tmp_path, limit, edit, needle):
        """The child's own limit, set in its ``preexec_fn``, fails a job alike in a
        forked worker and in the calling process: one line on stderr, exit 4, the
        same but for the --out directory it names."""
        import resource
        with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        d["seeds"] = [1, 2]
        edit(d)
        cfg = write_config(tmp_path, d)
        cap = (getattr(resource, limit), (1 << 30) if limit == "RLIMIT_AS" else 20_000)
        errs = []
        for name, jobs in (("serial", ["--jobs", "1"]), ("pool", [])):
            out = str(tmp_path / name / "out")
            done = _python(MAIN, "run", cfg, "--out", out, *jobs, limit=cap)
            assert done.returncode == 4, done.stderr
            assert not os.path.exists(tmp_path / name)  # nor the directories made for it
            errs.append(done.stderr.replace(out, "<out>"))
        assert errs[0].startswith(needle) and errs[0].count("\n") == 1, errs[0]
        assert errs[1] == errs[0]

    def test_replay_under_a_file_size_limit_leaves_no_out(self, tmp_path):
        """A replay whose files exceed the child's 1 000-byte file limit exits 4 and
        removes the missing parent it made for --out."""
        import resource
        run = str(tmp_path / "run")
        assert hns.main(["run", write_config(tmp_path, micro_config_dict()), "--out", run]) == 0
        ac = tmp_path / "attack.json"
        ac.write_text(json.dumps(micro_config_dict()["attack"]))
        trace = os.path.join(run, "runs", "none", "seed1", "trace")
        out = str(tmp_path / "made" / "replay")
        done = _python(MAIN, "replay", trace, str(ac), "--out", out,
                       limit=(resource.RLIMIT_FSIZE, 1_000))
        assert done.returncode == 4, done.stderr
        assert done.stderr.startswith(f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
                                      f": '{out}{os.sep}"), done.stderr
        assert sorted(os.listdir(tmp_path)) == ["attack.json", "config.json", "run"]

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
        (("federation", "rounds"), 0, "federation.rounds"),
        (("federation", "batch_size"), 0, "federation.batch_size"),
        (("model", "kind"), "cnn", "model.kind"),
        (("model",), {"kind": "linear_softmax", "hidden_dim": 16}, "model.hidden_dim"),
        (("sweep",), {"defense": "none", "rate": 0.5}, "sweep.rate"),
        (("sweep",), {"defense": "perturb", "clip_norm": 1.0}, "sweep.noise_std"),
        (("sweep",), {"defense": "augment", "flip_h": [False, True]}, "sweep.flip_h"),
        (("attack", "sigma_floor_rel"), 0, "attack.sigma_floor_rel"),
        (("attack", "sigma_floor_rel"), -1, "attack.sigma_floor_rel"),
        (("dataset", "num_classes"), 1, "dataset.num_classes"),
        (("partition", "clients"), 1, "partition.clients"),
        (("dataset", "geometry"), [-2, -4], "dataset.geometry"),
        (("dataset", "geometry"), [2, 3], "dataset.geometry"),
        (("partition",), {"kind": "iid", "clients": 3, "per_client": 60, "holdout": 60,
                          "nonmember_source": "holdout+others", "holdout_fraction": 0},
         "partition.holdout_fraction"),
        (("partition", "holdout_fraction"), -5, "partition.holdout_fraction"),
        (("partition", "others_fraction"), 1.5, "partition.others_fraction"),
        (("dataset", "num_classes"), 2, "partition.per_client"),
        (("partition",), {"kind": "dirichlet", "clients": 3, "beta": "inf", "holdout": 298},
         "partition.holdout"),
        # The draw leaves client 0 without a record; only the job can see it.
        (("partition",), {"kind": "dirichlet", "clients": 20, "beta": 0.001, "holdout": 60},
         "partition.beta"),
        (("partition", "beta"), 0.5, "partition.beta"),
        (("partition",), {"kind": "dirichlet", "clients": 3, "beta": 0.5, "holdout": 60,
                          "per_client": 999}, "partition.per_client"),
        (("dataset", "csv_path"), "data.csv", "dataset.csv_path"),
        (("dataset", "input_dim"), 0, "dataset.input_dim"),
        (("partition", "per_client"), 0, "partition.per_client"),
        (("partition", "holdout"), 0, "partition.holdout"),
        (("partition", "nonmember_source"), "everything", "partition.nonmember_source"),
        (("attack", "target_client"), 3, "attack.target_client"),
        (("sweep",), {"defense": "mixup", "alpha": 0}, "sweep.alpha"),
        (("sweep",), {"defense": "sample", "portion": 0}, "sweep.portion"),
        (("sweep",), {"defense": "sample", "portion": 1.1}, "sweep.portion"),
        (("attack", "fpr_cap"), 1.0, "attack.fpr_cap"),
        # A list that names a set holds each value once.
        (("attack", "methods"), ["fedmia_ii", "fedmia_ii", "grad_norm"], "attack.methods"),
        (("seeds",), [1, 1], "seeds"),
        (("sweep",), {"defense": "quantize", "bits": [2, 2]}, "sweep.bits"),
        (("attack", "delta_grid"), [0.5, 0.5], "attack.delta_grid"),
        (("attack", "delta_grid"), [], "attack.delta_grid"),
        # The fedmia scores lie in [0, 1]: a threshold outside (0, 1) decides nothing.
        (("attack", "delta_grid"), [0.5, 1.5], "attack.delta_grid[1]"),
    ], ids=["rounds_str", "rounds_float", "seed_float", "fpr_cap_str", "delta_grid_scalar",
            "hidden_dim_str", "targets_per_class_str", "target_client_float", "geometry_scalar",
            "leave_one_out_str", "lr_nan", "per_class_zero", "class_sep_negative",
            "dirichlet_beta_zero", "augment_noise_std_negative", "dirichlet_holdout_too_large",
            "rounds_zero", "batch_size_zero", "unknown_model_kind", "linear_softmax_hidden_dim",
            "none_with_rate", "perturb_without_noise_std", "flip_h_without_geometry",
            "sigma_floor_rel_zero", "sigma_floor_rel_negative", "one_class", "one_client",
            "geometry_negative", "geometry_not_input_dim", "holdout_fraction_zero",
            "holdout_fraction_negative_unused", "others_fraction_above_one",
            "iid_partition_too_large", "dirichlet_inf_holdout_leaves_too_few",
            "dirichlet_client_left_empty", "iid_with_beta", "dirichlet_with_per_client",
            "synthetic_with_csv_path", "input_dim_zero", "per_client_zero", "holdout_zero",
            "unknown_nonmember_source", "target_client_is_clients", "mixup_alpha_zero",
            "sample_portion_zero", "sample_portion_above_one", "fpr_cap_one",
            "methods_repeated", "seeds_repeated", "sweep_value_repeated", "delta_grid_repeated",
            "delta_grid_empty", "delta_grid_outside_unit_interval"])
    def test_quick_config_mistyped_value_exits_2(self, tmp_path, capsys, path, value, key_path):
        with open(os.path.join(CONFIG_DIR, "quick.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        _set(d, path, value)
        out = tmp_path / "out"
        assert hns.main(["run", write_config(tmp_path, d), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key_path}: "), err
        assert not out.exists()  # checked at load, before --out is made

    @pytest.mark.parametrize("overrides, csv_text, needle", [
        ({"partition": {"kind": "iid", "clients": 3, "per_client": 1000, "holdout": 40}}, None,
         "partition.per_client: "),
        ({"dataset": {"kind": "csv", "csv_path": "no_such_dataset.csv"}}, None,
         "dataset.csv_path: cannot read no_such_dataset.csv"),
        ({"dataset": {"kind": "csv"}}, "", "dataset.csv_path: {path}: empty dataset file"),
        ({"dataset": {"kind": "csv"}}, "0,1.0,2.0\n1,oops,2.0\n",
         "dataset.csv_path: {path}: line 2: non-numeric feature value"),
        ({"dataset": {"kind": "csv", "input_dim": 6}}, "0,1.0,2.0\n1,3.0,2.0\n",
         "dataset.input_dim: not a parameter of dataset 'csv'"),
        ({"dataset": {"kind": "csv", "per_class": 60}}, "0,1.0,2.0\n1,3.0,2.0\n",
         "dataset.per_class: not a parameter of dataset 'csv'"),
        ({"dataset": {"kind": "csv", "class_sep": 1.5}}, "0,1.0,2.0\n1,3.0,2.0\n",
         "dataset.class_sep: not a parameter of dataset 'csv'"),
        ({"dataset": {"kind": "csv"}}, b"0,1.0,2.0\n1,3.0,2.0\xff\n",
         "dataset.csv_path: {path}: line 2: non-numeric feature value"),
        ({"dataset": {"kind": "csv"}}, "0,1.0,2.0\n" + "9" * 30 + ",3.0,2.0\n",
         "dataset.csv_path: {path}: line 2: label " + "9" * 30 + " is not below the row count 2"),
        ({"dataset": {"kind": "csv"}}, "0,1.0,2.0\n4,3.0,2.0\n1,3.0,2.0\n4,3.0,2.0\n",
         "dataset.csv_path: {path}: line 2: label 4 is not below the row count 4"),
        ({"dataset": {"kind": "csv", "num_classes": 100000000}}, "0,1.0,2.0\n1,3.0,2.0\n",
         "dataset.csv_path: {path}: dataset.num_classes 100000000 is above the row count 2"),
        ({"dataset": {"kind": "csv"}}, "0,1.0,2.0\n1,3.0,2.0\n",
         "partition.per_client: need 160 samples, have 2"),
        ({"dataset": {"kind": "csv"}, "partition": {"kind": "iid", "clients": 3, "per_client": 2,
                                                    "holdout": 1}}, SHORT_POOL_CSV,
         "partition.per_client: client pool of 1 cannot supply per_client=2"),
        ({"dataset": {"kind": "csv"}, "partition": {"kind": "dirichlet", "clients": 3,
                                                    "beta": "inf", "holdout": 1}}, SHORT_POOL_CSV,
         "partition.holdout: client pool of 1 cannot supply per_client=2"),
        ({"dataset": {"kind": "csv"}}, "0,1.0,2.0\n0,3.0,2.0\n",
         "dataset.csv_path: {path}: every label is 0: a dataset needs at least 2 classes"),
        ({"dataset": {"kind": "csv"}}, "0,1.0,2.0\n1,nan,2.0\n",
         "dataset.csv_path: {path}: line 2: non-finite feature value"),
        ({"dataset": {"kind": "csv"}}, "0,1.0,2.0\n1,3.0,1e999\n",
         "dataset.csv_path: {path}: line 2: non-finite feature value"),
        ({"dataset": {"kind": "csv", "geometry": [2, 3]}}, "0,1.0,2.0,3.0,4.0\n1,3.0,2.0,1.0,0.0\n",
         "dataset.geometry: [2, 3] does not match input_dim 4"),
    ], ids=["too_few_samples", "missing_csv", "empty_csv", "non_numeric_csv",
            "csv_with_input_dim", "csv_with_per_class", "csv_with_class_sep", "csv_not_utf8",
            "csv_label_beyond_int64", "csv_label_at_row_count", "csv_num_classes_above_rows",
            "csv_too_few_samples", "csv_iid_pool_short",
            "csv_inf_pool_short", "csv_one_class", "csv_nan_feature", "csv_inf_feature",
            "csv_geometry_mismatch"])
    def test_bad_data_input_exits_2_before_training(self, tmp_path, capsys, overrides, csv_text,
                                                    needle):
        d = micro_config_dict()
        d.update({k: dict(v) for k, v in overrides.items()})  # a case gives whole blocks
        if csv_text is not None:
            path = tmp_path / "data.csv"
            path.write_bytes(csv_text if isinstance(csv_text, bytes) else csv_text.encode())
            d["dataset"]["csv_path"] = str(path)
            needle = needle.format(path=path)
        out = tmp_path / "out"
        assert hns.main(["run", write_config(tmp_path, d), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {needle}"), err
        assert not out.exists()

    def test_csv_data_takes_num_classes_and_geometry(self):
        dc = DatasetConfig.from_dict(
            {"kind": "csv", "csv_path": "data.csv", "num_classes": 3, "geometry": [2, 4]}, "dataset")
        assert (dc.num_classes, dc.geometry, dc.input_dim) == (3, (2, 4), None)

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
        cfg = ExperimentConfig.from_dict(micro_config_dict())
        out = hns.run_experiment(cfg, str(tmp_path_factory.mktemp("meta")))
        return os.path.join(out, "runs", "none", "seed1")

    @pytest.mark.parametrize("mangle", [
        _edit_json(lambda m: m["model"].update(extra=1)),
        _edit_json(lambda m: m.pop("seed")),
        _edit_json(lambda m: m["defense"].update(colour="blue")),
        _edit_json(lambda m: m["model"].update(kind="cnn")),
        _edit_json(lambda m: m["defense"].update(rate=0.5)),
        _write_text(b"\xff\xfe"),
        _write_text("[]"),
        _edit_json(lambda m: m.update(schema_version=2)),
        _edit_json(lambda m: m["lr_effective"].pop()),
        _edit_json(lambda m: m.update(num_rounds=0, lr_effective=[], round_accuracy=[])),
        _edit_json(lambda m: m["round_accuracy"].__setitem__(-1, 7.5)),
    ], ids=["model_extra_key", "missing_seed", "defense_unknown_key", "unknown_model_kind",
            "defense_stray_parameter", "not_utf8", "a_list", "schema_version_2",
            "lr_schedule_short", "no_rounds", "accuracy_above_1"])
    def test_malformed_trace_meta_exits_3(self, run_dir, tmp_path, capsys, mangle):
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        path = os.path.join(copy, "trace", "trace_meta.json")
        mangle(path)
        ac = write_config(tmp_path, {"methods": ["fedmia_ii"]}, "attack.json")
        assert hns.main(["replay", os.path.join(copy, "trace"), ac]) == 3
        err = capsys.readouterr().err
        assert err.startswith("integrity error:") and path in err, err

    def test_broken_fedavg_chain_exits_3(self, run_dir, tmp_path, capsys):
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        _edit_json(lambda m: m["lr_effective"].__setitem__(1, 1.5 * m["lr_effective"][1]))(
            os.path.join(copy, "trace", "trace_meta.json"))
        ac = write_config(tmp_path, {"methods": ["fedmia_ii"]}, "attack.json")
        assert hns.main(["replay", os.path.join(copy, "trace"), ac]) == 3
        err = capsys.readouterr().err
        assert err == _mismatch(os.path.join(copy, "trace", "trace_meta.json")), err

    @pytest.mark.parametrize("mangle", [
        lambda rows: rows[1].__setitem__(0, "x"),
        lambda rows: rows[2].__delitem__(slice(2, None)),
        lambda rows: rows[2].__setitem__(3, "nan"),
        lambda rows: rows[1].__setitem__(1, "7"),
        lambda rows: rows[2].__setitem__(4, rows[2][4] + "\udcff"),
        lambda rows: rows[3].__setitem__(0, "9" * 30),
    ], ids=["first_id_not_int", "short_row", "nan_feature", "is_member_not_0_or_1",
            "feature_not_utf8", "id_too_large_for_int64"])
    def test_malformed_targets_csv_exits_3(self, run_dir, tmp_path, capsys, mangle):
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        path = os.path.join(copy, "targets.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        mangle(rows)
        # surrogateescape writes a lone surrogate as the raw byte it stands for
        with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            csv.writer(fh).writerows(rows)
        ac = write_config(tmp_path, {"methods": ["fedmia_ii"]}, "attack.json")
        assert hns.main(["replay", os.path.join(copy, "trace"), ac]) == 3
        assert capsys.readouterr().err == _mismatch(path)

    @pytest.mark.parametrize("mangle", [
        lambda rows: [row.__setitem__(1, "1") for row in rows[1:]],
        lambda rows: [row.__setitem__(1, "0") for row in rows[1:]],
        lambda rows: rows.__delitem__(slice(1, None)),
    ], ids=["all_members", "no_members", "no_rows"])
    def test_targets_csv_without_both_classes_exits_3(self, run_dir, tmp_path, capsys, mangle):
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy)
        path = os.path.join(copy, "targets.csv")
        _edit_csv(mangle)(path)
        ac = write_config(tmp_path, {"methods": ["fedmia_ii"]}, "attack.json")
        assert hns.main(["replay", os.path.join(copy, "trace"), ac]) == 3
        assert capsys.readouterr().err == _mismatch(path)

    def test_targets_csv_feature_count_differs_exits_3(self, run_dir, tmp_path, capsys):
        """Each file matches its manifest, but the trace is another run's, whose
        model takes 5 features: the one check between two inputs that stays."""
        cfg = ExperimentConfig.from_dict(micro_config_dict(dataset={"input_dim": 5}))
        other = hns.run_experiment(cfg, str(tmp_path / "other"))
        copy = str(tmp_path / "run")
        shutil.copytree(run_dir, copy, ignore=shutil.ignore_patterns("trace"))
        shutil.copytree(os.path.join(other, "runs", "none", "seed1", "trace"),
                        os.path.join(copy, "trace"))
        ac = write_config(tmp_path, {"methods": ["fedmia_ii"]}, "attack.json")
        assert hns.main(["replay", os.path.join(copy, "trace"), ac]) == 3
        err = capsys.readouterr().err
        path = os.path.join(copy, "targets.csv")
        assert err == (f"integrity error: corrupt targets file {path}: 6 features, "
                       f"the trace's model takes 5\n"), err

    @pytest.fixture(scope="class")
    def report_dir(self, tmp_path_factory):
        d = micro_config_dict(attack={"methods": ["fedmia_ii", "grad_norm", "avg_cosine"]})
        return hns.run_experiment(ExperimentConfig.from_dict(d),
                                  str(tmp_path_factory.mktemp("report")))

    SCORES = "runs/none/seed1/attack_scores.csv"

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
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["sample_ids"].__setitem__(0, s["sample_ids"][0] + 0.5))),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["sample_ids"].__setitem__(0, 10**30))),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["fedmia_ii"]["per_round"][0].__setitem__(0, float("nan")))),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["series"]["cosine_target"][1].__setitem__(1, float("-inf")))),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s["series"]["update_norm_target"].__setitem__(0, float("inf")))),
        ("plots", "runs/none/seed1/attack_rounds.json", _edit_json(
            lambda s: s.update(is_member=[True] * len(s["is_member"])))),
        ("plots", "report.json", _write_text("not json")),
        ("plots", "report.json", _write_text("{}")),
        ("report", "report.json", os.remove),
        ("report", "report.json", _write_text("[1, 2]")),
        ("report", "report.json", _write_text("not json")),
        ("report", "report.json", _edit_json(
            lambda r: r["per_method"]["grad_norm"].update(hypervolume="x"))),
        ("report", "report.json", _edit_json(lambda r: r["per_method"].pop("grad_norm"))),
        ("report", "report.json", _edit_json(
            lambda r: r["inclusion_checks"]["none::seed1"]["fedmia_ii"].update({"0.5": 1}))),
        ("report", "report.json", _edit_json(lambda r: r.pop("inclusion_checks"))),
        ("plots", "report.json", _edit_json(
            lambda r: r["per_method"]["fedmia_ii"].update(pareto_front=[["x"]]))),
        ("plots", "report.json", _edit_json(
            lambda r: r["per_method"]["fedmia_ii"].update(pareto_front=[[0.5]]))),
        ("plots", "report.json", _edit_json(lambda r: r["config"].update(seeds="1"))),
        ("plots", SCORES, os.remove),
        ("plots", SCORES, _write_text(b"\xff")),
        ("plots", SCORES, _edit_csv(lambda rows: rows[0].__setitem__(3, "value"))),
        ("plots", SCORES, _edit_csv(lambda rows: rows[1].__setitem__(3, "x"))),
        ("plots", SCORES, _edit_csv(lambda rows: rows[1].__setitem__(3, "nan"))),
        ("plots", SCORES, _edit_csv(lambda rows: rows[1].__setitem__(0, "bogus"))),
        ("plots", SCORES, _edit_csv(lambda rows: rows.pop())),
        ("plots", SCORES, _edit_csv(lambda rows: rows.append(rows[-1]))),
        ("plots", SCORES, _edit_csv(_swap_first_member_and_nonmember)),
        ("plots", SCORES, _edit_csv(lambda rows: rows[1].__setitem__(2, "0"))),
        ("report", "metrics.csv", _edit_csv(lambda rows: rows[0].reverse())),
        ("report", "metrics.csv", _edit_csv(lambda rows: rows[1].__setitem__(4, "zz"))),
        ("report", "metrics.csv", _edit_csv(lambda rows: rows[1].pop())),
    ], ids=["sidecar_missing", "sidecar_not_json", "sidecar_empty_object",
            "per_round_short_row", "series_missing_record", "update_norm_extra_round",
            "series_key_missing", "sample_id_not_int", "sample_id_too_large",
            "per_round_nan", "series_minus_inf", "shared_series_inf", "sidecar_one_class",
            "plots_report_not_json",
            "plots_report_empty_object", "report_missing", "report_a_list", "report_not_json", "hypervolume_not_a_number",
            "per_method_block_missing", "inclusion_check_not_bool", "inclusion_checks_missing",
            "pareto_front_not_numbers", "pareto_front_short_point", "report_config_mistyped",
            "scores_missing",
            "scores_not_utf8", "scores_bad_header", "score_not_a_number", "score_nan",
            "scores_unknown_method", "scores_last_row_missing", "scores_extra_row",
            "scores_rows_swapped", "scores_truth_disagrees", "metrics_bad_header",
            "metrics_auc_not_a_number", "metrics_short_row"])
    def test_missing_or_corrupt_artifact_exits_3(self, report_dir, tmp_path, command,
                                                  artifact, mangle):
        copy = str(tmp_path / "report")
        shutil.copytree(report_dir, copy)
        path = os.path.join(copy, *artifact.split("/"))
        mangle(path)
        rc, err = _main_captured([command, copy])
        assert rc == 3, err
        assert err.startswith("integrity error:") and path in err, err

    @pytest.mark.parametrize("argv, needle", [
        (["report", "{tmp}/nope"], "missing directory {tmp}/nope"),
        (["plots", "{tmp}/nope"], "missing directory {tmp}/nope"),
        (["replay", "{run}", "{tmp}/attack.json"], "missing run artifact: {run}/trace_meta.json"),
    ], ids=["report_of_no_directory", "plots_of_no_directory", "replay_of_the_run_dir"])
    def test_what_is_missing_is_named(self, report_dir, tmp_path, argv, needle):
        (tmp_path / "attack.json").write_text(json.dumps({"methods": ["fedmia_ii"]}))
        names = {"tmp": tmp_path, "run": os.path.join(report_dir, "runs", "none", "seed1")}
        rc, err = _main_captured([a.format(**names) for a in argv])
        assert (rc, err) == (3, f"integrity error: {needle.format(**names)}\n")


FLOAT = re.compile(rb"-?\d+\.\d+(?:e-?\d+)?")


def _seeded_edits(data, rng, count):
    """``count`` edited copies of an artifact's bytes: one byte XORed with a nonzero
    byte, or one float64 value with a low mantissa bit flipped (in an ``.npy``, a
    value of the array; in a text file, a number, written back with ``repr``)."""
    header = data.index(b"\n") + 1 if data.startswith(b"\x93NUMPY") else None
    floats = None if header else list(FLOAT.finditer(data))
    edits = []
    for i in range(count):
        edit = bytearray(data)
        if i % 2 == 0:
            edit[rng.integers(len(data))] ^= int(rng.integers(1, 256))
        elif header:
            value = header + 8 * int(rng.integers((len(data) - header) // 8))
            edit[value] ^= 1 << int(rng.integers(8))  # little-endian: the lowest mantissa byte
        else:
            m = floats[rng.integers(len(floats))]
            bits = np.array(float(m[0])).view(np.int64) ^ (1 << int(rng.integers(4)))
            edit[m.start():m.end()] = repr(float(bits.view(np.float64))).encode()
        edits.append(bytes(edit))
    return edits


class TestSeededCorruption:
    """Seeded edits of every artifact a command reads: each exits 3 naming the
    edited file or leaves the command's output as it was, byte for byte."""

    EDITS = 36

    @pytest.fixture(scope="class")
    def report_dir(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trial")
        d = micro_config_dict(attack={"methods": ["fedmia_ii", "blackbox_loss", "grad_norm"]})
        (tmp / "attack.json").write_text(json.dumps(d["attack"]))
        return hns.run_experiment(ExperimentConfig.from_dict(d), str(tmp / "report"))

    def _outputs(self, report_dir, command):
        """(exit code, stdout, stderr, bytes of the files written) of ``command``."""
        out, err = io.StringIO(), io.StringIO()
        written = os.path.join(report_dir, "..", "replay" if command == "replay" else "")
        argv = {"replay": ["replay", os.path.join(report_dir, "runs", "none", "seed1", "trace"),
                           os.path.join(report_dir, "..", "attack.json"), "--out", written],
                "plots": ["plots", report_dir], "report": ["report", report_dir]}[command]
        shutil.rmtree(written if command == "replay" else os.path.join(report_dir, "plots"),
                      ignore_errors=True)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            rc = hns.main(argv)
        files = {"replay": written, "plots": os.path.join(report_dir, "plots")}.get(command)
        tree = _tree_bytes(files) if files and os.path.isdir(files) else {}
        return rc, out.getvalue(), err.getvalue(), tree

    @pytest.mark.parametrize("seed, artifact, command", [
        (1, "runs/none/seed1/targets.csv", "replay"),
        (2, "runs/none/seed1/trace/round_0001_updates.npy", "replay"),
        (3, "runs/none/seed1/trace/trace_meta.json", "replay"),
        (4, "runs/none/seed1/attack_rounds.json", "plots"),
        (5, "runs/none/seed1/attack_scores.csv", "plots"),
        (6, "report.json", "plots"),
        (7, "metrics.csv", "report"),
    ])
    def test_each_edit_exits_3_naming_the_file_or_changes_nothing(
            self, report_dir, seed, artifact, command):
        path = os.path.join(report_dir, *artifact.split("/"))
        original = pathlib.Path(path).read_bytes()
        reference = self._outputs(report_dir, command)
        assert reference[0] == 0, reference[2]
        silent = []
        try:
            for i, edit in enumerate(_seeded_edits(original, np.random.default_rng(seed),
                                                   self.EDITS)):
                pathlib.Path(path).write_bytes(edit)
                rc, out, err, tree = self._outputs(report_dir, command)
                if not ((rc == 3 and path in err) or (rc, out, err, tree) == reference):
                    silent.append((i, rc, err))
        finally:
            pathlib.Path(path).write_bytes(original)
        assert silent == [], silent


@pytest.mark.parametrize("method, poison", [
    ("fedmia_ii", lambda audit: audit.per_round["fedmia_ii"].__setitem__((0, 0), np.nan)),
    ("grad_norm", lambda audit: audit.series["update_norm"].__setitem__((0, -1), np.inf)),
    ("avg_cosine", lambda audit: audit.series["cosine"].__setitem__((3, 0), np.nan)),
], ids=["fedmia_per_round", "final_round_series", "earlier_round_series"])
def test_non_finite_attack_score_exits_4(tmp_path, monkeypatch, method, poison):
    """A non-finite audit array fails the run, naming the seed, the defense and the method."""
    audit_cohort = atk.audit_cohort

    def poisoned(*args, **kwargs):
        audit = audit_cohort(*args, **kwargs)
        poison(audit)
        return audit

    monkeypatch.setattr(atk, "audit_cohort", poisoned)
    d = micro_config_dict(attack={"methods": ["fedmia_ii", "grad_norm", "avg_cosine"]})
    out = tmp_path / "out"
    rc, err = _main_captured(["run", write_config(tmp_path, d), "--out", str(out), "--jobs", "1"])
    assert rc == 4, err
    assert err == (f'error: seed 1, defense {{"kind": "none"}}, method {method}: '
                   f"non-finite attack score\n"), err
    assert not list(out.rglob("attack_*"))  # no score reaches an artifact


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


@pytest.mark.parametrize("seeds", [3, 9])
def test_round_curves_are_the_seed_means_of_the_scalar_roc(tmp_path, seeds):
    """Each rounds_*.csv row is np.mean over the seeds of the AUC and the TPR that the
    scalar loops give the round's scores, read from each run's sidecar. 8 or more
    seeds is where NumPy's pairwise mean departs from a running sum."""
    d = _json(os.path.join(CONFIG_DIR, "quick.json"))
    d["attack"]["targets_per_class"] = 20
    d["seeds"] = list(range(1, seeds + 1))
    out = str(tmp_path / "out")
    assert hns.main(["run", write_config(tmp_path, d), "--out", out]) == 0
    assert hns.main(["plots", out]) == 0
    cfg = ExperimentConfig.from_dict(d)
    runs = [hns._read_sidecar(os.path.join(out, "runs", "none", f"seed{s}"), cfg.attack.methods,
                              cfg.federation.rounds) for s in cfg.seeds]
    lines = ["method,round,auc,tpr_at_fpr\n"]
    for method in cfg.attack.methods:
        for t in range(cfg.federation.rounds):
            pts = [roc_sweep_loop(audit.scores(method, t), is_member) for audit, is_member in runs]
            auc = np.mean([area_loop(p) for p in pts])
            tpr = np.mean([best_point_loop(p, cfg.attack.fpr_cap)[0] for p in pts])
            lines.append(f"{method},{t},{float(auc)!r},{float(tpr)!r}\n")
    assert pathlib.Path(out, "plots", "rounds_none.csv").read_text(encoding="utf-8") == "".join(lines)

"""Golden-file tests pinning the on-disk artifact formats.

The goldens under tests/golden/ were produced by running
golden_config.json once, then ``plots`` on its output; any change to a
file format, to the trace or target schemas, or to the numeric pipeline
shows up here as a byte diff. report.json is compared without its
created_utc line.
"""

import json
import os

import pytest

from fedaudit import harness as hns

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    cfg = hns.load_config(os.path.join(GOLDEN_DIR, "golden_config.json"))
    out = str(tmp_path_factory.mktemp("golden"))
    hns.run_experiment(cfg, out)
    return out


def _golden_bytes(name):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        return fh.read()


def _run_bytes(golden_run, *parts):
    with open(os.path.join(golden_run, *parts), "rb") as fh:
        return fh.read()


def test_metrics_csv_bytes(golden_run):
    assert _run_bytes(golden_run, "metrics.csv") == _golden_bytes("metrics.csv")


def test_attack_scores_csv_bytes(golden_run):
    got = _run_bytes(golden_run, "runs", "none", "seed1", "attack_scores.csv")
    assert got == _golden_bytes("attack_scores.csv")


def test_targets_csv_bytes(golden_run):
    got = _run_bytes(golden_run, "runs", "none", "seed1", "targets.csv")
    assert got == _golden_bytes("targets.csv")


def _without_created_utc(data):
    return b"".join(line for line in data.splitlines(keepends=True) if b'"created_utc"' not in line)


def test_trace_meta_structure(golden_run):
    got = _run_bytes(golden_run, "runs", "none", "seed1", "trace", "trace_meta.json")
    assert got == _golden_bytes("trace_meta.json")


def test_sidecar_bytes(golden_run):
    got = _run_bytes(golden_run, "runs", "none", "seed1", "attack_rounds.json")
    assert got == _golden_bytes("attack_rounds.json")


def test_report_bytes_apart_from_timestamp(golden_run):
    got = _run_bytes(golden_run, "report.json")
    assert b'"created_utc"' in got
    assert _without_created_utc(got) == _without_created_utc(_golden_bytes("report.json"))


PLOTS = ("hist_blackbox_loss_none.csv", "hist_fedmia_ii_none.csv", "pareto_blackbox_loss.csv",
         "pareto_fedmia_ii.csv", "rounds_none.csv")


def test_plots_bytes(golden_run):
    hns.emit_plots(golden_run)
    listed = sorted(os.listdir(os.path.join(golden_run, "plots")))
    assert listed == sorted(PLOTS + ("manifest.json",))
    for name in PLOTS:
        got = _run_bytes(golden_run, "plots", name)
        assert got == _golden_bytes(os.path.join("plots", name)), name


def test_metrics_header_contract(golden_run):
    with open(os.path.join(golden_run, "metrics.csv")) as fh:
        header = fh.readline().strip()
    assert header == "seed,method,defense,param,auc,tpr_at_fpr,fpr_cap,achieved_fpr,utility_loss"


def test_scores_header_contract(golden_run):
    path = os.path.join(golden_run, "runs", "none", "seed1", "attack_scores.csv")
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "method,sample_id,is_member_truth,score"


def test_targets_header_contract(golden_run):
    path = os.path.join(golden_run, "runs", "none", "seed1", "targets.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["sample_id", "is_member", "label"]
    assert header[3] == "f1" and header[-1] == "f6"


def test_trace_files_present(golden_run):
    trace_dir = os.path.join(golden_run, "runs", "none", "seed1", "trace")
    names = sorted(os.listdir(trace_dir))
    assert "trace_meta.json" in names
    assert "final_model.npy" in names
    for t in range(3):
        assert f"round_{t:04d}_global.npy" in names
        assert f"round_{t:04d}_updates.npy" in names


def test_sidecar_structure(golden_run):
    sidecar = json.loads(_run_bytes(golden_run, "runs", "none", "seed1", "attack_rounds.json"))
    assert set(sidecar["inclusion_checks"]) == {"fedmia_ii"}
    n = len(sidecar["sample_ids"])
    assert len(sidecar["is_member"]) == n
    assert len(sidecar["fedmia_ii"]["per_round"]) == n
    assert all(len(row) == 3 for row in sidecar["fedmia_ii"]["per_round"])

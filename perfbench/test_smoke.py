"""Smoke test of the benchmark on configs/quick.json.

Run from the repository root:  python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_every_declared_metric_appears_and_nothing_fails():
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["attempted"] >= 1 and result["failed"] == 0  # fail_share 0
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_list_prints_every_metric_with_its_unit():
    proc = _bench("--list")
    assert proc.returncode == 0
    listed = {tuple(line.split()[1:]) for line in proc.stdout.splitlines()}
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            assert (m["name"], m["unit"]) in listed


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

#!/usr/bin/env python3
"""fedaudit benchmark: run / replay / plots time on fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit-default --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --list

Each repetition is a fresh interpreter (perfbench/worker.py) that imports
fedaudit from ``src/``, loads a generated config, and drives the public CLI
(``harness.main``) through ``run``, ``replay`` of every trace with a
different ``delta_grid``, and ``plots``. Repetitions run one at a time,
with one job and one BLAS thread, until ``--seconds`` is spent.
``--trace 0`` reports the medians of the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see perfbench/tracer.py) plus the
tracing overhead. Every repetition checks its outputs, and every check is
an operation counted in ``attempted``/``failed``. The last line of stdout
is one JSON object; the full result, with every sample and the
provenance, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 1
REPLAY_DELTA_GRID = [0.6, 0.8, 0.95]
PHASES = ("setup_s", "run_s", "replay_s", "plots_s", "peak_rss_mb")
# Extra set-up-only processes per repetition, so the setup_s median rests
# on more samples than the full repetitions give.
SETUP_PROBES = 2
# Untraced repetitions replay every trace twice and plot three times, and
# report the mean per pass; traced ones run each phase once, so that call
# counts are those of one CLI pass.
PASSES = (2, 3)
# One BLAS thread: on a shared 2-core machine two threads gave about twice
# the run-to-run spread for the same median. The thread count is part of
# the reference digests: attack_scores.csv bytes differ between one and two
# OpenBLAS threads.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# A repetition that outlives this is killed and counted as failed; the whole
# command must end within 180 s.
HARD_LIMIT_S = 160.0


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def audit_default(seed: int) -> dict:
    """configs/default.json at one seed: the paper's headline experiment."""
    cfg = _load_json(os.path.join(ROOT, "configs", "default.json"))
    cfg["seeds"] = [seed]
    return cfg


def filter_active(seed: int) -> dict:
    """50 clients, so the 3-sigma filter drops values; a two-point mixup sweep."""
    cfg = audit_default(seed)
    cfg["dataset"]["per_class"] = 521
    cfg["partition"].update(clients=50, per_client=100, holdout=200)
    cfg["federation"]["rounds"] = 30
    cfg["attack"]["methods"] = ["fedmia_ii", "fedmia_i", "avg_cosine", "loss_series"]
    cfg["sweep"] = {"defense": "mixup", "alpha": [0.5, 4.0]}
    return cfg


def smoke(seed: int) -> dict:
    """configs/quick.json: a tiny end-to-end check of the benchmark itself."""
    cfg = _load_json(os.path.join(ROOT, "configs", "quick.json"))
    cfg["seeds"] = [seed]
    return cfg


WORKLOADS = {"audit-default": audit_default, "filter-active": filter_active, "smoke": smoke}


def input_size(cfg: dict) -> str:
    d, p, f = cfg["dataset"], cfg["partition"], cfg["federation"]
    h, c = cfg["model"]["hidden_dim"], d["num_classes"]
    params = d["input_dim"] * h + h + c * h + c
    sweep = next((v for k, v in cfg["sweep"].items() if isinstance(v, list)), [None])
    return (f"{len(sweep)} job(s) x {p['clients']} clients x {p['per_client']} records, "
            f"{f['rounds']} rounds, P={params}, "
            f"{2 * cfg['attack']['targets_per_class']} target records, "
            f"{len(cfg['attack']['methods'])} methods")


# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        head = _read_text(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            return _read_text(os.path.join(git, ref)).strip()
        for line in _read_text(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    """sha256 over src/fedaudit/*.py, identifying the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fedaudit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# --------------------------------------------------------------------------
# Repetitions
# --------------------------------------------------------------------------


class Runner:
    """Runs repetitions in fresh processes and keeps their results."""

    def __init__(self, work: str, config: str, attack_config: str, spans: str,
                 deadline: float):
        self.work = work
        self.spans = spans
        self.config = config
        self.attack_config = attack_config
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
        self.count = 0

    def rep(self, trace: bool = False, probe: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        rep_dir = os.path.join(self.work, f"rep{self.count:03d}")
        os.makedirs(rep_dir)
        job = {
            "src": SRC,
            "config": self.config,
            "attack_config": self.attack_config,
            "work": rep_dir,
            "trace": trace,
            "probe": probe,
            "setup_only": setup_only,
            "passes": (1, 1) if trace else PASSES,
            "result": os.path.join(rep_dir, "result.json"),
            "spans": self.spans,
        }
        job_path = os.path.join(rep_dir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        log = os.path.join(rep_dir, "worker.log")
        with open(log, "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path, repr(t0)],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = proc.wait()
        if rc == 0 and os.path.exists(job["result"]):
            result = _load_json(job["result"])
        else:
            with open(log, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            result = {"ops": [["worker", False]], "errors": [f"worker exit {rc}: {tail}"]}
        result["traced"] = trace
        result["setup_only"] = setup_only
        for name in ("report", "replay"):
            shutil.rmtree(os.path.join(rep_dir, name), ignore_errors=True)
        return result


def run_reps(runner: Runner, trace_mode: bool, budget: float, start: float) -> list[dict]:
    """Repeat until the next round of repetitions would overrun the budget.

    A round is, untraced, SETUP_PROBES set-up-only processes and one full
    repetition, or, traced, one untraced and one traced repetition. At
    least two full repetitions run, so that their digests can be compared.
    """
    reps: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        full = sum(1 for r in reps if not r["setup_only"])
        if (full >= 2 and elapsed + longest > budget) or elapsed + longest > HARD_LIMIT_S:
            break
        t = time.perf_counter()
        if trace_mode:
            reps.append(runner.rep(probe=not reps))
            reps.append(runner.rep(trace=True))
        else:
            reps.extend(runner.rep(setup_only=True) for _ in range(SETUP_PROBES))
            reps.append(runner.rep())
        longest = max(longest, time.perf_counter() - t)
    return reps


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def check_digests(reps: list[dict], reference: dict | None) -> list[list]:
    """Digest operations: equal across repetitions, and equal to the reference."""
    ops = []
    digests = [r["digests"] for r in reps if "digests" in r]
    for d in digests[1:]:
        ops.append(["digests_stable", d == digests[0]])
    if reference is not None:
        for d in digests:
            ops.append(["digests_reference", d == reference])
    return ops


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric with its unit")
    args = p.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = _load_json(spec_path)
    if args.list:
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                print(f"{group:<10} {m['name']:<40} {m['unit']}")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    for need in (os.path.join(SRC, "fedaudit", "harness.py"),
                 os.path.join(ROOT, "configs", "default.json"),
                 os.path.join(ROOT, "configs", "quick.json")):
        if not os.path.exists(need):
            print(f"error: {need} not found; run from a fedaudit checkout", file=sys.stderr)
            return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    start = time.perf_counter()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = WORKLOADS[args.workload](args.seed)
    config_path = os.path.join(work, "config.json")
    attack_path = os.path.join(work, "attack.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    with open(attack_path, "w", encoding="utf-8") as fh:
        json.dump(dict(cfg["attack"], delta_grid=REPLAY_DELTA_GRID), fh, indent=2)
    # Byte-compile first, as an installed package would be, so the first
    # repetition's setup_s does not include compiling the sources.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "fedaudit")],
                   check=True, stdout=subprocess.DEVNULL)

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    spans_path = os.path.join(results_dir, f"{tag}.spans.json.gz")
    runner = Runner(work, config_path, attack_path, spans_path, start + HARD_LIMIT_S)
    reps = run_reps(runner, bool(args.trace), seconds, start)

    ref = _load_json(os.path.join(BENCH_DIR, "reference.json")).get(args.workload)
    ref_digests = ref["digests"] if ref and ref["seed"] == args.seed else None
    ops = [op for r in reps for op in r["ops"]] + check_digests(reps, ref_digests)
    failed = [name for name, ok in ops if not ok]

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    samples = {k: [r[k] for r in untraced if k in r] for k in PHASES}
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    if args.trace:
        def totals(group: list[dict]) -> list[float]:
            return [r["run_s"] + r["replay_s"] + r["plots_s"] for r in group if "plots_s" in r]

        layers = [r["layers"] for r in traced if "layers" in r]
        for name in layers[0] if layers else ():
            values[name] = statistics.median(l[name] for l in layers)
        if totals(traced) and totals(untraced):
            values["trace.overhead_s"] = (statistics.median(totals(traced))
                                          - statistics.median(totals(untraced)))
        probe = next((r for r in untraced if "workload" in r), None)
        if probe is not None:
            values.update(probe["workload"])
            values["workload.trace_bytes"] = probe["trace_bytes"]

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group] if m["name"] in values}
    missing = [m["name"] for m in spec[group] if m["name"] not in values]
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    provenance = {
        "nproc": nproc(),
        **versions,
        "blas_threads_env": BLAS_ENV,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    summary = {
        "correct": not failed and not missing,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": seconds, "input": input_size(cfg), "provenance": provenance,
                   "samples": samples, "values": values, "failed_ops": failed,
                   "missing_metrics": missing,
                   "errors": [e for r in reps for e in r.get("errors", [])],
                   "digests": [r.get("digests") for r in reps], "summary": summary},
                  fh, indent=2)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {input_size(cfg)}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        print(f"  per-layer values are medians over {len(traced)} traced repetition(s); "
              "workload.* come from one untraced repetition")
    for m in spec[group]:
        name = m["name"]
        shown = f"{values[name]:.6g}" if name in values else "missing"
        line = f"  {name:<40} {shown:>14} {m['unit']:<6}"
        if samples.get(name) and not args.trace:
            v = samples[name]
            line += f" median of {len(v)}, range {min(v):.6g}..{max(v):.6g}"
        print(line)
    if args.trace:
        for name in sorted(k for k in values if k.startswith("trace.coverage.")):
            print(f"  {name:<40} {values[name]:>14.6g} ratio")
    print(f"  fail_share {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)"
          + "".join(f"\n    failed: {f}" for f in failed)
          + "".join(f"\n    missing metric: {m}" for m in missing))
    if not failed:  # keep the worker logs of a failed run for inspection
        shutil.rmtree(work)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured repetition of the benchmark, in a fresh interpreter.

Usage: worker.py <job.json> <t0>

``t0`` is the parent's ``time.perf_counter()`` reading taken just before
this process was started (CLOCK_MONOTONIC, shared by all processes on
Linux), so ``setup_s`` covers interpreter start-up, ``import
fedaudit.harness`` and ``load_config``. The repetition then runs the three
CLI phases through ``harness.main`` (run, replay of every trace, plots),
checks the outputs, and writes a result JSON to ``job["result"]``.
``job["passes"]`` gives how many times replay and plots run.
"""

# fedaudit.harness imports all of these itself, so importing them here
# first does not change setup_s.
import hashlib
import json
import os
import sys
import time

import numpy as np


def main() -> int:
    t0 = float(sys.argv[2])
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer  # found beside this file

        tracer = Tracer()
        tracer.install()
    from fedaudit import harness

    harness.load_config(job["config"])
    setup_s = time.perf_counter() - t0
    if job["setup_only"]:
        return _finish(job, {"setup_s": setup_s, "ops": [], "errors": []}, None)

    import resource
    import traceback

    work = job["work"]
    report = os.path.join(work, "report")
    result: dict = {"setup_s": setup_s, "ops": [], "errors": []}
    ops, errors = result["ops"], result["errors"]

    def phase(name: str, argv: list[str]) -> tuple[bool, float]:
        start = time.perf_counter()
        try:
            ok = harness.main(argv) == 0
        except Exception:  # a crash is a failed operation, not a benchmark abort
            errors.append(f"{name}: {traceback.format_exc()}")
            ok = False
        end = time.perf_counter()
        if tracer is not None:
            tracer.phase(name.split(":", 1)[0], start, end)
        ops.append([name, ok])
        return ok, end - start

    ok, result["run_s"] = phase("run", ["run", job["config"], "--out", report])
    runs = os.path.join(report, "runs")
    traces = sorted(
        os.path.join(runs, point, seed, "trace")
        for point in (os.listdir(runs) if os.path.isdir(runs) else [])
        for seed in os.listdir(os.path.join(runs, point))
    )
    if not ok or not traces:
        ops.extend([["replay", False], ["plots", False], ["checks", False]])
        return _finish(job, result, tracer)

    # Replay and plots are repeated in-process: each sample is then the mean
    # of several calls, which evens out speed changes of the machine that
    # last a few seconds.
    replay_passes, plots_passes = job["passes"]
    replay_s = 0.0
    for n in range(replay_passes):
        for tdir in traces:
            run_dir = os.path.dirname(tdir)
            label = os.path.relpath(run_dir, runs).replace(os.sep, "_")
            out = os.path.join(work, "replay", f"{label}.{n}")
            ok, dt = phase(f"replay:{label}", ["replay", tdir, job["attack_config"], "--out", out])
            replay_s += dt
            same = ok and _read(os.path.join(out, "attack_scores.csv")) == _read(
                os.path.join(run_dir, "attack_scores.csv"))
            ops.append([f"replay_bitexact:{label}", same])
    result["replay_s"] = replay_s / replay_passes
    result["plots_s"] = sum(phase("plots", ["plots", report])[1]
                            for _ in range(plots_passes)) / plots_passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness checks, outside every timed region.
    with open(os.path.join(report, "report.json"), "r", encoding="utf-8") as fh:
        inclusion = json.load(fh)["inclusion_checks"]
    flags = [ok for per_method in inclusion.values() for per_delta in per_method.values()
             for ok in per_delta.values()]
    ops.append(["inclusion_checks", bool(flags) and all(flags)])
    result["digests"] = {
        "metrics.csv": _digest([os.path.join(report, "metrics.csv")], report),
        "attack_scores.csv": _digest(
            [os.path.join(os.path.dirname(t), "attack_scores.csv") for t in traces], report),
    }
    result["trace_bytes"] = sum(
        os.path.getsize(os.path.join(t, f)) for t in traces for f in os.listdir(t))
    if job["probe"]:
        result["workload"] = _filter_drops(harness, job["config"], traces)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    return _finish(job, result, tracer)


def _read(path: str) -> bytes:
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def _digest(paths: list[str], base: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, base).encode() + b"\0" + _read(p) + b"\0")
    return h.hexdigest()


def _filter_drops(harness, config_path: str, traces: list[str]) -> dict:
    """Share of (record, round) rows where the 3-sigma rule drops a non-target value.

    An independent copy of the attack's filter: population mean and standard
    deviation over the K-1 non-target clients, and a drop when a value lies
    more than three standard deviations out on the member side (high for
    cosine, low for loss). Measurements come from the public
    ``attack.measure_cohort``.
    """
    from fedaudit import attack, fedsim

    target = harness.load_config(config_path).attack.target_client
    rows = 0
    drops = {"cosine": 0, "loss": 0}
    for tdir in traces:
        trace = fedsim.load_trace(tdir)
        cohort = harness.load_targets_csv(os.path.join(os.path.dirname(tdir), "targets.csv"))
        for kind in drops:
            vals = np.delete(attack.measure_cohort(trace, cohort.x, cohort.y, kind), target, axis=2)
            mean = vals.mean(axis=2, keepdims=True)
            bound = 3.0 * np.sqrt(((vals - mean) ** 2).mean(axis=2, keepdims=True))
            dropped = vals > mean + bound if kind == "cosine" else vals < mean - bound
            drops[kind] += int(dropped.any(axis=2).sum())
        rows += len(cohort.ids) * trace.num_rounds
    return {
        "workload.filter_drop_share": (drops["cosine"] + drops["loss"]) / (2 * rows),
        "workload.filter_drop_share.cosine": drops["cosine"] / rows,
        "workload.filter_drop_share.loss": drops["loss"] / rows,
        "workload.record_rounds": rows,
    }


def _finish(job: dict, result: dict, tracer) -> int:
    if tracer is not None:
        result["layers"] = tracer.summarize()
        tracer.save(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing of the fedaudit package.

Every public function of every fedaudit module is wrapped where it is
looked up: the module attribute itself (which also covers calls inside the
defining module, since those go through the same globals) and every other
fedaudit module that imported the function by name, such as
``attack.summary`` and ``attack.gaussian_cdf``. Each call records one span
(name, start, end, parent) in flat in-memory lists; nothing is written
until ``Tracer.save`` at the end of the process.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("attack", "data", "fedsim", "harness", "metrics", "model", "numstat")
# The CLI entry point is timed by the benchmark as a whole phase.
SKIP = {"harness.main"}


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """Spans of one process; ``install`` wraps, ``summarize`` aggregates."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.phases: list[tuple[str, float, float]] = []

    # ------------------------------------------------------------------ wrap

    def _wrap(self, qualname: str, fn, after):
        nid = self.name_ids.setdefault(qualname, len(self.name_ids))
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _after_hooks(self) -> dict:
        """Byte counters taken after a call returns, keyed by function."""
        c = self.counters
        for key in ("fedsim.save_trace.bytes", "fedsim.load_trace.bytes",
                    "model.grad_samples.bytes_max"):
            c[key] = 0

        def saved(args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["trace_dir"]
            c["fedsim.save_trace.bytes"] += _dir_bytes(path)

        def loaded(args, kwargs):
            path = args[0] if args else kwargs["trace_dir"]
            c["fedsim.load_trace.bytes"] += _dir_bytes(path)

        def grads(args, kwargs):
            spec, y = args[0], args[3] if len(args) > 3 else kwargs["y"]
            nbytes = len(y) * spec.param_count() * 8
            c["model.grad_samples.bytes_max"] = max(c["model.grad_samples.bytes_max"], nbytes)

        return {
            "fedsim.save_trace": saved,
            "fedsim.load_trace": loaded,
            "model.grad_samples": grads,
        }

    def install(self) -> None:
        """Patch every public fedaudit function in place."""
        mods = {m: importlib.import_module(f"fedaudit.{m}") for m in MODULES}
        hooks = self._after_hooks()
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                qual = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and qual not in SKIP):
                    wrapped[id(obj)] = self._wrap(qual, obj, hooks.get(qual))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, name, wrapped[id(obj)])

    # ----------------------------------------------------------------- phase

    def phase(self, name: str, start: float, end: float) -> None:
        self.phases.append((name, start, end))

    # ------------------------------------------------------------- aggregate

    def summarize(self) -> dict[str, float]:
        """Flat per-layer metrics from the recorded spans.

        ``<module>.<function>.s`` is the inclusive time of the outermost calls
        of a function, ``.self_s`` its time minus the time of its child spans,
        ``.calls`` its call count; ``<module>.s`` and ``<module>.calls`` do the
        same for a whole module. ``trace.coverage.<phase>`` is the share of a
        phase's wall time covered by root spans, and ``trace.coverage`` the
        lowest of them. Every wrapped function appears, called or not.
        """
        n = len(self.span_name)
        fn_of = {v: k for k, v in self.name_ids.items()}
        out: dict[str, float] = defaultdict(float)
        for fn in self.name_ids:
            mod = fn.split(".", 1)[0]
            for key in (f"{fn}.s", f"{fn}.self_s", f"{fn}.calls", f"{mod}.s", f"{mod}.calls"):
                out[key] = 0.0
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            if self.span_parent[i] >= 0:
                child_time[self.span_parent[i]] += dur[i]
        for i in range(n):
            fn = fn_of[self.span_name[i]]
            mod = fn.split(".", 1)[0]
            out[f"{fn}.calls"] += 1
            out[f"{mod}.calls"] += 1
            out[f"{fn}.self_s"] += dur[i] - child_time[i]
            outer_fn = outer_mod = True
            p = self.span_parent[i]
            while p >= 0 and (outer_fn or outer_mod):
                pfn = fn_of[self.span_name[p]]
                outer_fn = outer_fn and pfn != fn
                outer_mod = outer_mod and pfn.split(".", 1)[0] != mod
                p = self.span_parent[p]
            if outer_fn:
                out[f"{fn}.s"] += dur[i]
            if outer_mod:
                out[f"{mod}.s"] += dur[i]
        out.update(self.counters)
        coverage = defaultdict(lambda: [0.0, 0.0])
        for name, start, end in self.phases:
            coverage[name][1] += end - start
            coverage[name][0] += sum(
                dur[i] for i in range(n) if self.span_parent[i] < 0
                and start <= self.span_start[i] and self.span_end[i] <= end)
        for name, (covered, wall) in coverage.items():
            out[f"trace.coverage.{name}"] = covered / wall
        out["trace.coverage"] = min(c / w for c, w in coverage.values())
        out["trace.spans"] = n
        return dict(out)

    def save(self, path: str) -> None:
        """Write every span as one gzipped JSON document (once, at the end)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": {str(v): k for k, v in self.name_ids.items()},
                    "columns": ["name", "start", "end", "parent"],
                    "spans": list(zip(self.span_name, self.span_start, self.span_end,
                                      self.span_parent)),
                    "phases": self.phases,
                },
                fh,
            )

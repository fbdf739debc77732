#!/usr/bin/env python3
"""Sweep the gradient-level defenses and report privacy-utility trade-offs.

Runs the noise-perturbation and sparsification sweeps (4 strength levels
x 5 seeds each), then prints the hypervolume per attack and writes Pareto
front CSVs under each report's plots/ directory.
"""

import argparse
import os
import sys

from fedaudit import harness

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: one per job, up to the usable cores)")
    args = parser.parse_args()

    jobs = ["--jobs", str(args.jobs)] if args.jobs is not None else []
    for name in ("perturb_sweep", "sparsify_sweep"):
        config = os.path.join(CONFIGS, f"{name}.json")
        out = os.path.join(args.out, name)
        rc = harness.main(["run", config, "--out", out, *jobs]) or harness.main(["plots", out])
        if rc == 0:
            print(f"== {name} ==")
            rc = harness.main(["report", out])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the default no-defense experiment and print the attack comparison.

Trains the 10-client federation for 50 rounds on every seed, runs the
full attack suite against the recorded traces, and prints the per-method
summary table. Plot-ready CSVs land in <out>/plots.
"""

import argparse
import os
import sys

from fedaudit import harness

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/baseline")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: one per job, up to the usable cores)")
    args = parser.parse_args()

    config = os.path.join(CONFIGS, "default.json")
    jobs = ["--jobs", str(args.jobs)] if args.jobs is not None else []
    # Each step runs only when the one before it exited 0.
    return (harness.main(["run", config, "--out", args.out, *jobs])
            or harness.main(["plots", args.out])
            or harness.main(["report", args.out]))


if __name__ == "__main__":
    sys.exit(main())

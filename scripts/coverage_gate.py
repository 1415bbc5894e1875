#!/usr/bin/env python3
"""CI line-coverage gate for the simulator and planner cores.

Reads a ``coverage.py`` data file produced by running the tier-1 suite
under ``coverage run``, aggregates line coverage over the gated source
trees (``src/repro/sim/``, ``src/repro/core/`` and the prefetcher zoo
``src/repro/baselines/``), writes a machine-readable report, and fails
when any gated tree drops below its baseline floor in
``scripts/coverage_baseline.json``.

The gate is CI-only: when the ``coverage`` package is not installed
(the local dev container deliberately omits it), the script prints a
notice and exits 0 so local invocations never fail spuriously.

Usage::

    coverage run --source=src/repro -m pytest -x -q
    python scripts/coverage_gate.py [--data .coverage]
        [--baseline scripts/coverage_baseline.json]
        [--report coverage-gate-report.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(HERE, "coverage_baseline.json")

#: baseline key -> path fragment that assigns a measured file to it.
#: Buckets are not exclusive: a file matching several fragments counts
#: toward each (per-file floors ride on top of their tree's floor).
GATED_TREES = {
    "src/repro/sim/": os.path.join("src", "repro", "sim") + os.sep,
    "src/repro/core/": os.path.join("src", "repro", "core") + os.sep,
    "src/repro/baselines/": os.path.join("src", "repro", "baselines") + os.sep,
    "src/repro/sim/streaming.py": os.path.join(
        "src", "repro", "sim", "streaming.py"
    ),
    "src/repro/sim/array_replay.py": os.path.join(
        "src", "repro", "sim", "array_replay.py"
    ),
    "src/repro/sim/stats.py": os.path.join(
        "src", "repro", "sim", "stats.py"
    ),
    "src/repro/workloads/ingest.py": os.path.join(
        "src", "repro", "workloads", "ingest.py"
    ),
    "src/repro/workloads/adversarial.py": os.path.join(
        "src", "repro", "workloads", "adversarial.py"
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", default=".coverage",
                        help="coverage data file (default: .coverage)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline floors JSON")
    parser.add_argument("--report", default="coverage-gate-report.json",
                        help="where to write the measured report")
    return parser.parse_args(argv)


def measure(data_file):
    """Per-tree ``(covered, statements)`` from a coverage data file."""
    import coverage

    cov = coverage.Coverage(data_file=data_file)
    cov.load()
    totals = {key: [0, 0] for key in GATED_TREES}
    for path in cov.get_data().measured_files():
        keys = [
            key for key, fragment in GATED_TREES.items() if fragment in path
        ]
        if not keys:
            continue
        _, statements, _, missing, _ = cov.analysis2(path)
        for key in keys:
            totals[key][0] += len(statements) - len(missing)
            totals[key][1] += len(statements)
    return totals


def main(argv=None):
    args = parse_args(argv)
    try:
        import coverage  # noqa: F401
    except ImportError:
        print("coverage-gate: coverage package not installed; skipping "
              "(the gate runs in CI only)")
        return 0

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    floors = baseline["floors"]

    totals = measure(args.data)
    report = {"baseline": args.baseline, "trees": {}}
    failed = []
    for key, (covered, statements) in sorted(totals.items()):
        if statements == 0:
            print(f"coverage-gate: no measured files under {key}; was the "
                  "suite run with --source=src/repro?", file=sys.stderr)
            failed.append(key)
            continue
        percent = 100.0 * covered / statements
        floor = float(floors[key])
        status = "ok" if percent >= floor else "BELOW FLOOR"
        print(f"coverage-gate: {key:18s} {percent:6.2f}% "
              f"(floor {floor:.2f}%) [{status}]")
        report["trees"][key] = {
            "covered": covered,
            "statements": statements,
            "percent": round(percent, 2),
            "floor": floor,
        }
        if percent < floor:
            failed.append(key)

    with open(args.report, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"coverage-gate: report written to {args.report}")

    if failed:
        print(f"coverage-gate: FAILED for {', '.join(failed)} — raise the "
              "coverage back above the floor (or consciously lower the "
              "baseline with justification)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

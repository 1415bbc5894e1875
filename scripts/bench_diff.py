#!/usr/bin/env python3
"""CI guard against committed benchmark speedup regressions.

Compares freshly generated benchmark JSON against the copies
committed at ``HEAD`` and fails when a guarded headline number drops
below ``--min-ratio`` of the committed value.  The guarded
benchmarks:

* ``BENCH_batched_sweep.json`` — the *measured* batched sweep
  speedup: one V-slot plan-kernel batch vs V one-slot batches (the
  per-variant ``CoreSimulator.run`` replays).  Both sides run the same
  kernel, so the ratio is what a wider batch shares.  This is a
  wall-clock ratio of two runs on the same host, so host speed
  divides out.
* ``BENCH_ingest.json`` — the ingestion frontend's *relative
  throughput* (full-ingest rate over pure record-decode rate, both
  measured in the same process), so host speed divides out and the
  guard tracks the reconstruction passes' own cost.
* ``BENCH_prefetcher_matrix.json`` — I-SPY's mean *simulated*
  speedup over the sweep apps from the prefetcher-matrix benchmark.
  Simulated cycles are deterministic, so any drop is a genuine
  modelling change, not noise; the guard also fails if the MANA row
  disappears from the matrix (the zoo roster is a contract).

The ratio guard absorbs ordinary timer noise while catching
structural regressions (serial or per-variant work creeping back
into a shared phase).

Usage::

    python -m pytest benchmarks/test_batched_sweep.py -x -q
    python scripts/bench_diff.py [--only NAME] [--fresh PATH]
        [--committed PATH] [--min-ratio 0.9]

``--fresh``/``--committed`` override the file locations and require
``--only`` to say which guard they refer to.  When ``--committed``
is not given, the committed baseline is read via ``git show
HEAD:<relpath>``.  A missing committed baseline (first commit of a
benchmark) passes with a notice instead of failing, as does a
missing fresh file when running all guards (that benchmark was
simply not regenerated).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _batched_metric(payload: dict) -> float:
    return float(payload["measured"]["speedup"])


def _ingest_metric(payload: dict) -> float:
    return float(payload["measured"]["relative_throughput"])


def _matrix_metric(payload: dict) -> float:
    rows = payload["rows"]
    if "mana" not in rows:
        raise SystemExit(
            "bench-diff[prefetcher-matrix]: FAILED — the MANA row is "
            "missing from the matrix; the zoo roster must keep every "
            "registered member"
        )
    return float(rows["ispy"]["speedup"])


GUARDS = {
    "batched-sweep": {
        "relpath": "benchmarks/results/BENCH_batched_sweep.json",
        "metric": _batched_metric,
        "label": "measured V-wide vs one-slot batched sweep speedup",
        "hint": (
            "the V-wide batch's measured speedup over one-slot "
            "batches regressed; "
            "check the batch_phase_seconds decomposition for "
            "per-variant work creeping into a shared phase, or "
            "consciously recommit the benchmark JSON with "
            "justification"
        ),
    },
    "ingest": {
        "relpath": "benchmarks/results/BENCH_ingest.json",
        "metric": _ingest_metric,
        "label": "ingest relative throughput (ingest rate / decode rate)",
        "hint": (
            "the ingestion frontend got slower relative to the raw "
            "record decode it sits on; profile the reconstruction "
            "passes or consciously recommit the benchmark JSON with "
            "justification"
        ),
    },
    "prefetcher-matrix": {
        "relpath": "benchmarks/results/BENCH_prefetcher_matrix.json",
        "metric": _matrix_metric,
        "label": "I-SPY mean simulated speedup (prefetcher matrix)",
        "hint": (
            "I-SPY's simulated speedup in the prefetcher matrix "
            "regressed; simulated cycles are deterministic, so this "
            "is a real modelling/protocol change — fix it or "
            "consciously recommit the benchmark JSON with "
            "justification"
        ),
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(GUARDS),
                        help="check a single guard instead of all")
    parser.add_argument("--fresh", default=None,
                        help="freshly generated benchmark JSON "
                             "(requires --only)")
    parser.add_argument("--committed", default=None,
                        help="baseline JSON (default: HEAD's copy via git; "
                             "requires --only)")
    parser.add_argument("--min-ratio", type=float, default=0.9,
                        help="fail when fresh/committed drops below this")
    args = parser.parse_args(argv)
    if (args.fresh or args.committed) and not args.only:
        parser.error("--fresh/--committed require --only")
    return args


def load_committed(relpath, path):
    if path is not None:
        with open(path) as handle:
            return json.load(handle)
    proc = subprocess.run(
        ["git", "show", f"HEAD:{relpath}"],
        cwd=REPO, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def check_guard(name, args) -> int:
    guard = GUARDS[name]
    fresh_path = args.fresh or os.path.join(REPO, guard["relpath"])
    if not os.path.exists(fresh_path):
        if args.only:
            print(f"bench-diff[{name}]: fresh file missing: {fresh_path}",
                  file=sys.stderr)
            return 1
        print(f"bench-diff[{name}]: no fresh {guard['relpath']}; "
              "benchmark not regenerated, skipping")
        return 0
    with open(fresh_path) as handle:
        fresh = json.load(handle)
    committed = load_committed(guard["relpath"], args.committed)
    if committed is None:
        print(f"bench-diff[{name}]: no committed baseline at "
              f"HEAD:{guard['relpath']}; nothing to compare against")
        return 0

    fresh_speedup = guard["metric"](fresh)
    committed_speedup = guard["metric"](committed)
    ratio = fresh_speedup / committed_speedup
    verdict = "ok" if ratio >= args.min_ratio else "REGRESSED"
    print(f"bench-diff[{name}]: {guard['label']} "
          f"{fresh_speedup:.2f}x vs committed {committed_speedup:.2f}x "
          f"(ratio {ratio:.3f}, floor {args.min_ratio}) [{verdict}]")
    if ratio < args.min_ratio:
        print(f"bench-diff[{name}]: FAILED — {guard['hint']}",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    args = parse_args(argv)
    names = [args.only] if args.only else sorted(GUARDS)
    return max(check_guard(name, args) for name in names)


if __name__ == "__main__":
    raise SystemExit(main())

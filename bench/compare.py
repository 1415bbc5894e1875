#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json... -- B.json...``.

A is the parent (or the first set), B the change; each file is one run
written by ``bench/run.py --out``.  Runs pair up per workload in seed
order.  For every end-to-end metric of ``BENCHMARK.json`` the verdict
is one of:

* ``better``: B wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than A's interquartile range;
* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: A's own spread (interquartile range over median) is
  wider than the bound, unless every B run beats every A run
  (``better-all``);
* ``within``: none of these.

Simulated results (I-SPY's speedup and %-of-ideal) must be identical in
every run, and B may not fail more of its runs than A.  The exit code is
1 when any workload regresses, else 2 when any metric is unresolved (no
regression was shown, but none was ruled out), else 0; a script gating
on it passes only 0.  With no
``--`` the script prints each metric's spread for the one set, and the
per-layer self-time table of any traced runs among the files.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def decide(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """The verdict on one metric of one workload (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median_a, q3 = quartiles(a)
    median_b = quartiles(b)[1]
    gain = sign * (median_a - median_b)
    pairs = list(zip(a, b))
    wins = sum(sign * (x - y) > 0 for x, y in pairs)
    if spread(a) > bound:
        if all(sign * (x - y) > 0 for x in a for y in b):
            return "better-all"
        return "unresolved"
    if -gain > bound * abs(median_a):
        return "worse"
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better"
    return "within"


def load(paths: Sequence[str], traced: bool = False) -> Dict[str, List[dict]]:
    """Run documents, untraced or traced, grouped by workload in seed
    order."""
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc["trace"] == traced:
            runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda doc: doc["seed"])
    return runs


def _values(docs: List[dict], metric: str) -> List[float]:
    return [doc["metrics"][metric] for doc in docs]


def _errors(docs: List[dict]) -> Tuple[int, int]:
    return sum(d["failed"] for d in docs), sum(d["attempted"] for d in docs)


def compare(
    a: Dict[str, List[dict]], b: Dict[str, List[dict]], metrics: List[dict]
) -> List[Dict[str, str]]:
    """One row per workload run on both sides: each metric's verdict,
    the simulated-result check and both sides' failed/attempted."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        row = {"workload": workload}
        for metric in metrics:
            name = metric["name"]
            values_a, values_b = _values(a[workload], name), _values(b[workload], name)
            verdict = decide(values_a, values_b, metric["bound"], metric["better"])
            change = quartiles(values_b)[1] / quartiles(values_a)[1] - 1
            row[name] = f"{verdict} ({change:+.1%})"
        simulated = {
            json.dumps(doc["simulated"], sort_keys=True)
            for doc in a[workload] + b[workload] if doc["correct"]
        }
        row["simulated"] = "identical" if len(simulated) == 1 else "DIFFERENT"
        failed_a, attempted_a = _errors(a[workload])
        failed_b, attempted_b = _errors(b[workload])
        row["failed"] = f"{failed_a}/{attempted_a} {failed_b}/{attempted_b}"
        if failed_b * attempted_a > failed_a * attempted_b:
            row["failed"] += " worse"
        rows.append(row)
    return rows


def regressed(row: Dict[str, str]) -> bool:
    return (
        any(value.startswith("worse") for value in row.values())
        or row["simulated"] != "identical"
        or row["failed"].endswith("worse")
    )


def unresolved(row: Dict[str, str]) -> bool:
    return any(value.startswith("unresolved") for value in row.values())


def exit_code(rows: Sequence[Dict[str, str]]) -> int:
    """1 if any row regressed, else 2 if any metric is unresolved, else 0."""
    if any(regressed(row) for row in rows):
        return 1
    return 2 if any(unresolved(row) for row in rows) else 0


def print_spreads(runs: Dict[str, List[dict]], metrics: List[dict]) -> None:
    print(f"{'workload':20s} {'metric':14s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for workload, docs in sorted(runs.items()):
        for metric in metrics:
            values = _values(docs, metric["name"])
            q1, median, q3 = quartiles(values)
            print(f"{workload:20s} {metric['name']:14s} {len(values):3d} "
                  f"{median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread(values):8.2%} {metric['bound'] / 3:8.2%}")


def print_layers(runs: Dict[str, List[dict]]) -> None:
    """Markdown table of every span's self time per workload (median over
    the traced runs, with its share of the summed self time of every
    process of the run), heaviest first on report-cold."""
    workloads = sorted(runs)
    seconds: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        for name in runs[workload][0]["metrics"]:
            if name.endswith(".self_s"):
                seconds.setdefault(name[: -len(".self_s")], {})[workload] = (
                    statistics.median(doc["metrics"][name] for doc in runs[workload])
                )
    totals = {w: sum(row[w] for row in seconds.values()) for w in workloads}
    key = "report-cold" if "report-cold" in runs else workloads[0]
    spans = sorted(seconds, key=lambda span: -seconds[span][key])
    print("| span | " + " | ".join(workloads) + " |")
    print("|---|" + "---:|" * len(workloads))
    for span in spans:
        cells = [
            f"{seconds[span][w]:.3f} s ({seconds[span][w] / totals[w]:.1%})"
            for w in workloads
        ]
        print(f"| {span} | " + " | ".join(cells) + " |")


def main(argv: Sequence[str]) -> int:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if "--" not in argv:
        untraced, traced = load(argv), load(argv, traced=True)
        if untraced:
            print_spreads(untraced, metrics)
        if traced:
            print_layers(traced)
        return 0
    split = list(argv).index("--")
    a, b = load(argv[:split]), load(argv[split + 1:])
    rows = compare(a, b, metrics)
    for row in rows:
        print("  ".join(f"{key}={value}" if key != "workload" else f"{value:20s}"
                        for key, value in row.items()))
    return exit_code(rows)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

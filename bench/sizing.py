#!/usr/bin/env python3
"""Does the benchmark's reduced report sizing keep the layer shares of
the sizings users run?

    python3 bench/sizing.py [SIZING ...]

Traces ``repro report --jobs 1`` once per sizing through
``bench/layers.py``, each run with a fresh empty cache, and prints
markdown tables: the run's wall time, I-SPY's simulated mean speedup and
%-of-ideal, each layer's share of the run, and the spans with the most
self time.  With one process the self times sum to the wall.  The
sizings (default: all) are the benchmark's, ``--scale 0.3`` with 24000
profiled blocks, and the CLI's defaults, which take the longest by far.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import layers
import run

SIZINGS: Dict[str, Tuple[str, ...]] = {
    "benchmark": run.REPORT[1:],
    "scale-0.3": (
        "--scale", "0.3", "--profile-blocks", "24000", "--eval-blocks", "30000",
        "--warmup", "6000",
    ),
    "cli-default": (),
}
#: spans listed per sizing, by self time
TOP = 8


def trace(sizing: Sequence[str], work: Path) -> Tuple[float, Dict[str, float], Dict[str, float]]:
    """``(wall s, per-layer metrics, simulated results)`` of one traced
    serial report at *sizing*."""
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    report = work / "report.md"
    cmd = (
        sys.executable, str(run.BENCH / "layers.py"), str(spans_dir), "report", *sizing,
        "--jobs", "1", "-o", str(report), "--cache", str(work / "cache"),
    )
    wall, _, _, code, _ = run.run_command(cmd, work, "traced")
    if code != 0:
        raise SystemExit(f"traced report at {' '.join(sizing) or 'CLI defaults'} failed")
    metrics = layers.layer_metrics(layers.load_spans(spans_dir), wall, wall, 1, 0.0)
    simulated = run.simulated_metrics(run.WORKLOADS["report-cold"], report.read_text())
    return wall, metrics, simulated


def print_tables(results: Dict[str, Tuple[float, Dict[str, float], Dict[str, float]]]) -> None:
    names = list(results)
    print("| `repro report --jobs 1` | " + " | ".join(names) + " |")
    print("|---|" + "---:|" * len(names))
    print("| wall, traced | " + " | ".join(f"{results[n][0]:.1f} s" for n in names) + " |")
    print("| I-SPY mean speedup | "
          + " | ".join(f"{results[n][2]['ispy_speedup'] - 1:+.1%}" for n in names) + " |")
    print("| I-SPY mean %-of-ideal | "
          + " | ".join(f"{results[n][2]['ispy_pct_of_ideal']:.1%}" for n in names) + " |")
    for layer in layers.LAYERS:
        cells = [f"{results[n][1][f'{layer}.share']:.1%}" for n in names]
        print(f"| `{layer}` share | " + " | ".join(cells) + " |")

    top: Dict[str, List[str]] = {}
    for name in names:
        wall, metrics, _ = results[name]
        self_s = {
            metric[: -len(".self_s")]: value
            for metric, value in metrics.items() if metric.endswith(".self_s")
        }
        ranked = sorted(self_s, key=lambda span: -self_s[span])[:TOP]
        top[name] = [f"`{span}` {self_s[span] / wall:.1%}" for span in ranked]
    print("\n| rank | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for rank in range(TOP):
        print(f"| {rank + 1} | " + " | ".join(top[n][rank] for n in names) + " |")


def main(argv: Sequence[str]) -> int:
    names = list(argv) or list(SIZINGS)
    unknown = set(names) - set(SIZINGS)
    if unknown:
        print(f"unknown sizing {', '.join(sorted(unknown))}; choose from "
              f"{', '.join(SIZINGS)}", file=sys.stderr)
        return 2
    # a terminated run unwinds, so that it stops the command it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = run.BENCH / ".work" / f"sizing-{os.getpid()}"
    try:
        results = {name: trace(SIZINGS[name], work / name) for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_tables(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

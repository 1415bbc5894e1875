#!/usr/bin/env python3
"""Fleet study: I-SPY vs AsmDB vs ideal across the nine applications.

The paper's headline experiment (Figs. 10/11/13/14/15) in one table.
By default this runs at a reduced scale so it finishes in about a
minute; pass ``--full`` for the benchmark-scale configuration the
EXPERIMENTS.md numbers come from (several minutes).

Simulations fan out across all CPUs by default (``--jobs 1`` forces
serial execution — results are bit-identical either way), and
``--cache DIR`` persists every artifact so re-runs are nearly free.

Run:  python examples/datacenter_fleet_study.py [--full] [--jobs N]
"""

import argparse
import time

from repro.analysis.experiments import (
    ExperimentSettings,
    fig10_speedup,
    fig11_mpki,
    fig13_accuracy,
    fig15_dynamic_footprint,
    headline_summary,
)
from repro.analysis.reporting import percent, render_table
from repro.runconfig import RunConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="benchmark-scale configuration"
    )
    parser.add_argument(
        "--apps", nargs="*", default=None, help="subset of applications"
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes (0 = one per CPU, 1 = serial)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persistent artifact cache directory",
    )
    args = parser.parse_args()

    settings = (
        ExperimentSettings() if args.full else ExperimentSettings.medium()
    )
    # timing=True: finalize prints the run's span summary
    config = RunConfig(
        settings=settings, store=args.cache, jobs=args.jobs, timing=True
    )
    evaluator = config.evaluator()
    apps = args.apps

    started = time.time()
    evaluator.prewarm(
        apps, variants=("baseline", "ideal", "asmdb", "ispy")
    )
    speedups = fig10_speedup(evaluator, apps)
    mpki = fig11_mpki(evaluator, apps)
    accuracy = fig13_accuracy(evaluator, apps)
    dynamic = fig15_dynamic_footprint(evaluator, apps)

    rows = []
    for s, m, a, d in zip(speedups, mpki, accuracy, dynamic):
        rows.append(
            {
                "app": s["app"],
                "ideal": f"+{(s['ideal_speedup'] - 1) * 100:.1f}%",
                "asmdb": f"+{(s['asmdb_speedup'] - 1) * 100:.1f}%",
                "ispy": f"+{(s['ispy_speedup'] - 1) * 100:.1f}%",
                "ispy/ideal": percent(s["ispy_pct_of_ideal"]),
                "mpki_cut": percent(m["ispy_reduction"]),
                "acc(a/i)": f"{a['asmdb_accuracy']:.2f}/{a['ispy_accuracy']:.2f}",
                "dyn(a/i)": (
                    f"{d['asmdb_dynamic_increase'] * 100:.1f}%/"
                    f"{d['ispy_dynamic_increase'] * 100:.1f}%"
                ),
            }
        )
    print(render_table(rows, title="I-SPY fleet study (Figs. 10/11/13/15)"))

    summary = headline_summary(evaluator, apps)
    print(
        f"\nmean I-SPY speedup: +{summary['mean_speedup'] * 100:.1f}% "
        f"(max +{summary['max_speedup'] * 100:.1f}%)"
    )
    print(f"mean %-of-ideal:    {percent(summary['mean_pct_of_ideal'])}")
    print(
        f"mean MPKI cut:      {percent(summary['mean_mpki_reduction'])} "
        f"(max {percent(summary['max_mpki_reduction'])})"
    )
    print(
        "mean improvement over AsmDB: "
        f"{percent(summary['mean_improvement_over_asmdb'])}"
    )
    print(f"\nelapsed: {time.time() - started:.0f}s")
    config.finalize(evaluator)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: profile an application, build an I-SPY plan, measure.

This walks the paper's Fig. 9 usage model end to end on one
application:

1. synthesize the workload (a scaled-down ``wordpress``),
2. profile one execution with the LBR/PEBS model,
3. run I-SPY's offline analysis to get a prefetch plan,
4. replay a *different* execution with and without the plan,
5. report speedup, MPKI reduction and prefetch accuracy.

Run:  python examples/quickstart.py
"""

from repro import (
    build_asmdb_plan,
    build_ispy_plan,
    get_app,
    profile_execution,
    simulate,
)
from repro.analysis import metrics

SCALE = 0.6          # shrink the app for a fast demo
PROFILE_BLOCKS = 60_000
EVAL_BLOCKS = 80_000
WARMUP = 16_000


def main() -> None:
    print("=== I-SPY quickstart ===")
    app = get_app("kafka", scale=SCALE)
    program = app.program
    print(
        f"workload: {app.name} — {len(program)} basic blocks, "
        f"{program.text_bytes // 1024} KiB of code "
        f"({program.text_bytes // (32 * 1024)}x the 32 KiB L1I)"
    )

    # 1. online profiling (Fig. 9 step 1)
    profile = profile_execution(
        program, app.trace(PROFILE_BLOCKS), data_traffic=app.data_traffic()
    )
    print(
        f"profiled {len(profile)} block executions, "
        f"{profile.sampled_miss_count} sampled L1I misses on "
        f"{len(profile.miss_counts_by_line())} distinct lines"
    )

    # 2. offline analysis (Fig. 9 step 2-3)
    ispy = build_ispy_plan(program, profile)
    asmdb = build_asmdb_plan(program, profile)
    print(
        f"I-SPY plan: {len(ispy.plan)} instructions "
        f"{dict(ispy.plan.kind_counts())}, "
        f"+{ispy.plan.static_increase(program.text_bytes) * 100:.2f}% text"
    )
    print(
        f"AsmDB plan: {len(asmdb.plan)} instructions, "
        f"+{asmdb.plan.static_increase(program.text_bytes) * 100:.2f}% text"
    )

    # 3. evaluation on an unseen execution
    eval_trace = app.trace(EVAL_BLOCKS, seed=app.spec.seed + 31337)

    def run(plan=None):
        return simulate(
            program,
            eval_trace,
            plan=plan,
            warmup=WARMUP,
            data_traffic=app.data_traffic(seed=99),
        )

    base = run()
    # the ideal cache (every fetch hits) is a projection of the baseline
    ideal = base.ideal_bound()
    s_ispy = run(plan=ispy.plan)
    s_asmdb = run(plan=asmdb.plan)

    print(f"\nbaseline: {base.l1i_mpki:.1f} MPKI, "
          f"{base.frontend_bound_fraction * 100:.0f}% frontend-bound")
    print(f"ideal cache: +{(metrics.speedup(base, ideal) - 1) * 100:.1f}% speedup")
    for label, stats in (("AsmDB", s_asmdb), ("I-SPY", s_ispy)):
        speedup = metrics.speedup(base, stats) - 1
        pct = metrics.percent_of_ideal(base, stats, ideal)
        reduction = metrics.mpki_reduction(base, stats)
        print(
            f"{label}: +{speedup * 100:.1f}% speedup "
            f"({pct * 100:.0f}% of ideal), "
            f"{reduction * 100:.0f}% MPKI reduction, "
            f"accuracy {stats.prefetch_accuracy * 100:.0f}%, "
            f"dynamic +{stats.dynamic_overhead * 100:.1f}% instructions"
        )


if __name__ == "__main__":
    main()

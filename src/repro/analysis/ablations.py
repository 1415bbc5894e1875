"""Ablation studies for I-SPY's design choices.

Beyond the paper's own sensitivity figures (17-21), these ablate the
design decisions the paper fixes by construction:

* **Replacement priority** — Section III-B inserts prefetched lines
  at *half* the highest priority instead of MRU; sweep the insertion
  point to verify the choice.
* **PEBS sample period** — the paper profiles with precise sampling;
  sweep the sampling period to measure how much plan quality degrades
  as profiling gets cheaper.
* **LBR depth** — the runtime-hash digests a 32-entry LBR; sweep the
  depth to expose the context-visibility / filter-saturation trade.
* **Hardware prefetcher comparison** — Section VIII argues next-line
  prefetchers are inaccurate on branchy data-center code and that
  branch-predictor-directed schemes suffer insufficient lookahead;
  measure next-N-line and FDIP against the profile-guided schemes on
  equal footing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..baselines import protocol as zoo
from ..core.config import DEFAULT_CONFIG
from ..core.ispy import build_ispy_plan
from ..profiling.profiler import profile_execution
from ..sim.cpu import CoreSimulator
from . import metrics
from .experiments import Evaluator


def _replay(evaluation, core: CoreSimulator, label: str):
    """Replay the evaluation trace on an ablation's own *core*, under a
    ``sim:replay`` span that records the backend it ran on."""
    trace = evaluation.eval_trace
    with evaluation.span(
        "sim:replay", app=evaluation.name, plan=label, blocks=len(trace.block_ids)
    ) as span:
        stats = core.run(trace, warmup=evaluation.settings.warmup)
        span.set(backend=core.last_replay_backend)
    return stats


def ablation_replacement_priority(
    evaluator: Evaluator,
    app: str = "kafka",
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
) -> List[Dict[str, object]]:
    """Sweep the LRU insertion point for prefetched lines."""
    evaluation = evaluator[app]
    plan = evaluation.ispy_result().plan
    rows = []
    for fraction in fractions:
        core = CoreSimulator(
            evaluation.app.program,
            plan=plan,
            data_traffic=evaluation.app.data_traffic(
                seed=evaluation.app.spec.seed + 777
            ),
            prefetch_insertion_fraction=fraction,
        )
        stats = _replay(evaluation, core, f"insertion-{fraction}")
        rows.append(
            {
                "insertion_fraction": fraction,
                "pct_of_ideal": metrics.percent_of_ideal(
                    evaluation.baseline_stats, stats, evaluation.ideal_stats
                ),
                "l1i_mpki": stats.l1i_mpki,
                "unused_evictions": float(
                    core.hierarchy.l1i.stats.prefetch_unused_evictions
                ),
            }
        )
    return rows


def ablation_sample_period(
    evaluator: Evaluator,
    app: str = "kafka",
    periods: Sequence[int] = (1, 4, 16, 64),
) -> List[Dict[str, object]]:
    """Sweep the PEBS sampling period used for profiling."""
    evaluation = evaluator[app]
    program = evaluation.app.program
    profile_trace = evaluation.app.trace(evaluator.settings.profile_length)
    rows = []
    for period in periods:
        profile = profile_execution(
            program,
            profile_trace,
            sample_period=period,
            data_traffic=evaluation.app.data_traffic(),
        )
        # A sampled profile under-counts every line by ~the period, so
        # a deployment scales its thresholds to *estimated* miss
        # counts; otherwise sparser sampling silently plans nothing.
        config = replace(
            DEFAULT_CONFIG,
            min_miss_samples=max(
                1, round(DEFAULT_CONFIG.min_miss_samples / period)
            ),
            min_context_support=max(
                2, round(DEFAULT_CONFIG.min_context_support / period)
            ),
        )
        result = build_ispy_plan(program, profile, config)
        stats = evaluation.run_plan(result.plan)
        rows.append(
            {
                "sample_period": period,
                "sampled_misses": profile.sampled_miss_count,
                "plan_instructions": len(result.plan),
                "pct_of_ideal": metrics.percent_of_ideal(
                    evaluation.baseline_stats, stats, evaluation.ideal_stats
                ),
            }
        )
    return rows


def ablation_lbr_depth(
    evaluator: Evaluator,
    app: str = "kafka",
    depths: Sequence[int] = (8, 16, 32, 64),
) -> List[Dict[str, object]]:
    """Sweep the LBR depth used by discovery and the runtime-hash."""
    evaluation = evaluator[app]
    rows = []
    for depth in depths:
        config = replace(DEFAULT_CONFIG, lbr_depth=depth)
        result = evaluation.ispy_result(config)
        core = CoreSimulator(
            evaluation.app.program,
            plan=result.plan,
            lbr_depth=depth,
            data_traffic=evaluation.app.data_traffic(
                seed=evaluation.app.spec.seed + 777
            ),
        )
        stats = _replay(evaluation, core, f"lbr-depth-{depth}")
        rows.append(
            {
                "lbr_depth": depth,
                "pct_of_ideal": metrics.percent_of_ideal(
                    evaluation.baseline_stats, stats, evaluation.ideal_stats
                ),
                "suppressed": float(stats.prefetches_suppressed),
                "contexts": len(result.report.contexts),
            }
        )
    return rows


def ablation_hardware_prefetcher(
    evaluator: Evaluator,
    apps: Optional[Sequence[str]] = None,
    lines_ahead: Sequence[int] = (1, 2, 4),
) -> List[Dict[str, object]]:
    """Next-N-line hardware prefetching vs the profile-guided schemes."""
    rows = []
    for evaluation in evaluator.apps(apps):
        row: Dict[str, object] = {"app": evaluation.name}

        def run(prefetcher: "zoo.Prefetcher"):
            return prefetcher.simulate(
                zoo.ProfileView(evaluation.app.program),
                evaluation.eval_trace,
                zoo.ReplayContext(
                    data_traffic=evaluation.app.data_traffic(
                        seed=evaluation.app.spec.seed + 777
                    ),
                    warmup=evaluator.settings.warmup,
                ),
            )

        for n in lines_ahead:
            stats = run(zoo.get_prefetcher("nextline", lines_ahead=n))
            row[f"nextline{n}_pct_of_ideal"] = metrics.percent_of_ideal(
                evaluation.baseline_stats, stats, evaluation.ideal_stats
            )
        # FDIP at two storage points: a small 512-entry BTB (~4 KB)
        # and a large 4K-entry BTB (~32 KB).  Contrast with I-SPY's 96
        # bits of architectural state — the paper's storage argument.
        for label, capacity in (("fdip_small_btb", 512), ("fdip_large_btb", 4096)):
            fdip = run(zoo.get_prefetcher("fdip", btb_capacity=capacity))
            row[f"{label}_pct_of_ideal"] = metrics.percent_of_ideal(
                evaluation.baseline_stats, fdip, evaluation.ideal_stats
            )
        row["asmdb_pct_of_ideal"] = evaluation.percent_of_ideal("asmdb")
        row["ispy_pct_of_ideal"] = evaluation.percent_of_ideal("ispy")
        rows.append(row)
    return rows

"""Process-parallel fan-out for the evaluation harness.

Jobs are top-level functions (picklable by the default
``ProcessPoolExecutor`` machinery); each worker builds its own
:class:`~repro.analysis.experiments.Evaluator` against the shared
on-disk artifact store, so cross-process communication is limited to
content-addressed files plus the returned statistics.  The apps
themselves come from the process-wide
:func:`~repro.workloads.apps.get_app` memo, so a worker synthesizes
each app at most once, however many of its jobs use it.

Telemetry crosses the same boundary the same way: each job runs under
its own :class:`~repro.obs.trace.Tracer` and returns one span snapshot
with its result; the parent :meth:`~repro.obs.trace.Tracer.absorb`\\ s
it onto one synthetic thread per worker pid, so the run's summary
(``--timing``, the manifest) counts worker work like its own.

Determinism: every seed in the pipeline derives from the app spec, so
a worker computes exactly what the parent would have — parallel
results are bit-identical to serial ones, whatever the job count or
completion order, and whether or not the trace is written.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sim.stats import SimStats
    from .experiments import Evaluator, ExperimentSettings


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: zero or negative means all CPUs."""
    if jobs is None or int(jobs) <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def _worker_evaluator(
    settings: "ExperimentSettings",
    store_root: str,
    shard_insns: Optional[int] = None,
):
    from ..obs.trace import Tracer
    from ..runconfig import RunConfig

    return RunConfig(
        settings=settings,
        store=store_root,
        tracer=Tracer(process_label="repro-worker"),
        shard_insns=shard_insns,
    ).evaluator()


def prepare_app(
    name: str,
    variants: Sequence[str],
    settings: "ExperimentSettings",
    store_root: str,
    shard_insns: Optional[int] = None,
) -> Tuple[str, List[dict]]:
    """Phase-1 job: persist one app's profile and the plan of every
    plan-replayed member among *variants*, so the parent can resolve
    each variant's stats key."""
    evaluator = _worker_evaluator(settings, store_root, shard_insns)
    with evaluator.tracer.span("job:prepare-app", app=name):
        evaluation = evaluator[name]
        evaluation.profile
        for variant in variants:
            if evaluation._variant_key(variant) is None:
                evaluation.plan_for(variant)
    return name, evaluator.tracer.snapshot()


def evaluate_variant(
    name: str,
    variant: str,
    settings: "ExperimentSettings",
    store_root: str,
    shard_insns: Optional[int] = None,
) -> Tuple[str, str, "SimStats", List[dict]]:
    """Phase-2 job: simulate one (app, variant) pair.

    Workers inherit the parent's shard budget: each replay streams its
    trace shard by shard and checkpoints into the shared store, so a
    killed prewarm re-invoked with the same configuration resumes
    every in-flight simulation from its last completed shard.
    """
    evaluator = _worker_evaluator(settings, store_root, shard_insns)
    with evaluator.tracer.span("job:evaluate-variant", app=name, variant=variant):
        stats = evaluator[name].stats_for(variant)
    return name, variant, stats, evaluator.tracer.snapshot()


def run_prewarm_jobs(
    evaluator: "Evaluator",
    misses: Dict[str, Sequence[str]],
    n_jobs: int,
) -> None:
    """Fan the (app, variant) simulations of *misses* (app -> the
    variants the caches lack) across *n_jobs* processes.

    Phase 1 builds each app's shared artifacts (profile + requested
    plans) exactly once, so phase 2's jobs only load them from the
    store instead of duplicating the planning work.  Between the
    phases the parent resolves each variant's stats key: variants
    whose plans coincide share one key, and so one job, whose stats
    the parent stores under each of them.
    """
    store_root = str(evaluator.store.root)
    settings = evaluator.settings
    tracer = evaluator.tracer
    shard_insns = evaluator.shard_insns
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        with tracer.span("prewarm:prepare", apps=len(misses)):
            prepared = [
                pool.submit(
                    prepare_app, name, variants, settings, store_root,
                    shard_insns,
                )
                for name, variants in misses.items()
            ]
            for future in prepared:
                _, events = future.result()
                tracer.absorb(events)
        # (app, stats key) -> the variants it serves, first one replayed
        jobs: Dict[Tuple[str, str], List[str]] = {}
        for name, variants in misses.items():
            evaluation = evaluator[name]
            for variant in variants:
                key = evaluation._variant_key(variant) or variant
                jobs.setdefault((name, key), []).append(variant)
        with tracer.span("prewarm:simulate", jobs=len(jobs), workers=n_jobs):
            simulated = [
                pool.submit(
                    evaluate_variant, name, variants[0], settings, store_root,
                    shard_insns,
                )
                for (name, _), variants in jobs.items()
            ]
            for future, ((name, _), variants) in zip(simulated, jobs.items()):
                _, _, stats, events = future.result()
                tracer.absorb(events)
                for variant in variants:
                    evaluator[name]._stats[variant] = stats

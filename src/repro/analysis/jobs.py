"""Process-parallel fan-out for the evaluation harness.

Jobs are top-level functions (picklable by the default
``ProcessPoolExecutor`` machinery); each worker builds its own
:class:`~repro.analysis.experiments.Evaluator` against the shared
on-disk artifact store, so cross-process communication is limited to
content-addressed files, the returned statistics and, for a sweep
job, the plans it replays.  The apps, their evaluation traces and
their stored profiles come from the process-wide
:func:`~repro.workloads.apps.get_app`,
:func:`~repro.workloads.apps.get_trace` and
:func:`~repro.workloads.apps.get_profile` memos, so a worker
synthesizes each app, generates its evaluation trace and loads its
profile at most once, however many of its jobs use them.

A prewarm runs in two phases (:func:`run_prewarm_jobs`):
:func:`prepare_app` jobs build and store each app's profile and plans,
the plans of the prewarmed figures' sweeps included; then
:func:`evaluate_variant` jobs replay one (app, variant) each and
:func:`evaluate_sweep` jobs replay one batch of an app's missing sweep
items over one trace each.  An app whose only missing variant is its
baseline needs no profile, and so no phase-1 job.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sim.stats import SimStats
    from .experiments import Evaluator, ExperimentSettings, Figure, TraceArg


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
    figures: Sequence[str] = (),
) -> Tuple[str, List[dict]]:
    """Phase-1 job: persist one app's profile, the plan of every
    plan-replayed member among *variants* and every plan the sweeps of
    *figures* (names in :data:`~repro.analysis.experiments.FIGURES`)
    replay on the app, so the parent can resolve each replay's stats
    key."""
    from .experiments import FIGURES, sweep_requests

    evaluator = _worker_evaluator(settings, store_root, shard_insns)
    with evaluator.tracer.span("job:prepare-app", app=name):
        evaluation = evaluator[name]
        evaluation.profile
        for variant in variants:
            if evaluation._variant_key(variant) is None:
                evaluation.plan_for(variant)
        sweep_requests(evaluation, [FIGURES[figure] for figure in figures])
    return name, evaluator.tracer.snapshot()


def evaluate_variant(
    name: str,
    variant: str,
    settings: "ExperimentSettings",
    store_root: str,
    shard_insns: Optional[int] = None,
    footprint: bool = False,
) -> Tuple[str, str, "SimStats", List[dict]]:
    """Phase-2 job: simulate one (app, variant) pair and, with
    *footprint*, store what its deployment footprint trains.

    Workers inherit the parent's shard budget: each replay streams its
    trace shard by shard and checkpoints into the shared store, so a
    killed prewarm re-invoked with the same configuration resumes
    every in-flight simulation from its last completed shard.
    """
    evaluator = _worker_evaluator(settings, store_root, shard_insns)
    with evaluator.tracer.span("job:evaluate-variant", app=name, variant=variant):
        stats = evaluator[name].stats_for(variant)
        if footprint:
            evaluator[name].footprint_for(variant)
    return name, variant, stats, evaluator.tracer.snapshot()


def evaluate_sweep(
    name: str,
    items: list,
    trace: "TraceArg",
    settings: "ExperimentSettings",
    store_root: str,
    shard_insns: Optional[int] = None,
) -> Tuple[List["SimStats"], List[dict]]:
    """Phase-2 job: replay one app's missing sweep *items* over one
    trace, as one :meth:`~repro.analysis.experiments.AppEvaluation.run_plans`
    call (so one batch, or one sharded replay per item)."""
    evaluator = _worker_evaluator(settings, store_root, shard_insns)
    with evaluator.tracer.span(
        "job:evaluate-sweep", app=name, variants=len(items)
    ):
        stats = evaluator[name].run_plans(items, trace=trace)
    return stats, evaluator.tracer.snapshot()


def run_prewarm_jobs(
    evaluator: "Evaluator",
    misses: Dict[str, Sequence[str]],
    sweep_apps: Sequence[str],
    sweeps: Sequence["Figure"],
    sized: Set[Tuple[str, str]],
    unplanned: Dict[str, Sequence[str]],
    n_jobs: int,
) -> None:
    """Fan the (app, variant) simulations of *misses* (app -> the
    variants the caches lack) and the missing replays of *sweeps* on
    *sweep_apps* across *n_jobs* processes; a variant job of a pair in
    *sized* also stores what the variant's footprint trains, and phase 1
    also trains the plans of *unplanned* (app -> plan variants).

    Phase 1 builds each app's shared artifacts (profile, requested
    plans and sweep plans) exactly once, so phase 2's jobs only load
    them from the store instead of duplicating the planning work.
    Between the phases the parent resolves each replay's stats key:
    variants whose plans coincide share one key, and so one job, whose
    stats the parent stores under each of them; a sweep item whose key
    a variant job or an earlier sweep item already serves is dropped.
    Phase 2 then runs one job per (app, stats key) of the variants and
    one batched job per (app, trace) of the remaining sweep items, cut
    where it would be wider than the widest sweep run
    (:meth:`~repro.analysis.experiments.AppEvaluation.sweep_misses`).
    """
    store_root = str(evaluator.store.root)
    settings = evaluator.settings
    tracer = evaluator.tracer
    shard_insns = evaluator.shard_insns
    figures = tuple(figure.name for figure in sweeps)
    # the sweep apps first: they train the most plans; a baseline needs
    # no profile, so no phase-1 job
    prepare = {name: misses.get(name, ()) for name in sweep_apps}
    prepare.update(
        (name, variants) for name, variants in misses.items()
        if set(variants) - {"baseline"}
    )
    for name, variants in unplanned.items():
        prepare[name] = prepare.get(name, ()) + variants
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        with tracer.span("prewarm:prepare", apps=len(prepare)):
            prepared = [
                pool.submit(
                    prepare_app, name, variants, settings, store_root,
                    shard_insns, figures if name in sweep_apps else (),
                )
                for name, variants in prepare.items()
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
        # (app, trace, the (item, stats key) pairs of one batch)
        batches: List[Tuple[str, "TraceArg", List[Tuple[object, str]]]] = []
        for name in sweep_apps:
            served = [key for app, key in jobs if app == name]
            batches += [
                (name, trace, pairs)
                for trace, pairs in evaluator[name].sweep_misses(sweeps, served)
            ]
        with tracer.span(
            "prewarm:simulate", jobs=len(batches) + len(jobs), workers=n_jobs
        ):
            swept = [
                pool.submit(
                    evaluate_sweep, name, [item for item, _ in pairs], trace,
                    settings, store_root, shard_insns,
                )
                for name, trace, pairs in batches
            ]
            simulated = [
                pool.submit(
                    evaluate_variant, name, variants[0], settings, store_root,
                    shard_insns, (name, variants[0]) in sized,
                )
                for (name, _), variants in jobs.items()
            ]
            for future, (name, _, pairs) in zip(swept, batches):
                stats, events = future.result()
                tracer.absorb(events)
                for (_, key), item_stats in zip(pairs, stats):
                    evaluator[name]._sim_cache[key] = item_stats
            for future, ((name, key), variants) in zip(simulated, jobs.items()):
                _, _, stats, events = future.result()
                tracer.absorb(events)
                evaluation = evaluator[name]
                if key not in variants:  # a stats key, not the fallback
                    evaluation._sim_cache[key] = stats
                for variant in variants:
                    evaluation._stats[variant] = stats

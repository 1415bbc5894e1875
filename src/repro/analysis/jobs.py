"""The prewarm's jobs, run in a worker pool or in process.

A prewarm (:func:`run_prewarm_jobs`) builds one list of jobs from its
demand and runs it one way at any job count: with more than one job
each goes to a ``ProcessPoolExecutor`` worker, else it is called in
process on the prewarming evaluator itself.  A job is a top-level
function over an :class:`~repro.analysis.experiments.Evaluator`
(picklable by the default ``ProcessPoolExecutor`` machinery); a worker
builds its own evaluator against the shared on-disk artifact store, so
cross-process communication is limited to content-addressed files, the
returned statistics and the plans a replay job replays.  The apps,
their evaluation traces and their stored profiles come from the
process-wide :func:`~repro.workloads.apps.get_app`,
:func:`~repro.workloads.apps.get_trace` and
:func:`~repro.workloads.apps.get_profile` memos, so a worker
synthesizes each app, generates its evaluation trace and loads its
profile at most once, however many of its jobs use them.

Telemetry crosses the process boundary the same way: each worker job
runs under its own :class:`~repro.obs.trace.Tracer` and returns one
span snapshot with its result; the parent
:meth:`~repro.obs.trace.Tracer.absorb`\\ s it onto one synthetic thread
per worker pid, so the run's summary (``--timing``, the manifest)
counts worker work like its own.  An in-process job records onto the
run's tracer directly.

Determinism: every seed in the pipeline derives from the app spec, so
a worker computes exactly what the parent would have — parallel
results are bit-identical to serial ones, whatever the job count or
completion order, and whether or not the trace is written.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sim.stats import SimStats
    from .experiments import Evaluator, ExperimentSettings, Figure, TraceArg


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: zero or negative means all CPUs."""
    if jobs is None or int(jobs) <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def in_worker(
    job,
    args: tuple,
    settings: "ExperimentSettings",
    store_root: str,
    shard_insns: Optional[int] = None,
):
    """Run ``job(evaluator, *args)`` on a fresh evaluator over the store
    at *store_root*: its result and its span snapshot.

    Workers inherit the parent's shard budget: each replay streams its
    trace shard by shard and checkpoints into the shared store, so a
    killed prewarm re-invoked with the same configuration resumes
    every in-flight simulation from its last completed shard.
    """
    from ..obs.trace import Tracer
    from ..runconfig import RunConfig

    evaluator = RunConfig(
        settings=settings,
        store=store_root,
        tracer=Tracer(process_label="repro-worker"),
        shard_insns=shard_insns,
    ).evaluator()
    return job(evaluator, *args), evaluator.tracer.snapshot()


def prepare_app(
    evaluator: "Evaluator",
    name: str,
    variants: Sequence[str],
    figures: Sequence[str] = (),
) -> None:
    """Phase-1 job: build one app's profile, the plan of every
    plan-replayed member among *variants* and every plan the sweeps of
    *figures* (names in :data:`~repro.analysis.experiments.FIGURES`)
    replay on the app, so the parent can resolve each replay's stats
    key."""
    from .experiments import FIGURES, sweep_requests

    with evaluator.tracer.span("job:prepare-app", app=name):
        evaluation = evaluator[name]
        evaluation.profile
        for variant in variants:
            if evaluation._variant_key(variant) is None:
                evaluation.plan_for(variant)
        sweep_requests(evaluation, [FIGURES[figure] for figure in figures])


def replay_plans(
    evaluator: "Evaluator", name: str, items: list, trace: "TraceArg"
) -> List["SimStats"]:
    """Phase-2 job: replay one app's missing ``run_plans`` *items* over
    one trace, as one
    :meth:`~repro.analysis.experiments.AppEvaluation.run_plans` call
    (so one batch, or one sharded replay per item)."""
    with evaluator.tracer.span("job:replay-plans", app=name, variants=len(items)):
        return evaluator[name].run_plans(items, trace=trace)


def evaluate_variant(
    evaluator: "Evaluator", name: str, variant: str, footprint: bool = False
) -> "SimStats":
    """Phase-2 job: simulate one mechanism member on one app and, with
    *footprint*, store what its deployment footprint trains."""
    with evaluator.tracer.span("job:evaluate-variant", app=name, variant=variant):
        stats = evaluator[name].stats_for(variant)
        if footprint:
            evaluator[name].footprint_for(variant)
    return stats


@contextmanager
def _runner(evaluator: "Evaluator", n_jobs: int):
    """A function that runs a list of ``(job, args)`` pairs and returns
    their results in order: in a pool of *n_jobs* workers over the
    evaluator's store (an ephemeral one when it has none), or in
    process with one job."""
    if n_jobs <= 1:
        yield lambda jobs: [job(evaluator, *args) for job, args in jobs]
        return
    tracer = evaluator.tracer
    store_root = str(evaluator._ensure_store().root)
    config = (evaluator.settings, store_root, evaluator.shard_insns)

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        def run(jobs):
            futures = [
                pool.submit(in_worker, job, args, *config) for job, args in jobs
            ]
            results = []
            for future in futures:
                result, events = future.result()
                tracer.absorb(events)
                results.append(result)
            return results

        yield run


def run_prewarm_jobs(
    evaluator: "Evaluator",
    misses: Dict[str, Sequence[str]],
    sweep_apps: Sequence[str],
    sweeps: Sequence["Figure"],
    sized: Set[Tuple[str, str]],
    unplanned: Dict[str, Sequence[str]],
    n_jobs: int,
) -> None:
    """Compute the (app, variant) statistics of *misses* (app -> the
    variants the caches lack) and the missing replays of *sweeps* on
    *sweep_apps*, in a pool of *n_jobs* workers or, with one job, in
    process; a mechanism job of a pair in *sized* also stores what the
    variant's footprint trains.

    Phase 1 runs one :func:`prepare_app` job per app that needs a
    profile, so each app's profile, plans (those of *unplanned*, app ->
    plan variants, included) and sweep plans are built exactly once.
    Between the phases the parent resolves each replay's stats key
    (:meth:`~repro.analysis.experiments.AppEvaluation.plan_misses`).
    Phase 2 runs one :func:`replay_plans` job per batch of an app's
    missing items (its plan variants, or its sweep items on one
    trace), and one :func:`evaluate_variant` job per missing mechanism
    member.  Every stats key a job returns is stored in its app's
    memory cache.
    """
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
    tracer = evaluator.tracer
    with _runner(evaluator, n_jobs) as run:
        with tracer.span("prewarm:prepare", apps=len(prepare)):
            run([
                (prepare_app, (name, variants, figures if name in sweep_apps else ()))
                for name, variants in prepare.items()
            ])
        # (app, trace, the (item, stats key) pairs of one batch)
        batches: List[Tuple[str, "TraceArg", List[Tuple[object, str]]]] = []
        # (app, mechanism variant)
        members: List[Tuple[str, str]] = []
        for name in dict.fromkeys((*sweep_apps, *misses)):
            evaluation = evaluator[name]
            variants = misses.get(name, ())
            own = sweeps if name in sweep_apps else ()
            batches += [
                (name, trace, pairs)
                for trace, pairs in evaluation.plan_misses(variants, own)
            ]
            members += [
                (name, variant) for variant in variants
                if not evaluation.replays_plan(variant)
            ]
        jobs = [
            (replay_plans, (name, [item for item, _ in pairs], trace))
            for name, trace, pairs in batches
        ] + [
            (evaluate_variant, (name, variant, (name, variant) in sized))
            for name, variant in members
        ]
        with tracer.span("prewarm:simulate", jobs=len(jobs), workers=n_jobs):
            results = run(jobs)
    for (name, _, pairs), stats in zip(batches, results):
        for (_, key), item_stats in zip(pairs, stats):
            evaluator[name]._sim_cache[key] = item_stats
    for (name, variant), stats in zip(members, results[len(batches):]):
        evaluator[name]._sim_cache[evaluator[name]._variant_key(variant)] = stats

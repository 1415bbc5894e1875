"""Process-parallel fan-out for the evaluation harness.

Jobs are top-level functions (picklable by the default
``ProcessPoolExecutor`` machinery); each worker builds its own
:class:`~repro.analysis.experiments.Evaluator` against the shared
on-disk artifact store, so cross-process communication is limited to
content-addressed files plus the returned statistics.  The apps
themselves come from the process-wide
:func:`~repro.workloads.apps.get_app` memo, so a worker synthesizes
each app at most once, however many of its jobs use it.

Telemetry crosses the same boundary the same way: when the parent is
tracing, each job runs under its own :class:`~repro.obs.trace.Tracer`
and ships the span snapshot back with the result; the parent
:meth:`~repro.obs.trace.Tracer.absorb`\\ s it onto one synthetic
thread per worker pid — exactly how :class:`~repro.perf.PerfRegistry`
snapshots already merge.

Determinism: every seed in the pipeline derives from the app spec, so
a worker computes exactly what the parent would have — parallel
results are bit-identical to serial ones, whatever the job count or
completion order, and whether or not tracing is on.
"""

from __future__ import annotations

import os
import warnings
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


#: Oversubscription messages already emitted by this process.  A
#: worker budget is re-validated every time an Evaluator is built —
#: once per sweep job, once per benchmark repeat, once per parallel
#: round re-entry — and repeating the identical warning each time
#: buries real output; the clamp itself is recorded in the run
#: manifest's parallel section instead.
_WARNED_BUDGETS: set = set()


def reset_budget_warnings() -> None:
    """Forget emitted oversubscription warnings (test isolation)."""
    _WARNED_BUDGETS.clear()


def _warn_once(key: tuple, message: str) -> None:
    if key in _WARNED_BUDGETS:
        return
    _WARNED_BUDGETS.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def split_worker_budget(
    jobs: Optional[int],
    shard_workers: Optional[int] = None,
    budget: Optional[int] = None,
    record: Optional[dict] = None,
) -> Tuple[int, int]:
    """Divide one worker-process *budget* between sweep-level *jobs*
    and per-trace shard workers.

    Returns ``(jobs, shard_workers)``, both resolved to concrete
    counts.  Without a budget, both knobs resolve independently (the
    historical behaviour: ``--jobs 4 --parallel-shards`` could ask for
    ``4 × cpu_count`` processes).  With a budget, every sweep worker's
    shard pool gets an equal share — ``budget // jobs``, at least 1 —
    and a :class:`RuntimeWarning` (emitted once per process per
    distinct configuration, not once per re-validation) explains any
    clamping:

    * ``jobs > budget``: the sweep level alone oversubscribes; jobs
      are left untouched (cutting them would change sweep semantics)
      but shard pools collapse to 1 worker each.
    * a requested ``shard_workers`` above the share is clamped down.

    When *record* (a dict) is given, it is filled with the split's
    provenance — ``worker_budget``, resolved ``jobs`` and
    ``shard_workers``, and whether the result was ``clamped`` — so
    callers can persist the decision (the run manifest does).
    """
    jobs = resolve_jobs(jobs)

    def done(workers: int, clamped: bool) -> Tuple[int, int]:
        if record is not None:
            record.update(
                worker_budget=budget,
                jobs=jobs,
                shard_workers=workers,
                clamped=clamped,
            )
        return jobs, workers

    if budget is None:
        return done(resolve_jobs(shard_workers), False)
    budget = max(1, int(budget))
    share = max(1, budget // jobs)
    if jobs > budget:
        _warn_once(
            ("jobs-alone", jobs, budget),
            f"--jobs {jobs} alone oversubscribes the worker budget "
            f"{budget}; shard pools run with 1 worker each",
        )
        return done(1, True)
    if shard_workers is not None and int(shard_workers) > 0:
        shard_workers = int(shard_workers)
        if jobs * shard_workers > budget:
            _warn_once(
                ("clamp", jobs, shard_workers, budget),
                f"{jobs} jobs x {shard_workers} shard workers "
                f"oversubscribes the worker budget {budget}; clamping "
                f"shard pools to {share} workers",
            )
            return done(share, True)
        return done(shard_workers, False)
    return done(share, False)


def _worker_evaluator(
    settings: "ExperimentSettings",
    store_root: str,
    tracing: bool = False,
    shard_insns: Optional[int] = None,
    parallel: Optional[Tuple[str, int]] = None,
):
    from .. import perf as perf_mod
    from ..obs.trace import NULL_TRACER, Tracer, set_tracer
    from ..runconfig import RunConfig
    from .experiments import Evaluator

    tracer = Tracer(process_label="repro-worker") if tracing else NULL_TRACER
    set_tracer(tracer)
    # *parallel* is the parent's already-split (mode, shard workers)
    # share of the worker budget: handing it over as this worker's
    # whole budget (jobs=1 here) reproduces exactly that pool size.
    mode, workers = parallel if parallel is not None else (None, None)
    config = RunConfig(
        settings=settings,
        store=store_root,
        perf=perf_mod.PerfRegistry(),
        tracer=tracer,
        shard_insns=shard_insns,
        parallel_shards=mode,
        worker_budget=workers,
    )
    return Evaluator(config=config)


def prepare_app(
    name: str,
    settings: "ExperimentSettings",
    store_root: str,
    tracing: bool = False,
    shard_insns: Optional[int] = None,
    parallel: Optional[Tuple[str, int]] = None,
) -> Tuple[str, Dict[str, tuple], List[dict]]:
    """Phase-1 job: persist one app's profile and default plans."""
    evaluator = _worker_evaluator(
        settings, store_root, tracing, shard_insns, parallel
    )
    with evaluator.tracer.span("job:prepare-app", app=name):
        evaluation = evaluator[name]
        evaluation.profile
        evaluation.ispy_plan()
        evaluation.asmdb_plan()
    return name, evaluator.perf.snapshot(), evaluator.tracer.snapshot()


def evaluate_variant(
    name: str,
    variant: str,
    settings: "ExperimentSettings",
    store_root: str,
    tracing: bool = False,
    shard_insns: Optional[int] = None,
    parallel: Optional[Tuple[str, int]] = None,
) -> Tuple[str, str, "SimStats", Dict[str, tuple], List[dict]]:
    """Phase-2 job: simulate one (app, variant) pair.

    Workers inherit the parent's shard budget: each replay streams its
    trace shard by shard and checkpoints into the shared store, so a
    killed prewarm re-invoked with the same configuration resumes
    every in-flight simulation from its last completed shard.
    """
    evaluator = _worker_evaluator(
        settings, store_root, tracing, shard_insns, parallel
    )
    with evaluator.tracer.span("job:evaluate-variant", app=name, variant=variant):
        stats = evaluator[name].stats_for(variant)
    return name, variant, stats, evaluator.perf.snapshot(), evaluator.tracer.snapshot()


def run_prewarm_jobs(
    evaluator: "Evaluator",
    names: Sequence[str],
    variants: Sequence[str],
    n_jobs: int,
) -> None:
    """Fan (app, variant) simulations across *n_jobs* processes.

    Phase 1 builds each app's shared artifacts (profile + default
    plans) exactly once, so phase 2's per-variant jobs only load them
    from the store instead of duplicating the planning work.
    """
    store_root = str(evaluator.store.root)
    settings = evaluator.settings
    perf = evaluator.perf
    tracer = evaluator.tracer
    tracing = tracer.enabled
    shard_insns = evaluator.shard_insns
    parallel_cfg = getattr(evaluator, "parallel", None)
    parallel = (
        (parallel_cfg.mode, parallel_cfg.resolve_workers())
        if parallel_cfg is not None
        else None
    )
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        with tracer.span("prewarm:prepare", apps=len(names)):
            prepared = [
                pool.submit(
                    prepare_app, name, settings, store_root, tracing,
                    shard_insns, parallel,
                )
                for name in names
            ]
            for future in prepared:
                _, snapshot, events = future.result()
                perf.merge(snapshot)
                tracer.absorb(events)
        with tracer.span(
            "prewarm:simulate", jobs=len(names) * len(variants), workers=n_jobs
        ):
            simulated = [
                pool.submit(
                    evaluate_variant, name, variant, settings, store_root,
                    tracing, shard_insns, parallel,
                )
                for name in names
                for variant in variants
            ]
            results = [future.result() for future in simulated]
            for name, variant, stats, snapshot, events in results:
                perf.merge(snapshot)
                tracer.absorb(events)
                evaluator[name]._stats[variant] = stats

"""Experiment harness: one entry point per paper table/figure.

Each ``figNN_*`` function reproduces the corresponding figure of the
paper as a list of row dicts (render with
:func:`repro.analysis.reporting.render_table`).  All of them share an
:class:`Evaluator`, which caches the expensive artifacts per
application — the synthesized program, the LBR/PEBS profile, the
prefetch plans and the simulation runs — so a full harness pass costs
each simulation once.

:data:`FIGURES` lists every figure once, with its report title, its
apps and what it reads; the report, ``repro figure`` and
:meth:`Evaluator.prewarm` all read that table.

Methodology (fixed across all experiments, Section V):

* profile on the app's default input (seeded trace A, seeded data
  traffic), sample period 1;
* evaluate on a *different* seeded trace B with different data
  traffic, 30k-block cache warmup excluded from statistics;
* the no-prefetch baseline, the ideal cache, AsmDB and every I-SPY
  variant replay the identical trace B.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from .. import io as repro_io
from ..obs import trace as trace_mod
from ..baselines import protocol as zoo
from ..core.config import DEFAULT_CONFIG, ISpyConfig
from ..core.instructions import PrefetchPlan
from ..io import AppSummary, ArtifactStore, TrainSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.asmdb import AsmDBResult
    from ..core.ispy import ISpyResult
from ..profiling.profiler import ExecutionProfile, profile_execution
from ..sim.cpu import CoreSimulator
from ..sim.stats import SimStats
from ..sim.trace import BlockTrace
from ..workloads.apps import (
    ALL_APP_NAMES,
    APP_NAMES,
    app_spec,
    cached_app,
    get_app,
    get_profile,
    get_trace,
)
from ..workloads.inputs import INPUT_NAMES, InputTrace
from ..workloads.synthesis import SyntheticApp, scaled_spec
from . import metrics
from .reporting import percent, render_table

#: Apps used for the expensive parameter sweeps (the paper also uses
#: subsets for its sensitivity studies).
SWEEP_APPS: Tuple[str, ...] = ("wordpress", "kafka", "verilator")

#: Apps with "the greatest variety of readily-available test inputs"
#: (paper Fig. 16).
GENERALIZATION_APPS: Tuple[str, ...] = ("drupal", "mediawiki", "wordpress")

#: A replay's trace: None for the evaluation trace, a built trace, or
#: an input's trace by its generating parameters (built only to replay)
TraceArg = Union[None, BlockTrace, InputTrace]

#: One ``run_plans`` call of a sweep figure: its items and its trace
SweepRun = Tuple[list, TraceArg]


class PlanNotStored(LookupError):
    """A plan accessor missed the caches inside
    :meth:`AppEvaluation.stored_plans`, where it may not train."""


@dataclass(frozen=True)
class ExperimentSettings:
    """Trace sizes and workload scale shared by an evaluation pass."""

    profile_length: int = 120_000
    eval_length: int = 150_000
    warmup: int = 30_000
    scale: float = 1.0

    @classmethod
    def small(cls) -> "ExperimentSettings":
        """A fast preset for test suites (seconds, not minutes)."""
        return cls(profile_length=24_000, eval_length=30_000, warmup=6_000, scale=0.3)

    @classmethod
    def medium(cls) -> "ExperimentSettings":
        """A middle ground for the sweep-style benchmarks."""
        return cls(profile_length=60_000, eval_length=80_000, warmup=16_000, scale=0.6)


class AppEvaluation:
    """All cached artifacts for one application under one settings.

    Artifacts live in up to two tiers: the in-memory caches on this
    object, and (when *store* is set) a persistent, content-addressed
    :class:`~repro.io.ArtifactStore`.  Every cache key hashes the full
    app spec, the experiment settings and — for simulations — the plan
    content and trace identity, so two sweep points that differ in any
    input can never alias each other's artifacts.

    Everything a figure reads has a stored form: statistics, plans, the
    planners' :class:`~repro.io.TrainSummary` and the app's
    :class:`~repro.io.AppSummary`.  Accessors consult memory, then the
    store, and synthesize, profile, train or simulate only on a miss,
    so a figure over a filled store builds nothing.
    """

    def __init__(
        self,
        name: str,
        settings: ExperimentSettings,
        store: Optional[ArtifactStore] = None,
        tracer=None,
        shard_insns: Optional[int] = None,
    ):
        self.name = name
        self.settings = settings
        self.store = store
        #: where this evaluation's spans go: the evaluator's run tracer,
        #: else the process-wide one at construction
        self.tracer = tracer if tracer is not None else trace_mod.get_tracer()
        #: stream replays in shards of this many retired instructions
        #: (None = whole-trace).  Purely an execution knob — sharded
        #: results are bit-identical, so it is deliberately absent
        #: from every stats/profile cache key; only the resume
        #: checkpoints key on it (a checkpoint is only valid for the
        #: exact shard geometry that wrote it).
        self.shard_insns = shard_insns
        self._app: Optional[SyntheticApp] = None
        self._profile: Optional[ExecutionProfile] = None
        self._eval_trace: Optional[BlockTrace] = None
        self._stats: Dict[str, SimStats] = {}
        self._sim_cache: Dict[str, SimStats] = {}
        #: Prefetcher.cache_token -> train_result(), the in-memory
        #: training cache shared by every variant and every
        #: parameterized accessor (ispy_result/asmdb_result)
        self._train_cache: Dict[str, object] = {}
        #: registry instances, one per canonical variant name
        self._prefetchers: Dict[str, zoo.Prefetcher] = {}
        #: plan key -> plan loaded from the store (one load per key)
        self._plans: Dict[str, PrefetchPlan] = {}
        self._text_bytes: Optional[int] = None
        #: the input trace built last, shared by that input's replays
        self._input_trace: Optional[Tuple[InputTrace, BlockTrace]] = None
        self._base_parts: Optional[Dict[str, object]] = None
        #: False inside :meth:`stored_plans`
        self._may_train = True

    @contextmanager
    def span(self, name: str, **args):
        """A span on this evaluation's tracer, installed process-wide
        for the block so the pipeline's own spans (replay shards, batch
        phases, analysis passes) nest under it on the same tracer."""
        with trace_mod.use_tracer(self.tracer), self.tracer.span(
            name, **args
        ) as span:
            yield span

    # -- lazily built artifacts ------------------------------------------

    @property
    def spec(self):
        """The (scaled) generative spec, without synthesizing the app."""
        spec = app_spec(self.name)
        if self.settings.scale != 1.0:
            spec = scaled_spec(spec, self.settings.scale)
        return spec

    @property
    def app(self) -> SyntheticApp:
        """The synthesized app, shared process-wide through
        :func:`~repro.workloads.apps.get_app` (apps are immutable).

        Only a real synthesis is traced: an app another evaluation in
        this process already built records no ``app:synthesize`` span.
        A synthesis also stores the app's summary, so later runs can
        answer :attr:`text_bytes` without synthesizing.
        """
        if self._app is None:
            scale = self.settings.scale
            app = cached_app(self.name, scale)
            if app is None:
                with self.span("app:synthesize", app=self.name):
                    app = get_app(self.name, scale)
                self._remember_text_bytes(app)
            self._app = app
        return self._app

    @property
    def text_bytes(self) -> int:
        """The app's text-segment size, from the stored app summary
        when the app itself is not built yet."""
        if self._text_bytes is None:
            summary = None
            if self.store is not None and self._app is None:
                summary = self.store.load_app_summary(self._key("app"))
            if summary is not None:
                self.tracer.instant("store:hit", kind="app", app=self.name)
                self._text_bytes = summary.text_bytes
            else:
                self._remember_text_bytes(self.app)
        return self._text_bytes

    def _remember_text_bytes(self, app: SyntheticApp) -> None:
        if self._text_bytes is None:
            self._text_bytes = app.program.text_bytes
            if self.store is not None:
                self.store.save_app_summary(
                    self._key("app"), AppSummary(self._text_bytes)
                )

    @property
    def profile(self) -> ExecutionProfile:
        if self._profile is None:
            store = self.store
            key = self._key("profile") if store is not None else ""
            if store is not None:
                cached = get_profile(store, key)
                if cached is not None:
                    self.tracer.instant("store:hit", kind="profile", app=self.name)
                    self._profile = cached
                    return self._profile
            app = self.app
            trace = app.trace(self.settings.profile_length)
            with trace_mod.use_tracer(self.tracer):
                self._profile = profile_execution(
                    app.program,
                    trace,
                    data_traffic=app.data_traffic(),
                    shard_insns=self.shard_insns,
                )
            if store is not None:
                store.save_profile(key, self._profile)
        return self._profile

    @property
    def eval_trace(self) -> BlockTrace:
        """The evaluation trace, shared process-wide through
        :func:`~repro.workloads.apps.get_trace` like the app itself."""
        if self._eval_trace is None:
            app = self.app
            self._eval_trace = get_trace(
                self.name,
                self.settings.scale,
                self.settings.eval_length,
                app.spec.seed + 31337,
                "eval",
            )
        return self._eval_trace

    def eval_data_traffic(self):
        """The data traffic of every evaluation replay: a fresh stream
        whose seed, like the evaluation trace's, derives from the app
        spec."""
        return self.app.data_traffic(seed=self.app.spec.seed + 777)

    # -- cache keys --------------------------------------------------------

    def _key(self, kind: str, **parts: object) -> str:
        """Content-addressed artifact key (see :func:`repro.io.artifact_key`)."""
        if self._base_parts is None:
            self._base_parts = {
                "app": self.name,
                "spec": repro_io.spec_to_dict(self.spec),
                "settings": dataclasses.asdict(self.settings),
            }
        merged: Dict[str, object] = dict(self._base_parts)
        merged.update(parts)
        return repro_io.artifact_key(kind, merged)

    def _trace_parts(self, trace: TraceArg) -> Dict[str, object]:
        if trace is None:
            # the canonical evaluation trace, fully determined by the
            # app spec and settings already present in the base key
            return {"role": "eval"}
        if isinstance(trace, InputTrace):
            # the parts of the trace it would build, without building it
            return {
                "role": "custom",
                "length": trace.length,
                "metadata": trace.metadata,
            }
        return {
            "role": "custom",
            "length": len(trace.block_ids),
            "metadata": dict(trace.metadata),
        }

    def _replay_trace(self, trace: TraceArg) -> BlockTrace:
        """The block trace a replay of *trace* runs over."""
        if trace is None:
            return self.eval_trace
        if isinstance(trace, InputTrace):
            if self._input_trace is None or self._input_trace[0] != trace:
                self._input_trace = (trace, trace.build(self.app))
            return self._input_trace[1]
        return trace

    def _stats_key(
        self,
        plan: Optional[PrefetchPlan],
        hash_bits: int,
        track_exact_context: bool,
        trace: TraceArg,
    ) -> str:
        return self._key(
            "stats",
            plan=repro_io.plan_fingerprint(plan),
            hash_bits=hash_bits,
            track_exact_context=track_exact_context,
            trace=self._trace_parts(trace),
        )

    # -- simulation --------------------------------------------------------

    def _cached_stats(self, key: str) -> Optional[SimStats]:
        stats = self._sim_cache.get(key)
        if stats is not None:
            return stats
        if self.store is not None:
            stats = self.store.load_stats(key)
            if stats is not None:
                self.tracer.instant("store:hit", kind="stats", app=self.name)
                self._sim_cache[key] = stats
        return stats

    def _remember_stats(self, key: str, stats: SimStats) -> None:
        self._sim_cache[key] = stats
        if self.store is not None:
            self.store.save_stats(key, stats)

    def _checkpointer(self, stats_key: str):
        """A per-shard resume checkpointer for one replay, when both a
        store and a shard budget are configured."""
        if self.store is None or self.shard_insns is None:
            return None
        from ..sim.streaming import StoreCheckpointer

        return StoreCheckpointer(
            self.store,
            {"stats_key": stats_key, "shard_insns": self.shard_insns},
        )

    def run_plan(
        self,
        plan: Optional[PrefetchPlan],
        hash_bits: int = 16,
        track_exact_context: bool = False,
        trace: TraceArg = None,
    ) -> SimStats:
        """Replay the evaluation trace (or *trace*) under *plan* (fresh
        caches), unless the result is cached: ``run_plans([plan])[0]``.
        """
        return self.run_plans([plan], hash_bits, track_exact_context, trace)[0]

    def run_plans(
        self,
        plans,
        hash_bits: int = 16,
        track_exact_context: bool = False,
        trace: TraceArg = None,
    ) -> List[SimStats]:
        """Replay plan variants over the evaluation trace (or *trace*),
        batched: the one plan-replay path of the harness.

        *plans* is a list whose items are either a
        :class:`PrefetchPlan` (``None`` for no-prefetch) or a
        ``(plan, overrides)`` pair where *overrides* is a dict of
        per-variant keyword arguments (``hash_bits`` /
        ``track_exact_context``).  Returns one :class:`SimStats` per
        item, in order.

        Items with one stats key (the same instructions and overrides)
        are looked up and replayed once.  Cache hits (memory or store)
        fill their slots without simulating.  Every miss, ``None`` and
        empty plans included, runs in one
        :func:`~repro.sim.streaming.run_plan_batch` pass over the trace
        (see :meth:`_replay_misses`); with a store and a shard budget
        each miss runs alone with its own resume checkpointer, since
        those key on one variant's stats key.  Results are
        bit-identical however the misses are grouped.
        """
        keys = []
        requests = {}
        for request in self._requests(
            plans, hash_bits, track_exact_context, trace
        ):
            keys.append(request[2])
            requests.setdefault(request[2], request)

        found = {key: self._cached_stats(key) for key in requests}
        misses = [requests[key] for key, stats in found.items() if stats is None]
        if self.store is not None and self.shard_insns is not None:
            groups = [[miss] for miss in misses]
        else:
            groups = [misses] if misses else []
        for group in groups:
            for (_, _, key), stats in zip(group, self._replay_misses(group, trace)):
                found[key] = stats
        return [found[key] for key in keys]

    def _requests(
        self,
        plans,
        hash_bits: int = 16,
        track_exact_context: bool = False,
        trace: TraceArg = None,
    ) -> List[Tuple[Optional[PrefetchPlan], Dict[str, object], str]]:
        """Each :meth:`run_plans` item as a ``(plan, simulator kwargs,
        stats key)`` request."""
        requests = []
        for item in plans:
            plan, overrides = item if isinstance(item, tuple) else (item, {})
            kw = {
                "hash_bits": hash_bits,
                "track_exact_context": track_exact_context,
                **overrides,
            }
            key = self._stats_key(
                plan, kw["hash_bits"], kw["track_exact_context"], trace
            )
            requests.append((plan, kw, key))
        return requests

    def run_sweep(self, runs: Sequence[SweepRun]) -> List[List[SimStats]]:
        """:meth:`run_plans` over each ``(items, trace)`` run of a sweep
        figure's request function."""
        return [self.run_plans(items, trace=trace) for items, trace in runs]

    def sweep_misses(
        self, figures: Sequence["Figure"], served: Sequence[str] = ()
    ) -> List[Tuple[TraceArg, List[Tuple[object, str]]]]:
        """The items of *figures*' sweeps on this app
        (:func:`sweep_requests`) whose stats no cache holds, one per key
        and none whose key is in *served*, as ``(trace, [(item, stats
        key), ...])`` batches.

        A trace's items are cut into batches no wider than the widest
        sweep run, so no batch holds more replays (and so more cache
        state) than a figure replays at once by itself.  Loads plans and
        statistics only; raises :class:`PlanNotStored` when a sweep
        plan is not stored yet.
        """
        with self.stored_plans():
            runs = sweep_requests(self, figures)
        seen = set(served)
        misses: Dict[TraceArg, List[Tuple[object, str]]] = {}
        for items, trace in runs:
            for item, (_, _, key) in zip(items, self._requests(items, trace=trace)):
                if key in seen or self._cached_stats(key) is not None:
                    continue
                seen.add(key)
                misses.setdefault(trace, []).append((item, key))
        width = max((len(items) for items, _ in runs), default=1)
        batches = []
        for trace, pairs in misses.items():
            # the fewest batches of that width, evened out
            size = math.ceil(len(pairs) / math.ceil(len(pairs) / width))
            batches += [
                (trace, pairs[i:i + size]) for i in range(0, len(pairs), size)
            ]
        return batches

    def _replay_misses(self, misses, trace: TraceArg = None) -> List[SimStats]:
        """Replay *misses* — ``(plan, simulator kwargs, stats key)``
        requests whose keys missed every cache — in one
        :func:`~repro.sim.streaming.run_plan_batch` call, and remember
        their stats.  One miss is a ``sim:replay``, more a
        ``sim:batch-sweep``; both spans name the backends that served
        their replays.  A single miss with a shard budget is the
        one-core :func:`~repro.sim.streaming.run_sharded` call."""
        from ..sim.streaming import run_plan_batch, run_sharded

        replay = self._replay_trace(trace)
        cores = [
            CoreSimulator(
                self.app.program,
                plan=plan,
                data_traffic=self.eval_data_traffic(),
                **kw,
            )
            for plan, kw, _ in misses
        ]
        if len(cores) == 1:
            plan = misses[0][0]
            name = "sim:replay"
            args = {"plan": plan.name if plan is not None else None}
        else:
            name, args = "sim:batch-sweep", {"variants": len(cores)}
        with self.span(
            name, app=self.name, blocks=len(replay.block_ids), **args
        ) as span:
            # None unless a store and a shard budget are set, and then
            # run_plans replays each miss alone
            checkpointer = self._checkpointer(misses[0][2])
            warmup = self.settings.warmup
            if len(cores) == 1 and self.shard_insns is not None:
                run_sharded(
                    cores[0], replay, warmup=warmup,
                    shard_insns=self.shard_insns, checkpointer=checkpointer,
                )
            else:
                reasons = run_plan_batch(
                    cores, replay, warmup, self.shard_insns, checkpointer
                )
            if len(cores) == 1:
                span.set(backend=cores[0].last_replay_backend)
            else:
                batched = reasons.count(None)
                span.set(
                    replays=batched,
                    fallbacks=len(cores) - batched,
                    backends=dict(
                        Counter(core.last_replay_backend for core in cores)
                    ),
                )
        for core, (_, _, key) in zip(cores, misses):
            # Stash the engine's accounting for figures that need
            # run-time context bookkeeping (Fig. 21 false positives).
            core.stats.false_positive_rate = (  # type: ignore[attr-defined]
                core.engine.conditional_false_positive_rate
                if core.engine is not None
                else 0.0
            )
            self._remember_stats(key, core.stats)
        return [core.stats for core in cores]

    @property
    def baseline_stats(self) -> SimStats:
        return self.stats_for("baseline")

    @property
    def ideal_stats(self) -> SimStats:
        """The paper's ideal I-cache: the baseline's
        :meth:`~repro.sim.stats.SimStats.ideal_bound`."""
        return self.stats_for("ideal")

    # -- the prefetcher zoo ----------------------------------------------------

    def prefetcher(self, variant: str) -> "zoo.Prefetcher":
        """The registered zoo member backing *variant* (cached)."""
        if variant not in self._prefetchers:
            self._prefetchers[variant] = zoo.get_prefetcher(variant)
        return self._prefetchers[variant]

    def _view(self, prefetcher: "zoo.Prefetcher") -> "zoo.ProfileView":
        profile = self.profile if prefetcher.requires_profile else None
        return zoo.ProfileView(self.app.program, profile)

    def _plan_key(self, prefetcher: "zoo.Prefetcher") -> str:
        """The store key of the member's plan and its train summary."""
        return self._key("plan", **prefetcher.plan_key_parts())

    def _train_result_for(self, prefetcher: "zoo.Prefetcher") -> object:
        """Train *prefetcher* on this app (cached per ``cache_token``).

        Plan-producing members additionally persist their plan, and the
        :class:`~repro.io.TrainSummary` of its report, to the artifact
        store under their :meth:`plan_key_parts`.
        """
        token = prefetcher.cache_token
        if token not in self._train_cache:
            with self.span(
                f"plan:{prefetcher.planner}",
                app=self.name,
                prefetcher=prefetcher.name,
            ):
                result = prefetcher.train_result(self._view(prefetcher))
            self._train_cache[token] = result
            if self.store is not None and prefetcher.produces_plan:
                plan = zoo.plan_of(result)
                if plan is not None:
                    key = self._plan_key(prefetcher)
                    self.store.save_plan(key, plan)
                    summary = TrainSummary.of(result)
                    if summary is not None:
                        self.store.save_train_summary(key, summary)
        return self._train_cache[token]

    def _cached_plan(self, prefetcher: "zoo.Prefetcher") -> Optional[PrefetchPlan]:
        """The member's plan if it needs no training: train cache, then
        the plans loaded before, then the store (each key loaded once)."""
        trained = self._train_cache.get(prefetcher.cache_token)
        if trained is not None:
            return zoo.plan_of(trained)
        if self.store is None:
            return None
        key = self._plan_key(prefetcher)
        plan = self._plans.get(key)
        if plan is None:
            plan = self.store.load_plan(key)
            if plan is None:
                return None
            self.tracer.instant("store:hit", kind="plan", app=self.name)
            self._plans[key] = plan
        return plan

    def _plan_for(self, prefetcher: "zoo.Prefetcher") -> PrefetchPlan:
        """The member's plan: cached (:meth:`_cached_plan`), else trained."""
        plan = self._cached_plan(prefetcher)
        if plan is None:
            if not self._may_train:
                raise PlanNotStored(prefetcher.name)
            plan = zoo.plan_of(self._train_result_for(prefetcher))
        return plan

    @contextmanager
    def stored_plans(self):
        """A block in which the plan accessors only read the caches and
        raise :class:`PlanNotStored` where they would train."""
        self._may_train = False
        try:
            yield
        finally:
            self._may_train = True

    def _summary_for(self, prefetcher: "zoo.Prefetcher") -> TrainSummary:
        """The summary of the member's training report: the store's
        when it is not trained in this process, else (re)trained."""
        trained = prefetcher.cache_token in self._train_cache
        if not trained and self.store is not None:
            summary = self.store.load_train_summary(self._plan_key(prefetcher))
            if summary is not None:
                self.tracer.instant("store:hit", kind="train", app=self.name)
                return summary
        return TrainSummary.of(self._train_result_for(prefetcher))

    def footprint_for(self, variant: str) -> "zoo.Footprint":
        """Static + metadata deployment footprint of *variant*.

        A plan member's footprint is its plan's, stored or trained.  A
        profile-guided member with no plan trains for its metadata
        tables, so its footprint is stored, keyed like its statistics.
        Any other member's needs neither the app nor a profile.
        """
        if variant == "baseline":
            return zoo.Footprint()
        prefetcher = self.prefetcher(variant)
        if prefetcher.produces_plan:
            plan = self._plan_for(prefetcher)
            view = self._view(prefetcher) if plan is None else None
            return prefetcher.static_footprint(view, plan)
        if not prefetcher.requires_profile:
            return prefetcher.static_footprint(None)
        key = self._key("footprint", variant=variant)
        footprint = self.store.load_footprint(key) if self.store else None
        if footprint is not None:
            self.tracer.instant("store:hit", kind="footprint", app=self.name)
            return footprint
        footprint = prefetcher.static_footprint(
            None, self._train_result_for(prefetcher)
        )
        if self.store is not None:
            self.store.save_footprint(key, footprint)
        return footprint

    def ispy_result(self, config: ISpyConfig = DEFAULT_CONFIG) -> "ISpyResult":
        """Full planning result (plan + report) for *config*.

        Trained on the first call per *config* and then kept in memory;
        the store holds plans and report summaries, never whole reports.
        Use :meth:`ispy_plan` or :meth:`ispy_summary` when the plan or
        the summary is enough: both come from the store without training.
        """
        return self._train_result_for(zoo.get_prefetcher("ispy", config=config))

    def ispy_plan(self, config: ISpyConfig = DEFAULT_CONFIG) -> PrefetchPlan:
        return self._plan_for(zoo.get_prefetcher("ispy", config=config))

    def ispy_summary(self, config: ISpyConfig = DEFAULT_CONFIG) -> TrainSummary:
        return self._summary_for(zoo.get_prefetcher("ispy", config=config))

    @staticmethod
    def _asmdb(threshold: Optional[float]) -> "zoo.Prefetcher":
        if threshold is None:
            return zoo.get_prefetcher("asmdb")
        return zoo.get_prefetcher("asmdb", fanout_threshold=threshold)

    def asmdb_result(self, threshold: Optional[float] = None) -> "AsmDBResult":
        return self._train_result_for(self._asmdb(threshold))

    def asmdb_plan(self, threshold: Optional[float] = None) -> PrefetchPlan:
        return self._plan_for(self._asmdb(threshold))

    def asmdb_summary(self, threshold: Optional[float] = None) -> TrainSummary:
        return self._summary_for(self._asmdb(threshold))

    def _variant_key(self, variant: str) -> Optional[str]:
        """The stats key of *variant*'s evaluation replay; None when it
        is a plan member whose plan is not cached yet."""
        if variant == "baseline":
            return self._stats_key(None, 16, False, None)
        prefetcher = self.prefetcher(variant)
        if prefetcher.supports_plan_replay and prefetcher.produces_plan:
            plan = self._cached_plan(prefetcher)
            if plan is None:
                return None
            return self._stats_key(plan, 16, False, None)
        return self._key("stats", variant=variant)

    def cached_stats_for(self, variant: str) -> Optional[SimStats]:
        """:meth:`stats_for` from the caches alone, else None.

        Loads at most a plan member's plan and then the statistics;
        never synthesizes, profiles, trains or simulates.  ``ideal`` is
        never stored: it is the cached baseline's bound.
        """
        if variant not in self._stats:
            if variant == "ideal":
                base = self.cached_stats_for("baseline")
                stats = base.ideal_bound() if base is not None else None
            else:
                key = self._variant_key(variant)
                stats = self._cached_stats(key) if key is not None else None
            if stats is None:
                return None
            self._stats[variant] = stats
        return self._stats[variant]

    def stats_for(self, variant: str) -> SimStats:
        """Evaluation-trace statistics for a named variant.

        Any registered zoo member is a variant (see
        :func:`repro.baselines.prefetcher_names`), plus ``baseline``.
        ``ideal`` is the baseline's
        :meth:`~repro.sim.stats.SimStats.ideal_bound`, never a replay
        of its own.  Plan-shaped members replay through
        :meth:`run_plans` and inherit its backends; mechanism members
        (``nextline``, ``fdip``, the window studies, ``mana``) run
        the shared mechanism loop (backend ``mechanism``) behind the
        same store-backed caching.
        :meth:`cached_stats_for` is consulted first: a hit never
        synthesizes the app, loads the profile or trains the member.
        """
        stats = self.cached_stats_for(variant)
        if stats is None:
            stats = self._simulate(variant)
            self._stats[variant] = stats
        return stats

    def _simulate(self, variant: str) -> SimStats:
        """*variant*'s statistics after :meth:`cached_stats_for` missed
        (so nothing it looked up is looked up again)."""
        if variant == "ideal":
            return self.stats_for("baseline").ideal_bound()
        if variant == "baseline":
            key = self._variant_key("baseline")
            return self._replay_misses([(None, {}, key)])[0]
        prefetcher = self.prefetcher(variant)
        if not (prefetcher.supports_plan_replay and prefetcher.produces_plan):
            return self._variant_stats(variant, prefetcher)
        key = self._variant_key(variant)
        if key is None:
            # the plan was not cached: train it, then its replay may
            # still be in the store
            return self.run_plan(zoo.plan_of(self._train_result_for(prefetcher)))
        return self._replay_misses([(self._cached_plan(prefetcher), {}, key)])[0]

    def _variant_stats(
        self, variant: str, prefetcher: "zoo.Prefetcher"
    ) -> SimStats:
        """Simulate a member outside run_plans and store its stats."""
        trained = (
            self._train_result_for(prefetcher)
            if prefetcher.requires_profile and not prefetcher.produces_plan
            else None
        )
        ctx = zoo.ReplayContext(
            data_traffic=self.eval_data_traffic(),
            warmup=self.settings.warmup,
            trained=trained,
        )
        view = self._view(prefetcher)
        replay = self.eval_trace
        with self.span(
            "sim:replay",
            app=self.name,
            plan=variant,
            blocks=len(replay.block_ids),
        ) as span:
            stats = prefetcher.simulate(view, replay, ctx)
            span.set(backend=prefetcher.last_replay_backend)
        self._remember_stats(self._key("stats", variant=variant), stats)
        return stats

    def plan_for(self, variant: str) -> PrefetchPlan:
        """The stored/trained plan for any plan-producing variant."""
        try:
            prefetcher = self.prefetcher(variant)
        except KeyError:
            raise KeyError(f"no plan for variant {variant!r}") from None
        if not prefetcher.produces_plan:
            raise KeyError(f"no plan for variant {variant!r}")
        return self._plan_for(prefetcher)

    # -- metrics shortcuts ----------------------------------------------------

    def speedup(self, variant: str) -> float:
        return metrics.speedup(self.baseline_stats, self.stats_for(variant))

    def percent_of_ideal(self, variant: str) -> float:
        return metrics.percent_of_ideal(
            self.baseline_stats, self.stats_for(variant), self.ideal_stats
        )


class Evaluator:
    """Cache of :class:`AppEvaluation` objects, one harness pass.

    It is built from a :class:`repro.RunConfig` (``Evaluator(config=cfg)``
    or ``cfg.evaluator()``), which carries every run-level decision —
    settings, the persistent ``store``, the worker ``jobs`` count, the
    kernel gate and the telemetry sinks — in one place.
    ``Evaluator(settings)`` is the shorthand for a config with only
    those settings.

    ``store`` (a directory path or :class:`~repro.io.ArtifactStore`)
    makes every expensive artifact — profiles, prefetch plans and
    simulation statistics — persistent across harness runs.  ``jobs``
    greater than one lets :meth:`prewarm` fan independent simulations
    out across worker processes (``jobs=0`` means one per CPU).

    Results are bit-identical regardless of any setting here: all
    seeding derives from the app specs, parallel workers exchange data
    only through content-addressed artifacts, and telemetry only
    observes.
    """

    def __init__(
        self, settings: Optional[ExperimentSettings] = None, *, config=None
    ):
        from .. import runconfig as runconfig_mod

        if config is None:
            config = runconfig_mod.RunConfig(settings=settings)
        self.config = config
        self.settings = config.settings
        store = config.store
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store: Optional[ArtifactStore] = store
        self.jobs = config.jobs
        self.shard_insns: Optional[int] = getattr(config, "shard_insns", None)
        #: the run's tracer: every span, count and timing of this pass
        self.tracer = config.tracer
        self._apps: Dict[str, AppEvaluation] = {}
        self._ephemeral_store = None

    def __getitem__(self, name: str) -> AppEvaluation:
        if name not in self._apps:
            # the adversarial roster evaluates like any paper app; only
            # the figure averages are restricted to APP_NAMES
            if name not in ALL_APP_NAMES:
                raise KeyError(f"unknown application {name!r}")
            self._apps[name] = AppEvaluation(
                name,
                self.settings,
                store=self.store,
                tracer=self.tracer,
                shard_insns=self.shard_insns,
            )
        return self._apps[name]

    def apps(self, names: Optional[Sequence[str]] = None) -> List[AppEvaluation]:
        return [self[name] for name in (names or APP_NAMES)]

    def _ensure_store(self) -> ArtifactStore:
        """A store for parallel workers, ephemeral when none was given."""
        if self.store is None:
            import tempfile

            self._ephemeral_store = tempfile.TemporaryDirectory(
                prefix="repro-artifacts-"
            )
            self.store = ArtifactStore(self._ephemeral_store.name)
            for evaluation in self._apps.values():
                evaluation.store = self.store
        return self.store

    def prewarm(
        self,
        apps: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
        figures: Sequence["Figure"] = (),
    ) -> None:
        """Compute up front the statistics of *variants* on *apps*, and
        the demand of each of *figures*: the variants it reads on its
        apps (its own, else *apps*) and every replay of its sweep.  The
        plans it alone reads are trained up front only in the pool.

        *apps* defaults to the nine paper apps, and *variants* to none
        when *figures* are given, else to :data:`DEFAULT_PREWARM_VARIANTS`.
        With more than one job, every pair is first looked up in the
        caches (:meth:`AppEvaluation.cached_stats_for`), and every sweep
        item through :meth:`AppEvaluation.sweep_misses`; only the misses
        go to worker processes (:func:`~repro.analysis.jobs.run_prewarm_jobs`),
        whose variant jobs also store what a figure's footprints train.
        The parent absorbs the results, so subsequent figure calls are
        cache hits.  When everything hits, no pool starts.  Serial
        prewarm computes the same statistics in order, through the same
        request functions.  ``ideal`` is never a job: it is the
        baseline's bound, so ``baseline`` takes its place.
        """
        from .jobs import resolve_jobs, run_prewarm_jobs

        if variants is None:
            variants = () if figures else DEFAULT_PREWARM_VARIANTS
        names = tuple(apps) if apps is not None else APP_NAMES
        wanted = {name: tuple(variants) for name in names}
        planned: Dict[str, Tuple[str, ...]] = {}
        #: the (app, variant) pairs whose footprints a figure reads
        sized = set()
        for figure in figures:
            for name in names if figure.apps is None else figure.apps:
                wanted[name] = wanted.get(name, ()) + figure.variants
                planned[name] = planned.get(name, ()) + figure.plans
                if figure.footprints:
                    sized.update((name, variant) for variant in figure.variants)
        wanted = {
            name: tuple(dict.fromkeys("baseline" if v == "ideal" else v for v in vs))
            for name, vs in wanted.items()
        }
        sweeps = [figure for figure in figures if figure.requests is not None]
        swept = sweep_apps(sweeps)
        n_jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        if n_jobs <= 1:
            for name, wanted_variants in wanted.items():
                evaluation = self[name]
                for variant in wanted_variants:
                    evaluation.stats_for(variant)
            for name in swept:
                self[name].run_sweep(sweep_requests(self[name], sweeps))
            return
        misses: Dict[str, Tuple[str, ...]] = {}
        for name, wanted_variants in wanted.items():
            evaluation = self[name]
            missing = tuple(
                variant
                for variant in wanted_variants
                if evaluation.cached_stats_for(variant) is None
            )
            if missing:
                misses[name] = missing
        pending = [name for name in swept if self._sweep_pending(name, sweeps)]
        unplanned = {
            name: plans for name, plans in planned.items()
            if any(self[name]._variant_key(variant) is None for variant in plans)
        }
        if misses or pending or unplanned:
            self._ensure_store()
            run_prewarm_jobs(
                self, misses, pending, sweeps, sized, unplanned, n_jobs
            )

    def _sweep_pending(self, name: str, sweeps: Sequence["Figure"]) -> bool:
        """Whether an item of *sweeps* on app *name* misses the caches
        (or its plan is not stored yet)."""
        try:
            return bool(self[name].sweep_misses(sweeps))
        except PlanNotStored:
            return True


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def table1_system() -> List[Dict[str, object]]:
    """The simulated system description (paper Table I)."""
    from ..sim.params import DEFAULT_MACHINE as m

    return [
        {"parameter": "CPU", "value": "Intel Xeon Haswell (trace-driven model)"},
        {"parameter": "Cores per socket", "value": m.cores_per_socket},
        {"parameter": "L1 instruction cache", "value": "32 KiB, 8-way"},
        {"parameter": "L1 data cache", "value": "32 KiB, 8-way"},
        {"parameter": "L2 unified cache", "value": "1 MB, 16-way"},
        {"parameter": "L3 unified cache", "value": "10 MiB/socket, 20-way"},
        {"parameter": "All-core turbo", "value": f"{m.frequency_ghz} GHz"},
        {"parameter": "L1 I-cache latency", "value": f"{m.l1i_latency} cycles"},
        {"parameter": "L1 D-cache latency", "value": f"{m.l1d_latency} cycles"},
        {"parameter": "L2 latency", "value": f"{m.l2_latency} cycles"},
        {"parameter": "L3 latency", "value": f"{m.l3_latency} cycles"},
        {"parameter": "Memory latency", "value": f"{m.memory_latency} cycles"},
    ]


# ---------------------------------------------------------------------------
# Fig. 1 — frontend-bound fractions
# ---------------------------------------------------------------------------


Row = Dict[str, object]


def _per_app(
    evaluator: Evaluator,
    apps: Optional[Sequence[str]],
    row: Callable[[AppEvaluation], Row],
) -> List[Row]:
    """One ``{"app": name, **row(evaluation)}`` row per app of *apps*."""
    return [{"app": e.name, **row(e)} for e in evaluator.apps(apps)]


def fig01_frontend_bound(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    """Frontend-bound pipeline-slot fraction per application."""
    return _per_app(evaluator, apps, lambda e: {
        "frontend_bound": e.baseline_stats.frontend_bound_fraction,
        "l1i_mpki": e.baseline_stats.l1i_mpki,
    })


# ---------------------------------------------------------------------------
# Fig. 3 — AsmDB's coverage/accuracy trade-off vs fan-out threshold
# ---------------------------------------------------------------------------


FIG03_THRESHOLDS: Tuple[float, ...] = (0.20, 0.50, 0.80, 0.90, 0.95, 0.99)


def fig03_requests(
    evaluation: AppEvaluation, thresholds: Sequence[float] = FIG03_THRESHOLDS
) -> List[SweepRun]:
    """Fig. 3's replays on one app: AsmDB at each fan-out threshold."""
    return [([evaluation.asmdb_plan(t) for t in thresholds], None)]


def fig03_fanout_tradeoff(
    evaluator: Evaluator,
    app: str = "wordpress",
    thresholds: Sequence[float] = FIG03_THRESHOLDS,
) -> List[Dict[str, object]]:
    """Sweep AsmDB's fan-out threshold on one application."""
    evaluation = evaluator[app]
    (sweep,) = evaluation.run_sweep(fig03_requests(evaluation, thresholds))
    rows = []
    for threshold, stats in zip(thresholds, sweep):
        rows.append(
            {
                "fanout_threshold": threshold,
                "miss_coverage": metrics.mpki_reduction(
                    evaluation.baseline_stats, stats
                ),
                "prefetch_accuracy": stats.prefetch_accuracy,
                "percent_of_ideal": metrics.percent_of_ideal(
                    evaluation.baseline_stats, stats, evaluation.ideal_stats
                ),
                "planned_lines_covered": evaluation.asmdb_summary(
                    threshold
                ).coverage,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — AsmDB footprint increases
# ---------------------------------------------------------------------------


def fig04_asmdb_footprint(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    return _per_app(evaluator, apps, lambda e: {
        "static_increase": e.plan_for("asmdb").static_increase(e.text_bytes),
        "dynamic_increase": e.stats_for("asmdb").dynamic_overhead,
    })


# ---------------------------------------------------------------------------
# Fig. 5 — Contiguous-8 vs Non-contiguous-8
# ---------------------------------------------------------------------------


def fig05_noncontiguous(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    def row(evaluation: AppEvaluation) -> Row:
        contiguous = evaluation.speedup("contiguous8")
        noncontiguous = evaluation.speedup("noncontiguous8")
        return {
            "contiguous8_speedup": contiguous,
            "noncontiguous8_speedup": noncontiguous,
            "noncontiguous_advantage": noncontiguous / contiguous - 1.0,
        }

    return _per_app(evaluator, apps, row)


# ---------------------------------------------------------------------------
# Fig. 10 — headline speedups
# ---------------------------------------------------------------------------


def fig10_speedup(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    return _per_app(evaluator, apps, lambda e: {
        "ideal_speedup": e.speedup("ideal"),
        "asmdb_speedup": e.speedup("asmdb"),
        "ispy_speedup": e.speedup("ispy"),
        "ispy_pct_of_ideal": e.percent_of_ideal("ispy"),
        "asmdb_pct_of_ideal": e.percent_of_ideal("asmdb"),
    })


# ---------------------------------------------------------------------------
# Fig. 11 — MPKI reduction
# ---------------------------------------------------------------------------


def fig11_mpki(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    return _per_app(evaluator, apps, lambda e: {
        "baseline_mpki": e.baseline_stats.l1i_mpki,
        "asmdb_mpki": e.stats_for("asmdb").l1i_mpki,
        "ispy_mpki": e.stats_for("ispy").l1i_mpki,
        "asmdb_reduction": metrics.mpki_reduction(
            e.baseline_stats, e.stats_for("asmdb")
        ),
        "ispy_reduction": metrics.mpki_reduction(
            e.baseline_stats, e.stats_for("ispy")
        ),
    })


# ---------------------------------------------------------------------------
# Fig. 12 — conditional vs coalescing ablation
# ---------------------------------------------------------------------------


def fig12_ablation(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    """Speedup of each I-SPY mechanism (and both) over AsmDB."""

    def row(evaluation: AppEvaluation) -> Row:
        # Warm the stats cache with one batched pass over all four
        # ablation variants; the speedup() accessors below hit it.
        evaluation.run_plans(
            [
                evaluation.asmdb_plan(),
                evaluation.ispy_plan(),
                evaluation.ispy_plan(DEFAULT_CONFIG.conditional_only()),
                evaluation.ispy_plan(DEFAULT_CONFIG.coalescing_only()),
            ]
        )
        asmdb = evaluation.speedup("asmdb")
        return {
            f"{arm}_over_asmdb": evaluation.speedup(variant) / asmdb - 1.0
            for arm, variant in (
                ("conditional", "ispy-conditional"),
                ("coalescing", "ispy-coalescing"),
                ("combined", "ispy"),
            )
        }

    return _per_app(evaluator, apps, row)


# ---------------------------------------------------------------------------
# Fig. 13 — prefetch accuracy
# ---------------------------------------------------------------------------


def fig13_accuracy(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    return _per_app(evaluator, apps, lambda e: {
        "asmdb_accuracy": e.stats_for("asmdb").prefetch_accuracy,
        "ispy_accuracy": e.stats_for("ispy").prefetch_accuracy,
    })


# ---------------------------------------------------------------------------
# Fig. 14 / Fig. 15 — footprints
# ---------------------------------------------------------------------------


def fig14_static_footprint(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    return _per_app(evaluator, apps, lambda e: {
        f"{variant}_static_increase": e.plan_for(variant).static_increase(
            e.text_bytes
        )
        for variant in ("asmdb", "ispy")
    })


def fig15_dynamic_footprint(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> List[Row]:
    return _per_app(evaluator, apps, lambda e: {
        f"{variant}_dynamic_increase": e.stats_for(variant).dynamic_overhead
        for variant in ("asmdb", "ispy")
    })


# ---------------------------------------------------------------------------
# Fig. 16 — generalization across inputs
# ---------------------------------------------------------------------------


def fig16_requests(
    evaluation: AppEvaluation, inputs: Sequence[str] = INPUT_NAMES
) -> List[SweepRun]:
    """Fig. 16's replays on one app: the baseline, I-SPY and AsmDB on
    each input.

    Each input's trace is named by its generating parameters, so cached
    replays are found without building it.
    """
    spec = evaluation.spec
    plans = [None, evaluation.ispy_plan(), evaluation.asmdb_plan()]
    # crc32, not hash(): the latter is salted per process, which would
    # make these seeds differ between runs (and between parallel
    # workers and the parent).
    return [
        (
            plans,
            InputTrace(
                spec,
                input_name,
                evaluation.settings.eval_length,
                seed=spec.seed + 50_000 + zlib.crc32(input_name.encode()) % 1000,
            ),
        )
        for input_name in inputs
    ]


def fig16_generalization(
    evaluator: Evaluator,
    apps: Sequence[str] = GENERALIZATION_APPS,
    inputs: Sequence[str] = INPUT_NAMES,
) -> List[Dict[str, object]]:
    """Profile on the default input, evaluate on five inputs."""
    rows = []
    for name in apps:
        evaluation = evaluator[name]
        sweeps = evaluation.run_sweep(fig16_requests(evaluation, inputs))
        for input_name, (base, ispy, asmdb) in zip(inputs, sweeps):
            ideal = base.ideal_bound()
            rows.append(
                {
                    "app": name,
                    "input": input_name,
                    "ispy_pct_of_ideal": metrics.percent_of_ideal(base, ispy, ideal),
                    "asmdb_pct_of_ideal": metrics.percent_of_ideal(
                        base, asmdb, ideal
                    ),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 17 — number of context predecessors
# ---------------------------------------------------------------------------


FIG17_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)


def fig17_requests(
    evaluation: AppEvaluation, counts: Sequence[int] = FIG17_COUNTS
) -> List[SweepRun]:
    """Fig. 17's replays on one app: conditional-only I-SPY at each
    context size, in one batched trace pass."""
    configs = [
        replace(
            DEFAULT_CONFIG,
            max_predecessors=count,
            predictor_pool_size=max(count, DEFAULT_CONFIG.predictor_pool_size),
            enable_coalescing=False,
        )
        for count in counts
    ]
    return [([evaluation.ispy_plan(config) for config in configs], None)]


def fig17_predecessors(
    evaluator: Evaluator,
    counts: Sequence[int] = FIG17_COUNTS,
    apps: Sequence[str] = SWEEP_APPS,
) -> List[Dict[str, object]]:
    """Conditional-prefetching performance vs context size.

    The paper sweeps 1..32; the combination search is exponential in
    the predecessor count (the paper reports tens of minutes beyond
    4), so the default sweep stops at 8.
    """
    sweeps = {
        name: evaluator[name].run_sweep(fig17_requests(evaluator[name], counts))[0]
        for name in apps
    }
    return [
        {
            "predecessors": count,
            "mean_pct_of_ideal": _mean_pct_of_ideal(evaluator, apps, sweeps, i),
        }
        for i, count in enumerate(counts)
    ]


def _mean_pct_of_ideal(
    evaluator: Evaluator,
    apps: Sequence[str],
    sweeps: Dict[str, List[SimStats]],
    i: int,
) -> float:
    """The mean over *apps* of the %-of-ideal of each app's *i*-th
    sweep point."""
    return metrics.arithmetic_mean(
        metrics.percent_of_ideal(
            evaluator[name].baseline_stats,
            sweeps[name][i],
            evaluator[name].ideal_stats,
        )
        for name in apps
    )


# ---------------------------------------------------------------------------
# Fig. 18 — prefetch distance sweep
# ---------------------------------------------------------------------------


FIG18_MINIMA: Tuple[float, ...] = (5, 13, 27, 54, 108)
FIG18_MAXIMA: Tuple[float, ...] = (54, 100, 200, 400, 800)


def _fig18_points(
    minima: Sequence[float], maxima: Sequence[float]
) -> List[Tuple[str, float, ISpyConfig]]:
    return [
        ("min", m, DEFAULT_CONFIG.with_window(m, DEFAULT_CONFIG.max_prefetch_distance))
        for m in minima
    ] + [
        ("max", m, DEFAULT_CONFIG.with_window(DEFAULT_CONFIG.min_prefetch_distance, m))
        for m in maxima
    ]


def fig18_requests(
    evaluation: AppEvaluation,
    minima: Sequence[float] = FIG18_MINIMA,
    maxima: Sequence[float] = FIG18_MAXIMA,
) -> List[SweepRun]:
    """Fig. 18's replays on one app: both distance sweeps in one
    batched trace pass."""
    points = _fig18_points(minima, maxima)
    return [([evaluation.ispy_plan(config) for _, _, config in points], None)]


def fig18_distance(
    evaluator: Evaluator,
    minima: Sequence[float] = FIG18_MINIMA,
    maxima: Sequence[float] = FIG18_MAXIMA,
    apps: Sequence[str] = SWEEP_APPS,
) -> List[Dict[str, object]]:
    """Sweep the minimum (max fixed) and maximum (min fixed) distance."""
    sweeps = {
        name: evaluator[name].run_sweep(
            fig18_requests(evaluator[name], minima, maxima)
        )[0]
        for name in apps
    }
    return [
        {
            "sweep": sweep,
            "distance": distance,
            "mean_pct_of_ideal": _mean_pct_of_ideal(evaluator, apps, sweeps, i),
        }
        for i, (sweep, distance, _) in enumerate(_fig18_points(minima, maxima))
    ]


# ---------------------------------------------------------------------------
# Fig. 19 — coalescing bitmask size sweep
# ---------------------------------------------------------------------------


FIG19_BITS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


def fig19_requests(
    evaluation: AppEvaluation, bits: Sequence[int] = FIG19_BITS
) -> List[SweepRun]:
    """Fig. 19's replays on one app: I-SPY at each coalescing bitmask
    width, in one batched trace pass."""
    configs = [replace(DEFAULT_CONFIG, coalesce_bits=size) for size in bits]
    return [([evaluation.ispy_plan(config) for config in configs], None)]


def fig19_coalesce_size(
    evaluator: Evaluator,
    bits: Sequence[int] = FIG19_BITS,
    apps: Sequence[str] = SWEEP_APPS,
) -> List[Dict[str, object]]:
    runs = {name: fig19_requests(evaluator[name], bits) for name in apps}
    plans = {name: runs[name][0][0] for name in apps}
    sweeps = {name: evaluator[name].run_sweep(runs[name])[0] for name in apps}
    return [
        {
            "coalesce_bits": size,
            "mean_pct_of_ideal": _mean_pct_of_ideal(evaluator, apps, sweeps, i),
            "mean_plan_instructions": metrics.arithmetic_mean(
                len(plans[name][i]) for name in apps
            ),
        }
        for i, size in enumerate(bits)
    ]


# ---------------------------------------------------------------------------
# Fig. 20 — which lines coalesced prefetches bring in
# ---------------------------------------------------------------------------


def fig20_coalesce_profile(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """Aggregate coalescing statistics across applications."""
    distance_hist: Counter = Counter()
    lines_hist: Counter = Counter()
    for evaluation in evaluator.apps(apps):
        stats = evaluation.ispy_summary().coalesce_stats
        distance_hist.update(stats.distance_histogram)
        lines_hist.update(stats.lines_per_instruction)

    total_distance = sum(distance_hist.values()) or 1
    total_lines = sum(lines_hist.values()) or 1
    below4 = sum(c for lines, c in lines_hist.items() if lines < 4)
    return {
        "distance_distribution": {
            d: c / total_distance for d, c in sorted(distance_hist.items())
        },
        "lines_per_instruction": {
            n: c / total_lines for n, c in sorted(lines_hist.items())
        },
        "fraction_below_4_lines": below4 / total_lines,
    }


# ---------------------------------------------------------------------------
# Fig. 21 — context-hash size
# ---------------------------------------------------------------------------


FIG21_BITS: Tuple[int, ...] = (4, 8, 16, 32, 64)


def fig21_requests(
    evaluation: AppEvaluation, bits: Sequence[int] = FIG21_BITS
) -> List[SweepRun]:
    """Fig. 21's replays on one app: I-SPY at each context-hash width,
    in one batched pass; the hash width varies per slot via overrides."""
    return [
        (
            [
                (
                    evaluation.ispy_plan(
                        replace(DEFAULT_CONFIG, context_hash_bits=size)
                    ),
                    {"hash_bits": size, "track_exact_context": True},
                )
                for size in bits
            ],
            None,
        )
    ]


def fig21_hash_size(
    evaluator: Evaluator,
    bits: Sequence[int] = FIG21_BITS,
    app: str = "wordpress",
) -> List[Dict[str, object]]:
    """False-positive rate and static footprint vs hash width."""
    evaluation = evaluator[app]
    text = evaluation.text_bytes
    runs = fig21_requests(evaluation, bits)
    (sweep,) = evaluation.run_sweep(runs)
    rows = []
    for size, (plan, _), stats in zip(bits, runs[0][0], sweep):
        rows.append(
            {
                "hash_bits": size,
                "false_positive_rate": getattr(stats, "false_positive_rate", 0.0),
                "static_increase": plan.static_increase(text),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Headline summary (abstract numbers)
# ---------------------------------------------------------------------------


def headline_summary(
    evaluator: Evaluator, apps: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """The abstract's aggregate claims, from our measurements."""
    speedups = []
    pct_ideal = []
    mpki_reductions = []
    over_asmdb = []
    for evaluation in evaluator.apps(apps):
        speedups.append(evaluation.speedup("ispy") - 1.0)
        pct_ideal.append(evaluation.percent_of_ideal("ispy"))
        mpki_reductions.append(
            metrics.mpki_reduction(
                evaluation.baseline_stats, evaluation.stats_for("ispy")
            )
        )
        over_asmdb.append(
            metrics.relative_improvement(
                evaluation.speedup("ispy") - 1.0,
                evaluation.speedup("asmdb") - 1.0,
            )
        )
    return {
        "mean_speedup": metrics.arithmetic_mean(speedups),
        "max_speedup": max(speedups),
        "mean_pct_of_ideal": metrics.arithmetic_mean(pct_ideal),
        "mean_mpki_reduction": metrics.arithmetic_mean(mpki_reductions),
        "max_mpki_reduction": max(mpki_reductions),
        "mean_improvement_over_asmdb": metrics.arithmetic_mean(over_asmdb),
    }


# ---------------------------------------------------------------------------
# Prefetcher matrix — the whole zoo on one yardstick
# ---------------------------------------------------------------------------


#: Default roster for ``repro matrix``: the no-prefetch baseline, the
#: ideal bound and every registered zoo member, paper schemes first.
MATRIX_PREFETCHERS: Tuple[str, ...] = (
    "baseline",
    "ideal",
    "ispy",
    "ispy-conditional",
    "ispy-coalescing",
    "asmdb",
    "mana",
    "fdip",
    "nextline",
    "contiguous8",
    "noncontiguous8",
)


def matrix_prefetchers(
    evaluator: Evaluator,
    apps: Optional[Sequence[str]] = None,
    prefetchers: Sequence[str] = MATRIX_PREFETCHERS,
) -> List[Dict[str, object]]:
    """Every zoo member on one yardstick (the ``repro matrix`` table).

    One row per prefetcher, each metric the arithmetic mean over
    *apps*: speedup over the no-prefetch baseline, L1i MPKI, prefetch
    accuracy, miss coverage (MPKI reduction), and the deployment cost
    split into static code growth (injected prefetch instructions as
    a fraction of text) and hardware metadata bytes.
    """
    evaluations = evaluator.apps(apps)
    rows: List[Dict[str, object]] = []
    for name in prefetchers:
        speedups: List[float] = []
        mpkis: List[float] = []
        accuracies: List[float] = []
        coverages: List[float] = []
        static_increases: List[float] = []
        metadata: List[float] = []
        dynamic: List[float] = []
        for evaluation in evaluations:
            stats = evaluation.stats_for(name)
            base = evaluation.baseline_stats
            footprint = evaluation.footprint_for(name)
            speedups.append(metrics.speedup(base, stats))
            mpkis.append(stats.l1i_mpki)
            accuracies.append(stats.prefetch_accuracy)
            coverages.append(metrics.mpki_reduction(base, stats))
            static_increases.append(
                footprint.static_increase(evaluation.text_bytes)
            )
            metadata.append(float(footprint.metadata_bytes))
            dynamic.append(stats.dynamic_overhead)
        rows.append(
            {
                "prefetcher": name,
                "speedup": metrics.arithmetic_mean(speedups),
                "l1i_mpki": metrics.arithmetic_mean(mpkis),
                "accuracy": metrics.arithmetic_mean(accuracies),
                "coverage": metrics.arithmetic_mean(coverages),
                "static_increase": metrics.arithmetic_mean(static_increases),
                "metadata_bytes": metrics.arithmetic_mean(metadata),
                "dynamic_overhead": metrics.arithmetic_mean(dynamic),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# The figure table
# ---------------------------------------------------------------------------


def _fig20_text(coalesce: Dict[str, object]) -> str:
    rows = [
        {"line_distance": d, "probability": p}
        for d, p in coalesce["distance_distribution"].items()
    ]
    return render_table(rows, precision=4) + (
        f"\nfraction of coalesced instructions bringing in < 4 lines: "
        f"{percent(coalesce['fraction_below_4_lines'])}"
    )


@dataclass(frozen=True)
class Figure:
    """One paper figure as the report, ``repro figure`` and
    :meth:`Evaluator.prewarm` read it: an entry of :data:`FIGURES`."""

    #: its ``repro figure`` name
    name: str
    #: its report section's title; None when the report leaves it out
    title: Optional[str]
    #: the name of its function in this module, looked up at each call,
    #: so a wrapper rebound over that name (the benchmark's layer
    #: timer) sees every call
    function: str
    #: its own apps; None for the report's; () for none (no evaluator)
    apps: Optional[Tuple[str, ...]] = None
    #: the variants whose statistics it reads on them
    variants: Tuple[str, ...] = ()
    #: its per-app sweep request function (a sweep has its own apps)
    requests: Optional[Callable[[AppEvaluation], List[SweepRun]]] = None
    #: the variants whose plans or train summaries alone it reads
    plans: Tuple[str, ...] = ()
    #: whether it reads its variants' deployment footprints
    footprints: bool = False
    #: whether it is in the report's sweep block (``--no-sweeps``)
    sweep: bool = False
    #: its report section's body, from its result
    render: Callable[[object], str] = partial(render_table, precision=4)

    def result(self, evaluator: Optional[Evaluator], apps=None):
        """Its function's result, on the report's *apps* unless it has
        apps of its own."""
        function = globals()[self.function]
        if self.apps is None:
            return function(evaluator, apps)
        return function(evaluator) if self.apps else function()


_FINE = partial(render_table, precision=5)
_BASE = ("baseline", "ideal")

#: Every figure, in the report's order: the core figures, the sweep
#: block, then what the report leaves out.  The report's sections,
#: ``repro figure``'s names and the prewarm's demand all come from here.
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure("table1", "Table I — simulated system", "table1_system", apps=()),
    Figure("fig01", "Fig. 1 — frontend-bound fractions", "fig01_frontend_bound",
           variants=("baseline",)),
    Figure("fig10", "Fig. 10 — speedup vs ideal and AsmDB", "fig10_speedup",
           variants=_BASE + ("asmdb", "ispy")),
    Figure("fig11", "Fig. 11 — MPKI reduction", "fig11_mpki",
           variants=("baseline", "asmdb", "ispy")),
    Figure("fig12", "Fig. 12 — mechanism ablation (gain over AsmDB)",
           "fig12_ablation", variants=(
               "baseline", "asmdb", "ispy", "ispy-conditional", "ispy-coalescing",
           )),
    Figure("fig13", "Fig. 13 — prefetch accuracy", "fig13_accuracy",
           variants=("asmdb", "ispy")),
    Figure("fig14", "Fig. 14 — static footprint increase",
           "fig14_static_footprint", plans=("asmdb", "ispy"), render=_FINE),
    Figure("fig15", "Fig. 15 — dynamic footprint increase",
           "fig15_dynamic_footprint", variants=("asmdb", "ispy")),
    Figure("fig04", "Fig. 4 — AsmDB footprints", "fig04_asmdb_footprint",
           variants=("asmdb",)),
    Figure("fig05", "Fig. 5 — Contiguous-8 vs Non-contiguous-8",
           "fig05_noncontiguous",
           variants=("baseline", "contiguous8", "noncontiguous8")),
    Figure("fig03", "Fig. 3 — AsmDB fan-out threshold (wordpress)",
           "fig03_fanout_tradeoff", ("wordpress",), _BASE, fig03_requests,
           sweep=True),
    Figure("fig16", "Fig. 16 — generalization across inputs",
           "fig16_generalization", GENERALIZATION_APPS, (), fig16_requests,
           sweep=True),
    Figure("fig17", "Fig. 17 — context predecessors", "fig17_predecessors",
           SWEEP_APPS, _BASE, fig17_requests, sweep=True),
    Figure("fig18", "Fig. 18 — prefetch distances", "fig18_distance",
           SWEEP_APPS, _BASE, fig18_requests, sweep=True),
    Figure("fig19", "Fig. 19 — coalescing size", "fig19_coalesce_size",
           SWEEP_APPS, _BASE, fig19_requests, sweep=True),
    Figure("fig20", "Fig. 20 — coalesced line distances",
           "fig20_coalesce_profile", plans=("ispy",), sweep=True,
           render=_fig20_text),
    Figure("fig21", "Fig. 21 — context-hash size (wordpress)", "fig21_hash_size",
           ("wordpress",), (), fig21_requests, sweep=True, render=_FINE),
    Figure("matrix", None, "matrix_prefetchers", variants=MATRIX_PREFETCHERS,
           footprints=True),
)}


def report_figures(include_sweeps: bool = True) -> List[Figure]:
    """The report's figures in order: the core ones, then, with
    *include_sweeps*, the sweep block."""
    return [
        figure for figure in FIGURES.values()
        if figure.title is not None and (include_sweeps or not figure.sweep)
    ]


#: What :meth:`Evaluator.prewarm` computes by default: every variant
#: the report's core figures read.
DEFAULT_PREWARM_VARIANTS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        variant
        for figure in report_figures(include_sweeps=False)
        for variant in figure.variants
    )
)


def sweep_requests(
    evaluation: AppEvaluation, figures: Sequence[Figure]
) -> List[SweepRun]:
    """Every ``run_plans`` call the sweeps of *figures* make on
    *evaluation*'s app."""
    return [
        run
        for figure in figures
        if figure.requests is not None and evaluation.name in figure.apps
        for run in figure.requests(evaluation)
    ]


def sweep_apps(figures: Sequence[Figure]) -> Tuple[str, ...]:
    """Every app the sweeps of *figures* replay, those in the most
    sweeps (so with the most plans to train) first."""
    swept = [figure.apps for figure in figures if figure.requests is not None]
    names = dict.fromkeys(name for apps in swept for name in apps)
    return tuple(sorted(names, key=lambda name: -sum(name in a for a in swept)))

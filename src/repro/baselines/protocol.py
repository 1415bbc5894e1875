"""The :class:`Prefetcher` protocol and the prefetcher registry.

Every prefetcher in the zoo — I-SPY itself, the five baselines and
any future member — is one :class:`Prefetcher` subclass registered
under a variant name.  The protocol splits a prefetcher's life into
the two phases the harness already distinguishes:

* **train**: consume a :class:`ProfileView` (the program plus its
  LBR/PEBS profile) and produce whatever offline artifact the scheme
  needs — a :class:`~repro.core.instructions.PrefetchPlan` for the
  injected-instruction schemes, a metadata table for MANA, nothing
  for the hardware schemes;
* **simulate**: replay an evaluation trace under the scheme and
  return :class:`~repro.sim.stats.SimStats`.

Plan-producing schemes inherit :meth:`Prefetcher.simulate` unchanged:
it drives :class:`~repro.sim.cpu.CoreSimulator`, so they get the
columnar plan kernel, ``--shard-insns`` streaming and batched sweeps
for free.  Mechanism schemes (the
run-time loops) override it and advertise what they support through
the capability flags:

``produces_plan``         training yields a ``PrefetchPlan``
``requires_profile``      training needs an ``ExecutionProfile``
``supports_plan_replay``  the CoreSimulator replay path applies
``supports_sharding``     ``shard_insns`` is honoured
``supports_batch``        variants share one plan-kernel pass in sweeps

The registry maps variant names (``"ispy"``, ``"asmdb"``,
``"nextline"``, …) to factories; :func:`get_prefetcher` instantiates
one, optionally overriding its keyword parameters (for example
``get_prefetcher("nextline", lines_ahead=4)``).  Member modules
self-register at import; :func:`_load_zoo` imports them all on first
registry access so callers never need to know which module hosts a
variant.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional, Tuple

from ..sim.stats import SimStats
from ..sim.trace import BlockTrace, Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.instructions import PrefetchPlan
    from ..profiling.profiler import ExecutionProfile
    from ..sim.params import MachineParams


@dataclass(frozen=True)
class ProfileView:
    """What a prefetcher is allowed to learn from: the program and
    (for profile-guided schemes) its execution profile."""

    program: Program
    profile: Optional["ExecutionProfile"] = None

    @property
    def text_bytes(self) -> int:
        return self.program.text_bytes


@dataclass
class ReplayContext:
    """Execution knobs for one :meth:`Prefetcher.simulate` call.

    Everything here is how-to-run state, not what-to-run state: the
    statistics of a replay are bit-identical whatever the sharding
    (for prefetchers whose capability flags allow it).  ``trained`` optionally carries a cached
    :meth:`Prefetcher.train_result` artifact so the harness's train
    cache is reused instead of retraining inside the replay.
    """

    machine: Optional["MachineParams"] = None
    data_traffic: object = None
    warmup: int = 0
    shard_insns: Optional[int] = None
    checkpointer: object = None
    hash_bits: int = 16
    track_exact_context: bool = False
    trained: object = None


@dataclass(frozen=True)
class Footprint:
    """Static cost of deploying a prefetcher on one application.

    ``injected_bytes`` is text-segment growth (injected prefetch
    instructions); ``metadata_bytes`` is off-binary storage (BTB
    entries, MANA's region table).
    """

    injected_bytes: int = 0
    metadata_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.injected_bytes + self.metadata_bytes

    def static_increase(self, text_bytes: int) -> float:
        """Fractional text-segment growth (injected bytes only, to
        match :meth:`PrefetchPlan.static_increase`)."""
        if text_bytes <= 0:
            return 0.0
        return self.injected_bytes / text_bytes


def plan_of(trained: object) -> Optional["PrefetchPlan"]:
    """Extract the plan from a training result.

    Accepts the plan itself, a result object with a ``plan``
    attribute (``ISpyResult``, ``AsmDBResult``), or None.
    """
    from ..core.instructions import PrefetchPlan

    if trained is None or isinstance(trained, PrefetchPlan):
        return trained
    return getattr(trained, "plan", None)


class Prefetcher(ABC):
    """One member of the prefetcher zoo.

    Subclasses set the capability flags that apply, implement
    :meth:`train_result` (and, for mechanism schemes,
    :meth:`simulate`), and register themselves with
    :func:`register_prefetcher`.  ``name`` identifies the configured
    instance (``"asmdb@0.95"`` style suffixes are fine);
    ``cache_token`` keys the harness's in-memory train cache and must
    therefore change whenever a parameter changes the training
    output.
    """

    #: family label, naming the training span (``plan:<planner>``)
    planner: ClassVar[str] = "prefetcher"
    #: training needs an ExecutionProfile in the view
    requires_profile: ClassVar[bool] = True
    #: training yields a PrefetchPlan (vs a private table or nothing)
    produces_plan: ClassVar[bool] = True
    #: statistics come from the CoreSimulator plan-replay path
    supports_plan_replay: ClassVar[bool] = True
    #: shard_insns streaming applies (bit-identical)
    supports_sharding: ClassVar[bool] = True
    #: variants can share one plan-kernel pass (``run_plans`` sweeps)
    supports_batch: ClassVar[bool] = True

    name: str = "prefetcher"

    @property
    def cache_token(self) -> str:
        """In-memory train-cache key; parameter-sensitive."""
        return self.name

    # -- training ------------------------------------------------------

    @abstractmethod
    def train_result(self, view: ProfileView) -> object:
        """Run offline analysis; returns the scheme's full result
        object (plan + report, a metadata table, or None)."""

    def train(self, view: ProfileView) -> Optional["PrefetchPlan"]:
        """The trained :class:`PrefetchPlan`, or None for schemes
        that do not inject instructions (even when their result object
        exposes a read-only plan view, as MANA's does)."""
        result = self.train_result(view)
        return plan_of(result) if self.produces_plan else None

    def plan_key_parts(self) -> Dict[str, object]:
        """Content-addressed artifact-store key parts for the trained
        plan.  Only meaningful when ``produces_plan`` is True."""
        raise NotImplementedError(
            f"{self.name} does not produce a storable plan"
        )

    # -- simulation ----------------------------------------------------

    def simulate(
        self,
        view: ProfileView,
        trace: BlockTrace,
        ctx: Optional[ReplayContext] = None,
    ) -> SimStats:
        """Replay *trace* under this prefetcher.

        The default implementation is the shared plan-replay path and
        serves every ``supports_plan_replay`` scheme; mechanism
        schemes override it with their run-time loop and must reject
        sharded execution when ``supports_sharding`` is False.
        """
        if not self.supports_plan_replay:
            raise NotImplementedError(
                f"{self.name} must override simulate(): it has no plan replay"
            )
        ctx = ctx or ReplayContext()
        from ..sim.cpu import CoreSimulator

        plan = plan_of(ctx.trained) if ctx.trained is not None else self.train(view)
        core = CoreSimulator(
            view.program,
            machine=ctx.machine,
            plan=plan,
            hash_bits=ctx.hash_bits,
            track_exact_context=ctx.track_exact_context,
            data_traffic=ctx.data_traffic,
        )
        stats = core.run(
            trace,
            warmup=ctx.warmup,
            shard_insns=ctx.shard_insns,
            checkpointer=ctx.checkpointer,
        )
        self._last_core = core
        return stats

    @property
    def last_replay_backend(self) -> Optional[str]:
        """Replay backend of the most recent plan-replay simulate
        call on this instance (None for mechanism loops)."""
        return getattr(
            getattr(self, "_last_core", None), "last_replay_backend", None
        )

    @property
    def conditional_false_positive_rate(self) -> float:
        """Run-time context-hash false-positive accounting of the most
        recent plan-replay simulate call (Fig. 21)."""
        engine = getattr(getattr(self, "_last_core", None), "engine", None)
        return engine.conditional_false_positive_rate if engine else 0.0

    def _reject_sharding(self, ctx: ReplayContext) -> None:
        """Guard for mechanism loops that replay whole traces only."""
        if ctx.shard_insns is not None:
            raise ValueError(
                f"{self.name} does not support sharded replay "
                "(supports_sharding is False); run it whole-trace"
            )

    # -- accounting ----------------------------------------------------

    def metadata_bytes(self, trained: object = None) -> int:
        """Off-binary metadata storage (0 for injected-only schemes)."""
        return 0

    def static_footprint(
        self, view: ProfileView, trained: object = None
    ) -> Footprint:
        """Deployment cost; reuses *trained* when the caller already
        trained this prefetcher (avoids re-planning)."""
        injected = 0
        if self.produces_plan:
            plan = plan_of(trained) if trained is not None else self.train(view)
            if plan is not None:
                injected = plan.static_bytes
        elif self.requires_profile and trained is None:
            trained = self.train_result(view)
        return Footprint(
            injected_bytes=injected,
            metadata_bytes=self.metadata_bytes(trained),
        )

    def capabilities(self) -> Dict[str, bool]:
        return {
            "requires_profile": self.requires_profile,
            "produces_plan": self.produces_plan,
            "supports_plan_replay": self.supports_plan_replay,
            "supports_sharding": self.supports_sharding,
            "supports_batch": self.supports_batch,
        }


class PlanReplay(Prefetcher):
    """Protocol adapter for a pre-built plan (or no plan at all).

    The harness's :meth:`AppEvaluation.run_plan` drives every
    plan-shaped replay — including sweep points whose plans came from
    the artifact store — through one of these, so the shared replay
    path is literally :meth:`Prefetcher.simulate`.  Not registered:
    it has no training of its own and no stable identity beyond the
    plan it wraps.
    """

    planner = "plan"
    requires_profile = False

    def __init__(self, plan: Optional["PrefetchPlan"], name: Optional[str] = None):
        self.plan = plan
        if name is None:
            name = plan.name if plan is not None else "baseline"
        self.name = name

    def train_result(self, view: ProfileView) -> Optional["PrefetchPlan"]:
        return self.plan


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: modules that self-register zoo members on import
_ZOO_MODULES: Tuple[str, ...] = (
    "repro.baselines.asmdb",
    "repro.baselines.contiguous",
    "repro.baselines.fdip",
    "repro.baselines.ideal",
    "repro.baselines.ispy",
    "repro.baselines.mana",
    "repro.baselines.nextline",
)

_REGISTRY: Dict[str, Callable[..., Prefetcher]] = {}
_ZOO_LOADED = False


def register_prefetcher(
    name: str, factory: Callable[..., Prefetcher]
) -> Callable[..., Prefetcher]:
    """Register *factory* (a Prefetcher subclass or callable returning
    one) under the variant *name*.  Re-registering a name overwrites
    it — deliberate, so tests can shadow members."""
    _REGISTRY[name] = factory
    return factory


def _load_zoo() -> None:
    global _ZOO_LOADED
    if _ZOO_LOADED:
        return
    _ZOO_LOADED = True
    for module in _ZOO_MODULES:
        importlib.import_module(module)


def get_prefetcher(name: str, **overrides: object) -> Prefetcher:
    """Instantiate the registered prefetcher *name*.

    *overrides* are forwarded to the factory (for example
    ``get_prefetcher("asmdb", fanout_threshold=0.9)``); with no
    overrides you get the variant's canonical configuration.
    """
    _load_zoo()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown prefetcher {name!r}; registered: "
            f"{', '.join(prefetcher_names())}"
        ) from None
    return factory(**overrides)


def prefetcher_names() -> Tuple[str, ...]:
    """All registered variant names, sorted."""
    _load_zoo()
    return tuple(sorted(_REGISTRY))


def plan_prefetcher_names() -> Tuple[str, ...]:
    """Registered variants whose training yields a PrefetchPlan."""
    _load_zoo()
    return tuple(
        name for name in prefetcher_names()
        if getattr(_REGISTRY[name], "produces_plan", True)
    )


def capability_rows() -> List[Dict[str, object]]:
    """One row per registered variant: name, family and capability
    flags (the docs' capability table and the matrix figure use
    this)."""
    rows = []
    for name in prefetcher_names():
        p = get_prefetcher(name)
        row: Dict[str, object] = {"prefetcher": name, "planner": p.planner}
        row.update(p.capabilities())
        rows.append(row)
    return rows


__all__ = [
    "Footprint",
    "PlanReplay",
    "Prefetcher",
    "ProfileView",
    "ReplayContext",
    "capability_rows",
    "get_prefetcher",
    "plan_of",
    "plan_prefetcher_names",
    "prefetcher_names",
    "register_prefetcher",
]

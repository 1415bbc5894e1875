"""The Fig. 5 limit study: Contiguous-8 vs Non-contiguous-8.

The paper motivates coalescing by comparing two miss-triggered
prefetchers over an n-line window following each miss:

* **Contiguous-n** prefetches *all* n lines following a missed line
  (classic next-n-line behaviour);
* **Non-contiguous-n** prefetches only those of the n following lines
  that the profile says also miss — the window's *miss subset*.

Non-contiguous-n wins (by ~7.6% in the paper) because the skipped
lines never displace useful cache contents.

:class:`WindowPrefetcher` runs both as run-time mechanisms triggered
on each L1I miss (the paper's formulation): a :func:`window_targets`
trigger on the shared loop of :mod:`repro.sim.mechanism`.
:func:`build_window_plan` additionally expresses the same windows as
injected coalesced instructions, which the coalescing tests use.
Hardware next-N-line (:class:`NextLinePrefetcher`, Section VIII) is
the contiguous window of N lines.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Set

from ..core.config import DEFAULT_CONFIG, ISpyConfig
from ..core.injection import frequent_miss_lines, select_site
from ..core.instructions import PrefetchInstr, PrefetchPlan
from ..profiling.profiler import ExecutionProfile
from ..sim.mechanism import Targets
from ..sim.stats import SimStats
from ..sim.trace import BlockTrace, Program
from .protocol import (
    MechanismPrefetcher,
    ProfileView,
    ReplayContext,
    register_prefetcher,
)


def window_targets(window: int, miss_set: Optional[Set[int]] = None) -> Targets:
    """The miss trigger of an n-line window: on a miss of line L, the
    lines L+1 … L+*window*, only those in *miss_set* when one is
    given."""
    if miss_set is None:
        return lambda line: range(line + 1, line + window + 1)
    return lambda line: [
        target for target in range(line + 1, line + window + 1) if target in miss_set
    ]


def _full_vector(window: int) -> int:
    return (1 << window) - 1


def build_window_plan(
    program: Program,
    profile: ExecutionProfile,
    window: int = 8,
    contiguous: bool = True,
    config: Optional[ISpyConfig] = None,
) -> PrefetchPlan:
    """Build a Contiguous-n (``contiguous=True``) or Non-contiguous-n
    plan from the profile's miss set."""
    if window < 1:
        raise ValueError("window must be at least one line")
    config = config or DEFAULT_CONFIG
    miss_lines: Set[int] = {
        line for line, _ in frequent_miss_lines(profile, config)
    }
    name = f"{'contiguous' if contiguous else 'non-contiguous'}-{window}"
    plan = PrefetchPlan(name=name)
    emitted: Set[int] = set()

    for line, _count in frequent_miss_lines(profile, config):
        if line in emitted:
            # Already covered as a member of an earlier window.
            continue
        selection = select_site(profile, line, config)
        if selection.chosen is None:
            continue
        if contiguous:
            vector = _full_vector(window)
            members = [line + offset for offset in range(window + 1)]
        else:
            vector = 0
            members = [line]
            for offset in range(1, window + 1):
                if line + offset in miss_lines:
                    vector |= 1 << (offset - 1)
                    members.append(line + offset)
        emitted.update(m for m in members if m in miss_lines)
        plan.add(
            PrefetchInstr(
                site_block=selection.chosen.block_id,
                base_line=line,
                bit_vector=vector,
                vector_bits=window,
                covers=tuple(m for m in members if m in miss_lines),
            )
        )
    return plan


class WindowPrefetcher(MechanismPrefetcher):
    """Contiguous-n / Non-contiguous-n through the zoo protocol.

    Training builds the injected-plan formulation
    (:func:`build_window_plan`, used by the coalescing tests and the
    footprint accounting); simulation runs the paper's miss-triggered
    run-time mechanism (:meth:`triggers`), which is why
    ``supports_plan_replay`` is False — the two formulations are
    deliberately not the same experiment.

    ``sim_config`` filters which profiled lines count as the window's
    miss subset at run time; it defaults to the training ``config``
    (the registered ``noncontiguous8`` variant relaxes it to *all*
    profiled misses, the Fig. 5 formulation).
    """

    planner = "window"
    produces_plan = True

    def __init__(
        self,
        window: int = 8,
        contiguous: bool = True,
        config: Optional[ISpyConfig] = None,
        sim_config: Optional[ISpyConfig] = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least one line")
        self.window = window
        self.contiguous = contiguous
        self.config = config
        self.sim_config = sim_config if sim_config is not None else config
        prefix = "contiguous" if contiguous else "noncontiguous"
        self.name = f"{prefix}{window}"

    @property
    def cache_token(self) -> str:
        return f"window@{self.window}c{self.contiguous}"

    def train_result(self, view: ProfileView) -> PrefetchPlan:
        return build_window_plan(
            view.program,
            view.profile,
            window=self.window,
            contiguous=self.contiguous,
            config=self.config,
        )

    def plan_key_parts(self) -> Dict[str, object]:
        return {
            "planner": "window",
            "window": self.window,
            "contiguous": self.contiguous,
        }

    def triggers(
        self, view: ProfileView, ctx: ReplayContext
    ) -> Dict[str, Targets]:
        if self.contiguous:
            return {"miss_targets": window_targets(self.window)}
        if view.profile is None:
            raise ValueError("non-contiguous mode needs a profile")
        misses = frequent_miss_lines(view.profile, self.sim_config or DEFAULT_CONFIG)
        miss_set = {line for line, _ in misses}
        return {"miss_targets": window_targets(self.window, miss_set)}

    def simulate(
        self,
        view: ProfileView,
        trace: BlockTrace,
        ctx: Optional[ReplayContext] = None,
    ) -> SimStats:
        # defined here, not inherited: the benchmark's layer table
        # times ``WindowPrefetcher.simulate`` by name
        return super().simulate(view, trace, ctx)


def _noncontiguous8(**overrides: object) -> WindowPrefetcher:
    # the Fig. 5 study filters the window on *all* profiled misses,
    # not just the hot lines the planners target
    overrides.setdefault(
        "sim_config", replace(DEFAULT_CONFIG, min_miss_samples=1)
    )
    return WindowPrefetcher(window=8, contiguous=False, **overrides)


class NextLinePrefetcher(MechanismPrefetcher):
    """Next-N-line through the zoo protocol: the contiguous window of
    ``lines_ahead`` lines, with no profile and no plan.  Zero lines
    ahead issues nothing."""

    planner = "nextline"
    requires_profile = False

    def __init__(self, lines_ahead: int = 1) -> None:
        if lines_ahead < 0:
            raise ValueError("lines_ahead must be non-negative")
        self.lines_ahead = lines_ahead
        self.name = (
            "nextline" if lines_ahead == 1 else f"nextline{lines_ahead}"
        )

    @property
    def cache_token(self) -> str:
        return f"nextline@{self.lines_ahead}"

    def train_result(self, view: ProfileView) -> None:
        return None

    def triggers(
        self, view: ProfileView, ctx: ReplayContext
    ) -> Dict[str, Targets]:
        if not self.lines_ahead:
            return {}
        return {"miss_targets": window_targets(self.lines_ahead)}


register_prefetcher("contiguous8", WindowPrefetcher)
register_prefetcher("noncontiguous8", _noncontiguous8)
register_prefetcher("nextline", NextLinePrefetcher)

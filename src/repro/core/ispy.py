"""The I-SPY offline analysis pipeline (paper Section IV, Fig. 9).

Given an LBR/PEBS :class:`ExecutionProfile`, :class:`ISpy` produces
the :class:`PrefetchPlan` that would be injected into the binary:

1. aggregate sampled misses into frequently-missing cache lines;
2. select an injection site in the 27–200-cycle prefetch window for
   each line (:mod:`repro.core.injection`);
3. if the site has non-trivial fan-out, discover the miss context and
   make the prefetch conditional (:mod:`repro.core.context`);
4. coalesce same-site, same-context targets within the n-line window
   (:mod:`repro.core.coalesce`);
5. emit ``prefetch`` / ``Cprefetch`` / ``Lprefetch`` / ``CLprefetch``
   instructions with their encoded context hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.trace import get_tracer
from ..profiling.profiler import ExecutionProfile
from ..sim.trace import Program
from .coalesce import (
    CoalesceStats,
    PlannedPrefetch,
    coalesce_prefetches,
    passthrough_groups,
)
from .config import DEFAULT_CONFIG, ISpyConfig
from .context import ContextResult, discover_context, discover_contexts
from .hashing import context_mask
from .injection import SiteSelection, frequent_miss_lines, select_site
from .instructions import PrefetchInstr, PrefetchPlan
from .validate import assert_valid


@dataclass
class ISpyReport:
    """Everything the offline analysis decided, for inspection."""

    config: ISpyConfig
    selections: Dict[int, SiteSelection] = field(default_factory=dict)
    contexts: Dict[Tuple[int, int], ContextResult] = field(default_factory=dict)
    coalesce_stats: CoalesceStats = field(default_factory=CoalesceStats)
    #: miss lines with no viable injection site
    uncovered_lines: List[int] = field(default_factory=list)
    #: total sampled miss lines considered
    considered_lines: int = 0

    @property
    def conditional_fraction(self) -> float:
        """Fraction of planned targets that became conditional."""
        planned = self.considered_lines - len(self.uncovered_lines)
        if not planned:
            return 0.0
        return len(self.contexts) / planned

    @property
    def coverage(self) -> float:
        """Fraction of considered miss lines that got a prefetch."""
        if not self.considered_lines:
            return 0.0
        return 1.0 - len(self.uncovered_lines) / self.considered_lines


@dataclass
class ISpyResult:
    plan: PrefetchPlan
    report: ISpyReport


class ISpy:
    """The end-to-end offline analyzer."""

    def __init__(self, config: ISpyConfig = DEFAULT_CONFIG):
        self.config = config

    def build_plan(self, program: Program, profile: ExecutionProfile) -> ISpyResult:
        """Analyze *profile* and emit the prefetch plan for *program*."""
        tracer = get_tracer()
        with tracer.span("analysis:plan-ispy", program=program.name):
            return self._build_plan(program, profile, tracer)

    def _build_plan(
        self, program: Program, profile: ExecutionProfile, tracer
    ) -> ISpyResult:
        config = self.config
        report = ISpyReport(config=config)
        planned: List[PlannedPrefetch] = []

        memo = profile.analysis_memo()
        ranked, searched = len(memo.candidates), len(memo.contexts)
        with tracer.span("analysis:context-discovery") as span:
            lines = [line for line, _count in frequent_miss_lines(profile, config)]
            for line in lines:
                report.selections[line] = select_site(profile, line, config)
            # Every context this plan needs, searched in one pass.
            pairs = [
                (selection.chosen.block_id, line)
                for line, selection in report.selections.items()
                if selection.chosen is not None
                and config.enable_conditional
                and selection.chosen.fanout > config.conditional_fanout_threshold
            ]
            discover_contexts(profile, pairs, config)
            needs_context = set(pairs)
            for line in lines:
                report.considered_lines += 1
                site = report.selections[line].chosen
                if site is None:
                    report.uncovered_lines.append(line)
                    continue

                context_blocks: Tuple[int, ...] = ()
                if (site.block_id, line) in needs_context:
                    context = discover_context(profile, site.block_id, line, config)
                    if context is not None:
                        context_blocks = context.blocks
                        report.contexts[(site.block_id, line)] = context

                planned.append(
                    PlannedPrefetch(
                        site=site.block_id,
                        line=line,
                        context=context_blocks,
                        covers=(line,),
                    )
                )
            # Answers taken from earlier builds on this profile: the
            # lookups that added no memo entry.
            span.set(
                lines=report.considered_lines,
                contexts=len(report.contexts),
                uncovered=len(report.uncovered_lines),
                reused_sites=len(lines) - (len(memo.candidates) - ranked),
                reused_contexts=len(pairs) - (len(memo.contexts) - searched),
            )

        with tracer.span(
            "analysis:coalescing", enabled=config.enable_coalescing
        ) as span:
            if config.enable_coalescing:
                groups, report.coalesce_stats = coalesce_prefetches(
                    planned, config.coalesce_bits
                )
            else:
                groups = passthrough_groups(planned)
            span.set(planned=len(planned), groups=len(groups))

        plan = PrefetchPlan(name="ispy")
        addresses = {block.block_id: block.address for block in program}
        for group in groups:
            mask: Optional[int] = None
            if group.context:
                mask = context_mask(
                    (addresses[b] for b in group.context),
                    config.context_hash_bits,
                )
            plan.add(
                PrefetchInstr(
                    site_block=group.site,
                    base_line=group.base_line,
                    bit_vector=group.bit_vector,
                    context_mask=mask,
                    context_blocks=group.context,
                    context_hash_bits=config.context_hash_bits,
                    vector_bits=max(config.coalesce_bits, 1),
                    covers=group.covers,
                )
            )
        # the linker-style sanity pass: a malformed plan is a bug in
        # the analysis, not a condition to paper over at run time
        assert_valid(plan, program)
        return ISpyResult(plan=plan, report=report)


def build_ispy_plan(
    program: Program,
    profile: ExecutionProfile,
    config: ISpyConfig = DEFAULT_CONFIG,
) -> ISpyResult:
    """Convenience wrapper: one call from profile to plan."""
    return ISpy(config).build_plan(program, profile)

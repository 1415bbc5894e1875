"""AsmDB prototype (paper Section V: "We prototype the state-of-the-
art prefetcher, AsmDB, and compare I-SPY against it").

AsmDB (Ayers et al., ISCA'19) injects *unconditional, single-line*
code-prefetch instructions at link time.  For every hot miss it picks
an injection site inside the prefetch window whose fan-out is below a
threshold (99% in the paper's characterization, Fig. 3): sites above
the threshold are rejected because too few of their executions lead
to the miss, so the prefetch would mostly pollute.

The threshold is exposed so the Fig. 3 coverage/accuracy trade-off
can be swept.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import DEFAULT_CONFIG, ISpyConfig
from ..core.injection import SiteSelection, frequent_miss_lines, select_site
from ..core.instructions import PrefetchInstr, PrefetchPlan
from ..profiling.profiler import ExecutionProfile
from ..sim.trace import Program
from .protocol import Prefetcher, ProfileView, register_prefetcher

#: The fan-out threshold the paper attributes to AsmDB (Section II-D).
ASMDB_FANOUT_THRESHOLD = 0.99


@dataclass
class AsmDBReport:
    """Site decisions made while building an AsmDB plan."""

    fanout_threshold: float
    selections: Dict[int, SiteSelection] = field(default_factory=dict)
    uncovered_lines: List[int] = field(default_factory=list)
    considered_lines: int = 0

    @property
    def coverage(self) -> float:
        if not self.considered_lines:
            return 0.0
        return 1.0 - len(self.uncovered_lines) / self.considered_lines


@dataclass
class AsmDBResult:
    plan: PrefetchPlan
    report: AsmDBReport


def build_asmdb_plan(
    program: Program,
    profile: ExecutionProfile,
    config: Optional[ISpyConfig] = None,
    fanout_threshold: float = ASMDB_FANOUT_THRESHOLD,
) -> AsmDBResult:
    """Build the AsmDB-style plan: unconditional single-line
    prefetches at sites with fan-out <= *fanout_threshold*."""
    config = config or DEFAULT_CONFIG
    report = AsmDBReport(fanout_threshold=fanout_threshold)
    plan = PrefetchPlan(name=f"asmdb@{fanout_threshold:.2f}")

    for line, _count in frequent_miss_lines(profile, config):
        report.considered_lines += 1
        selection = select_site(
            profile,
            line,
            config,
            max_fanout=fanout_threshold,
            fanout_mode="path",
            distance_estimator="ipc",
        )
        report.selections[line] = selection
        if selection.chosen is None:
            report.uncovered_lines.append(line)
            continue
        plan.add(
            PrefetchInstr(
                site_block=selection.chosen.block_id,
                base_line=line,
                covers=(line,),
            )
        )
    return AsmDBResult(plan=plan, report=report)


class AsmDBPrefetcher(Prefetcher):
    """AsmDB through the zoo protocol: a plan-producing scheme whose
    injected instructions replay through the shared CoreSimulator
    path, so it inherits the columnar kernel, sharding and batched
    sweeps."""

    planner = "asmdb"

    def __init__(
        self,
        fanout_threshold: float = ASMDB_FANOUT_THRESHOLD,
        config: Optional[ISpyConfig] = None,
    ) -> None:
        self.fanout_threshold = fanout_threshold
        self.config = config
        self.name = f"asmdb@{fanout_threshold:.2f}"

    @property
    def _custom_config(self) -> Optional[ISpyConfig]:
        """The config when it is not the default one build_asmdb_plan
        falls back to (the default stays out of cache keys, so default
        plans keep the keys they always had)."""
        if self.config is None or self.config == DEFAULT_CONFIG:
            return None
        return self.config

    @property
    def cache_token(self) -> str:
        config = self._custom_config
        suffix = "" if config is None else f":{config!r}"
        return f"asmdb@{self.fanout_threshold!r}{suffix}"

    def train_result(self, view: ProfileView) -> AsmDBResult:
        return build_asmdb_plan(
            view.program,
            view.profile,
            config=self.config,
            fanout_threshold=self.fanout_threshold,
        )

    def plan_key_parts(self) -> Dict[str, object]:
        parts: Dict[str, object] = {
            "planner": "asmdb", "threshold": self.fanout_threshold,
        }
        config = self._custom_config
        if config is not None:
            parts["config"] = dataclasses.asdict(config)
        return parts


register_prefetcher("asmdb", AsmDBPrefetcher)

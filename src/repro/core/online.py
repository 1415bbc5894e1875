"""Online I-SPY: periodic re-profiling and plan refresh.

Paper Section VII ("Prefetching within JITted code") sketches the
extension this module implements: *"all of I-SPY's offline machinery
(which leverages hardware performance monitoring mechanisms) can, in
principle, be used online by the runtime instead."*

:class:`OnlineISpy` drives that loop over a long execution:

1. run an *epoch* of the trace under the current prefetch plan while
   recording the LBR/PEBS view of that epoch;
2. at the epoch boundary, re-run the offline analysis on the freshly
   collected profile and swap in the new plan (what a JIT would do at
   a compilation checkpoint);
3. repeat.

The first epoch necessarily runs without a plan (nothing has been
profiled yet), so an online deployment pays a cold-start epoch and
then adapts — including to input drift mid-run, which the static
link-time flow cannot do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..perf import PerfRegistry, registry
from ..profiling.profiler import ExecutionProfile, profile_execution
from ..sim.cpu import CoreSimulator
from ..sim.params import MachineParams
from ..sim.stats import SimStats
from ..sim.trace import BlockTrace, Program
from .config import DEFAULT_CONFIG, ISpyConfig
from .instructions import PrefetchPlan
from .ispy import ISpy


@dataclass
class EpochResult:
    """Measurement of one online epoch."""

    index: int
    stats: SimStats
    plan_size: int
    #: profile collected during this epoch (input to the next plan)
    profile: Optional[ExecutionProfile] = None
    #: replay backend the epoch's simulation ran on (``reference``,
    #: ``columnar``, or ``columnar-plan`` for the plan kernel)
    backend: str = "reference"


@dataclass
class OnlineRunResult:
    """Outcome of a full online-adaptive run."""

    epochs: List[EpochResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(e.stats.cycles for e in self.epochs)

    @property
    def warm_epochs(self) -> List[EpochResult]:
        """Epochs that ran with a plan (all but the cold first one)."""
        return [e for e in self.epochs if e.plan_size > 0]

    def mpki_trajectory(self) -> List[float]:
        return [e.stats.l1i_mpki for e in self.epochs]


class OnlineISpy:
    """Epoch-based online profiling + re-planning.

    Note the simplification relative to a real JIT deployment: each
    epoch's profile is collected by replaying that epoch once more in
    profiling mode (our simulator cannot profile and prefetch in one
    pass without conflating the two).  The collected information is
    identical to what LBR/PEBS would deliver from the plan-enabled
    run, so the adaptation behaviour is preserved.
    """

    def __init__(
        self,
        program: Program,
        config: ISpyConfig = DEFAULT_CONFIG,
        machine: Optional[MachineParams] = None,
        data_traffic_factory=None,
        perf: Optional[PerfRegistry] = None,
    ):
        self.program = program
        self.config = config
        self.machine = machine
        #: callable (epoch_index) -> DataTrafficModel or None
        self.data_traffic_factory = data_traffic_factory or (lambda epoch: None)
        self.analyzer = ISpy(config)
        #: timing registry fed one ``simulate`` stage + one
        #: ``simulate:<backend>`` event per epoch (``--timing`` view)
        self.perf = registry(perf)

    def run(self, trace: BlockTrace, epoch_length: int) -> OnlineRunResult:
        """Replay *trace* in epochs, refreshing the plan between them."""
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        result = OnlineRunResult()
        plan: Optional[PrefetchPlan] = None

        position = 0
        index = 0
        while position < len(trace):
            epoch_trace = trace.slice(position, position + epoch_length)
            core = CoreSimulator(
                self.program,
                machine=self.machine,
                plan=plan,
                data_traffic=self.data_traffic_factory(index),
            )
            with self.perf.stage("simulate", units=len(epoch_trace)):
                stats = core.run(epoch_trace)
            self.perf.count(
                f"simulate:{core.last_replay_backend}", units=len(epoch_trace)
            )

            profile = profile_execution(
                self.program,
                epoch_trace,
                machine=self.machine,
                data_traffic=self.data_traffic_factory(index),
            )
            result.epochs.append(
                EpochResult(
                    index=index,
                    stats=stats,
                    plan_size=len(plan) if plan else 0,
                    profile=profile,
                    backend=core.last_replay_backend,
                )
            )
            plan = self.analyzer.build_plan(self.program, profile).plan
            position += epoch_length
            index += 1
        return result

"""Per-stage wall-clock instrumentation for the evaluation pipeline.

The harness spends its time in a handful of well-defined stages —
workload synthesis, LBR/PEBS profiling, offline plan analysis and
trace-replay simulation — plus, once the persistent artifact store is
active, cache hits that *replace* those stages.  A
:class:`PerfRegistry` accumulates one :class:`StageCounter` per stage
name: call count, wall-clock seconds and an optional work-unit count
(replayed blocks, so the report can show blocks/sec).

Usage::

    from repro import perf

    with perf.REGISTRY.stage("simulate", units=len(trace)):
        core.run(trace)

    print(perf.REGISTRY.report())

Registries are cheap plain objects.  Worker processes of the parallel
evaluator time their own work into a private registry, ship a
:meth:`~PerfRegistry.snapshot` back with the job result, and the
parent :meth:`~PerfRegistry.merge`\\ s it, so ``--timing`` output
covers all cores.  Counters deliberately measure wall-clock per stage
*execution*, so merged parallel totals can exceed elapsed time — the
report states CPU-seconds of work, which is the quantity the cache
hit-rate actually saves.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class StageCounter:
    """Accumulated cost of one pipeline stage."""

    calls: int = 0
    seconds: float = 0.0
    units: int = 0

    @property
    def units_per_second(self) -> float:
        return self.units / self.seconds if self.seconds > 0 else 0.0

    def add(self, seconds: float, units: int = 0) -> None:
        self.calls += 1
        self.seconds += seconds
        self.units += units


@dataclass
class PerfRegistry:
    """A named collection of stage counters."""

    counters: Dict[str, StageCounter] = field(default_factory=dict)

    def counter(self, name: str) -> StageCounter:
        entry = self.counters.get(name)
        if entry is None:
            entry = self.counters[name] = StageCounter()
        return entry

    @contextmanager
    def stage(self, name: str, units: int = 0) -> Iterator[None]:
        """Time a with-block into the counter for *name*."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.counter(name).add(time.perf_counter() - started, units)

    def count(self, name: str, units: int = 0) -> None:
        """Record an instantaneous event (e.g. a cache hit)."""
        self.counter(name).add(0.0, units)

    def add(self, name: str, seconds: float, units: int = 0) -> None:
        self.counter(name).add(seconds, units)

    # -- aggregation across processes ---------------------------------

    def snapshot(self) -> Dict[str, tuple]:
        """A picklable summary, suitable for shipping between
        processes and for :meth:`merge`."""
        return {
            name: (c.calls, c.seconds, c.units)
            for name, c in self.counters.items()
        }

    def merge(self, snapshot: Dict[str, tuple]) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, (calls, seconds, units) in snapshot.items():
            entry = self.counter(name)
            entry.calls += calls
            entry.seconds += seconds
            entry.units += units

    def reset(self) -> None:
        self.counters.clear()

    # -- convenience accessors ----------------------------------------

    def calls(self, name: str) -> int:
        entry = self.counters.get(name)
        return entry.calls if entry else 0

    def seconds(self, name: str) -> float:
        entry = self.counters.get(name)
        return entry.seconds if entry else 0.0

    def units(self, name: str) -> int:
        entry = self.counters.get(name)
        return entry.units if entry else 0

    def backend_counts(self, prefix: str = "simulate:") -> Dict[str, int]:
        """Simulate calls per replay backend.

        The evaluation records one ``simulate:<backend>`` event per
        replay — ``reference`` for the pure-Python loop, ``columnar``
        for the plan-free array kernel and ``columnar-plan`` for the
        plan kernel, whether the replay ran alone or in a batched
        sweep — so the ``--timing`` report can show which
        implementation actually served each replay.
        """
        return {
            name[len(prefix):]: entry.calls
            for name, entry in self.counters.items()
            if name.startswith(prefix) and len(name) > len(prefix)
        }

    def total_seconds(self) -> float:
        """Wall-clock work recorded across every stage."""
        return sum(entry.seconds for entry in self.counters.values())

    # -- reporting ------------------------------------------------------

    def report(self, title: str = "per-stage timing") -> str:
        """Render the counters as an aligned text table."""
        header = ("stage", "calls", "seconds", "units", "units/sec")
        rows = [header]
        total_seconds = self.total_seconds()
        for name in sorted(self.counters):
            entry = self.counters[name]
            rows.append(
                (
                    name,
                    str(entry.calls),
                    f"{entry.seconds:.3f}",
                    str(entry.units) if entry.units else "-",
                    f"{entry.units_per_second:,.0f}" if entry.units else "-",
                )
            )
        rows.append(("total", "", f"{total_seconds:.3f}", "", ""))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [title]
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        backends = self.backend_counts()
        if backends:
            summary = "  ".join(
                f"{name}={calls}" for name, calls in sorted(backends.items())
            )
            lines.append(f"replay backends: {summary}")
        return "\n".join(lines)


#: Process-wide default registry (the CLI's ``--timing`` view).
REGISTRY = PerfRegistry()


def registry(override: Optional[PerfRegistry] = None) -> PerfRegistry:
    """The registry to use: *override* if given, else the global one."""
    return override if override is not None else REGISTRY

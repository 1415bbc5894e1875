"""Machine description for the simulated system (paper Table I).

The paper evaluates I-SPY on a trace-driven model of an Intel Xeon
Haswell server.  :class:`MachineParams` captures every parameter the
timing model consumes: cache geometries, per-level access latencies and
the base pipeline throughput.  All latencies are in core cycles at the
all-core turbo frequency (2.5 GHz).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Cache line size used throughout the reproduction (bytes).
CACHE_LINE_BYTES = 64

#: log2 of the cache line size, used to convert byte addresses to lines.
CACHE_LINE_SHIFT = 6


def line_of(address: int) -> int:
    """Return the cache-line index containing a byte *address*."""
    return address >> CACHE_LINE_SHIFT


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity of a single cache level.

    ``size_bytes`` must be an exact multiple of
    ``ways * CACHE_LINE_BYTES`` so the set count is integral.
    """

    size_bytes: int
    ways: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.ways * CACHE_LINE_BYTES) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {CACHE_LINE_BYTES}B lines"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // CACHE_LINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class MachineParams:
    """The simulated system of paper Table I.

    Latencies are *total* load-to-use latencies from the core's point of
    view; the miss penalty for a fetch that hits at level X is the
    latency of X minus the L1I pipeline latency that is already hidden.
    """

    l1i: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8, "L1I")
    )
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8, "L1D")
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(1024 * 1024, 16, "L2")
    )
    l3: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(10 * 1024 * 1024, 20, "L3")
    )

    l1i_latency: int = 3
    l1d_latency: int = 4
    l2_latency: int = 12
    l3_latency: int = 36
    memory_latency: int = 260

    frequency_ghz: float = 2.5
    cores_per_socket: int = 20

    #: Sustained fetch/commit throughput when the frontend is not
    #: stalled, in instructions per cycle.  Haswell sustains ~4-wide
    #: issue; data-center code rarely exceeds ~2 IPC, which is the
    #: figure AsmDB reports for warehouse workloads.
    base_ipc: float = 2.0

    #: Superscalar issue width.  Injected prefetch instructions have
    #: no consumers, so the out-of-order core retires them in spare
    #: issue slots at this rate rather than at the program's
    #: dependence-limited ``base_ipc``.
    issue_width: int = 4

    #: Line-transfer occupancy of the L1I fill port, per source level,
    #: in cycles.  Derived from Table I's bandwidths: memory sustains
    #: 6.25 GB/s at 2.5 GHz = 2.5 B/cycle, i.e. ~26 cycles per 64 B
    #: line; on-chip levels are correspondingly wider.  Fills occupy
    #: the port back-to-back, so a burst of (possibly useless)
    #: prefetches delays the demand fills queued behind it.
    l2_fill_occupancy: float = 2.0
    l3_fill_occupancy: float = 4.0
    memory_fill_occupancy: float = 26.0

    def __post_init__(self) -> None:
        # Every replay path relies on these being positive (a prefetch
        # always lands strictly in the future; time always advances),
        # so a machine that violates it cannot be built.
        for name in (
            "l2_latency", "l3_latency", "memory_latency",
            "base_ipc", "issue_width",
            "l2_fill_occupancy", "l3_fill_occupancy",
            "memory_fill_occupancy",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)!r}"
                )

    def fill_occupancy(self, level: str) -> float:
        """Fill-port occupancy in cycles for a line arriving from *level*."""
        if level == "l1":
            return 0.0
        if level == "l2":
            return self.l2_fill_occupancy
        if level == "l3":
            return self.l3_fill_occupancy
        if level == "memory":
            return self.memory_fill_occupancy
        raise ValueError(f"unknown cache level: {level!r}")

    def miss_penalty(self, level: str) -> int:
        """Extra cycles a fetch pays when it hits at *level*.

        ``level`` is one of ``"l1"``, ``"l2"``, ``"l3"``, ``"memory"``.
        An L1 hit has no penalty: its pipeline latency is hidden by the
        fetch engine.
        """
        if level == "l1":
            return 0
        if level == "l2":
            return self.l2_latency
        if level == "l3":
            return self.l3_latency
        if level == "memory":
            return self.memory_latency
        raise ValueError(f"unknown cache level: {level!r}")


#: The default Table I machine, shared by every experiment.
DEFAULT_MACHINE = MachineParams()

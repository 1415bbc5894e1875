"""How fast the host runs while a command runs.

The benchmark's host is a few vCPUs of a shared machine.  How much work
a vCPU does per second changes by up to 1.9x within seconds, as the
load of its neighbours comes and goes, and each vCPU changes on its own.
The command's CPU time moves with its wall time, so neither compares
across runs as it is.

A :class:`Gauge` runs while the command runs.  It is a thread of the
benchmark's own process that does a fixed piece of interpreter work,
:func:`work`, every :data:`PERIOD_S` seconds, on each CPU the command may
use in turn, and times it in the thread's CPU time (time spent waiting
for the CPU does not count).  :attr:`Gauge.speed` is
:data:`REFERENCE_S` over the mean of those times.  Host seconds times
the speed are seconds on a host that does the work in
:data:`REFERENCE_S`, which are steady across runs when the command and
the work slow alike.  The gauge takes about 2% of one CPU.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from typing import List, Sequence

#: the CPU time of one :func:`work` on the reference host: a quiet phase
#: of the 2-vCPU VM (Intel Xeon, 2.0 GHz) the recorded results come from
REFERENCE_S = 1.5e-3
#: seconds between two runs of :func:`work`
PERIOD_S = 0.1


def work() -> int:
    """About 2 ms of fixed interpreter work: integer arithmetic and dict
    updates, the kind of Python loop the program spends its time in."""
    counts: dict = {}
    total = 0
    for i in range(6000):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + 1
        total += key ^ i
    return total


class Gauge:
    """``with Gauge(cpus) as gauge: ...`` times :func:`work` on *cpus*,
    one after another, from entry to exit; at least once."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.times: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        for turn in itertools.count():
            # pins this thread only; the command keeps its own CPUs
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
            started = time.thread_time()
            work()
            self.times.append(time.thread_time() - started)
            if self._stop.wait(PERIOD_S):
                return

    @property
    def speed(self) -> float:
        """:data:`REFERENCE_S` over the mean CPU time of :func:`work`."""
        return REFERENCE_S / statistics.fmean(self.times)

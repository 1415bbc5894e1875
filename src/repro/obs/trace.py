"""Span-based tracing: the pipeline's one timing instrument.

A :class:`Tracer` records nestable spans —

::

    with tracer.span("analysis:context-discovery", app="kafka"):
        ...

— as *complete* (``"ph": "X"``) events in the Trace Event Format, so a
run's trace loads directly in ``chrome://tracing`` or Perfetto.  Span
categories derive from the name's ``prefix:`` (``sim``, ``analysis``,
``profiling``, …), which is what the viewers filter on.

Design constraints:

* **Live in a run, null outside one.**  Every
  :class:`~repro.runconfig.RunConfig` carries a live tracer, installed
  process-wide for the run by :meth:`~repro.runconfig.RunConfig.apply`
  (``--trace`` only decides whether its events are written to a file).
  Outside a run :func:`get_tracer` returns :data:`NULL_TRACER`, so
  library calls and long-lived processes record nothing.  The tracer
  only observes, never steers: simulated statistics are bit-identical
  with tracing on or off.

* **Cross-process.**  Worker processes of the parallel evaluator run
  under their own tracer, ship :meth:`Tracer.snapshot` back with the
  job result, and the parent :meth:`Tracer.absorb`\\ s it.  Both sides
  anchor ``perf_counter`` durations to the Unix epoch, so absorbed
  events need no clock shifting; absorb re-parents them onto one
  synthetic thread per worker pid in the parent's process row.

* **The source of every count.**  :func:`summarize` folds an event
  stream into per-span calls, inclusive and self seconds, store hits,
  per-backend replay counts and batched-sweep counts — the ``--timing``
  table and the run manifest's ``stages``/``backend_counts``/``batch``
  sections are views of that one summary.

* **Loadable.**  :meth:`Tracer.write` emits the JSON-array flavour of
  the format with one event per line (the spec explicitly permits the
  unterminated, trailing-comma array, so the file doubles as JSONL);
  :func:`read_trace` parses it back.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union


def _category(name: str) -> str:
    """Event category: the ``prefix:`` of a span name, if any."""
    prefix, sep, _ = name.partition(":")
    return prefix if sep else "run"


class Span:
    """One open span; becomes a complete ``"X"`` event when ended."""

    __slots__ = ("name", "args", "start_us")

    def __init__(self, name: str, args: Dict[str, Any], start_us: float):
        self.name = name
        self.args = args
        self.start_us = start_us

    def set(self, **args: Any) -> None:
        """Attach (or overwrite) argument values mid-span — e.g. a
        replay backend that is only known once the run completed."""
        self.args.update(args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, args={self.args!r})"


class _NullSpan:
    """The span the null tracer hands out: accepts and drops args."""

    __slots__ = ()

    def set(self, **args: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumentation sites call the same methods whether tracing is on
    or off; this class is why "off" costs one attribute lookup and a
    shared-singleton context manager, nothing more.
    """

    enabled = False

    def span(self, name: str, **args: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def start_span(self, name: str, **args: Any) -> _NullSpan:
        return NULL_SPAN

    def end_span(self, span: object) -> None:
        pass

    def instant(self, name: str, **args: Any) -> None:
        pass

    def counter(self, name: str, **values: Any) -> None:
        pass

    def snapshot(self) -> List[Dict[str, Any]]:
        return []

    def absorb(self, events: Iterable[Dict[str, Any]]) -> None:
        pass

    def write(self, path: Union[str, Path]) -> Path:
        raise RuntimeError("the null tracer records nothing to write")


NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._tracer.end_span(self._span)
        return False


class Tracer:
    """Records spans, instants and counters for one process."""

    enabled = True

    def __init__(self, process_label: str = "repro"):
        self.pid = os.getpid()
        self._events: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        # perf_counter carries the precision; anchoring it to the Unix
        # epoch aligns parent and worker timelines without any shifting
        # when worker snapshots are absorbed.
        self._epoch = time.time() - time.perf_counter()
        self._named_threads: set = set()
        self._events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": self.pid,
                "args": {"name": process_label},
            }
        )
        self._thread_meta(self.pid, "main")

    # -- clock ---------------------------------------------------------

    def _now_us(self) -> float:
        return (self._epoch + time.perf_counter()) * 1e6

    def _thread_meta(self, tid: int, name: str) -> None:
        self._named_threads.add(tid)
        self._events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **args: Any) -> _SpanContext:
        """Open a nestable span as a context manager yielding the
        :class:`Span` (so callers can ``span.set(...)`` late args)."""
        return _SpanContext(self, self.start_span(name, **args))

    def start_span(self, name: str, **args: Any) -> Span:
        """Explicitly open a span; pair with :meth:`end_span`."""
        span = Span(name, args, self._now_us())
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close *span* and emit its complete event; a span that is not
        open (never started here, or already ended) raises
        :class:`ValueError` instead of being counted twice."""
        end = self._now_us()
        try:
            self._stack.remove(span)
        except ValueError:
            raise ValueError(f"span {span.name!r} is not open") from None
        self._events.append(
            {
                "name": span.name,
                "cat": _category(span.name),
                "ph": "X",
                "ts": span.start_us,
                "dur": end - span.start_us,
                "pid": self.pid,
                "tid": self.pid,
                "args": dict(span.args),
            }
        )

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- point events --------------------------------------------------

    def instant(self, name: str, **args: Any) -> None:
        """A zero-duration event (store hit, fallback decision, …)."""
        self._events.append(
            {
                "name": name,
                "cat": _category(name),
                "ph": "i",
                "s": "t",
                "ts": self._now_us(),
                "pid": self.pid,
                "tid": self.pid,
                "args": args,
            }
        )

    def counter(self, name: str, **values: float) -> None:
        """A counter sample — rendered as a stacked area track."""
        self._events.append(
            {
                "name": name,
                "cat": _category(name),
                "ph": "C",
                "ts": self._now_us(),
                "pid": self.pid,
                "tid": self.pid,
                "args": values,
            }
        )

    # -- aggregation across processes ----------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """A picklable copy of every recorded event, for shipping back
        from worker processes with the job result."""
        return [dict(event) for event in self._events]

    def absorb(self, events: Iterable[Dict[str, Any]]) -> None:
        """Re-parent another process's :meth:`snapshot` onto this
        timeline.

        Absorbed events keep their own timestamps (both clocks anchor
        to the Unix epoch) but move into this tracer's process, on one
        synthetic thread per worker pid; ``"X"`` events are tagged with
        the span that was open here when the merge happened.
        """
        parent = self._stack[-1].name if self._stack else None
        for event in events:
            if event.get("ph") == "M":
                # metadata is re-issued below under the parent's pid
                continue
            event = dict(event)
            worker = int(event.get("pid", 0))
            if worker not in self._named_threads:
                self._thread_meta(worker, f"worker-{worker}")
            event["pid"] = self.pid
            event["tid"] = worker
            if parent is not None and event.get("ph") == "X":
                event["args"] = dict(event.get("args") or {})
                event["args"]["reparented_under"] = parent
            self._events.append(event)

    # -- persistence ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def write(self, path: Union[str, Path]) -> Path:
        """Write the trace as Chrome-trace-event JSONL.

        The file is the JSON *array* flavour of the Trace Event Format
        with one event per line; the spec permits the unterminated
        trailing-comma array ("the ] is optional"), which is what lets
        the same file be consumed line-by-line as JSONL.
        """
        target = Path(path)
        with target.open("w", encoding="utf-8") as out:
            out.write("[\n")
            for event in self._events:
                out.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
                out.write(",\n")
        return target


def read_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a file written by :meth:`Tracer.write` (or any one-event-
    per-line Trace Event array) back into a list of event dicts."""
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip().rstrip(",")
        if not line or line in ("[", "]"):
            continue
        events.append(json.loads(line))
    return events


# -- the summary every count is derived from ----------------------------------

@dataclass
class SpanStats:
    """Every span of one name, folded: calls, inclusive seconds, self
    seconds (minus the time of nested spans on the same timeline) and
    work units (the spans' ``blocks`` args)."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    units: int = 0

    @property
    def units_per_second(self) -> float:
        return self.units / self.seconds if self.seconds > 0 else 0.0


@dataclass
class TraceSummary:
    """What :func:`summarize` derives from one event stream."""

    stages: Dict[str, SpanStats] = field(default_factory=dict)
    #: ``store:hit`` instants per artifact kind
    store_hits: Dict[str, int] = field(default_factory=dict)
    #: replays served per backend: a ``sim:replay`` span's ``backend``
    #: arg, and the ``backends`` counts of a ``sim:batch-sweep``
    backend_counts: Dict[str, int] = field(default_factory=dict)
    #: batched plan sweeps: passes, replays they served, slots refused
    batch: Dict[str, int] = field(
        default_factory=lambda: {"sweeps": 0, "batched_replays": 0, "fallbacks": 0}
    )

    def stage(self, name: str) -> SpanStats:
        """The folded spans named *name* (all zero when none ran)."""
        return self.stages.get(name, SpanStats())

    def total_seconds(self) -> float:
        """Time covered by spans, each instant counted once per timeline."""
        return sum(entry.self_seconds for entry in self.stages.values())

    def manifest_sections(self) -> Dict[str, Any]:
        """The run manifest's ``stages``, ``backend_counts`` and ``batch``."""
        return {
            "stages": {
                name: asdict(entry)
                for name, entry in sorted(self.stages.items())
            },
            "backend_counts": dict(sorted(self.backend_counts.items())),
            "batch": dict(self.batch),
        }

    def report(self, title: str = "per-stage timing") -> str:
        """The ``--timing`` table: one row per span name, then the
        store-hit, backend and batched-sweep counts."""
        from ..analysis.reporting import render_table

        rows: List[Dict[str, Any]] = [
            {
                "span": name,
                "calls": entry.calls,
                "seconds": entry.seconds,
                "self": entry.self_seconds,
                "blocks": entry.units or "-",
                "blocks/sec": (
                    f"{entry.units_per_second:,.0f}" if entry.units else "-"
                ),
            }
            for name, entry in sorted(self.stages.items())
        ]
        rows.append({"span": "total", "self": self.total_seconds()})
        lines = [render_table(rows, title=title)]
        for label, counts in (
            ("store hits", self.store_hits),
            ("replay backends", self.backend_counts),
        ):
            if counts:
                cells = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                lines.append(f"{label}: {cells}")
        if self.batch["sweeps"]:
            lines.append(
                f"batched sweeps: {self.batch['sweeps']} "
                f"({self.batch['batched_replays']} replays, "
                f"{self.batch['fallbacks']} fallbacks)"
            )
        return "\n".join(lines)


def summarize(events: Iterable[Dict[str, Any]]) -> TraceSummary:
    """Fold a trace's events (a :meth:`Tracer.snapshot` or a
    :func:`read_trace` result) into a :class:`TraceSummary`."""
    summary = TraceSummary()
    stages = summary.stages
    store_hits: Counter = Counter()
    backends: Counter = Counter()
    batch = summary.batch
    timelines: Dict[tuple, List[Dict[str, Any]]] = {}
    for event in events:
        phase = event.get("ph")
        name = event.get("name")
        args = event.get("args") or {}
        if phase == "i" and name == "store:hit":
            store_hits[args.get("kind")] += 1
        if phase != "X":
            continue
        entry = stages.get(name)
        if entry is None:
            entry = stages[name] = SpanStats()
        entry.calls += 1
        entry.seconds += event["dur"] / 1e6
        entry.units += int(args.get("blocks") or 0)
        if name == "sim:replay" and args.get("backend"):
            backends[args["backend"]] += 1
        if name == "sim:batch-sweep":
            backends.update(args.get("backends") or {})
            batch["sweeps"] += 1
            batch["batched_replays"] += int(args.get("replays", 0))
            batch["fallbacks"] += int(args.get("fallbacks", 0))
        timelines.setdefault((event.get("pid"), event.get("tid")), []).append(event)
    # Self time: spans on one timeline nest by containment, so a
    # start-ordered walk with a stack of open ends finds each parent.
    for spans in timelines.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        open_spans: List[tuple] = []
        for event in spans:
            while open_spans and open_spans[-1][0] <= event["ts"]:
                open_spans.pop()
            seconds = event["dur"] / 1e6
            stages[event["name"]].self_seconds += seconds
            if open_spans:
                open_spans[-1][1].self_seconds -= seconds
            open_spans.append((event["ts"] + event["dur"], stages[event["name"]]))
    summary.store_hits = dict(store_hits)
    summary.backend_counts = dict(backends)
    return summary


# -- the process-current tracer ---------------------------------------------

#: The tracer instrumentation sites see.  NULL until a run installs one.
_current: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The tracer for this process (the null tracer when disabled)."""
    return _current


def set_tracer(tracer: Union[Tracer, NullTracer, None]) -> Union[Tracer, NullTracer]:
    """Install *tracer* process-wide; ``None`` restores the null tracer."""
    global _current
    _current = NULL_TRACER if tracer is None else tracer
    return _current


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer, None]) -> Iterator[Union[Tracer, NullTracer]]:
    """Temporarily install *tracer* for the enclosed block."""
    previous = _current
    installed = set_tracer(tracer)
    try:
        yield installed
    finally:
        set_tracer(previous)

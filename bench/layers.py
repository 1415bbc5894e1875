"""Outside-in per-layer tracing of one ``repro`` CLI run.

``python bench/layers.py SPANS_DIR ARG...`` wraps the public entry points
of each ``src/repro`` layer from outside, then runs
``repro.cli.main([ARG...])`` in this process.  A wrapper replaces the
class attribute of a method, or every name a loaded ``repro`` module
binds to a function; ``functools.wraps`` keeps the wrapped pool jobs
picklable by name.  Pool workers are forked, so they inherit the
wrappers.  Spans stay in memory; each process writes its own to
``SPANS_DIR/spans-<pid>.json`` when it ends: the parent once ``main``
returns, a worker through ``multiprocessing.util.Finalize``.  No file
under ``src/`` changes, and the benchmark digests a traced run's output
exactly like an untraced one.

:func:`layer_metrics` turns the spans of a run into the per-layer table;
a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import multiprocessing.util
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: the paper figures ``repro report`` renders, wrapped as analysis.figures
FIGURE_FUNCTIONS: Tuple[str, ...] = (
    "table1_system", "fig01_frontend_bound", "fig03_fanout_tradeoff",
    "fig04_asmdb_footprint", "fig05_noncontiguous", "fig10_speedup",
    "fig11_mpki", "fig12_ablation", "fig13_accuracy",
    "fig14_static_footprint", "fig15_dynamic_footprint",
    "fig16_generalization", "fig17_predecessors", "fig18_distance",
    "fig19_coalesce_size", "fig20_coalesce_profile", "fig21_hash_size",
    "headline_summary",
)

#: span name -> the entry points it wraps, as ``module:qualname``.  Every
#: entry must resolve, so a rename under ``src/`` stops the benchmark
#: instead of silently moving that layer's time into ``cli.self_s``.
#: ``sim.run`` and ``sim.mechanism`` spans take a suffix at run time:
#: the replay backend, or the prefetcher's name.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "workloads.synthesize": ("repro.workloads.synthesis:synthesize",),
    "workloads.trace": ("repro.workloads.synthesis:SyntheticApp.trace",),
    "profiling.profile_execution": (
        "repro.profiling.profiler:profile_execution",
    ),
    "core.select_site": ("repro.core.injection:select_site",),
    "core.discover_context": ("repro.core.context:discover_context",),
    "core.build_plan": ("repro.core.ispy:ISpy.build_plan",),
    "core.coalesce_prefetches": ("repro.core.coalesce:coalesce_prefetches",),
    "baselines.train.asmdb": (
        "repro.baselines.asmdb:AsmDBPrefetcher.train_result",
    ),
    "baselines.train.ispy": ("repro.baselines.ispy:ISpyPrefetcher.train_result",),
    "sim.run": ("repro.sim.cpu:CoreSimulator.run",),
    "sim.run_sharded": ("repro.sim.streaming:run_sharded",),
    "sim.run_plan_batch": ("repro.sim.streaming:run_plan_batch",),
    "sim.mechanism": (
        "repro.baselines.contiguous:WindowPrefetcher.simulate",
        "repro.baselines.ideal:IdealPrefetcher.simulate",
    ),
    "io.load_profile": ("repro.io:ArtifactStore.load_profile",),
    "io.load_plan": ("repro.io:ArtifactStore.load_plan",),
    "io.load_stats": ("repro.io:ArtifactStore.load_stats",),
    "io.save_profile": ("repro.io:ArtifactStore.save_profile",),
    "io.save_plan": ("repro.io:ArtifactStore.save_plan",),
    "io.save_stats": ("repro.io:ArtifactStore.save_stats",),
    "analysis.figures": tuple(
        f"repro.analysis.experiments:{name}" for name in FIGURE_FUNCTIONS
    ),
    "analysis.report": ("repro.analysis.report:generate_report",),
    "analysis.prewarm": ("repro.analysis.experiments:Evaluator.prewarm",),
    "analysis.jobs": (
        "repro.analysis.jobs:prepare_app",
        "repro.analysis.jobs:evaluate_variant",
    ),
}

#: the replay backends the workloads run (the kernel is on); a span of
#: any other backend, such as ``reference``, is an error
SIM_BACKENDS: Tuple[str, ...] = ("columnar", "columnar-plan")
MECHANISMS: Tuple[str, ...] = ("contiguous8", "noncontiguous8", "ideal")

#: spans reported as ``<name>.self_s`` and ``<name>.calls``
COUNTED: Tuple[str, ...] = (
    "workloads.synthesize", "workloads.trace", "profiling.profile_execution",
    "core.select_site", "core.discover_context", "core.build_plan",
    "core.coalesce_prefetches",
    "baselines.train.asmdb", "baselines.train.ispy",
    *(f"sim.run.{backend}" for backend in SIM_BACKENDS),
    "sim.run_plan_batch", "sim.run_sharded",
    *(f"sim.mechanism.{member}" for member in MECHANISMS),
    "io.load_profile", "io.load_plan", "io.load_stats",
    "io.save_profile", "io.save_plan", "io.save_stats",
)

#: spans reported as ``<name>.self_s`` only
SELF_ONLY: Tuple[str, ...] = (
    "analysis.figures", "analysis.report", "analysis.prewarm", "analysis.jobs",
    "import", "cli", "process",
)

#: every span name a run may record; anything else is an error
SPAN_NAMES = frozenset(COUNTED + SELF_ONLY)

#: layers reported as ``<layer>.share``: the ``src/repro`` modules, plus
#: ``import`` (loading them) and ``process`` (interpreter start and exit)
LAYERS: Tuple[str, ...] = (
    "workloads", "profiling", "core", "baselines", "sim", "io",
    "analysis", "import", "cli", "process",
)

#: a cold report: report-cold's command, and report-warm's set-up (the
#: cold run that fills its cache)
COLD: Tuple[Tuple[str, str], ...] = (("wall_s", "report-cold"), ("setup_s", "report-warm"))
WARM: Tuple[Tuple[str, str], ...] = (("wall_s", "report-warm"),)
STREAM: Tuple[Tuple[str, str], ...] = (("wall_s", "evaluate-stream"),)

#: which ``(end-to-end metric, workload)`` pairs a per-layer metric
#: should move (longest matching name prefix wins)
MOVES: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("workloads.", COLD + WARM),
    ("profiling.", COLD),
    ("core.", COLD + WARM),
    ("baselines.", COLD + WARM),
    ("sim.", COLD + STREAM),
    ("sim.run_sharded.", STREAM + (("peak_rss_mib", "evaluate-stream"),)),
    ("io.load_", WARM),
    ("io.", COLD),
    ("analysis.", COLD + WARM),
    ("import.", COLD + WARM + STREAM + (
        ("setup_s", "report-cold"), ("setup_s", "evaluate-stream"),
    )),
    ("", COLD + WARM + STREAM),
)


def metric_names() -> List[str]:
    """Every per-layer metric :func:`layer_metrics` reports, in order."""
    names: List[str] = []
    for span in COUNTED:
        names += [f"{span}.self_s", f"{span}.calls"]
        if span.startswith("sim.run."):
            names.append(f"{span}.blocks_per_s")
        if span.startswith("io.load_"):
            names.append(f"{span}.hit_ratio")
    names += [
        "core.discover_context.found_ratio",
        "core.coalesce_prefetches.groups_ratio",
        "sim.run.p50_ms", "sim.run.p90_ms", "sim.run.n",
        "sim.run_plan_batch.fallback_ratio",
        "io.cache_mib",
        "analysis.jobs.busy_s", "analysis.jobs.utilization",
    ]
    names += [f"{span}.self_s" for span in SELF_ONLY]
    names += [f"{layer}.share" for layer in LAYERS]
    names.append("trace.overhead")
    return names


def moves_for(metric: str) -> Tuple[Tuple[str, str], ...]:
    """The ``(end-to-end metric, workload)`` pairs *metric* should move."""
    best = max(
        (entry for entry in MOVES if metric.startswith(entry[0])),
        key=lambda entry: len(entry[0]),
    )
    return best[1]


# -- recording ------------------------------------------------------------


class Recorder:
    """The spans of one process, each ``[name, pid, id, parent, t0, t1,
    info]``, where *parent* is the id of the enclosing span (None at the
    top of the process) and *info* holds per-call counts or None."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[int] = []

    def open(self) -> list:
        span = [
            None, self.pid, len(self.spans),
            self.stack[-1] if self.stack else None,
            time.perf_counter(), None, None,
        ]
        self.spans.append(span)
        self.stack.append(span[2])
        return span

    def close(self, span: list, name: str, info: Optional[dict] = None) -> None:
        span[5] = time.perf_counter()
        span[0] = name
        span[6] = info
        self.stack.pop()

    def write(self) -> None:
        target = self.out_dir / f"spans-{self.pid}.json"
        target.write_text(json.dumps(self.spans))

    def after_fork(self) -> None:
        """In a forked worker: drop the parent's spans and write this
        worker's own when it exits."""
        self._reset()
        multiprocessing.util.Finalize(None, self.write, exitpriority=10)


# -- wrapping -------------------------------------------------------------


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, function)`` for a ``module:qualname`` entry.

    Raises :class:`LookupError` naming *target* when the module, class
    or attribute is missing; a method must be defined on the named class
    itself, not inherited.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"layer entry point {target}: {error}") from None
    *path, attr = qualname.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise LookupError(f"layer entry point {target}: no {part!r}")
        owner = getattr(owner, part)
    found = vars(owner).get(attr) if path else getattr(owner, attr, None)
    if not callable(found):
        raise LookupError(f"layer entry point {target}: no {attr!r}")
    return owner, attr, found


def _details(span: str) -> Tuple[Callable, Optional[Callable]]:
    """``(name_of, info_of)`` for one table entry; both take the call's
    positional arguments and its result."""
    name_of: Callable = lambda args, result: span
    info_of: Optional[Callable] = None
    if span == "sim.run":
        name_of = lambda args, result: f"sim.run.{args[0].last_replay_backend}"
        info_of = lambda args, result: {"blocks": len(args[1])}
    elif span == "sim.mechanism":
        name_of = lambda args, result: f"sim.mechanism.{args[0].name}"
    elif span == "core.discover_context":
        info_of = lambda args, result: {"found": result is not None}
    elif span == "core.coalesce_prefetches":
        info_of = lambda args, result: {
            "planned": len(args[0]), "groups": len(result[0]),
        }
    elif span == "sim.run_plan_batch":
        info_of = lambda args, result: {
            "slots": len(result),
            "fallbacks": sum(reason is not None for reason in result),
        }
    elif span.startswith("io.load_"):
        info_of = lambda args, result: {"hit": result is not None}
    return name_of, info_of


def _wrap(recorder: Recorder, span_name: str, function: Callable) -> Callable:
    name_of, info_of = _details(span_name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = recorder.open()
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.close(span, span_name)
            raise
        recorder.close(
            span,
            name_of(args, result),
            info_of(args, result) if info_of is not None else None,
        )
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS`."""
    for span_name, targets in ENTRY_POINTS.items():
        for target in targets:
            owner, attr, function = resolve(target)
            wrapper = _wrap(recorder, span_name, function)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            # a module-level function: rebind it wherever a loaded repro
            # module imported it by name, not only where it is defined
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is function:
                        setattr(module, key, wrapper)


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2:
        print("usage: layers.py SPANS_DIR REPRO-ARG...", file=sys.stderr)
        return 2
    start = multiprocessing.get_start_method()
    if start != "fork":
        # workers must inherit the wrappers and the recorder
        print(f"layers.py needs the fork start method, not {start}",
              file=sys.stderr)
        return 2
    recorder = Recorder(Path(argv[0]))
    multiprocessing.util.register_after_fork(recorder, Recorder.after_fork)
    root = recorder.open()
    loading = recorder.open()
    import repro.cli

    for module in {target.partition(":")[0]
                   for targets in ENTRY_POINTS.values() for target in targets}:
        importlib.import_module(module)
    recorder.close(loading, "import")
    install(recorder)
    try:
        return repro.cli.main(list(argv[1:]))
    finally:
        recorder.close(root, "cli")
        recorder.write()


# -- the per-layer table ----------------------------------------------------


def load_spans(spans_dir: Path) -> List[list]:
    """Every span written by a traced run's processes."""
    spans: List[list] = []
    for path in sorted(Path(spans_dir).glob("spans-*.json")):
        spans += json.loads(path.read_text())
    return spans


def self_times(spans: Iterable[list]) -> List[Tuple[list, float]]:
    """``(span, self seconds)`` for every span: its duration minus the
    durations of the spans directly inside it, in the same process."""
    spans = list(spans)
    children: Dict[Tuple[int, int], float] = {}
    for span in spans:
        if span[3] is not None:
            key = (span[1], span[3])
            children[key] = children.get(key, 0.0) + span[5] - span[4]
    return [
        (span, span[5] - span[4] - children.get((span[1], span[2]), 0.0))
        for span in spans
    ]


def percentile_ms(durations: Sequence[float]) -> Tuple[float, float]:
    """``(p50, p90)`` in milliseconds.  The 90th percentile is reported
    only with at least ten samples above it (n >= 100); below that the
    second value is the maximum."""
    if not durations:
        return 0.0, 0.0
    high = (
        statistics.quantiles(durations, n=10)[-1]
        if len(durations) >= 100
        else max(durations)
    )
    return statistics.median(durations) * 1e3, high * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[list],
    wall_s: float,
    untraced_wall_s: float,
    jobs: int,
    cache_mib: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    *wall_s* is the traced process's wall time and *untraced_wall_s*
    the median untraced wall of the same command; *jobs* is its worker
    count.  Shares divide by the summed self time of every process,
    which is the wall time when the run has one process.
    """
    unknown = {span[0] for span in spans} - SPAN_NAMES
    if unknown:
        raise ValueError(
            f"spans with no per-layer metric: {', '.join(sorted(unknown))}"
        )
    self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
    calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
    duration: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
    info: Dict[str, Dict[str, float]] = {}
    run_durations: List[float] = []
    for span, seconds in self_times(spans):
        name = span[0]
        self_s[name] += seconds
        calls[name] += 1
        duration[name] += span[5] - span[4]
        for key, value in (span[6] or {}).items():
            bucket = info.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value
        if name.startswith("sim.run."):
            run_durations.append(span[5] - span[4])
    root = [span for span in spans if span[0] == "cli"]
    self_s["process"] = wall_s - sum(span[5] - span[4] for span in root)

    metrics: Dict[str, float] = {}
    for name in COUNTED:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
        if name.startswith("sim.run."):
            blocks = info.get(name, {}).get("blocks", 0)
            metrics[f"{name}.blocks_per_s"] = _ratio(blocks, duration[name])
        if name.startswith("io.load_"):
            hits = info.get(name, {}).get("hit", 0)
            metrics[f"{name}.hit_ratio"] = _ratio(hits, calls[name])
    found = info.get("core.discover_context", {})
    metrics["core.discover_context.found_ratio"] = _ratio(
        found.get("found", 0), calls["core.discover_context"]
    )
    coalesced = info.get("core.coalesce_prefetches", {})
    metrics["core.coalesce_prefetches.groups_ratio"] = _ratio(
        coalesced.get("groups", 0), coalesced.get("planned", 0)
    )
    p50, p90 = percentile_ms(run_durations)
    metrics["sim.run.p50_ms"] = p50
    metrics["sim.run.p90_ms"] = p90
    metrics["sim.run.n"] = len(run_durations)
    batch = info.get("sim.run_plan_batch", {})
    metrics["sim.run_plan_batch.fallback_ratio"] = _ratio(
        batch.get("fallbacks", 0), batch.get("slots", 0)
    )
    metrics["io.cache_mib"] = cache_mib
    busy = duration["analysis.jobs"]
    metrics["analysis.jobs.busy_s"] = busy
    metrics["analysis.jobs.utilization"] = _ratio(
        busy, duration["analysis.prewarm"] * jobs
    ) if calls["analysis.jobs"] else 0.0
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = self_s[name]
    total = sum(self_s.values())
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(
            sum(seconds for name, seconds in self_s.items()
                if name == layer or name.startswith(layer + ".")),
            total,
        )
    metrics["trace.overhead"] = _ratio(wall_s, untraced_wall_s) - 1.0
    return metrics


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

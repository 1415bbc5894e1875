"""Unified run configuration: one object that describes an invocation.

Before this module, every entry point re-plumbed the same knobs by
hand — the CLI through ``_add_scale_options``/``_add_perf_options``
duplicated per subcommand, the :class:`~repro.analysis.experiments.
Evaluator` through scattered keyword arguments.  :class:`RunConfig` is
the single carrier for all of it:

* experiment settings (trace lengths, workload scale);
* execution (worker ``jobs``, the persistent artifact ``store``);
* telemetry — the run's live span :class:`~repro.obs.trace.Tracer`,
  whose events ``--trace`` writes to a file, whose
  :func:`~repro.obs.trace.summarize` view ``--timing`` prints, and
  which feeds the :class:`~repro.obs.manifest.RunManifest` behind
  ``--manifest``;
* memory management — a run pauses CPython's cyclic garbage collector
  from :meth:`RunConfig.apply` until :meth:`RunConfig.finalize`.  The
  pipeline makes no reference cycles (``tests/obs/test_runconfig.py``
  checks it), so collections would only re-walk a large, long-lived
  heap and free nothing; reference counting still frees everything a
  run drops.

The CLI runs each command inside :meth:`RunConfig.session`, library
callers construct a config directly and hand it to
:meth:`RunConfig.evaluator`.  Telemetry only observes: the simulated
statistics of a run are bit-identical whatever the sinks.
"""

from __future__ import annotations

import gc
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .obs.manifest import RunManifest
from .obs.trace import NullTracer, Tracer, set_tracer, summarize

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    import argparse

    from .analysis.experiments import Evaluator, ExperimentSettings
    from .io import ArtifactStore

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class RunConfig:
    """Everything one invocation of the pipeline needs to know."""

    #: trace lengths and workload scale (defaults to ``ExperimentSettings()``)
    settings: Optional["ExperimentSettings"] = None
    #: worker processes for independent simulations (0 = one per CPU)
    jobs: int = 1
    #: persistent artifact cache: a directory path, an
    #: :class:`~repro.io.ArtifactStore`, or None for in-memory only
    store: Union[None, PathLike, "ArtifactStore"] = None
    #: stream evaluation traces in shards of this many retired
    #: instructions (bounded memory, per-shard resume checkpoints when
    #: a store is configured); None replays whole traces.  An execution
    #: knob, not an experiment setting: results are bit-identical, so
    #: it never enters result cache keys.
    shard_insns: Optional[int] = None
    #: print the span summary's timing table when the run finishes
    timing: bool = False
    #: write a Chrome-trace-event JSONL of the run's spans here
    trace_path: Optional[PathLike] = None
    #: write the run manifest (provenance record) here
    manifest_path: Optional[PathLike] = None
    #: the run's span sink: every timing figure and count derives from it
    tracer: Union[Tracer, NullTracer] = field(default_factory=Tracer)
    #: label for the root span / manifest (the CLI subcommand)
    command: Optional[str] = None

    _root_span: object = field(default=None, init=False, repr=False, compare=False)
    #: the collector state the caller had before :meth:`apply` paused
    #: it, and the collection count then (None outside a run)
    _gc_saved: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.shard_insns is not None and self.shard_insns < 1:
            raise ValueError(
                f"shard_insns must be at least 1, got {self.shard_insns}"
            )
        if self.settings is None:
            from .analysis.experiments import ExperimentSettings

            self.settings = ExperimentSettings()

    @classmethod
    def from_args(cls, args: "argparse.Namespace") -> "RunConfig":
        """Build a config from a parsed CLI namespace
        (see :func:`add_run_arguments`)."""
        from .analysis.experiments import ExperimentSettings

        settings = ExperimentSettings(
            profile_length=args.profile_blocks,
            eval_length=args.eval_blocks,
            warmup=args.warmup,
            scale=args.scale,
        )
        store = None if getattr(args, "no_cache", False) else getattr(args, "cache", None)
        return cls(
            settings=settings,
            jobs=getattr(args, "jobs", 1),
            store=store,
            shard_insns=getattr(args, "shard_insns", None),
            timing=getattr(args, "timing", False),
            trace_path=getattr(args, "trace", None),
            manifest_path=getattr(args, "manifest", None),
            command=getattr(args, "command", None),
        )

    # -- lifecycle ----------------------------------------------------

    def apply(self) -> None:
        """Install the process-wide pieces this config describes and
        pause the cyclic collector.  Applying again keeps the state
        saved the first time, so :meth:`finalize` restores what the
        caller had."""
        if self._gc_saved is None:
            self._gc_saved = (gc.isenabled(), _gc_collections())
        gc.disable()
        set_tracer(self.tracer)
        if self.command and self._root_span is None:
            self._root_span = self.tracer.start_span(f"run:{self.command}")

    def evaluator(self) -> "Evaluator":
        """Apply the config and build its :class:`Evaluator`."""
        from .analysis.experiments import Evaluator

        self.apply()
        return Evaluator(config=self)

    @contextmanager
    def session(self) -> Iterator["Evaluator"]:
        """Run the enclosed block as one run of this config: yields
        :meth:`evaluator`, calls :meth:`finalize` when the block
        succeeds, and ends the run (:meth:`_close`) however it exits."""
        try:
            evaluator = self.evaluator()
            yield evaluator
            self.finalize(evaluator)
        finally:
            self._close()

    def _close(self) -> None:
        """End the run's process-wide effects: close the root span
        (recording the run's ``gc_collections``), uninstall the run's
        tracer so nothing outside a run records, and restore the
        collector state :meth:`apply` found.  Idempotent."""
        if self._root_span is not None:
            if self._gc_saved is not None:
                self._root_span.set(
                    gc_collections=_gc_collections() - self._gc_saved[1]
                )
            self.tracer.end_span(self._root_span)
            self._root_span = None
        set_tracer(None)
        if self._gc_saved is not None:
            if self._gc_saved[0]:
                # The run's survivors are all still in the youngest
                # generation; the first collection after re-enabling
                # would walk every one of them.  A freeze and unfreeze
                # moves them to the oldest generation without a pass,
                # where the collector can still reach them.  Objects a
                # caller froze itself stay frozen.
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()
            self._gc_saved = None

    def finalize(self, evaluator: Optional["Evaluator"] = None) -> None:
        """End the run (:meth:`_close`) and write the configured sinks:
        trace file, manifest (of *evaluator*, which it requires) and
        timing report."""
        self._close()
        if self.trace_path and self.tracer.enabled:
            target = self.tracer.write(self.trace_path)
            print(f"trace written to {target}")
        if self.manifest_path:
            if evaluator is None:
                raise ValueError("a run manifest needs the run's evaluator")
            manifest = RunManifest.collect(
                evaluator, command=self.command, trace_path=self.trace_path
            )
            target = manifest.write(self.manifest_path)
            print(f"manifest written to {target}")
        if self.timing:
            print()
            print(summarize(self.tracer.snapshot()).report())


def _gc_collections() -> int:
    """Collections this process has run so far, over all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    import argparse

    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type for finite sizes that must be above 0."""
    import argparse

    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
    return value


def add_run_arguments(
    parser: "argparse.ArgumentParser",
    jobs_default: int = 1,
    cache_default: Optional[str] = None,
) -> None:
    """Register the shared run-configuration flags on *parser*.

    This is the one place the CLI's scale, performance and telemetry
    options are defined; every subcommand that evaluates anything
    calls it, and :meth:`RunConfig.from_args` consumes the result.
    """
    scale = parser.add_argument_group("workload scale")
    scale.add_argument(
        "--scale", type=positive_float, default=0.6,
        help="workload scale factor (1.0 = benchmark size)",
    )
    scale.add_argument("--profile-blocks", type=positive_int, default=60_000)
    scale.add_argument("--eval-blocks", type=positive_int, default=80_000)
    scale.add_argument("--warmup", type=int, default=16_000)

    run = parser.add_argument_group("execution")
    run.add_argument(
        "--jobs", type=int, default=jobs_default, metavar="N",
        help="worker processes for independent simulations "
        "(0 = one per CPU, 1 = serial)",
    )
    run.add_argument(
        "--cache", default=cache_default, metavar="DIR",
        help="persistent artifact cache directory "
        "(profiles, plans and simulation results survive across runs)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent artifact cache",
    )
    run.add_argument(
        "--shard-insns", type=positive_int, default=None, metavar="N",
        help="stream evaluation traces in shards of N retired "
        "instructions (bounded memory; with --cache, killed runs "
        "resume from the last completed shard; results are "
        "bit-identical to whole-trace replay)",
    )

    telemetry = parser.add_argument_group("telemetry")
    telemetry.add_argument(
        "--timing", action="store_true",
        help="print the run's span summary at the end: calls and "
        "seconds per span, store hits, replays per backend",
    )
    telemetry.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record spans to a Chrome-trace-event JSONL file "
        "(open in chrome://tracing or Perfetto)",
    )
    telemetry.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write a run manifest (settings, version, kernel state, "
        "backend counts, cache hit rates, result digests)",
    )


__all__ = ["RunConfig", "add_run_arguments"]

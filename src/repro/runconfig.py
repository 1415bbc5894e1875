"""Unified run configuration: one object that describes an invocation.

Before this module, every entry point re-plumbed the same knobs by
hand — the CLI through ``_add_scale_options``/``_add_perf_options``
duplicated per subcommand, the :class:`~repro.analysis.experiments.
Evaluator` through scattered keyword arguments, and the kernel gate
through direct ``repro.kernel`` calls.  :class:`RunConfig` is the
single carrier for all of it:

* experiment settings (trace lengths, workload scale);
* execution (worker ``jobs``, the persistent artifact ``store``);
* the columnar-kernel gate (tri-state: force on, force off, defer to
  the environment);
* telemetry — the run's live span :class:`~repro.obs.trace.Tracer`,
  whose events ``--trace`` writes to a file, whose
  :func:`~repro.obs.trace.summarize` view ``--timing`` prints, and
  which feeds the :class:`~repro.obs.manifest.RunManifest` behind
  ``--manifest``.

The CLI builds one via :meth:`RunConfig.from_args`, library callers
construct it directly, and both hand it to :meth:`RunConfig.evaluator`.
Telemetry only observes: the simulated statistics of a run are
bit-identical whatever the sinks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from . import kernel
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
    #: columnar-kernel gate: True forces it on, False forces the
    #: reference paths, None defers to ``REPRO_NUMPY_KERNEL``/default
    numpy_kernel: Optional[bool] = None
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
            numpy_kernel=False if getattr(args, "no_numpy_kernel", False) else None,
            shard_insns=getattr(args, "shard_insns", None),
            timing=getattr(args, "timing", False),
            trace_path=getattr(args, "trace", None),
            manifest_path=getattr(args, "manifest", None),
            command=getattr(args, "command", None),
        )

    # -- lifecycle ----------------------------------------------------

    def apply(self) -> None:
        """Install the process-wide pieces this config describes."""
        if self.numpy_kernel is not None:
            kernel.set_numpy_kernel(self.numpy_kernel)
            # Simulation workers are separate processes; the environment
            # variable carries the choice across the spawn boundary.
            os.environ[kernel.NUMPY_KERNEL_ENV] = "1" if self.numpy_kernel else "0"
        set_tracer(self.tracer)
        if self.command and self._root_span is None:
            self._root_span = self.tracer.start_span(f"run:{self.command}")

    def evaluator(self) -> "Evaluator":
        """Apply the config and build its :class:`Evaluator`."""
        from .analysis.experiments import Evaluator

        self.apply()
        return Evaluator(config=self)

    def finalize(self, evaluator: "Evaluator") -> None:
        """End-of-run bookkeeping: close the root span, write the
        configured sinks (trace file, manifest, timing report) and
        uninstall the run's tracer, so nothing outside a run records."""
        if self._root_span is not None:
            self.tracer.end_span(self._root_span)
            self._root_span = None
        set_tracer(None)
        if self.trace_path and self.tracer.enabled:
            target = self.tracer.write(self.trace_path)
            print(f"trace written to {target}")
        if self.manifest_path:
            manifest = RunManifest.collect(
                evaluator, command=self.command, trace_path=self.trace_path
            )
            target = manifest.write(self.manifest_path)
            print(f"manifest written to {target}")
        if self.timing:
            print()
            print(summarize(self.tracer.snapshot()).report())


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    import argparse

    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
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
        "--scale", type=float, default=0.6,
        help="workload scale factor (1.0 = benchmark size)",
    )
    scale.add_argument("--profile-blocks", type=int, default=60_000)
    scale.add_argument("--eval-blocks", type=int, default=80_000)
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
        "--no-numpy-kernel", action="store_true",
        help="force the pure-Python reference paths (disables the "
        "columnar NumPy kernel; results are identical either way)",
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

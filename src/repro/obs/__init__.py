"""Observability: span tracing and run manifests.

``repro.obs.trace``
    Nestable spans emitting Chrome-trace-event-compatible JSONL — the
    pipeline's one timing instrument.  Worker-process spans ship back
    with job results and are re-parented onto the parent timeline on
    merge.  :func:`~repro.obs.trace.summarize` derives every count from
    that one stream: per-span calls and seconds, store hits, replays
    per backend and batched-sweep counts.

``repro.obs.manifest``
    A per-invocation run manifest — resolved settings, seeds, package
    version, kernel gate state, the span summary's sections, artifact
    store hit rates and per-app stats digests — so any figure number
    can be traced to exactly what produced it.

Both are carried by :class:`repro.runconfig.RunConfig`: every run has a
live tracer (``--trace PATH`` writes its events, ``--timing`` prints its
summary) and ``--manifest PATH`` writes the manifest.  Outside a run
the :data:`~repro.obs.trace.NULL_TRACER` absorbs every instrumentation
call, and simulated statistics are bit-identical with tracing on or off.
"""

from .manifest import (
    MANIFEST_FORMAT,
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    ManifestError,
    RunManifest,
    validate_manifest,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceSummary,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    summarize,
    use_tracer,
)

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ManifestError",
    "NULL_TRACER",
    "NullTracer",
    "RunManifest",
    "Span",
    "TraceSummary",
    "Tracer",
    "get_tracer",
    "read_trace",
    "set_tracer",
    "summarize",
    "use_tracer",
    "validate_manifest",
]

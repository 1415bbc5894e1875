"""Run manifests: what exactly produced a set of numbers.

A :class:`RunManifest` is a JSON record written once per invocation
that pins down everything a figure number depends on — the resolved
:class:`~repro.analysis.experiments.ExperimentSettings`, the package
version, the kernel gate state, the run's span summary (per-span
timing, replays per backend, batched sweeps), the artifact store's
hit/miss rates and a content digest of every per-app
result the run produced.  Re-running the same command against the
same version must reproduce the same digests; a manifest diff shows
*why* when it doesn't (different settings, different backend mix, a
stale cache, …).

The schema is validated by hand (:func:`validate_manifest`) rather
than by a jsonschema dependency the project deliberately avoids;
:data:`MANIFEST_SCHEMA` documents the expected shape for humans and
for the CI check that validates the perf-smoke manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

MANIFEST_FORMAT = "run-manifest"
# Version 2 extended the parallel section with per-round accounting
# and the worker-budget split provenance.
# Version 3 added the "batch" section (batched sweep replay: the
# batching mode, sweep/variant/fallback counts).
# Version 4 dropped the "parallel" section with parallel shard replay.
# Version 5 dropped batch.mode with the batching knob: every plan
# replay runs on one kernel, so batching is no longer a choice.
# Version 6 derives stages, backend_counts and batch from the run's
# span stream: stages are span names with self seconds.
MANIFEST_VERSION = 6

PathLike = Union[str, Path]


class ManifestError(ValueError):
    """Raised when a manifest fails schema validation on write/load."""


#: The manifest's shape: ``field -> type`` for the top level, with
#: nested sections described the same way.  This is documentation *and*
#: the source of truth for :func:`validate_manifest`.
MANIFEST_SCHEMA: Dict[str, Any] = {
    "format": str,          # always MANIFEST_FORMAT
    "version": int,         # always MANIFEST_VERSION
    "created_unix": (int, float),
    "repro_version": str,
    "command": (str, type(None)),   # CLI subcommand, if any
    "settings": {
        "profile_length": int,
        "eval_length": int,
        "warmup": int,
        "scale": (int, float),
    },
    "jobs": int,
    "shard_insns": (int, type(None)),  # trace shard budget, None = whole-trace
    "kernel": {
        "numpy_available": bool,
        "numpy_enabled": bool,
        "env": (str, type(None)),   # REPRO_NUMPY_KERNEL at collect time
        "forced": (bool, type(None)),
    },
    "store": {
        "present": bool,
        "root": (str, type(None)),
        "hits": dict,       # kind -> int
        "misses": dict,     # kind -> int
        "hit_rate": (int, float, type(None)),
    },
    "batch": {
        "sweeps": int,                # batched trace passes executed
        "batched_replays": int,       # variants served by a batched pass
        "fallbacks": int,             # variants the kernel refused
    },
    "backend_counts": dict,  # replay backend -> replays served
    "stages": dict,          # span name -> {calls, seconds, self_seconds, units}
    "apps": dict,            # app -> {seed, variants: {...}}
    "trace_path": (str, type(None)),
}

_STAGE_FIELDS = {
    "calls": int,
    "seconds": (int, float),
    "self_seconds": (int, float),
    "units": int,
}
_VARIANT_FIELDS = {
    "cycles": (int, float),
    "l1i_mpki": (int, float),
    "prefetch_accuracy": (int, float),
    "record_sha256": str,
}


def _type_name(expected: Any) -> str:
    if isinstance(expected, tuple):
        return " or ".join(t.__name__ for t in expected)
    return expected.__name__


def _check_fields(
    payload: Any, schema: Dict[str, Any], where: str, errors: List[str]
) -> None:
    if not isinstance(payload, dict):
        errors.append(f"{where}: expected an object, found {type(payload).__name__}")
        return
    for key, expected in schema.items():
        if key not in payload:
            errors.append(f"{where}.{key}: missing")
            continue
        value = payload[key]
        if isinstance(expected, dict):
            _check_fields(value, expected, f"{where}.{key}", errors)
        elif not isinstance(value, expected):
            # bool is an int subclass; don't let True satisfy an int field
            errors.append(
                f"{where}.{key}: expected {_type_name(expected)}, "
                f"found {type(value).__name__}"
            )
        elif expected is int and isinstance(value, bool):
            errors.append(f"{where}.{key}: expected int, found bool")


def validate_manifest(payload: Any) -> List[str]:
    """Check *payload* against the manifest schema.

    Returns a list of human-readable problems — empty when the
    manifest is valid.  Collects every error rather than stopping at
    the first, so a CI failure shows the full damage at once.
    """
    errors: List[str] = []
    _check_fields(payload, MANIFEST_SCHEMA, "manifest", errors)
    if errors:
        return errors

    if payload["format"] != MANIFEST_FORMAT:
        errors.append(
            f"manifest.format: expected {MANIFEST_FORMAT!r}, "
            f"found {payload['format']!r}"
        )
    if payload["version"] != MANIFEST_VERSION:
        errors.append(
            f"manifest.version: unsupported version {payload['version']!r}"
        )
    for name, entry in payload["stages"].items():
        _check_fields(entry, _STAGE_FIELDS, f"manifest.stages[{name!r}]", errors)
    for backend, calls in payload["backend_counts"].items():
        if not isinstance(calls, int) or isinstance(calls, bool):
            errors.append(
                f"manifest.backend_counts[{backend!r}]: expected int, "
                f"found {type(calls).__name__}"
            )
    for app, entry in payload["apps"].items():
        where = f"manifest.apps[{app!r}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: expected an object")
            continue
        if not isinstance(entry.get("seed"), int):
            errors.append(f"{where}.seed: expected int")
        variants = entry.get("variants")
        if not isinstance(variants, dict):
            errors.append(f"{where}.variants: expected an object")
            continue
        for variant, record in variants.items():
            _check_fields(
                record, _VARIANT_FIELDS, f"{where}.variants[{variant!r}]", errors
            )
    return errors


def _stats_digest(stats: Any) -> Dict[str, Any]:
    """A variant's manifest entry: headline metrics + content digest.

    The digest hashes the canonical JSON of the *lossless* counter
    record (:func:`repro.io.stats_to_record`), so two runs produced
    the same statistics iff their digests match.
    """
    from .. import io as repro_io

    record = repro_io.stats_to_record(stats)
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return {
        "cycles": stats.cycles,
        "l1i_mpki": stats.l1i_mpki,
        "prefetch_accuracy": stats.prefetch_accuracy,
        "record_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


@dataclasses.dataclass
class RunManifest:
    """One invocation's provenance record (a thin wrapper over JSON)."""

    payload: Dict[str, Any]

    @classmethod
    def collect(
        cls,
        evaluator,
        command: Optional[str] = None,
        trace_path: Optional[PathLike] = None,
    ) -> "RunManifest":
        """Assemble a manifest from an :class:`Evaluator` after a run."""
        import os

        import repro
        from .. import kernel
        from .trace import summarize

        store = getattr(evaluator, "store", None)
        if store is not None:
            hits, misses = store.counters()
            lookups = sum(hits.values()) + sum(misses.values())
            store_section = {
                "present": True,
                "root": str(store.root),
                "hits": dict(hits),
                "misses": dict(misses),
                "hit_rate": (sum(hits.values()) / lookups) if lookups else None,
            }
        else:
            store_section = {
                "present": False,
                "root": None,
                "hits": {},
                "misses": {},
                "hit_rate": None,
            }

        apps: Dict[str, Any] = {}
        for name, evaluation in sorted(evaluator._apps.items()):
            apps[name] = {
                "seed": evaluation.spec.seed,
                "variants": {
                    variant: _stats_digest(stats)
                    for variant, stats in sorted(evaluation._stats.items())
                },
            }

        payload: Dict[str, Any] = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "created_unix": time.time(),
            "repro_version": repro.__version__,
            "command": command,
            "settings": dataclasses.asdict(evaluator.settings),
            "jobs": evaluator.jobs,
            "shard_insns": getattr(evaluator, "shard_insns", None),
            "kernel": {
                "numpy_available": kernel.HAVE_NUMPY,
                "numpy_enabled": kernel.numpy_enabled(),
                "env": os.environ.get(kernel.NUMPY_KERNEL_ENV),
                "forced": kernel._forced,
            },
            "store": store_section,
            **summarize(evaluator.tracer.snapshot()).manifest_sections(),
            "apps": apps,
            "trace_path": str(trace_path) if trace_path is not None else None,
        }
        return cls(payload)

    def validate(self) -> List[str]:
        return validate_manifest(self.payload)

    def write(self, path: PathLike, validate: bool = True) -> Path:
        """Write the manifest JSON; refuses to persist an invalid one."""
        if validate:
            errors = self.validate()
            if errors:
                raise ManifestError(
                    "refusing to write invalid manifest:\n  " + "\n  ".join(errors)
                )
        target = Path(path)
        target.write_text(json.dumps(self.payload, indent=2, sort_keys=True) + "\n")
        return target

    @classmethod
    def load(cls, path: PathLike) -> "RunManifest":
        """Read a manifest back, validating it on the way in."""
        payload = json.loads(Path(path).read_text())
        errors = validate_manifest(payload)
        if errors:
            raise ManifestError(
                f"invalid manifest {path}:\n  " + "\n  ".join(errors)
            )
        return cls(payload)

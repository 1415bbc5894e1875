"""Serialization: save/load profiles, plans, specs and results.

A production deployment of I-SPY separates roles in time and space —
profiles are collected on serving machines, analyzed on build
machines, and the resulting plans are applied at link time (Fig. 9).
This module provides the interchange formats for those hand-offs:

* :func:`save_plan` / :func:`load_plan` — injected-instruction lists;
* :func:`save_profile` / :func:`load_profile` — LBR/PEBS recordings
  (gzipped JSON; these carry full traces and can be large);
* :func:`save_spec` / :func:`load_spec` — workload definitions, so an
  experiment's exact synthetic application can be reconstructed;
* :func:`stats_to_dict` — flat result records for logging;
* :func:`stats_to_record` / :func:`stats_from_record` — *lossless*
  counter-level result round-trips (the artifact-store format);
* :class:`TrainSummary` / :class:`AppSummary` — the few numbers the
  figures read from a planner's report and from a synthesized app;
* :class:`ArtifactStore` — a versioned, content-addressed on-disk
  cache of profiles, plans, train and app summaries, footprints and
  simulation results, so repeated harness runs share artifacts instead of
  recomputing them.

All formats are versioned JSON; unknown versions are rejected rather
than silently misread.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from .core.coalesce import CoalesceStats
from .core.instructions import PrefetchInstr, PrefetchPlan
from .profiling.pebs import MissSample
from .profiling.profiler import ExecutionProfile
from .sim.stats import SimStats
from .workloads.synthesis import AppSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .baselines.protocol import Footprint

FORMAT_VERSION = 1

#: Version of the *artifact-store* layout and key schema.  Bump this
#: whenever any serialized artifact's meaning changes (new simulator
#: behaviour, changed profile contents, …): old entries become
#: unreachable rather than silently wrong.
CACHE_SCHEMA_VERSION = 1

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Raised when a file does not carry the expected format/version."""


def _check(payload: dict, kind: str) -> None:
    if not isinstance(payload, dict) or payload.get("format") != kind:
        found = payload.get("format") if isinstance(payload, dict) else payload
        raise FormatError(f"expected a {kind!r} file, found {found!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported {kind} version {payload.get('version')!r}"
        )


# -- prefetch plans ----------------------------------------------------------


def plan_to_dict(plan: PrefetchPlan) -> dict:
    return {
        "format": "prefetch-plan",
        "version": FORMAT_VERSION,
        "name": plan.name,
        "instructions": [
            {
                "site_block": instr.site_block,
                "base_line": instr.base_line,
                "bit_vector": instr.bit_vector,
                "context_mask": instr.context_mask,
                "context_blocks": list(instr.context_blocks),
                "context_hash_bits": instr.context_hash_bits,
                "vector_bits": instr.vector_bits,
                "covers": list(instr.covers),
            }
            for instr in plan
        ],
    }


def plan_from_dict(payload: dict) -> PrefetchPlan:
    _check(payload, "prefetch-plan")
    plan = PrefetchPlan(name=payload.get("name", "plan"))
    for record in payload["instructions"]:
        plan.add(
            PrefetchInstr(
                site_block=record["site_block"],
                base_line=record["base_line"],
                bit_vector=record["bit_vector"],
                context_mask=record["context_mask"],
                context_blocks=tuple(record["context_blocks"]),
                context_hash_bits=record["context_hash_bits"],
                vector_bits=record["vector_bits"],
                covers=tuple(record["covers"]),
            )
        )
    return plan


def save_plan(plan: PrefetchPlan, path: PathLike) -> None:
    Path(path).write_text(json.dumps(plan_to_dict(plan)))


def load_plan(path: PathLike) -> PrefetchPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))


# -- execution profiles -------------------------------------------------------


def profile_to_dict(profile: ExecutionProfile) -> dict:
    payload = {
        "format": "execution-profile",
        "version": FORMAT_VERSION,
        "program_name": profile.program_name,
        "lbr_depth": profile.lbr_depth,
        "block_ids": profile.block_ids,
        "block_cycles": profile.block_cycles,
        "cumulative_instructions": profile.cumulative_instructions,
        "miss_samples": [
            [s.trace_index, s.block_id, s.line, s.cycle]
            for s in profile.miss_samples
        ],
        # edge counts as parallel arrays (JSON keys must be strings)
        "edges": [
            [src, dst, count]
            for (src, dst), count in profile.edge_counts.items()
        ],
        "block_counts": [
            [block, count] for block, count in profile.block_counts.items()
        ],
    }
    # The profiling run's own statistics ride along (AsmDB's average-CPI
    # distance estimator reads them), so a reloaded profile yields the
    # same plans as a freshly collected one.
    if profile.baseline_stats is not None:
        payload["baseline_stats"] = stats_to_record(profile.baseline_stats)
    return payload


def profile_from_dict(payload: dict) -> ExecutionProfile:
    _check(payload, "execution-profile")
    baseline = payload.get("baseline_stats")
    return ExecutionProfile(
        program_name=payload["program_name"],
        block_ids=list(payload["block_ids"]),
        block_cycles=list(payload["block_cycles"]),
        miss_samples=[
            MissSample(index, block, line, cycle)
            for index, block, line, cycle in payload["miss_samples"]
        ],
        edge_counts=Counter(
            {(src, dst): count for src, dst, count in payload["edges"]}
        ),
        block_counts=Counter(
            {block: count for block, count in payload["block_counts"]}
        ),
        cumulative_instructions=list(payload["cumulative_instructions"]),
        lbr_depth=payload["lbr_depth"],
        baseline_stats=(
            stats_from_record(baseline) if baseline is not None else None
        ),
    )


def save_profile(profile: ExecutionProfile, path: PathLike) -> None:
    """Write a gzipped-JSON profile (they carry whole traces)."""
    data = json.dumps(profile_to_dict(profile)).encode()
    with gzip.open(Path(path), "wb") as handle:
        handle.write(data)


def load_profile(path: PathLike) -> ExecutionProfile:
    with gzip.open(Path(path), "rb") as handle:
        return profile_from_dict(json.loads(handle.read().decode()))


# -- workload specs ------------------------------------------------------------


def spec_to_dict(spec: AppSpec) -> dict:
    from dataclasses import asdict

    payload = asdict(spec)
    payload["format"] = "app-spec"
    payload["version"] = FORMAT_VERSION
    return payload


def spec_from_dict(payload: dict) -> AppSpec:
    _check(payload, "app-spec")
    fields = dict(payload)
    fields.pop("format")
    fields.pop("version")
    for key in (
        "request_mix",
        "functions_per_layer",
        "stages_range",
        "block_bytes_range",
        "callees_range",
        "typed_arm_blocks",
    ):
        fields[key] = tuple(fields[key])
    return AppSpec(**fields)


def save_spec(spec: AppSpec, path: PathLike) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2))


def load_spec(path: PathLike) -> AppSpec:
    return spec_from_dict(json.loads(Path(path).read_text()))


# -- results ---------------------------------------------------------------------


def stats_to_dict(stats: SimStats) -> dict:
    """A flat, JSON-ready record of one simulation's results."""
    record = stats.as_dict()
    record["format"] = "sim-stats"
    record["version"] = FORMAT_VERSION
    record["program_instructions"] = stats.program_instructions
    record["late_prefetch_hits"] = stats.late_prefetch_hits
    record["miss_level_counts"] = dict(stats.miss_level_counts)
    return record


def stats_to_record(stats: SimStats) -> dict:
    """A *lossless* counter-level record of one simulation.

    Unlike :func:`stats_to_dict` (a flat summary of derived metrics),
    this captures every raw counter so :func:`stats_from_record`
    rebuilds an object indistinguishable from the original — the
    requirement for the artifact store to substitute cached results
    for live simulations.  JSON round-trips Python floats exactly
    (repr-based), so derived metrics match bit for bit.
    """
    record: Dict[str, Any] = {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
    }
    record["miss_level_counts"] = dict(stats.miss_level_counts)
    record["format"] = "sim-stats-full"
    record["version"] = FORMAT_VERSION
    # run_plan attaches the Fig. 21 false-positive rate out-of-band
    extra = getattr(stats, "false_positive_rate", None)
    if extra is not None:
        record["false_positive_rate"] = extra
    return record


def stats_from_record(payload: dict) -> SimStats:
    _check(payload, "sim-stats-full")
    fields = {
        field.name: payload[field.name]
        for field in dataclasses.fields(SimStats)
    }
    stats = SimStats(**fields)
    if "false_positive_rate" in payload:
        stats.false_positive_rate = payload[  # type: ignore[attr-defined]
            "false_positive_rate"
        ]
    return stats


def save_stats(stats: SimStats, path: PathLike) -> None:
    Path(path).write_text(json.dumps(stats_to_record(stats)))


def load_stats(path: PathLike) -> SimStats:
    return stats_from_record(json.loads(Path(path).read_text()))


# -- summaries -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainSummary:
    """What the figures read from a planner's training report.

    A whole report is hundreds of KB of JSON (every site selection and
    context), while the figures read only these counts: Fig. 3 the
    coverage, Fig. 20 the coalescing histograms.  So the artifact store
    keeps this summary next to the plan instead of the report.
    ``contexts`` and ``coalesce_stats`` are I-SPY's; AsmDB has neither.
    """

    considered_lines: int
    uncovered_lines: int
    contexts: Optional[int] = None
    coalesce_stats: Optional[CoalesceStats] = None

    @classmethod
    def of(cls, result: object) -> Optional["TrainSummary"]:
        """The summary of a training result that carries a ``report``
        (I-SPY's and AsmDB's); None for any other result."""
        report = getattr(result, "report", None)
        if report is None:
            return None
        contexts = getattr(report, "contexts", None)
        return cls(
            considered_lines=report.considered_lines,
            uncovered_lines=len(report.uncovered_lines),
            contexts=None if contexts is None else len(contexts),
            coalesce_stats=getattr(report, "coalesce_stats", None),
        )

    @property
    def coverage(self) -> float:
        """Fraction of considered miss lines that got a prefetch, as
        the reports' ``coverage`` computes it."""
        if not self.considered_lines:
            return 0.0
        return 1.0 - self.uncovered_lines / self.considered_lines


@dataclass(frozen=True)
class AppSummary:
    """What the figures read from a synthesized app: the size of its
    text segment, the denominator of every static-footprint figure."""

    text_bytes: int


def train_summary_to_record(summary: TrainSummary) -> dict:
    stats = summary.coalesce_stats
    return {
        "format": "train-summary",
        "version": FORMAT_VERSION,
        "considered_lines": summary.considered_lines,
        "uncovered_lines": summary.uncovered_lines,
        "contexts": summary.contexts,
        # histogram keys become strings in JSON; loading restores ints
        "coalesce_stats": None if stats is None else {
            "distance_histogram": dict(stats.distance_histogram),
            "lines_per_instruction": dict(stats.lines_per_instruction),
            "merged_prefetches": stats.merged_prefetches,
            "emitted_instructions": stats.emitted_instructions,
        },
    }


def _int_counter(histogram: dict) -> Counter:
    return Counter({int(key): count for key, count in histogram.items()})


def train_summary_from_record(payload: dict) -> TrainSummary:
    _check(payload, "train-summary")
    stats = payload["coalesce_stats"]
    if stats is not None:
        stats = CoalesceStats(
            distance_histogram=_int_counter(stats["distance_histogram"]),
            lines_per_instruction=_int_counter(stats["lines_per_instruction"]),
            merged_prefetches=stats["merged_prefetches"],
            emitted_instructions=stats["emitted_instructions"],
        )
    return TrainSummary(
        considered_lines=payload["considered_lines"],
        uncovered_lines=payload["uncovered_lines"],
        contexts=payload["contexts"],
        coalesce_stats=stats,
    )


def app_summary_to_record(summary: AppSummary) -> dict:
    return {
        "format": "app-summary",
        "version": FORMAT_VERSION,
        "text_bytes": summary.text_bytes,
    }


def app_summary_from_record(payload: dict) -> AppSummary:
    _check(payload, "app-summary")
    return AppSummary(text_bytes=payload["text_bytes"])


def footprint_from_record(payload: dict) -> "Footprint":
    from .baselines.protocol import Footprint

    _check(payload, "footprint")
    return Footprint(payload["injected_bytes"], payload["metadata_bytes"])


# -- the persistent artifact store -------------------------------------------


def artifact_key(kind: str, parts: Dict[str, Any]) -> str:
    """A stable content hash identifying one artifact.

    *parts* must be a JSON-serializable description of **everything**
    the artifact depends on — the :class:`AppSpec`, the experiment
    settings, the prefetcher configuration / plan contents and any
    run parameters — so distinct parameter points can never alias
    (sweep figures 17–19 and 21 rely on this).  The cache schema
    version is folded in, so bumping :data:`CACHE_SCHEMA_VERSION`
    invalidates every previously stored artifact.
    """
    canonical = json.dumps(
        {"kind": kind, "schema": CACHE_SCHEMA_VERSION, "parts": parts},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def plan_fingerprint(plan: Optional[PrefetchPlan]) -> str:
    """A content hash of a plan's exact instruction stream.

    Two plans built from different configurations hash differently
    even when their provenance metadata looks alike, which is what
    keys simulation results by *what actually ran*.  The hash is cached
    on the plan (``plan.fingerprint``) until its next ``add``.
    """
    if plan is None:
        return "no-plan"
    if plan.fingerprint is None:
        payload = plan_to_dict(plan)
        # the display name doesn't change what the simulator executes
        payload.pop("name", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        plan.fingerprint = hashlib.sha256(canonical.encode()).hexdigest()[:32]
    return plan.fingerprint


class ArtifactStore:
    """Versioned on-disk cache of profiles, plans and sim results.

    Layout::

        <root>/v<CACHE_SCHEMA_VERSION>/
            profiles/<key>.json.gz
            plans/<key>.json
            trains/<key>.json      train summary, under its plan's key
            apps/<key>.json        app summary
            footprints/<key>.json  a trained member's deployment footprint
            stats/<key>.json

    Keys come from :func:`artifact_key`; the schema version appears in
    both the directory name and the key material, so a version bump
    cleanly orphans stale artifacts.  Reads treat any malformed or
    wrong-version payload as a miss (the artifact is recomputed and
    rewritten), and writes go through a temp file + ``os.replace`` so
    concurrent workers never observe half-written entries.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.base = self.root / f"v{CACHE_SCHEMA_VERSION}"
        for sub in ("profiles", "plans", "trains", "apps", "footprints",
                    "stats", "shards"):
            (self.base / sub).mkdir(parents=True, exist_ok=True)
        # per-kind lookup accounting; the run manifest reports these as
        # the store's hit rate (a worker process counts its own store
        # object — rates are per process, like everything else shipped
        # back with job results)
        self._hits: Counter = Counter()
        self._misses: Counter = Counter()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    # -- internals ----------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        suffix = ".json.gz" if kind in ("profiles", "shards") else ".json"
        return self.base / kind / f"{key}{suffix}"

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=path.name, suffix=".tmp", delete=False
        )
        try:
            handle.write(data)
            handle.close()
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _read_json(self, path: Path, compressed: bool) -> Optional[dict]:
        try:
            raw = path.read_bytes()
            if compressed:
                raw = gzip.decompress(raw)
            return json.loads(raw.decode())
        except (OSError, ValueError, EOFError):
            return None

    # -- queries ------------------------------------------------------

    def has(self, kind: str, key: str) -> bool:
        return self._path(kind, key).exists()

    def _record(self, kind: str, hit: bool) -> None:
        (self._hits if hit else self._misses)[kind] += 1

    def counters(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(hits, misses)`` per artifact kind, since construction."""
        return dict(self._hits), dict(self._misses)

    def hit_rate(self) -> Optional[float]:
        """Fraction of lookups served from disk; None before any."""
        hits = sum(self._hits.values())
        lookups = hits + sum(self._misses.values())
        return hits / lookups if lookups else None

    def _save(self, sub: str, key: str, payload: dict) -> None:
        data = json.dumps(payload).encode()
        if sub == "profiles":
            # level 1 compresses ~20x faster than the default 9, for a
            # file ~15% larger; reading does not depend on the level
            data = gzip.compress(data, compresslevel=1)
        self._write_atomic(self._path(sub, key), data)

    def _load(self, sub: str, key: str, decode, kind: str):
        """Decode one stored artifact; a missing, malformed or
        wrong-version file is a miss (None)."""
        payload = self._read_json(
            self._path(sub, key), compressed=sub == "profiles"
        )
        value = None
        if payload is not None:
            try:
                value = decode(payload)
            except (KeyError, TypeError, ValueError):  # FormatError too
                value = None
        self._record(kind, value is not None)
        return value

    # -- profiles ------------------------------------------------------

    def save_profile(self, key: str, profile: ExecutionProfile) -> None:
        self._save("profiles", key, profile_to_dict(profile))

    def load_profile(self, key: str) -> Optional[ExecutionProfile]:
        return self._load("profiles", key, profile_from_dict, "profile")

    # -- plans and their train summaries -------------------------------

    def save_plan(self, key: str, plan: PrefetchPlan) -> None:
        self._save("plans", key, plan_to_dict(plan))

    def load_plan(self, key: str) -> Optional[PrefetchPlan]:
        return self._load("plans", key, plan_from_dict, "plan")

    def save_train_summary(self, key: str, summary: TrainSummary) -> None:
        self._save("trains", key, train_summary_to_record(summary))

    def load_train_summary(self, key: str) -> Optional[TrainSummary]:
        return self._load("trains", key, train_summary_from_record, "train")

    # -- app summaries -------------------------------------------------

    def save_app_summary(self, key: str, summary: AppSummary) -> None:
        self._save("apps", key, app_summary_to_record(summary))

    def load_app_summary(self, key: str) -> Optional[AppSummary]:
        return self._load("apps", key, app_summary_from_record, "app")

    # -- deployment footprints -----------------------------------------

    def save_footprint(self, key: str, footprint: "Footprint") -> None:
        self._save("footprints", key, {
            "format": "footprint",
            "version": FORMAT_VERSION,
            **dataclasses.asdict(footprint),
        })

    def load_footprint(self, key: str) -> Optional["Footprint"]:
        return self._load("footprints", key, footprint_from_record, "footprint")

    # -- simulation results --------------------------------------------

    def save_stats(self, key: str, stats: SimStats) -> None:
        self._save("stats", key, stats_to_record(stats))

    def load_stats(self, key: str) -> Optional[SimStats]:
        return self._load("stats", key, stats_from_record, "stats")

    # -- per-shard replay checkpoints ----------------------------------

    def save_shard_state(self, key: str, payload: dict) -> None:
        """Persist one replay checkpoint (see repro.sim.streaming).

        Checkpoints are opaque gzipped JSON to the store; validation
        of their format/version happens at the replay layer.
        """
        data = gzip.compress(json.dumps(payload).encode())
        self._write_atomic(self._path("shards", key), data)

    def load_shard_state(self, key: str) -> Optional[dict]:
        payload = self._read_json(self._path("shards", key), compressed=True)
        self._record("shards", payload is not None)
        return payload

    def delete_shard_state(self, key: str) -> None:
        """Drop a checkpoint (resume pruning after a completed run)."""
        try:
            os.unlink(self._path("shards", key))
        except OSError:
            pass

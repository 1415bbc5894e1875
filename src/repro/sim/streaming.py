"""The replay driver: backend selection, the shard loop, resume.

Every replay of a :class:`~repro.sim.cpu.CoreSimulator` runs through
:func:`run_plan_batch` — one or many simulators in one pass of the
columnar kernel of :mod:`repro.sim.array_replay` (a
:class:`~repro.sim.array_replay.PlanBatch` slot each, engine-less when
the simulator has no prefetch engine).  A simulator the kernel cannot
take, an observed one among them, runs the per-event reference loop.
Each backend streams the trace shard by shard:
an in-memory :class:`BlockTrace` cut on the fly, or an on-disk
:class:`ShardedTrace` materialized one chunk at a time.  A whole-trace
replay is literally the one-shard case ``[(0, len)]``.
The backend's carry holds the run's counters, and its ``finish``
writes them into the reported :class:`SimStats`, which is therefore
**bit-identical** however the trace is cut:

* the columnar backends are carry-threaded shard kernels;
* the reference loop streams through
  :meth:`CoreSimulator._reference_stream`, whose per-block state lives
  in the real simulator objects — a shard boundary is just a loop
  break.

Carry-over state at a shard boundary is the LRU residency of every
level, the in-flight prefetch arrival map, the Bloom runtime-hash
window (as the hashed-id tail that regenerates it), the exact-context
LBR window tail, the float time/stall accumulators and the
since-last-reset counters.

With a *checkpointer* the columnar backends persist that carry after
every shard (JSON round-trips Python floats exactly, so a resumed run
continues from bit-identical state); a killed run re-invoked with the
same checkpointer skips the completed shards and produces the same
final statistics as an uninterrupted run.  The reference loop streams
but does not checkpoint — its state lives across many rich objects
(caches, Bloom counters, engine FIFOs) that have no serialized form.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from .. import kernel
from ..obs.trace import get_tracer
from .stats import SimStats
from .trace import BlockTrace, ShardedTrace, trace_shard_bounds

CHECKPOINT_FORMAT = "replay-checkpoint"
#: Raised whenever the payload layout changes: a file of another version
#: fails the header check, and the run replays from shard 0.
CHECKPOINT_VERSION = 3


# -- carry (de)serialization helpers -----------------------------------------


def _dense_sets_payload(sets: list) -> list:
    """Dense ``[recency-list-or-None] * num_sets`` -> sparse pairs.

    Empty lists are kept: a probed-but-empty set exists in the
    reference cache dict, and final-state equality includes that.
    """
    return [
        [index, [int(line) for line in recency]]
        for index, recency in enumerate(sets)
        if recency is not None
    ]


def _data_model_payload(model) -> Optional[dict]:
    if model is None:
        return None
    version, internal, gauss = model._rng.getstate()
    return {
        "rng": [version, list(internal), gauss],
        "accumulator": model._accumulator,
        "accesses": model.accesses,
    }


def _data_model_restore(model, payload: dict) -> None:
    version, internal, gauss = payload["rng"]
    model._rng.setstate((version, tuple(int(w) for w in internal), gauss))
    model._accumulator = float(payload["accumulator"])
    model.accesses = int(payload["accesses"])


# -- checkpoint persistence --------------------------------------------------


class StoreCheckpointer:
    """Per-shard replay checkpoints in an :class:`~repro.io.
    ArtifactStore` (the ``shards`` kind).

    Keys combine *base_parts* — which must identify the exact run
    (result key, shard budget) — with the shard index.  After each
    save the previous shard's checkpoint is dropped, so at most two
    exist at any instant (crash-safe: a kill between save and delete
    leaves both, and ``load_latest`` picks the newer).  A newest
    checkpoint that cannot be read back (truncated, not gzip, not
    JSON) is reported as ``sim:resume-invalid`` and the run replays
    from the start.  ``finalize`` prunes every checkpoint once a run
    completes.
    """

    def __init__(self, store, base_parts: Dict[str, object]):
        self.store = store
        self.base_parts = dict(base_parts)
        self._last_saved: Optional[int] = None

    def _key(self, index: int) -> str:
        from ..io import artifact_key

        return artifact_key(
            "shard-ckpt", {**self.base_parts, "shard": index}
        )

    def save(self, index: int, payload: dict) -> None:
        self.store.save_shard_state(self._key(index), payload)
        if self._last_saved is not None and self._last_saved != index:
            self.store.delete_shard_state(self._key(self._last_saved))
        self._last_saved = index

    def load_latest(self, num_shards: int) -> Optional[Tuple[int, dict]]:
        for index in range(num_shards - 1, -1, -1):
            key = self._key(index)
            if self.store.has("shards", key):
                payload = self.store.load_shard_state(key)
                if payload is None:
                    get_tracer().instant(
                        "sim:resume-invalid", shard=index, reason="unreadable"
                    )
                    return None
                return index, payload
        return None

    def finalize(self, num_shards: int) -> None:
        for index in range(num_shards):
            self.store.delete_shard_state(self._key(index))
        self._last_saved = None


def _checkpoint(
    backend: str,
    index: int,
    num_shards: int,
    shard_insns: Optional[int],
    carry_payload: dict,
    data_model,
) -> dict:
    """One shard's resume payload."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "backend": backend,
        "shard_index": index,
        "num_shards": num_shards,
        "shard_insns": shard_insns,
        "carry": carry_payload,
        "data_model": _data_model_payload(data_model),
    }


def _load_checkpoint(
    checkpointer,
    backend: str,
    num_shards: int,
    shard_insns: Optional[int],
    data_model,
    restore_carry: Callable[[dict], object],
) -> Optional[Tuple[int, object]]:
    """Validate and decode the latest checkpoint, or None to start
    fresh.

    *restore_carry* decodes the backend's carry payload.  Any header
    mismatch (format, version, backend, shard geometry, data-model
    presence) or a body that does not decode (missing keys, wrong
    types) discards the checkpoint with a ``sim:resume-invalid``
    instant naming the reason, rather than failing the run;
    *data_model* is left untouched in that case.
    """
    loaded = checkpointer.load_latest(num_shards)
    if loaded is None:
        return None
    index, payload = loaded
    tracer = get_tracer()
    valid = (
        isinstance(payload, dict)
        and payload.get("format") == CHECKPOINT_FORMAT
        and payload.get("version") == CHECKPOINT_VERSION
        and payload.get("backend") == backend
        and payload.get("num_shards") == num_shards
        and payload.get("shard_insns") == shard_insns
        and payload.get("shard_index") == index
        and (payload.get("data_model") is None) == (data_model is None)
    )
    if not valid:
        tracer.instant("sim:resume-invalid", shard=index, reason="header")
        return None
    saved_model = _data_model_payload(data_model)
    try:
        carry = restore_carry(payload["carry"])
        if data_model is not None:
            _data_model_restore(data_model, payload["data_model"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        if data_model is not None:
            _data_model_restore(data_model, saved_model)
        tracer.instant("sim:resume-invalid", shard=index, reason="body")
        return None
    tracer.instant("sim:resume", shard=index)
    return index, carry


# -- backends ----------------------------------------------------------------
#
# A backend supplies the steps of the shared shard loop (:func:`_stream`):
# ``step`` replays one shard into the carry, ``finish`` writes the
# carry's counters (since-last-reset ints, cumulative float
# accumulators) and state into the simulators, and ``payload``/``restore``
# are the carry codec.  The carry is the only copy of a run's counters.
# ``name`` is the backend a checkpoint records; the reference loop has
# none and is never checkpointed.


class _ReferenceBackend:
    """The per-event reference loop over the simulator's own objects."""

    name = None

    def __init__(self, core, observer, warmup: int):
        self.core = core
        self.observer = observer
        self.fetch = core._make_fetch(observer)
        self.warmup_boundary = warmup if warmup > 0 else -1
        self.now = 0.0
        self.program_instructions = 0

    def step(self, block_ids, start: int) -> None:
        self.now, self.program_instructions = self.core._reference_stream(
            self.fetch,
            self.observer,
            block_ids,
            start,
            self.warmup_boundary,
            self.now,
            self.program_instructions,
        )

    def finish(self) -> None:
        self.core._reference_finish(self.program_instructions)


_PLAN_CARRY_INTS = (
    "late_hits", "sim_misses", "issued", "resident",
    "c2", "c3", "cm",
    "l1_dh", "l1_dm", "l1_ph", "l1_pf", "l1_pu", "l1_ev",
    "l2_dh", "l2_dm", "l2_ph", "l2_pf", "l2_pu", "l2_ev",
    "l3_dh", "l3_dm", "l3_ph", "l3_pf", "l3_pu", "l3_ev",
    "l1i_accesses", "program_instructions",
    "suppressed", "executed", "tp", "fp",
)


def _lane_sets_restore(entries: list, geometry) -> list:
    """Decoded ``[[set, [lines...]], ...]`` for a lane cache, rejecting
    sets the geometry cannot hold."""
    sets = []
    for index, lines in entries:
        index = int(index)
        recency = [int(line) for line in lines]
        if not 0 <= index < geometry.num_sets or len(recency) > geometry.ways:
            raise ValueError(f"set {index} does not fit {geometry.name}")
        sets.append((index, recency))
    return sets


def _kernel_backend(core) -> str:
    """The backend name of *core*'s slot in the columnar kernel."""
    return "columnar-plan" if core.engine is not None else "columnar"


class _PlanBatchBackend:
    """The columnar kernel (:class:`~repro.sim.array_replay.PlanBatch`).

    A single simulation is the one-slot batch — backend
    ``columnar-plan`` with a prefetch engine, ``columnar`` for an
    engine-less slot; sweeps run V plan slots.  Checkpoints cover the
    one-slot batch only — the carry is the slot's
    :class:`~repro.sim.array_replay.PlanCarry` plus its L2/L3 lane
    contents — and wider batches run without a checkpointer."""

    def __init__(self, batch, eff: int):
        self.batch = batch
        self.eff = eff
        core = batch.slots[0].core
        self.name = _kernel_backend(core)
        self.data_model = core.data_traffic

    def step(self, rows, start: int) -> None:
        self.batch.run_shard(rows, start, self.eff)

    def finish(self) -> None:
        self.batch.finish()

    def payload(self) -> dict:
        from .array_replay import _inflight_arrivals

        (slot,) = self.batch.slots
        carry = slot.carry
        payload = {
            "l1_sets": _dense_sets_payload(carry.l1_sets),
            "l1_pend": sorted(int(line) for line in carry.l1_pend),
            "inflight": [
                [int(line), arrival]
                for line, arrival in _inflight_arrivals(carry).items()
            ],
            "now": carry.now,
            "busy": carry.busy,
            "frontend_stalls": carry.frontend_stalls,
            "late_stall": carry.late_stall,
            "ints": {name: getattr(carry, name) for name in _PLAN_CARRY_INTS},
            "tracker_tail": [int(b) for b in carry.tracker_tail],
            "exact_tail": [int(b) for b in carry.exact_tail],
        }
        for level in ("l2", "l3"):
            sets, stacks, pending = getattr(self.batch, level).export(0)
            payload[f"{level}_sets"] = [list(e) for e in zip(sets, stacks)]
            payload[f"{level}_pend"] = sorted(pending)
        return payload

    def restore(self, payload: dict):
        """Decode a checkpoint carry; :attr:`carry` installs it."""
        from .array_replay import PlanCarry

        (slot,) = self.batch.slots
        carry = PlanCarry(slot.ctx)
        for index, lines in payload["l1_sets"]:
            recency = [int(line) for line in lines]
            carry.l1_sets[int(index)] = recency
            carry.l1_res.update(recency)
        carry.l1_pend = {int(line) for line in payload["l1_pend"]}
        for line, arrival in payload["inflight"]:
            carry.inflight[int(line)] = len(carry.arrivals)
            carry.arrivals.append(float(arrival))
        carry.now = float(payload["now"])
        carry.busy = float(payload["busy"])
        carry.frontend_stalls = float(payload["frontend_stalls"])
        carry.late_stall = float(payload["late_stall"])
        for name in _PLAN_CARRY_INTS:
            setattr(carry, name, int(payload["ints"][name]))
        carry.tracker_tail = [int(b) for b in payload["tracker_tail"]]
        carry.exact_tail = [int(b) for b in payload["exact_tail"]]
        machine = self.batch.machine
        lanes = tuple(
            (
                _lane_sets_restore(payload[f"{level}_sets"], geometry),
                {int(line) for line in payload[f"{level}_pend"]},
            )
            for level, geometry in (("l2", machine.l2), ("l3", machine.l3))
        )
        return carry, lanes

    @property
    def carry(self):
        return self.batch.slots[0].carry

    @carry.setter
    def carry(self, decoded) -> None:
        carry, ((l2_sets, l2_pend), (l3_sets, l3_pend)) = decoded
        self.batch.slots[0].carry = carry
        self.batch.l2.load(0, l2_sets, l2_pend)
        self.batch.l3.load(0, l3_sets, l3_pend)


# -- the driver --------------------------------------------------------------


def _fallback_reason(core, observer) -> Optional[str]:
    """Why *core* must take the reference loop, or None.

    With no observer there are no per-event hooks to honour, so a
    columnar kernel serves the run — bit-identical by construction and
    differentially tested.  State a kernel cannot reconstruct from
    scratch (a re-used simulator, a pre-seeded engine) takes the
    reference loop, which composes with it.  The first failing check is
    the reason.
    """
    if observer is not None:
        return "observer"
    if not kernel.numpy_enabled():
        return "kernel-disabled"
    if not core._hierarchy_pristine():
        return "state-not-pristine"
    if core.engine is not None and not core.engine.is_pristine():
        return "engine-state"
    return None


def _reference_shards(program, trace, shard_insns: Optional[int]):
    """``(bounds, shard)`` of block ids for the reference loop, cut as
    :func:`_columnar_shards` cuts program rows."""
    if isinstance(trace, ShardedTrace):
        return list(trace.bounds), lambda i: trace.shard(i).block_ids
    if shard_insns is None:
        bounds = [(0, len(trace))]
    else:
        bounds = trace_shard_bounds(trace, program, shard_insns)
    return bounds, lambda i: trace.block_ids[bounds[i][0]:bounds[i][1]]


def _columnar_shards(view, trace, shard_insns: Optional[int]):
    """``(bounds, shard)`` of program rows for a columnar backend: an
    on-disk trace's own chunks, else *trace* cut greedily on
    ``shard_insns`` (one shard without it)."""
    if isinstance(trace, ShardedTrace):
        return list(trace.bounds), lambda i: view.trace_rows(trace.shard(i))
    rows = view.trace_rows(trace)
    if shard_insns is None:
        bounds = [(0, len(rows))]
    else:
        bounds = view.shard_bounds(rows, shard_insns)
    return bounds, lambda i: rows[bounds[i][0]:bounds[i][1]]


def run_sharded(
    core,
    trace,
    observer=None,
    warmup: int = 0,
    shard_insns: Optional[int] = None,
    checkpointer: Optional[StoreCheckpointer] = None,
) -> SimStats:
    """Replay *trace* shard by shard on *core* (a
    :class:`~repro.sim.cpu.CoreSimulator`): the one-core call of
    :func:`run_plan_batch`, for a trace that is cut.

    Accepts an in-memory :class:`BlockTrace` (cut greedily on
    ``shard_insns`` retired instructions) or an on-disk
    :class:`ShardedTrace` (one chunk materialized at a time).
    """
    if shard_insns is None and not isinstance(trace, ShardedTrace):
        raise ValueError("shard_insns is required to shard an in-memory trace")
    run_plan_batch([core], trace, warmup, shard_insns, checkpointer, observer)
    return core.stats


def _stream(backend, shard, bounds, shard_insns, checkpointer) -> None:
    """The shard loop every backend runs: resume from the latest valid
    checkpoint by installing its carry, step each remaining shard and
    save its checkpoint, then finish the backend.  Only one-slot runs
    checkpoint."""
    tracer = get_tracer()
    num_shards = len(bounds)
    if backend.name is None:
        checkpointer = None
    first = 0
    if checkpointer is not None:
        resumed = _load_checkpoint(
            checkpointer, backend.name, num_shards, shard_insns,
            backend.data_model, backend.restore,
        )
        if resumed is not None:
            index, backend.carry = resumed
            first = index + 1
    for index in range(first, num_shards):
        start = bounds[index][0]
        with tracer.span("sim:shard", index=index, offset=start):
            backend.step(shard(index), start)
        if checkpointer is not None:
            checkpointer.save(
                index,
                _checkpoint(
                    backend.name, index, num_shards, shard_insns,
                    backend.payload(), backend.data_model,
                ),
            )
    backend.finish()
    if checkpointer is not None:
        checkpointer.finalize(num_shards)


def run_plan_batch(
    cores,
    trace,
    warmup: int = 0,
    shard_insns: Optional[int] = None,
    checkpointer: Optional[StoreCheckpointer] = None,
    observer=None,
) -> List[Optional[str]]:
    """Replay every core over *trace*, optionally shard-streamed: the
    one driver of every :class:`~repro.sim.cpu.CoreSimulator` replay.

    *cores* are simulators over one program, one per variant, run in
    one pass of the columnar kernel: a core with a prefetch engine is a
    ``columnar-plan`` slot, an engine-less one (no plan, or an empty
    plan) a ``columnar`` slot.  A core the kernel cannot take — for a
    :func:`_fallback_reason`, decided before any state changes —
    replays on its own on the reference loop.  Returns the per-core
    reasons, ``None`` for a batched core; either way every core's
    stats, hierarchy and engine end ``==`` its own ``core.run`` with
    the same arguments.  A *checkpointer* (which resumes the kernel's
    carry) and an *observer* (which always takes the reference loop,
    reason ``observer``) apply to a one-core call only.

    An in-memory trace with no ``shard_insns`` is the single shard
    ``[(0, len(trace))]``; otherwise it is cut on greedy instruction
    bounds.  Each slot's carry holds its counters until the batch's
    ``finish`` writes them into the slot's ``core.stats``, so the
    reported :class:`SimStats` and the final simulator state are
    independent of the cut.
    """
    if (checkpointer is not None or observer is not None) and len(cores) != 1:
        raise ValueError("a checkpointer or observer takes a one-core replay only")
    program = cores[0].program
    tracer = get_tracer()
    if isinstance(trace, ShardedTrace):
        shard_insns = trace.shard_insns
    reasons = [_fallback_reason(core, observer) for core in cores]
    live = [core for core, reason in zip(cores, reasons) if reason is None]
    with tracer.span(
        "sim:run",
        program=program.name,
        blocks=len(trace),
        variants=len(cores),
        shard_insns=shard_insns,
    ) as span:
        if live:
            from .array_replay import PlanBatch
            from .columnar import columnar_view

            view = columnar_view(program)
            bounds, shard = _columnar_shards(view, trace, shard_insns)
            eff = warmup if 0 < warmup < len(trace) else 0
            backend = _PlanBatchBackend(PlanBatch(live), eff)
            _stream(backend, shard, bounds, shard_insns, checkpointer)
        if len(live) < len(cores):
            bounds, shard = _reference_shards(program, trace, shard_insns)
        for index, (core, reason) in enumerate(zip(cores, reasons)):
            if reason is None:
                core.last_replay_backend = _kernel_backend(core)
            else:
                tracer.instant("sim:batch-fallback", slot=index, reason=reason)
                backend = _ReferenceBackend(core, observer, warmup)
                _stream(backend, shard, bounds, shard_insns, None)
                core.last_replay_backend = "reference"
            core.last_fallback_reason = reason
        span.set(
            shards=len(bounds),
            backends=dict(Counter(core.last_replay_backend for core in cores)),
            fallbacks=len(cores) - len(live),
        )
    return reasons


# -- profiler streaming ------------------------------------------------------


def stream_replay_events(
    program,
    trace: BlockTrace,
    machine=None,
    data_traffic=None,
    shard_insns: Optional[int] = None,
):
    """The profiler's recorded no-prefetch replay: the per-block cycles
    and per-miss events (the observer view) as one whole-trace
    :class:`~repro.sim.array_replay.ReplayEvents`, and the replay's
    :class:`SimStats` (no warmup: the profiler's configuration).

    A private simulator runs as the engine-less one-slot batch, shard by
    shard through the shared shard loop (bounded replay working set;
    one shard without ``shard_insns``), and the slot's per-shard views
    are concatenated, with global trace indices.
    """
    import numpy as np

    from .array_replay import PlanBatch, ReplayEvents
    from .columnar import columnar_view
    from .cpu import CoreSimulator

    core = CoreSimulator(program, machine=machine, data_traffic=data_traffic)
    view = columnar_view(program)
    bounds, shard = _columnar_shards(view, trace, shard_insns)
    batch = PlanBatch([core], record_events=True)
    _stream(_PlanBatchBackend(batch, 0), shard, bounds, shard_insns, None)
    chunks = batch.slots[0].events
    events = ReplayEvents(
        block_cycles=np.concatenate([c.block_cycles for c in chunks]),
        miss_trace_index=np.concatenate([c.miss_trace_index for c in chunks]),
        miss_block_ids=np.concatenate([c.miss_block_ids for c in chunks]),
        miss_lines=np.concatenate([c.miss_lines for c in chunks]),
        miss_cycles=np.concatenate([c.miss_cycles for c in chunks]),
    )
    return events, core.stats

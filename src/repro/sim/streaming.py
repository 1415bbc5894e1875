"""The replay driver: backend selection, the shard loop, resume.

Every sequential replay of a :class:`~repro.sim.cpu.CoreSimulator`
runs through :func:`replay`.  It picks the backend — the per-event
reference loop, or one of the columnar kernels of
:mod:`repro.sim.array_replay` — and streams the trace through it shard
by shard: an in-memory :class:`BlockTrace` cut on the fly, or an
on-disk :class:`ShardedTrace` materialized one chunk at a time.  A
whole-trace replay is literally the one-shard case ``[(0, len)]``.
The per-shard partial statistics (:class:`~repro.sim.stats.ShardStats`)
merge into the reported :class:`SimStats`, which is therefore
**bit-identical** however the trace is cut:

* the columnar kernels are carry-threaded shard kernels;
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

from typing import Callable, Dict, List, Optional, Tuple

from .. import kernel
from ..obs.trace import get_tracer
from .stats import (
    SHARD_FLOAT_FIELDS,
    SHARD_INT_FIELDS,
    ShardStats,
    SimStats,
)
from .trace import BlockTrace, ShardedTrace, trace_shard_bounds

CHECKPOINT_FORMAT = "replay-checkpoint"
CHECKPOINT_VERSION = 1


def _copy_stats(stats: SimStats) -> SimStats:
    snap = SimStats()
    for name in SHARD_INT_FIELDS:
        setattr(snap, name, getattr(stats, name))
    for name in SHARD_FLOAT_FIELDS:
        setattr(snap, name, getattr(stats, name))
    snap.miss_level_counts = dict(stats.miss_level_counts)
    return snap


def _apply_merged(stats: SimStats, merged: ShardStats) -> None:
    """Make the order-independent shard merge the reported counters.

    By construction the merge equals what the backend finish wrote
    into *stats*; assigning from the merge keeps the sharded path
    honest — the numbers the caller sees really did flow through the
    :class:`ShardStats` algebra.
    """
    final = merged.finalize()
    for name in SHARD_INT_FIELDS:
        setattr(stats, name, getattr(final, name))
    for name in SHARD_FLOAT_FIELDS:
        setattr(stats, name, getattr(final, name))
    stats.miss_level_counts = dict(final.miss_level_counts)


# -- carry (de)serialization helpers -----------------------------------------


def _lru_states_payload(states: Dict[int, Dict[int, None]]) -> list:
    """``{set: ordered {line: None}}`` -> ``[[set, [lines...]], ...]``
    (recency order preserved, oldest first)."""
    return [
        [int(set_index), [int(line) for line in recency]]
        for set_index, recency in states.items()
    ]


def _lru_states_restore(payload: list) -> Dict[int, Dict[int, None]]:
    return {
        int(set_index): {int(line): None for line in lines}
        for set_index, lines in payload
    }


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
    merged: ShardStats,
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
        "merged": merged.to_payload(),
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
) -> Optional[Tuple[int, ShardStats, object]]:
    """Validate and decode the latest checkpoint, or None to start
    fresh.

    *restore_carry* decodes the backend's carry payload.  Any mismatch
    (format, backend, shard geometry, data-model presence) or a body
    that does not decode (missing keys, wrong types, a merged range
    other than shards ``0..index``) discards the checkpoint with a
    ``sim:resume-invalid`` instant naming the reason, rather than
    failing the run; *data_model* is left untouched in that case.
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
        merged = ShardStats.from_payload(payload["merged"])
        if (
            (merged.first, merged.last) != (0, index)
            or len(merged.ints) != len(SHARD_INT_FIELDS)
            or len(merged.floats) != len(SHARD_FLOAT_FIELDS)
        ):
            raise ValueError("merged stats do not cover shards 0..index")
        carry = restore_carry(payload["carry"])
        if data_model is not None:
            _data_model_restore(data_model, payload["data_model"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        if data_model is not None:
            _data_model_restore(data_model, saved_model)
        tracer.instant("sim:resume-invalid", shard=index, reason="body")
        return None
    tracer.instant("sim:resume", shard=index)
    return index, merged, carry


# -- backends ----------------------------------------------------------------
#
# A backend supplies the steps of the shared shard loop (:func:`_stream`):
# ``step`` replays one shard, ``snapshot`` is, per slot, the SimStats the
# run would report if it ended at the current shard boundary
# (since-last-reset counters, cumulative float accumulators —
# ShardStats.delta of consecutive snapshots telescopes back to the final
# values), ``finish`` populates the simulators, and ``payload``/``restore``
# are the carry codec.  Every backend but the plan kernel has one slot.
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

    def snapshot(self) -> List[SimStats]:
        return [_copy_stats(self.finish())]

    def finish(self) -> SimStats:
        return self.core._reference_finish(self.program_instructions)


class _IdealBackend:
    """The all-hits upper bound: counters only, no hierarchy state.

    The carry is ``(l1i_accesses, program_instructions)`` since the
    last warmup reset."""

    name = "columnar-ideal"
    data_model = None

    def __init__(self, core, view, eff: int):
        self.stats = core.stats
        self.view = view
        self.eff = eff
        self.cpi = 1.0 / core.machine.base_ipc
        self.carry: Tuple[int, int] = (0, 0)

    def step(self, rows, start: int) -> None:
        accesses, instructions = self.carry
        reset_local = self.eff - start
        if 0 <= reset_local < len(rows):
            rows = rows[reset_local:]
            accesses = instructions = 0
        self.carry = (
            accesses + int(self.view.line_counts[rows].sum()),
            instructions + int(self.view.instruction_counts[rows].sum()),
        )

    def _write(self, stats: SimStats) -> SimStats:
        stats.clear()
        stats.l1i_accesses, stats.program_instructions = self.carry
        stats.compute_cycles = stats.program_instructions * self.cpi
        return stats

    def snapshot(self) -> List[SimStats]:
        return [self._write(SimStats())]

    def finish(self) -> None:
        self._write(self.stats)

    def payload(self) -> dict:
        accesses, instructions = self.carry
        return {"l1i_accesses": accesses, "program_instructions": instructions}

    @staticmethod
    def restore(payload: dict) -> Tuple[int, int]:
        return (
            int(payload["l1i_accesses"]),
            int(payload["program_instructions"]),
        )


_ARRAY_CARRY_INTS = (
    "l1_dh", "l1_dm", "l1_ev",
    "l2_dh", "l2_dm", "l2_ev",
    "l3_dh", "l3_dm", "l3_ev",
    "l1i_accesses", "l1i_misses", "program_instructions",
)


class _ArrayBackend:
    """No-plan columnar replay (:func:`~repro.sim.array_replay.
    array_shard_replay`).  With ``record_events`` it also keeps each
    shard's observer view in :attr:`events` — the profiler's recorded
    replay."""

    name = "columnar"

    def __init__(self, view, machine, stats, data_model, eff: int,
                 hierarchy=None, record_events: bool = False):
        from .array_replay import ArrayCarry

        self.view = view
        self.machine = machine
        self.stats = stats
        self.data_model = data_model
        self.eff = eff
        self.hierarchy = hierarchy
        self.record_events = record_events
        self.events: list = []
        self.carry = ArrayCarry()

    def step(self, rows, start: int) -> None:
        from .array_replay import array_shard_replay

        events = array_shard_replay(
            self.view,
            rows,
            self.machine,
            self.carry,
            data_traffic=self.data_model,
            offset=start,
            eff=self.eff,
            record_events=self.record_events,
        )
        if events is not None:
            self.events.append(events)

    def snapshot(self) -> List[SimStats]:
        from .array_replay import array_finish

        snap = SimStats()
        array_finish(self.carry, self.machine, snap)
        return [snap]

    def finish(self) -> None:
        from .array_replay import array_finish

        array_finish(self.carry, self.machine, self.stats, self.hierarchy)

    def payload(self) -> dict:
        carry = self.carry
        return {
            "l1": _lru_states_payload(carry.l1_state),
            "l2": _lru_states_payload(carry.l2_state),
            "l3": _lru_states_payload(carry.l3_state),
            "now": carry.now,
            "busy": carry.busy,
            "frontend_stalls": carry.frontend_stalls,
            "ints": {name: getattr(carry, name) for name in _ARRAY_CARRY_INTS},
            "miss_levels": dict(carry.miss_level_counts),
        }

    @staticmethod
    def restore(payload: dict):
        from .array_replay import ArrayCarry

        carry = ArrayCarry()
        carry.l1_state = _lru_states_restore(payload["l1"])
        carry.l2_state = _lru_states_restore(payload["l2"])
        carry.l3_state = _lru_states_restore(payload["l3"])
        carry.now = float(payload["now"])
        carry.busy = float(payload["busy"])
        carry.frontend_stalls = float(payload["frontend_stalls"])
        for name in _ARRAY_CARRY_INTS:
            setattr(carry, name, int(payload["ints"][name]))
        carry.miss_level_counts = {
            str(k): int(v) for k, v in payload["miss_levels"].items()
        }
        return carry


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


class _PlanBatchBackend:
    """The plan kernel (:class:`~repro.sim.array_replay.PlanBatch`).

    A single plan-bearing simulation is the one-slot batch; sweeps run
    V slots.  Checkpoints cover the one-slot batch only — the carry is
    the slot's :class:`~repro.sim.array_replay.PlanCarry` plus its
    L2/L3 lane contents — and wider batches run without a
    checkpointer."""

    name = "columnar-plan"

    def __init__(self, batch, eff: int):
        self.batch = batch
        self.eff = eff
        self.data_model = batch.slots[0].core.data_traffic

    def step(self, rows, start: int) -> None:
        self.batch.run_shard(rows, start, self.eff)

    def snapshot(self) -> List[SimStats]:
        from .array_replay import _plan_stats

        return [
            _plan_stats(slot.ctx, slot.carry, SimStats())
            for slot in self.batch.slots
        ]

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
            ((sets, stacks, pending),) = getattr(self.batch, level).export(1)
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


def _fallback_reason(core, observer=None) -> Optional[str]:
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
    :class:`~repro.sim.cpu.CoreSimulator`).

    Accepts an in-memory :class:`BlockTrace` (cut greedily on
    ``shard_insns`` retired instructions) or an on-disk
    :class:`ShardedTrace` (one chunk materialized at a time); see
    :func:`replay`.
    """
    if shard_insns is None and not isinstance(trace, ShardedTrace):
        raise ValueError("shard_insns is required to shard an in-memory trace")
    return replay(core, trace, observer, warmup, shard_insns, checkpointer)


def replay(
    core,
    trace,
    observer=None,
    warmup: int = 0,
    shard_insns: Optional[int] = None,
    checkpointer: Optional[StoreCheckpointer] = None,
) -> SimStats:
    """Replay *trace* on *core*: the one driver behind every sequential
    replay.

    An in-memory trace with no ``shard_insns`` is the single shard
    ``[(0, len(trace))]``.  Every backend produces per-shard
    :class:`ShardStats` partials whose order-independent merge is the
    reported :class:`SimStats`, and the final simulator state
    (hierarchy, engine, fill port) is independent of the cut.
    """
    program = core.program
    tracer = get_tracer()
    if isinstance(trace, ShardedTrace):
        shard_insns = trace.shard_insns

    fallback = _fallback_reason(core, observer)
    if fallback is not None:
        bounds, shard = _reference_shards(program, trace, shard_insns)
        backend = _ReferenceBackend(core, observer, warmup)
        core.last_replay_backend = "reference"
    else:
        from .columnar import columnar_view

        view = columnar_view(program)
        bounds, shard = _columnar_shards(view, trace, shard_insns)
        eff = warmup if 0 < warmup < len(trace) else 0
        if core.engine is not None:
            from .array_replay import PlanBatch

            batch = PlanBatch([core])
            backend = _PlanBatchBackend(batch, eff)
            core.last_replay_backend = "columnar-plan"
        else:
            if core.ideal:
                backend = _IdealBackend(core, view, eff)
            else:
                backend = _ArrayBackend(
                    view, core.machine, core.stats, core.data_traffic, eff,
                    core.hierarchy,
                )
            core.last_replay_backend = "columnar"

    core.last_fallback_reason = fallback
    with tracer.span(
        "sim:run",
        program=program.name,
        blocks=len(trace),
        ideal=core.ideal,
        observed=observer is not None,
        shards=len(bounds),
        shard_insns=shard_insns,
    ) as span:
        _stream(
            backend, shard, bounds, shard_insns, checkpointer, [core.stats]
        )
        span.set(backend=core.last_replay_backend)
        if fallback is not None:
            span.set(fallback=fallback)
    return core.stats


def _stream(backend, shard, bounds, shard_insns, checkpointer, stats) -> None:
    """The shard loop every backend runs: resume from the latest valid
    checkpoint, then for each remaining shard replay, snapshot, merge
    each slot's :class:`ShardStats` delta and save; finally finish the
    backend and report each slot's merge into its *stats*.  Only
    one-slot runs checkpoint."""
    tracer = get_tracer()
    num_shards = len(bounds)
    if backend.name is None:
        checkpointer = None
    merged = [ShardStats.identity() for _ in stats]
    prev = [SimStats() for _ in stats]
    first = 0
    resumed = None
    if checkpointer is not None:
        resumed = _load_checkpoint(
            checkpointer, backend.name, num_shards, shard_insns,
            backend.data_model, backend.restore,
        )
    if resumed is not None:
        index, merged[0], backend.carry = resumed
        first = index + 1
        prev = backend.snapshot()
    for index in range(first, num_shards):
        start = bounds[index][0]
        with tracer.span("sim:shard", index=index, offset=start):
            backend.step(shard(index), start)
        cur = backend.snapshot()
        merged = [
            slot.merge(ShardStats.delta(index, before, after))
            for slot, before, after in zip(merged, prev, cur)
        ]
        prev = cur
        if checkpointer is not None:
            checkpointer.save(
                index,
                _checkpoint(
                    backend.name, index, num_shards, shard_insns, merged[0],
                    backend.payload(), backend.data_model,
                ),
            )
    backend.finish()
    for target, slot in zip(stats, merged):
        _apply_merged(target, slot)
    if checkpointer is not None:
        checkpointer.finalize(num_shards)


def run_plan_batch(
    cores,
    trace,
    warmup: int = 0,
    shard_insns: Optional[int] = None,
) -> List[Optional[str]]:
    """Evaluate every core's plan in one pass over *trace*, optionally
    shard-streamed.

    *cores* are :class:`~repro.sim.cpu.CoreSimulator` instances, one per
    plan variant.  Returns per-slot outcomes: ``None`` when the slot was
    batched — its stats/hierarchy/engine are now bit-identical to
    ``core.run`` with the same ``shard_insns`` — else the reason the
    kernel cannot take it (``no-plan`` or a :func:`replay` fallback
    reason), decided before any state changes; such cores are left
    untouched.

    The trace is cut on the same greedy instruction bounds as
    :func:`replay`, and the slots run as one :class:`~repro.sim.
    array_replay.PlanBatch` through the same shard loop, each slot's
    counters flowing through its own :class:`ShardStats` merge.
    """
    from .array_replay import PlanBatch
    from .columnar import columnar_view

    program = cores[0].program
    tracer = get_tracer()
    reasons = [
        "no-plan" if core.engine is None else _fallback_reason(core)
        for core in cores
    ]
    for index, reason in enumerate(reasons):
        if reason is not None:
            tracer.instant("sim:batch-fallback", slot=index, reason=reason)
    live = [core for core, reason in zip(cores, reasons) if reason is None]
    view = columnar_view(program)
    bounds, shard = _columnar_shards(view, trace, shard_insns)
    eff = warmup if 0 < warmup < len(trace) else 0
    with tracer.span(
        "sim:batch",
        program=program.name,
        blocks=len(trace),
        variants=len(cores),
        shards=len(bounds),
    ) as span:
        if live:
            batch = PlanBatch(live)
            _stream(
                _PlanBatchBackend(batch, eff), shard, bounds, shard_insns,
                None, [core.stats for core in live],
            )
        span.set(fallbacks=len(cores) - len(live))
    for core in live:
        core.last_replay_backend = _PlanBatchBackend.name
        core.last_fallback_reason = None
    return reasons


# -- profiler streaming ------------------------------------------------------


def stream_replay_events(
    program,
    trace: BlockTrace,
    machine,
    stats: SimStats,
    data_traffic=None,
    shard_insns: Optional[int] = None,
):
    """The profiler's recorded no-plan replay: the per-block cycles and
    per-miss events (the observer view) as one whole-trace
    :class:`~repro.sim.array_replay.ReplayEvents`.

    Replays shard by shard through the shared shard loop (bounded
    replay working set; one shard without ``shard_insns``) and
    concatenates the per-shard views, with global trace indices.
    Populates *stats* like a whole-trace replay (no hierarchy, no
    warmup: the profiler's configuration).
    """
    import numpy as np

    from .array_replay import ReplayEvents
    from .columnar import columnar_view

    view = columnar_view(program)
    bounds, shard = _columnar_shards(view, trace, shard_insns)
    backend = _ArrayBackend(
        view, machine, stats, data_traffic, 0, record_events=True
    )
    _stream(backend, shard, bounds, shard_insns, None, [stats])
    chunks = backend.events
    return ReplayEvents(
        block_cycles=np.concatenate([c.block_cycles for c in chunks]),
        miss_trace_index=np.concatenate([c.miss_trace_index for c in chunks]),
        miss_block_ids=np.concatenate([c.miss_block_ids for c in chunks]),
        miss_lines=np.concatenate([c.miss_lines for c in chunks]),
        miss_cycles=np.concatenate([c.miss_cycles for c in chunks]),
    )

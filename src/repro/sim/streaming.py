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
# ``step`` replays one shard, ``snapshot`` is the SimStats the run would
# report if it ended at the current shard boundary (since-last-reset
# counters, cumulative float accumulators — ShardStats.delta of
# consecutive snapshots telescopes back to the final values), ``finish``
# populates the simulator, and ``payload``/``restore`` are the carry
# codec.  ``name`` is the backend a checkpoint records; the reference
# loop has none and is never checkpointed.


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

    def snapshot(self) -> SimStats:
        return _copy_stats(self.finish())

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

    def snapshot(self) -> SimStats:
        return self._write(SimStats())

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
    array_shard_replay`)."""

    name = "columnar"

    def __init__(self, core, view, eff: int):
        from .array_replay import ArrayCarry

        self.core = core
        self.view = view
        self.eff = eff
        self.data_model = core.data_traffic
        self.carry = ArrayCarry()

    def step(self, rows, start: int) -> None:
        from .array_replay import array_shard_replay

        array_shard_replay(
            self.view,
            rows,
            self.core.machine,
            self.carry,
            data_traffic=self.data_model,
            offset=start,
            eff=self.eff,
        )

    def snapshot(self) -> SimStats:
        from .array_replay import array_finish

        snap = SimStats()
        array_finish(self.carry, self.core.machine, snap)
        return snap

    def finish(self) -> None:
        from .array_replay import array_finish

        core = self.core
        array_finish(self.carry, core.machine, core.stats, core.hierarchy)

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


class _PlanBackend:
    """Plan-bearing columnar replay (:func:`~repro.sim.array_replay.
    plan_shard_replay`)."""

    name = "columnar-plan"

    def __init__(self, core, view, eff: int):
        from .array_replay import PlanCarry, PlanContext

        self.core = core
        self.eff = eff
        self.data_model = core.data_traffic
        self.ctx = PlanContext(
            program=core.program,
            machine=core.machine,
            engine=core.engine,
            hierarchy=core.hierarchy,
        )
        self.carry = PlanCarry(self.ctx)

    def step(self, rows, start: int) -> None:
        from .array_replay import plan_shard_replay

        plan_shard_replay(
            self.ctx, self.carry, rows, start, self.eff, self.data_model
        )

    def snapshot(self) -> SimStats:
        from .array_replay import _plan_stats

        return _plan_stats(self.ctx, self.carry, SimStats())

    def finish(self) -> None:
        from .array_replay import _plan_finish

        core = self.core
        _plan_finish(
            self.ctx, self.carry, core.stats, core.hierarchy, core.engine
        )

    def payload(self) -> dict:
        carry = self.carry
        return {
            "l1_sets": _dense_sets_payload(carry.l1_sets),
            "l2_sets": _dense_sets_payload(carry.l2_sets),
            "l3_sets": _dense_sets_payload(carry.l3_sets),
            "l1_pend": sorted(int(line) for line in carry.l1_pend),
            "l2_pend": sorted(int(line) for line in carry.l2_pend),
            "l3_pend": sorted(int(line) for line in carry.l3_pend),
            "inflight": [
                [int(line), arrival]
                for line, arrival in carry.inflight.items()
            ],
            "now": carry.now,
            "busy": carry.busy,
            "frontend_stalls": carry.frontend_stalls,
            "late_stall": carry.late_stall,
            "ints": {name: getattr(carry, name) for name in _PLAN_CARRY_INTS},
            "tracker_tail": [int(b) for b in carry.tracker_tail],
            "exact_tail": [int(b) for b in carry.exact_tail],
        }

    def restore(self, payload: dict):
        from .array_replay import PlanCarry

        carry = PlanCarry(self.ctx)
        for dense, res, entries in (
            (carry.l1_sets, carry.l1_res, payload["l1_sets"]),
            (carry.l2_sets, carry.l2_res, payload["l2_sets"]),
            (carry.l3_sets, carry.l3_res, payload["l3_sets"]),
        ):
            for index, lines in entries:
                recency = [int(line) for line in lines]
                dense[int(index)] = recency
                res.update(recency)
        carry.l1_pend = {int(line) for line in payload["l1_pend"]}
        carry.l2_pend = {int(line) for line in payload["l2_pend"]}
        carry.l3_pend = {int(line) for line in payload["l3_pend"]}
        carry.inflight = {
            int(line): float(arrival) for line, arrival in payload["inflight"]
        }
        carry.now = float(payload["now"])
        carry.busy = float(payload["busy"])
        carry.frontend_stalls = float(payload["frontend_stalls"])
        carry.late_stall = float(payload["late_stall"])
        for name in _PLAN_CARRY_INTS:
            setattr(carry, name, int(payload["ints"][name]))
        carry.tracker_tail = [int(b) for b in payload["tracker_tail"]]
        carry.exact_tail = [int(b) for b in payload["exact_tail"]]
        return carry


# -- the driver --------------------------------------------------------------


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
    engine = core.engine
    tracer = get_tracer()
    sharded = trace if isinstance(trace, ShardedTrace) else None
    if sharded is not None:
        bounds: Optional[List[Tuple[int, int]]] = list(sharded.bounds)
        shard_insns = sharded.shard_insns
    elif shard_insns is None:
        bounds = [(0, len(trace))]
    else:
        bounds = None

    # Backend selection: with no observer there are no per-event hooks
    # to honour, so a columnar kernel serves the run — bit-identical by
    # construction and differentially tested.  State a kernel cannot
    # reconstruct from scratch (a re-used simulator, a pre-seeded
    # engine) takes the reference loop, which composes with it.  The
    # first failing check is the recorded fallback reason.
    if observer is not None:
        fallback: Optional[str] = "observer"
    elif not kernel.numpy_enabled():
        fallback = "kernel-disabled"
    elif not core._hierarchy_pristine():
        fallback = "state-not-pristine"
    elif engine is not None and not engine.is_pristine():
        fallback = "engine-state"
    else:
        fallback = None

    if fallback is not None:
        if bounds is None:
            bounds = trace_shard_bounds(trace, program, shard_insns)
        backend = _ReferenceBackend(core, observer, warmup)
        core.last_replay_backend = "reference"

        def shard(index: int):
            if sharded is not None:
                return sharded.shard(index).block_ids
            start, stop = bounds[index]
            return trace.block_ids[start:stop]

    else:
        from .columnar import columnar_view

        view = columnar_view(program)
        rows_full = None if sharded is not None else view.trace_rows(trace)
        if bounds is None:
            bounds = view.shard_bounds(rows_full, shard_insns)
        eff = warmup if 0 < warmup < len(trace) else 0
        if engine is not None:
            backend = _PlanBackend(core, view, eff)
            core.last_replay_backend = "columnar-plan"
        else:
            backend = (_IdealBackend if core.ideal else _ArrayBackend)(
                core, view, eff
            )
            core.last_replay_backend = "columnar"

        def shard(index: int):
            if rows_full is None:
                return view.trace_rows(sharded.shard(index))
            start, stop = bounds[index]
            return rows_full[start:stop]

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
        _stream(backend, shard, bounds, shard_insns, checkpointer, core.stats)
        span.set(backend=core.last_replay_backend)
        if fallback is not None:
            span.set(fallback=fallback)
    return core.stats


def _stream(backend, shard, bounds, shard_insns, checkpointer, stats) -> None:
    """The shard loop every sequential backend runs: resume from the
    latest valid checkpoint, then for each remaining shard replay,
    snapshot, merge the :class:`ShardStats` delta and save; finally
    finish the backend and report the merge."""
    tracer = get_tracer()
    num_shards = len(bounds)
    if backend.name is None:
        checkpointer = None
    merged = ShardStats.identity()
    prev = SimStats()
    first = 0
    resumed = None
    if checkpointer is not None:
        resumed = _load_checkpoint(
            checkpointer, backend.name, num_shards, shard_insns,
            backend.data_model, backend.restore,
        )
    if resumed is not None:
        index, merged, backend.carry = resumed
        first = index + 1
        prev = backend.snapshot()
    for index in range(first, num_shards):
        start = bounds[index][0]
        with tracer.span("sim:shard", index=index, offset=start):
            backend.step(shard(index), start)
        cur = backend.snapshot()
        merged = merged.merge(ShardStats.delta(index, prev, cur))
        prev = cur
        if checkpointer is not None:
            checkpointer.save(
                index,
                _checkpoint(
                    backend.name, index, num_shards, shard_insns, merged,
                    backend.payload(), backend.data_model,
                ),
            )
    backend.finish()
    _apply_merged(stats, merged)
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

    *cores* are :class:`~repro.sim.cpu.CoreSimulator` instances (one
    per variant, pristine state).  Returns per-slot outcomes: ``None``
    when the slot was batched — its stats/hierarchy/engine are now
    bit-identical to the per-variant replay with the same
    ``shard_insns`` — else the fallback reason; failed slots must be
    rerun through the per-variant path with fresh objects.

    The trace is cut on the same greedy instruction bounds as
    :func:`replay` (one shard without ``shard_insns``), the variant
    axis runs inside each shard, and every variant's reported counters
    flow through the per-variant :class:`ShardStats` merge, mirroring
    the sequential driver's algebra.
    """
    from .array_replay import PlanBatch, _plan_stats
    from .columnar import columnar_view

    program = cores[0].program
    machine = cores[0].machine
    tracer = get_tracer()
    view = columnar_view(program)
    rows_full = view.trace_rows(trace)
    total = len(rows_full)
    eff = warmup if 0 < warmup < total else 0
    batch = PlanBatch(
        program,
        machine,
        [(c.stats, c.engine, c.hierarchy, c.data_traffic) for c in cores],
    )
    if not kernel.numpy_enabled():
        for slot in batch.slots:
            if slot.alive:
                slot.fail("kernel-disabled")
    for core, slot in zip(cores, batch.slots):
        if not core._hierarchy_pristine() and slot.alive:
            slot.fail("state-not-pristine")

    bounds = (
        view.shard_bounds(rows_full, shard_insns)
        if shard_insns
        else [(0, total)]
    )
    with tracer.span(
        "sim:batch",
        program=program.name,
        blocks=total,
        variants=len(cores),
        shards=len(bounds),
    ) as span:
        merged = {s.index: ShardStats.identity() for s in batch.live()}
        prev = {s.index: SimStats() for s in batch.live()}
        for index, (start, stop) in enumerate(bounds):
            with tracer.span("sim:shard", index=index, offset=start):
                batch.run_shard(rows_full[start:stop], start, eff)
            for slot in batch.live():
                cur = _plan_stats(slot.ctx, slot.carry, SimStats())
                delta = ShardStats.delta(index, prev[slot.index], cur)
                merged[slot.index] = merged[slot.index].merge(delta)
                prev[slot.index] = cur
        batch.finish()
        for slot in batch.live():
            _apply_merged(slot.stats, merged[slot.index])
        reasons = batch.results()
        span.set(fallbacks=sum(r is not None for r in reasons))
    for core, reason in zip(cores, reasons):
        if reason is None:
            core.last_replay_backend = "columnar-plan-batch"
            core.last_fallback_reason = None
        # the batch's internal wall-clock decomposition, for honest
        # benchmark reporting (observation only)
        core.last_batch_phases = dict(batch.phase_seconds)
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

    Replays shard by shard through the carried kernel (bounded replay
    working set; one shard without ``shard_insns``) and concatenates
    the per-shard views, with global trace indices.  Populates *stats*
    like a whole-trace replay (no hierarchy, no warmup: the profiler's
    configuration).
    """
    import numpy as np

    from .array_replay import ArrayCarry, ReplayEvents, array_finish, \
        array_shard_replay
    from .columnar import columnar_view

    view = columnar_view(program)
    rows_full = view.trace_rows(trace)
    bounds = (
        view.shard_bounds(rows_full, shard_insns)
        if shard_insns is not None
        else [(0, len(rows_full))]
    )
    carry = ArrayCarry()
    chunks = [
        array_shard_replay(
            view,
            rows_full[start:stop],
            machine,
            carry,
            data_traffic=data_traffic,
            offset=start,
            eff=0,
            record_events=True,
        )
        for start, stop in bounds
    ]
    array_finish(carry, machine, stats)
    return ReplayEvents(
        block_cycles=np.concatenate([c.block_cycles for c in chunks]),
        miss_trace_index=np.concatenate([c.miss_trace_index for c in chunks]),
        miss_block_ids=np.concatenate([c.miss_block_ids for c in chunks]),
        miss_lines=np.concatenate([c.miss_lines for c in chunks]),
        miss_cycles=np.concatenate([c.miss_cycles for c in chunks]),
    )

"""Sharded streaming replay: bounded memory, partial stats, resume.

This module drives any replay backend shard-by-shard over a trace —
either an in-memory :class:`BlockTrace` cut on the fly or an on-disk
:class:`ShardedTrace` materialized one chunk at a time — and merges
the per-shard partial statistics (:class:`~repro.sim.stats.ShardStats`)
into the whole-run :class:`SimStats`.  The result is **bit-identical**
to the whole-trace paths:

* the columnar kernels (:mod:`repro.sim.array_replay`) are already
  written as carry-threaded shard kernels, and the whole-trace entry
  points are their single-shard case;
* the reference loop streams through
  :meth:`CoreSimulator._reference_stream`, whose per-block state lives
  in the real simulator objects — a shard boundary is just a loop
  break.

Carry-over state at a shard boundary is exactly what the tentpole
contract names: the LRU residency of every level, the in-flight
prefetch arrival map, the Bloom runtime-hash window (as the hashed-id
tail that regenerates it), the exact-context LBR window tail, the
float time/stall accumulators and the since-last-reset counters.

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


# -- cumulative snapshots ----------------------------------------------------
#
# A "snapshot" is the SimStats the backend would report if the run
# ended at the current shard boundary (since-last-reset counters,
# cumulative float accumulators).  ShardStats.delta of consecutive
# snapshots yields the per-shard partials whose merge telescopes back
# to the final whole-run values.


def _copy_stats(stats: SimStats) -> SimStats:
    snap = SimStats()
    for name in SHARD_INT_FIELDS:
        setattr(snap, name, getattr(stats, name))
    for name in SHARD_FLOAT_FIELDS:
        setattr(snap, name, getattr(stats, name))
    snap.miss_level_counts = dict(stats.miss_level_counts)
    return snap


def _array_snapshot(carry, cpi: float) -> SimStats:
    snap = SimStats()
    snap.l1i_accesses = carry.l1i_accesses
    snap.l1i_misses = carry.l1i_misses
    snap.frontend_stall_cycles = carry.frontend_stalls
    snap.program_instructions = carry.program_instructions
    snap.compute_cycles = carry.program_instructions * cpi
    snap.miss_level_counts = dict(carry.miss_level_counts)
    return snap


def _plan_snapshot(ctx, carry) -> SimStats:
    snap = SimStats()
    snap.l1i_accesses = carry.l1i_accesses
    snap.l1i_misses = carry.sim_misses
    snap.frontend_stall_cycles = carry.frontend_stalls
    snap.late_prefetch_hits = carry.late_hits
    snap.late_prefetch_stall_cycles = carry.late_stall
    snap.prefetches_issued = carry.issued
    snap.prefetches_resident = carry.resident
    snap.prefetches_suppressed = carry.suppressed
    snap.prefetch_instructions_executed = carry.executed
    snap.program_instructions = carry.program_instructions
    snap.compute_cycles = (
        carry.program_instructions * ctx.cpi
        + carry.executed * ctx.prefetch_cpi
    )
    # Prefetch usefulness is the L1I's prefetch-hit count, carried in
    # the loop counters (see _install_cache / _plan_finish).
    snap.prefetches_useful = carry.l1_ph
    levels: Dict[str, int] = {}
    if carry.c2:
        levels["l2"] = carry.c2
    if carry.c3:
        levels["l3"] = carry.c3
    if carry.cm:
        levels["memory"] = carry.cm
    snap.miss_level_counts = levels
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


# -- carry (de)serialization -------------------------------------------------


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


_ARRAY_CARRY_INTS = (
    "l1_dh", "l1_dm", "l1_ev",
    "l2_dh", "l2_dm", "l2_ev",
    "l3_dh", "l3_dm", "l3_ev",
    "l1i_accesses", "l1i_misses", "program_instructions",
)


def _array_carry_payload(carry) -> dict:
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


def _array_carry_restore(payload: dict):
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


def _plan_carry_payload(carry) -> dict:
    return {
        "l1_sets": _dense_sets_payload(carry.l1_sets),
        "l2_sets": _dense_sets_payload(carry.l2_sets),
        "l3_sets": _dense_sets_payload(carry.l3_sets),
        "l1_pend": sorted(int(line) for line in carry.l1_pend),
        "l2_pend": sorted(int(line) for line in carry.l2_pend),
        "l3_pend": sorted(int(line) for line in carry.l3_pend),
        "inflight": [
            [int(line), arrival] for line, arrival in carry.inflight.items()
        ],
        "now": carry.now,
        "busy": carry.busy,
        "frontend_stalls": carry.frontend_stalls,
        "late_stall": carry.late_stall,
        "ints": {name: getattr(carry, name) for name in _PLAN_CARRY_INTS},
        "tracker_tail": [int(b) for b in carry.tracker_tail],
        "exact_tail": [int(b) for b in carry.exact_tail],
    }


def _plan_carry_restore(ctx, payload: dict):
    from .array_replay import PlanCarry

    carry = PlanCarry(ctx)
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


def _ideal_carry_payload(carry: Tuple[int, int]) -> dict:
    return {"l1i_accesses": carry[0], "program_instructions": carry[1]}


def _ideal_carry_restore(payload: dict) -> Tuple[int, int]:
    return int(payload["l1i_accesses"]), int(payload["program_instructions"])


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
    if checkpointer is None:
        return None
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
    :class:`ShardedTrace` (one chunk materialized at a time).  Backend
    selection mirrors ``CoreSimulator._replay`` exactly; every backend
    produces per-shard :class:`ShardStats` partials whose
    order-independent merge is the reported :class:`SimStats`, and the
    final simulator state (hierarchy, engine, fill port) is identical
    to the whole-trace replay's.
    """
    program = core.program
    machine = core.machine
    stats = core.stats
    engine = core.engine
    tracer = get_tracer()

    if isinstance(trace, ShardedTrace):
        sharded: Optional[ShardedTrace] = trace
        inline: Optional[BlockTrace] = None
        total = len(sharded)
        bounds: Optional[List[Tuple[int, int]]] = list(sharded.bounds)
        shard_insns = sharded.shard_insns
    else:
        sharded = None
        inline = trace
        total = len(trace)
        if shard_insns is None:
            raise ValueError(
                "shard_insns is required to shard an in-memory trace"
            )
        bounds = None

    # Backend selection: the same short-circuit order as
    # CoreSimulator._replay, so sharded and whole-trace runs always
    # agree on which kernel serves a configuration.
    if observer is not None:
        fallback: Optional[str] = "observer"
    elif not kernel.numpy_enabled():
        fallback = "kernel-disabled"
    elif not core._hierarchy_pristine():
        fallback = "state-not-pristine"
    elif engine is not None and not engine.is_pristine():
        tracer.instant("sim:plan-fallback", reason="engine-state")
        fallback = "plan-ineligible"
    else:
        fallback = None

    view = None
    rows_full = None
    if fallback is None:
        from .columnar import columnar_view

        view = columnar_view(program)
        if bounds is None:
            rows_full = view.trace_rows(inline)
            bounds = view.shard_bounds(rows_full, shard_insns)
        elif inline is not None:
            rows_full = view.trace_rows(inline)
    elif bounds is None:
        bounds = trace_shard_bounds(inline, program, shard_insns)

    num_shards = len(bounds)

    def shard_ids(index: int):
        start, stop = bounds[index]
        if sharded is not None:
            return sharded.shard(index).block_ids
        return inline.block_ids[start:stop]

    def shard_rows(index: int):
        start, stop = bounds[index]
        if rows_full is not None:
            return rows_full[start:stop]
        return view.trace_rows(sharded.shard(index))

    with tracer.span(
        "sim:run",
        program=program.name,
        blocks=total,
        ideal=core.ideal,
        observed=observer is not None,
        shards=num_shards,
        shard_insns=shard_insns,
    ) as span:
        if fallback is not None:
            core.last_replay_backend = "reference"
            core.last_fallback_reason = fallback
            _run_reference_stream(
                core, observer, warmup, bounds, shard_ids, tracer
            )
        elif engine is None and core.ideal:
            core.last_replay_backend = "columnar"
            core.last_fallback_reason = None
            _run_ideal_stream(
                core, view, warmup, total, bounds, shard_rows,
                shard_insns, checkpointer, tracer,
            )
        elif engine is None:
            core.last_replay_backend = "columnar"
            core.last_fallback_reason = None
            _run_array_stream(
                core, view, warmup, total, bounds, shard_rows,
                shard_insns, checkpointer, tracer,
            )
        else:
            _run_plan_stream(
                core, view, warmup, total, bounds, shard_rows, shard_ids,
                shard_insns, checkpointer, tracer,
            )
        span.set(backend=core.last_replay_backend)
        if core.last_fallback_reason is not None:
            span.set(fallback=core.last_fallback_reason)
    return stats


def _run_reference_stream(core, observer, warmup, bounds, shard_ids, tracer):
    """Stream the reference loop shard by shard (no checkpointing:
    the reference state lives across rich objects with no serialized
    form — see the module docstring)."""
    stats = core.stats
    fetch = core._make_fetch(observer)
    warmup_boundary = warmup if warmup > 0 else -1
    now = 0.0
    program_instructions = 0
    parts: List[ShardStats] = []
    prev = SimStats()
    for index, (start, _stop) in enumerate(bounds):
        with tracer.span("sim:shard", index=index, offset=start):
            now, program_instructions = core._reference_stream(
                fetch,
                observer,
                shard_ids(index),
                start,
                warmup_boundary,
                now,
                program_instructions,
            )
        cpi = 1.0 / core.machine.base_ipc
        prefetch_cpi = 1.0 / core.machine.issue_width
        cur = _copy_stats(stats)
        cur.program_instructions = program_instructions
        cur.compute_cycles = (
            program_instructions * cpi
            + stats.prefetch_instructions_executed * prefetch_cpi
        )
        cur.prefetches_useful = core.hierarchy.l1i.stats.prefetch_hits
        parts.append(ShardStats.delta(index, prev, cur))
        prev = cur
    core._reference_finish(program_instructions)
    _apply_merged(stats, ShardStats.merge_all(parts))


def _run_ideal_stream(
    core, view, warmup, total, bounds, shard_rows, shard_insns,
    checkpointer, tracer,
):
    """Counter-only all-hits upper bound, shard-streamed."""
    stats = core.stats
    eff = warmup if 0 < warmup < total else 0
    cpi = 1.0 / core.machine.base_ipc
    acc_l1i = 0
    acc_pi = 0
    merged = ShardStats.identity()
    prev = SimStats()
    start_shard = 0
    resumed = _load_checkpoint(
        checkpointer, "columnar-ideal", len(bounds), shard_insns, None,
        _ideal_carry_restore,
    )
    if resumed is not None:
        start_shard, merged, (acc_l1i, acc_pi) = resumed
        start_shard += 1
        prev = SimStats()
        prev.l1i_accesses = acc_l1i
        prev.program_instructions = acc_pi
        prev.compute_cycles = acc_pi * cpi
    for index in range(start_shard, len(bounds)):
        start, _stop = bounds[index]
        with tracer.span("sim:shard", index=index, offset=start):
            rows = shard_rows(index)
            n_local = len(rows)
            reset_local = (
                eff - start if start <= eff < start + n_local else None
            )
            if reset_local is None:
                acc_l1i += int(view.line_counts[rows].sum())
                acc_pi += int(view.instruction_counts[rows].sum())
            else:
                acc_l1i = int(view.line_counts[rows[reset_local:]].sum())
                acc_pi = int(
                    view.instruction_counts[rows[reset_local:]].sum()
                )
        cur = SimStats()
        cur.l1i_accesses = acc_l1i
        cur.program_instructions = acc_pi
        cur.compute_cycles = acc_pi * cpi
        merged = merged.merge(ShardStats.delta(index, prev, cur))
        prev = cur
        if checkpointer is not None:
            checkpointer.save(
                index,
                _checkpoint(
                    "columnar-ideal", index, len(bounds), shard_insns,
                    merged, _ideal_carry_payload((acc_l1i, acc_pi)), None,
                ),
            )
    stats.clear()
    stats.l1i_accesses = acc_l1i
    stats.program_instructions = acc_pi
    stats.compute_cycles = acc_pi * cpi
    _apply_merged(stats, merged)
    if checkpointer is not None:
        checkpointer.finalize(len(bounds))


def _run_array_stream(
    core, view, warmup, total, bounds, shard_rows, shard_insns,
    checkpointer, tracer,
):
    """No-plan columnar replay, shard-streamed with carry."""
    from .array_replay import ArrayCarry, array_finish, array_shard_replay

    stats = core.stats
    machine = core.machine
    eff = warmup if 0 < warmup < total else 0
    cpi = 1.0 / machine.base_ipc
    carry = ArrayCarry()
    merged = ShardStats.identity()
    prev = SimStats()
    start_shard = 0
    resumed = _load_checkpoint(
        checkpointer, "columnar", len(bounds), shard_insns,
        core.data_traffic, _array_carry_restore,
    )
    if resumed is not None:
        start_shard, merged, carry = resumed
        start_shard += 1
        prev = _array_snapshot(carry, cpi)
    for index in range(start_shard, len(bounds)):
        start, _stop = bounds[index]
        with tracer.span("sim:shard", index=index, offset=start):
            array_shard_replay(
                view,
                shard_rows(index),
                machine,
                carry,
                data_traffic=core.data_traffic,
                offset=start,
                eff=eff,
            )
        cur = _array_snapshot(carry, cpi)
        merged = merged.merge(ShardStats.delta(index, prev, cur))
        prev = cur
        if checkpointer is not None:
            checkpointer.save(
                index,
                _checkpoint(
                    "columnar", index, len(bounds), shard_insns, merged,
                    _array_carry_payload(carry), core.data_traffic,
                ),
            )
    array_finish(carry, machine, stats, core.hierarchy)
    _apply_merged(stats, merged)
    if checkpointer is not None:
        checkpointer.finalize(len(bounds))


def _run_plan_stream(
    core, view, warmup, total, bounds, shard_rows, shard_ids, shard_insns,
    checkpointer, tracer,
):
    """Plan-bearing columnar replay, shard-streamed with carry.

    When a shard's precompute detects a runtime-hash counter overflow
    ahead, the carried state — bit-identical to the reference's at the
    boundary — is installed into the real simulator objects and the
    remaining shards stream through the reference loop, which raises
    ``OverflowError`` at the exact push the whole-trace reference
    would."""
    from .array_replay import (
        PlanCarry,
        PlanContext,
        _plan_finish,
        plan_shard_replay,
    )

    stats = core.stats
    machine = core.machine
    engine = core.engine
    eff = warmup if 0 < warmup < total else 0
    ctx = PlanContext(program=core.program, machine=machine, engine=engine,
                      hierarchy=core.hierarchy)
    carry = PlanCarry(ctx)
    merged = ShardStats.identity()
    prev = SimStats()
    start_shard = 0
    resumed = _load_checkpoint(
        checkpointer, "columnar-plan", len(bounds), shard_insns,
        core.data_traffic, lambda payload: _plan_carry_restore(ctx, payload),
    )
    if resumed is not None:
        start_shard, merged, carry = resumed
        start_shard += 1
        prev = _plan_snapshot(ctx, carry)
    for index in range(start_shard, len(bounds)):
        start, _stop = bounds[index]
        with tracer.span("sim:shard", index=index, offset=start):
            ok = plan_shard_replay(
                ctx, carry, shard_rows(index), start, eff,
                core.data_traffic,
            )
        if not ok:
            tracer.instant("sim:plan-fallback", reason="bloom-overflow")
            _plan_finish(ctx, carry, stats, core.hierarchy, engine)
            now = carry.now
            program_instructions = carry.program_instructions
            fetch = core._make_fetch(None)
            warmup_boundary = warmup if warmup > 0 else -1
            for rest in range(index, len(bounds)):
                now, program_instructions = core._reference_stream(
                    fetch,
                    None,
                    shard_ids(rest),
                    bounds[rest][0],
                    warmup_boundary,
                    now,
                    program_instructions,
                )
            core._reference_finish(program_instructions)
            core.last_replay_backend = "reference"
            core.last_fallback_reason = "plan-ineligible"
            if checkpointer is not None:
                checkpointer.finalize(len(bounds))
            return
        cur = _plan_snapshot(ctx, carry)
        merged = merged.merge(ShardStats.delta(index, prev, cur))
        prev = cur
        if checkpointer is not None:
            checkpointer.save(
                index,
                _checkpoint(
                    "columnar-plan", index, len(bounds), shard_insns,
                    merged, _plan_carry_payload(carry), core.data_traffic,
                ),
            )
    _plan_finish(ctx, carry, stats, core.hierarchy, engine)
    _apply_merged(stats, merged)
    core.last_replay_backend = "columnar-plan"
    core.last_fallback_reason = None
    if checkpointer is not None:
        checkpointer.finalize(len(bounds))


def run_plan_batch(
    cores,
    trace,
    warmup: int = 0,
    shard_insns: Optional[int] = None,
) -> List[Optional[str]]:
    """Evaluate every core's plan in one pass over *trace*, optionally
    shard-streamed.

    *cores* are :class:`~repro.sim.cpu.CoreSimulator` instances (one
    per variant, pristine state).  Returns per-slot outcomes exactly
    like :func:`~repro.sim.array_replay.batched_plan_replay`: ``None``
    when the slot was batched — its stats/hierarchy/engine are now
    bit-identical to the per-variant replay with the same
    ``shard_insns`` — else the fallback reason; failed slots must be
    rerun through the per-variant path with fresh objects.

    With ``shard_insns`` the trace is cut on the same greedy
    instruction bounds as :func:`run_sharded`, the variant axis runs
    inside each shard, and every variant's reported counters flow
    through the per-variant :class:`ShardStats` merge, mirroring the
    sequential sharded driver's algebra.
    """
    from .array_replay import PlanBatch
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
        if len(bounds) <= 1:
            batch.run_shard(rows_full, 0, eff)
            batch.finish()
        else:
            merged: Dict[int, ShardStats] = {}
            prev: Dict[int, SimStats] = {
                s.index: _plan_snapshot(s.ctx, s.carry) for s in batch.live()
            }
            for index, (start, stop) in enumerate(bounds):
                with tracer.span("sim:shard", index=index, offset=start):
                    batch.run_shard(rows_full[start:stop], start, eff)
                for slot in batch.live():
                    cur = _plan_snapshot(slot.ctx, slot.carry)
                    delta = ShardStats.delta(index, prev[slot.index], cur)
                    acc = merged.get(slot.index)
                    merged[slot.index] = (
                        delta if acc is None else acc.merge(delta)
                    )
                    prev[slot.index] = cur
            batch.finish()
            for slot in batch.slots:
                if slot.alive and slot.reason is None:
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
    """Shard-streamed equivalent of ``array_replay(record_events=True)``.

    Replays shard by shard through the carried kernel (bounded replay
    working set) and concatenates the per-shard observer views into
    one whole-trace :class:`~repro.sim.array_replay.ReplayEvents` —
    bit-identical to the whole-trace recording, with global trace
    indices.  Populates *stats* like the whole-trace call (no
    hierarchy, no warmup: the profiler's configuration).
    """
    import numpy as np

    from .array_replay import ArrayCarry, ReplayEvents, array_finish, \
        array_shard_replay
    from .columnar import columnar_view

    if shard_insns is None:
        raise ValueError("stream_replay_events requires shard_insns")
    view = columnar_view(program)
    rows_full = view.trace_rows(trace)
    bounds = view.shard_bounds(rows_full, shard_insns)
    carry = ArrayCarry()
    chunks = []
    for index, (start, stop) in enumerate(bounds):
        chunks.append(
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
        )
    array_finish(carry, machine, stats)
    return ReplayEvents(
        block_cycles=np.concatenate([c.block_cycles for c in chunks]),
        miss_trace_index=np.concatenate([c.miss_trace_index for c in chunks]),
        miss_block_ids=np.concatenate([c.miss_block_ids for c in chunks]),
        miss_lines=np.concatenate([c.miss_lines for c in chunks]),
        miss_cycles=np.concatenate([c.miss_cycles for c in chunks]),
    )

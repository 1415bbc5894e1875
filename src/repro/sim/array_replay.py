"""Array replay: the columnar kernel.

Replays a :class:`BlockTrace` over the Table I hierarchy and produces
**bit-identical** :class:`SimStats` to :class:`CoreSimulator`'s
per-event reference loop, for runs with no observer hooks.  There is
one kernel, :class:`PlanBatch`, a carry-threaded shard kernel that
:mod:`repro.sim.streaming` drives (a whole-trace replay is its
one-shard case).  Each slot of a batch is one simulation:

* a plan-bearing replay (the I-SPY `Cprefetch`/`Lprefetch`/`CLprefetch`
  variants and the AsmDB baseline) is a slot with a prefetch engine; a
  single simulation is a one-slot batch, a sweep of V plan variants
  shares one pass over each shard;
* a replay with no prefetch engine (the no-prefetch baseline and the
  LBR/PEBS profiler's recorded replay) is an *engine-less* slot: no
  plan, no Bloom tracker, no exact-context window.  With
  ``record_events`` the slot also returns the observer view the
  profiler needs (:class:`ReplayEvents`), read off its own phase A
  (which accesses missed) and phase C (when).

Exactness rests on replaying the reference loop's operations in their
order, never approximating them:

1. the data-traffic stream is replayed through the *real*
   :class:`DataTrafficModel` (or decoded from the same raw MT19937
   words it draws), so the RNG and fractional-accumulator sequences
   match exactly;
2. the L2 access stream merges each slot's L1-bound events with the
   data stream *stably*: per retired block, the block's own events
   (instruction misses, prefetch queries) precede its data accesses, as
   in the reference loop, and the L3 stream is the L2 misses in order;
3. the timing fold replays the reference float operations in the
   identical order — per block ``now += count * cpi``, and at each
   missing line the fill-port/stall recurrence, scalar and in line
   order.  Float addition is not associative, so nothing is summed
   out of order or vectorized across blocks.

Because every float is produced by the identical operation sequence
and every counter from the identical event set, equality with the
reference is exact, not approximate — the differential tests in
``tests/sim/test_array_replay.py`` assert ``==``, never ``approx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..obs.trace import get_tracer
from .columnar import columnar_view
from .hierarchy import MemoryHierarchy
from .params import MachineParams
from .replacement import LRUStack
from .stats import SimStats
from .trace import Program


@dataclass
class ReplayEvents:
    """Per-event outputs for the vectorized profiler."""

    #: cycle at which each trace index began fetching (``on_block``)
    block_cycles: np.ndarray
    #: one entry per L1I demand miss, in stream order (``on_miss``)
    miss_trace_index: np.ndarray
    miss_block_ids: np.ndarray
    miss_lines: np.ndarray
    miss_cycles: np.ndarray


class _DataRecorder:
    """Stands in for the hierarchy while replaying the data model.

    ``DataTrafficModel.advance`` only ever calls ``data_access``; by
    running the *real* model against this recorder, the RNG stream and
    fractional accumulator behave exactly as in the reference replay,
    and the recorded lines feed the merged L2 stream.
    """

    __slots__ = ("data_access",)

    def __init__(self, append):
        self.data_access = append


def _record_data_stream(data_traffic, instr_counts: List[int]):
    """Record the model's per-block data lines (reference-driven)."""
    lines: List[int] = []
    counts: List[int] = []
    recorder = _DataRecorder(lines.append)
    advance = data_traffic.advance
    previous = 0
    for count in instr_counts:
        advance(count, recorder)
        here = len(lines)
        counts.append(here - previous)
        previous = here
    return lines, counts


def _fast_data_eligible(model) -> bool:
    """Is *model* the exact class/RNG the word-decoder replicates?

    Subclasses (or replaced ``_rng`` objects) may override the draw
    sequence, so anything but the stock configuration records through
    the model itself instead.
    """
    import random as _random

    from .datatraffic import DataTrafficModel

    return (
        type(model) is DataTrafficModel
        and type(model._rng) is _random.Random
        and model.hot_lines.bit_length() <= 32
        and model.working_set_lines.bit_length() <= 32
    )


#: Memoized decode results for :func:`_fast_data_stream`.  The decode
#: is a pure function of the model's configuration, its RNG state and
#: the per-block instruction counts, so repeated evaluations of the
#: same (app, seed) pair — every best-of-N benchmark repeat, every
#: plan compared on one evaluation trace — reuse the stream instead of
#: re-deriving it word by word.  Entries also record the model's final
#: (accumulator, access count, RNG state) so a cache hit leaves the
#: model bit-identical to a cold decode.  FIFO, bounded by the decoded
#: lines the entries hold (an entry with none counts one), not by an
#: entry count: a sharded replay decodes one entry per shard, and any
#: count below a run's shard count evicts each entry just before the
#: next replay of the trace asks for it.  One evaluate-stream trace
#: (wordpress, scale 0.3, 300k blocks) decodes about 665k lines.
_STREAM_CACHE: Dict[tuple, tuple] = {}
_STREAM_CACHE_LINE_LIMIT = 1 << 20
#: decoded lines currently held in :data:`_STREAM_CACHE`
_stream_cache_lines = 0


def _fast_data_stream(model, instr_counts: List[int]):
    """Replay :class:`DataTrafficModel` from raw MT19937 words.

    CPython's ``random`` and NumPy's ``MT19937`` share the same core
    generator, so the model's exact access stream can be decoded from
    a bulk ``random_raw`` draw: ``random()`` is two raw words
    (``(w0>>5)*2**26 + (w1>>6)`` over 2^53) and ``randrange(n)`` is
    ``w >> (32 - n.bit_length())`` with rejection — bit-for-bit the
    sequences ``Random`` produces, at a fraction of the per-call cost.
    The model object (fractional accumulator, access counter and RNG
    state) is left exactly as if ``advance`` had been called per block.
    """
    from .datatraffic import DATA_LINE_BASE

    rate = model.rate
    acc = model._accumulator

    cache_key = (
        model._rng.getstate()[1],
        acc,
        rate,
        model.hot_weight,
        model.hot_lines,
        model.working_set_lines,
        tuple(instr_counts),
    )
    hit = _STREAM_CACHE.get(cache_key)
    if hit is not None:
        lines, counts, total, final_acc, final_state = hit
        model._accumulator = final_acc
        model.accesses += total
        if final_state is not None:
            model._rng.setstate(final_state)
        return lines, counts
    counts: List[int] = []
    append_count = counts.append
    total = 0
    for owed in (np.asarray(instr_counts, dtype=np.int64) * rate).tolist():
        acc += owed
        count = int(acc)
        acc -= count
        append_count(count)
        total += count
    if not total:
        model._accumulator = acc
        _stream_cache_put(cache_key, ([], counts, 0, acc, None))
        return [], counts

    state = model._rng.getstate()
    bit_gen = np.random.MT19937()
    bit_gen.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(state[1][:-1], dtype=np.uint64),
            "pos": state[1][-1],
        },
    }
    # ~3.6 words per access on average; the decode loop tops up the
    # buffer whenever a rejection run outpaces the estimate.
    words = bit_gen.random_raw(4 * total + 64).tolist()

    hot_weight = model.hot_weight
    hot_lines = model.hot_lines
    working_set = model.working_set_lines
    hot_shift = 32 - hot_lines.bit_length()
    cold_shift = 32 - working_set.bit_length()
    inv53 = 1.0 / 9007199254740992.0

    lines: List[int] = []
    append_line = lines.append
    pointer = 0
    capacity = len(words)
    for _ in range(total):
        if pointer + 2 > capacity:
            words.extend(bit_gen.random_raw(4096).tolist())
            capacity = len(words)
        w0 = words[pointer]
        w1 = words[pointer + 1]
        pointer += 2
        if ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * inv53 < hot_weight:
            bound, shift = hot_lines, hot_shift
        else:
            bound, shift = working_set, cold_shift
        while True:
            if pointer == capacity:
                words.extend(bit_gen.random_raw(4096).tolist())
                capacity = len(words)
            offset = words[pointer] >> shift
            pointer += 1
            if offset < bound:
                break
        append_line(DATA_LINE_BASE + offset)

    # Leave the model exactly as the reference would: accumulator,
    # access count, and the RNG advanced by the words consumed.
    model._accumulator = acc
    model.accesses += total
    resync = np.random.MT19937()
    resync.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(state[1][:-1], dtype=np.uint64),
            "pos": state[1][-1],
        },
    }
    resync.random_raw(pointer)
    final = resync.state["state"]
    final_state = (
        3,
        tuple(int(k) for k in final["key"]) + (int(final["pos"]),),
        None,
    )
    model._rng.setstate(final_state)
    _stream_cache_put(cache_key, (lines, counts, total, acc, final_state))
    return lines, counts


def _stream_cache_put(key: tuple, entry: tuple) -> None:
    """FIFO insert within the line bound; callers treat cached lists as
    read-only.  A stream larger than the whole bound is not kept."""
    global _stream_cache_lines
    size = len(entry[0]) or 1
    if size > _STREAM_CACHE_LINE_LIMIT:
        return
    while _stream_cache_lines + size > _STREAM_CACHE_LINE_LIMIT:
        evicted = _STREAM_CACHE.pop(next(iter(_STREAM_CACHE)))
        _stream_cache_lines -= len(evicted[0]) or 1
    _STREAM_CACHE[key] = entry
    _stream_cache_lines += size


def _decode_data_stream(data_traffic, instr_counts: List[int]):
    """The model's per-block data lines, fast-decoded when eligible.

    Advances the model exactly as per-block ``advance`` calls would —
    including when called once per shard, since both decoders resume
    from the model's live RNG/accumulator state.
    """
    if data_traffic is None:
        return [], []
    if _fast_data_eligible(data_traffic):
        return _fast_data_stream(data_traffic, instr_counts)
    return _record_data_stream(data_traffic, instr_counts)


def _install_cache(cache, set_ids, stacks, pending, dh, dm, pf, ph, pu,
                   ev) -> None:
    """Install plan-replay residency + post-warmup counters into *cache*.

    ``stacks`` holds each set's final recency list (MRU first) —
    exactly the :class:`LRUStack` internal layout, so installation is
    a wrap, not a conversion.
    """
    installed = cache._sets
    installed.clear()
    ways = cache.ways
    new = LRUStack.__new__  # the fields are set right here
    for set_index, recency in zip(set_ids, stacks):
        stack = new(LRUStack)
        stack.ways = ways
        stack._stack = recency
        installed[set_index] = stack
    cache._pending_prefetched.clear()
    cache._pending_prefetched.update(pending)
    stats = cache.stats
    stats.reset()
    stats.demand_hits = dh
    stats.demand_misses = dm
    stats.prefetch_fills = pf
    stats.prefetch_hits = ph
    stats.prefetch_unused_evictions = pu
    stats.evictions = ev


class PlanContext:
    """Per-run immutable precompute for one slot of the replay.

    Everything here is a pure function of (program, machine, engine
    plan/tracker configuration, hierarchy policy) — independent of the
    trace — so sharded replays build it once and reuse it for every
    shard.  With ``engine=None`` (an engine-less slot) there are no
    prefetch sites, no Bloom tracker and no exact-context window.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineParams,
        engine,
        hierarchy: MemoryHierarchy,
    ):
        view = columnar_view(program)
        self.view = view
        self.machine = machine
        self.cpi = 1.0 / machine.base_ipc
        self.prefetch_cpi = 1.0 / machine.issue_width

        # Plan-independent tables are cached on the view so batched
        # sweeps build them once instead of once per variant.
        statics = getattr(view, "_plan_static_cache", None)
        if statics is None:
            statics = {}
            setattr(view, "_plan_static_cache", statics)

        # -- compiled site table, mapped onto program rows --------------
        compiled = engine.plan.compiled_sites() if engine is not None else {}
        row_by_id = statics.get("row_by_id")
        if row_by_id is None:
            row_by_id = dict(
                zip(view.block_ids.tolist(), range(view.num_blocks))
            )
            statics["row_by_id"] = row_by_id
        self.row_by_id = row_by_id
        site_rows = {}
        for block_id, instrs in compiled.items():
            row = row_by_id.get(block_id)
            if row is not None and instrs:
                site_rows[row] = instrs
        self.site_rows = site_rows
        self.is_site = np.zeros(view.num_blocks, dtype=bool)
        if site_rows:
            self.is_site[list(site_rows)] = True
        self.row_nexec = np.zeros(view.num_blocks, dtype=np.int64)
        for row, instrs in site_rows.items():
            self.row_nexec[row] = len(instrs)

        # -- counting-Bloom static tables -------------------------------
        self.tracker = engine.tracker if engine is not None else None
        self.exact_hist = engine.exact_history if engine is not None else None
        self.exact_depth = (
            self.exact_hist.maxlen if self.exact_hist is not None else 0
        )
        if self.tracker is not None:
            tracker = self.tracker
            self.depth = tracker.depth
            self.hash_bits = tracker.hash_bits
            positions = tracker.positions
            # the positions table is cached per (program, hash_bits), so
            # its identity keys the derived contribution tables; the
            # entry pins the table so the id cannot be recycled
            ckey = ("contrib", self.hash_bits, id(positions))
            entry = statics.get(ckey)
            if entry is None:
                contrib_rows = np.zeros(
                    (view.num_blocks, self.hash_bits), dtype=np.int32
                )
                hashed_row = np.zeros(view.num_blocks, dtype=bool)
                for block_id, row in row_by_id.items():
                    pos = positions.get(block_id)
                    if pos is not None:
                        hashed_row[row] = True
                        for bit in pos:
                            contrib_rows[row, bit] += 1
                entry = (positions, contrib_rows, hashed_row)
                statics[ckey] = entry
            self.contrib_rows = entry[1]
            self.hashed_row = entry[2]
        else:
            self.depth = 0
            self.hash_bits = 0
            self.contrib_rows = None
            self.hashed_row = None

        # -- geometry scalars and per-row tables ------------------------
        l1_geom = machine.l1i
        l2_geom = machine.l2
        l3_geom = machine.l3
        self.l1_ns = l1_geom.num_sets
        self.l2_ns = l2_geom.num_sets
        self.l3_ns = l3_geom.num_sets
        self.l1_ways = l1_geom.ways
        self.l2_ways = l2_geom.ways
        self.l3_ways = l3_geom.ways
        self.pd1 = hierarchy.l1i.prefetch_insertion_depth()
        self.pd2 = hierarchy.l2.prefetch_insertion_depth()
        self.pd3 = hierarchy.l3.prefetch_insertion_depth()
        self.pairs_list = view.line_set_pairs(self.l1_ns)
        incr_row = statics.get(("incr", self.cpi))
        if incr_row is None:
            incr_row = (
                view.instruction_counts.astype(np.float64) * self.cpi
            ).tolist()
            statics[("incr", self.cpi)] = incr_row
        self.incr_row = incr_row
        self.penalty = (
            0.0,
            float(machine.l2_latency),
            float(machine.l3_latency),
            float(machine.memory_latency),
        )
        self.occupancy = (
            0.0,
            machine.l2_fill_occupancy,
            machine.l3_fill_occupancy,
            machine.memory_fill_occupancy,
        )


class PlanCarry:
    """Cross-shard state of one replay slot, outside the L2/L3 lanes.

    Flat mirrors of the reference L1I (per-set recency lists, the
    residency and pending sets), the in-flight map as line -> issue
    index into ``arrivals``, the float accumulators, the
    since-last-reset counters, and two id tails that stand in for the
    sliding context windows at shard boundaries:

    * ``tracker_tail`` — the last ``depth`` *hashed* retired block ids,
      oldest first.  Prepending them as a virtual prefix reproduces the
      counting-Bloom window for every site occurrence in the next shard
      exactly.
    * ``exact_tail`` — the last ``exact_depth`` retired block ids, the
      Fig. 21 ground-truth window carried across the boundary.
    """

    __slots__ = (
        "l1_sets", "l1_res", "l1_pend",
        "inflight", "arrivals",
        "now", "busy", "frontend_stalls", "late_stall",
        "late_hits", "sim_misses", "issued", "resident",
        "c2", "c3", "cm",
        "l1_dh", "l1_dm", "l1_ph", "l1_pf", "l1_pu", "l1_ev",
        "l2_dh", "l2_dm", "l2_ph", "l2_pf", "l2_pu", "l2_ev",
        "l3_dh", "l3_dm", "l3_ph", "l3_pf", "l3_pu", "l3_ev",
        "l1i_accesses", "program_instructions",
        "suppressed", "executed", "tp", "fp",
        "tracker_tail", "exact_tail",
    )

    def __init__(self, ctx: PlanContext):
        self.l1_sets: list = [None] * ctx.l1_ns
        self.l1_res: set = set()
        self.l1_pend: set = set()
        self.inflight: Dict[int, int] = {}
        self.arrivals: List[float] = []
        self.now = 0.0
        self.busy = 0.0
        self.frontend_stalls = 0.0
        self.late_stall = 0.0
        self.late_hits = 0
        self.sim_misses = 0
        self.issued = 0
        self.resident = 0
        self.c2 = self.c3 = self.cm = 0
        self.l1_dh = self.l1_dm = self.l1_ph = 0
        self.l1_pf = self.l1_pu = self.l1_ev = 0
        self.l2_dh = self.l2_dm = self.l2_ph = 0
        self.l2_pf = self.l2_pu = self.l2_ev = 0
        self.l3_dh = self.l3_dm = self.l3_ph = 0
        self.l3_pf = self.l3_pu = self.l3_ev = 0
        self.l1i_accesses = 0
        self.program_instructions = 0
        self.suppressed = 0
        self.executed = 0
        self.tp = 0
        self.fp = 0
        self.tracker_tail: list = []
        self.exact_tail: list = []


def _plan_shard_precompute(ctx: PlanContext, carry: PlanCarry, rows, offset,
                           eff, shared: dict):
    """Vectorized per-shard decision tables for the plan replay.

    Returns the shard's site-plan entries and counter deltas for
    :meth:`PlanBatch.run_shard` to apply, without mutating *carry* or
    any external state.

    The carried tails make every window computation exact: counting-
    Bloom windows are prefix-sum differences over a virtual sequence
    (``tracker_tail`` entries prepended to the shard), and the Fig. 21
    membership test runs ``searchsorted`` over ``exact_tail`` + shard
    occurrences, so both see precisely the entries the whole-trace
    arrays would have shown them.
    """
    view = ctx.view
    n_local = len(rows)
    reset_local = eff - offset if offset <= eff < offset + n_local else None

    site_rows = ctx.site_rows
    if site_rows:
        site_pos = np.flatnonzero(ctx.is_site[rows])
    else:
        site_pos = np.empty(0, dtype=np.int64)

    # occurrences of each site row, ascending (stable sort by row)
    occ_by_row: Dict[int, np.ndarray] = {}
    if len(site_pos):
        srows = rows[site_pos]
        order = np.argsort(srows, kind="stable")
        sorted_rows = srows[order]
        sorted_pos = site_pos[order]
        bounds = np.flatnonzero(np.diff(sorted_rows)) + 1
        for chunk_rows, chunk_pos in zip(
            np.split(sorted_rows, bounds), np.split(sorted_pos, bounds)
        ):
            occ_by_row[int(chunk_rows[0])] = chunk_pos

    tracker = ctx.tracker
    tp = 0
    fp = 0
    suppressed = 0
    fires_by_row: Dict[int, list] = {}
    new_hashed: list = []
    if tracker is not None:
        depth = ctx.depth
        hash_bits = ctx.hash_bits
        n_tail = len(carry.tracker_tail)
        # The prefix-sum machinery (and every per-row window derived
        # from it) depends only on (hash table, depth, carried tail) —
        # not the plan — so a batch hands every slot one *shared* memo
        # and slots with matching configuration build it once.
        mkey = (
            "bloom", hash_bits, depth, tuple(carry.tracker_tail),
            id(ctx.contrib_rows),
        )
        mach = shared.get(mkey)
        if mach is None:
            hashed_t = ctx.hashed_row[rows]
            contrib_shard = np.where(
                hashed_t[:, None], ctx.contrib_rows[rows], 0
            )
            if n_tail:
                tail_rows = np.array(
                    [ctx.row_by_id[b] for b in carry.tracker_tail],
                    dtype=np.int64,
                )
                hashed_v = np.concatenate(
                    [np.ones(n_tail, dtype=bool), hashed_t]
                )
                contrib_v = np.concatenate(
                    [ctx.contrib_rows[tail_rows], contrib_shard]
                )
            else:
                hashed_v = hashed_t
                contrib_v = contrib_shard
            n_virt = n_tail + n_local
            prefix = np.zeros((n_virt + 1, hash_bits), dtype=np.int64)
            np.cumsum(contrib_v, axis=0, out=prefix[1:])
            hashed_count = np.zeros(n_virt + 1, dtype=np.int64)
            np.cumsum(hashed_v, out=hashed_count[1:])
            hashed_idx = np.flatnonzero(hashed_v)

            hashed_local = np.flatnonzero(hashed_t)
            new_hashed = [
                int(b)
                for b in view.block_ids[rows[hashed_local[-depth:]]].tolist()
            ]

            mach = {
                "prefix": prefix,
                "hashed_count": hashed_count,
                "hashed_idx": hashed_idx,
                "new_hashed": new_hashed,
                "window": {},
                "fires": {},
            }
            shared[mkey] = mach
        prefix = mach["prefix"]
        hashed_count = mach["hashed_count"]
        hashed_idx = mach["hashed_idx"]
        new_hashed = mach["new_hashed"]
        window_memo = mach["window"]
        fires_memo = mach["fires"]

        def window_counts(ts_v: np.ndarray) -> np.ndarray:
            """Counter values visible to a site executing at each
            (virtual-sequence) position."""
            rank = hashed_count[ts_v]
            starts = np.zeros(len(ts_v), dtype=np.int64)
            deep = rank > depth
            if deep.any():
                starts[deep] = hashed_idx[rank[deep] - depth]
            return prefix[ts_v] - prefix[starts]

        exact_depth = ctx.exact_depth
        n_ex = len(carry.exact_tail)
        if exact_depth and n_ex:
            ex_rows = np.array(
                [ctx.row_by_id[b] for b in carry.exact_tail], dtype=np.int64
            )
            virt_rows = np.concatenate([ex_rows, rows])
        else:
            n_ex = 0
            virt_rows = rows
        occ_cache = shared.setdefault(
            ("exact", exact_depth, tuple(carry.exact_tail)), {}
        )

        for row, instrs in site_rows.items():
            if all(instr.context_mask is None for instr in instrs):
                continue
            ts = occ_by_row.get(row)
            if ts is None:
                continue
            window = window_memo.get(row)
            if window is None:
                window = window_counts(ts + n_tail)
                window_memo[row] = window
            if reset_local is None:
                ts_count = np.ones(len(ts), dtype=bool)
            else:
                ts_count = ts >= reset_local
            fires_list = []
            for instr in instrs:
                mask = instr.context_mask
                if mask is None:
                    fires_list.append(None)
                    continue
                fires = fires_memo.get((row, mask))
                if fires is None:
                    if mask >> hash_bits:
                        # Bits beyond the tracker width can never be set.
                        fires = np.zeros(len(ts), dtype=bool)
                    elif mask == 0:
                        fires = np.ones(len(ts), dtype=bool)
                    else:
                        bits = [
                            b for b in range(hash_bits) if (mask >> b) & 1
                        ]
                        fires = (window[:, bits] > 0).all(axis=1)
                    fires_memo[(row, mask)] = fires
                fires_list.append(fires)
                suppressed += int((~fires & ts_count).sum())
                if ctx.exact_hist is not None and instr.context_blocks:
                    # Fig. 21 ground truth: every context block occurs
                    # in the exact last-`exact_depth` retired window.
                    present = np.ones(len(ts), dtype=bool)
                    for context_block in instr.context_blocks:
                        crow = ctx.row_by_id.get(context_block)
                        if crow is None:
                            present[:] = False
                            break
                        occ = occ_cache.get(crow)
                        if occ is None:
                            occ = np.flatnonzero(virt_rows == crow)
                            occ_cache[crow] = occ
                        ts_v = ts + n_ex
                        lo = np.searchsorted(
                            occ, ts_v - exact_depth, side="left"
                        )
                        hi = np.searchsorted(occ, ts_v, side="left")
                        present &= (hi - lo) > 0
                    tp += int((fires & present).sum())
                    fp += int((fires & ~present).sum())
            fires_by_row[row] = fires_list

    # -- per-execution site plan ---------------------------------------
    # site_plan[t] is None for non-site executions, else a pair of
    # (per-instruction targets-or-None list, pipeline-slot cost).
    # Conditional sites see only a handful of distinct fire/suppress
    # combinations across all their occurrences, so the decisions pack
    # into a per-occurrence code and every occurrence shares one
    # prebuilt (read-only) entry list per combination.
    site_plan: list = [None] * n_local
    prefetch_cpi = ctx.prefetch_cpi
    for row, instrs in site_rows.items():
        ts = occ_by_row.get(row)
        if ts is None:
            continue
        cost = len(instrs) * prefetch_cpi
        fires_list = fires_by_row.get(row)
        if fires_list is None:
            entry = ([instr.targets for instr in instrs], cost)
            for t in ts.tolist():
                site_plan[t] = entry
        else:
            targets = [instr.targets for instr in instrs]
            codes = np.zeros(len(ts), dtype=np.int64)
            always = 0
            for j, fires in enumerate(fires_list):
                if fires is None:
                    always |= 1 << j
                else:
                    codes |= fires.astype(np.int64) << j
            combos = {
                int(code): (
                    [
                        targets[j]
                        if (always >> j) & 1 or (code >> j) & 1
                        else None
                        for j in range(len(instrs))
                    ],
                    cost,
                )
                for code in np.unique(codes)
            }
            for code, t in zip(codes.tolist(), ts.tolist()):
                site_plan[t] = combos[code]

    if len(site_pos):
        sel = site_pos if reset_local is None else site_pos[
            site_pos >= reset_local
        ]
        executed = int(ctx.row_nexec[rows[sel]].sum())
    else:
        executed = 0

    if reset_local is None:
        l1i_accesses = int(view.line_counts[rows].sum())
        program_instructions = int(view.instruction_counts[rows].sum())
    else:
        l1i_accesses = int(view.line_counts[rows[reset_local:]].sum())
        program_instructions = int(
            view.instruction_counts[rows[reset_local:]].sum()
        )

    return {
        "reset_local": reset_local,
        "site_plan": site_plan,
        "suppressed": suppressed,
        "executed": executed,
        "tp": tp,
        "fp": fp,
        "new_hashed": new_hashed,
        "l1i_accesses": l1i_accesses,
        "program_instructions": program_instructions,
    }


def _plan_stats(
    ctx: PlanContext, carry: PlanCarry, stats: SimStats
) -> SimStats:
    """Write the counters of *carry* into *stats* (cleared first) — the
    stats the replay would report if it ended at the carry's
    position."""
    stats.clear()
    stats.l1i_accesses = carry.l1i_accesses
    stats.l1i_misses = carry.sim_misses
    stats.frontend_stall_cycles = carry.frontend_stalls
    stats.late_prefetch_hits = carry.late_hits
    stats.late_prefetch_stall_cycles = carry.late_stall
    stats.prefetches_issued = carry.issued
    stats.prefetches_resident = carry.resident
    stats.prefetches_suppressed = carry.suppressed
    stats.prefetch_instructions_executed = carry.executed
    stats.program_instructions = carry.program_instructions
    stats.compute_cycles = (
        carry.program_instructions * ctx.cpi
        + carry.executed * ctx.prefetch_cpi
    )
    # Prefetch usefulness is the L1I's prefetch-hit count, carried in
    # the loop counters (see _install_cache).
    stats.prefetches_useful = carry.l1_ph
    miss_level_counts: Dict[str, int] = {}
    if carry.c2:
        miss_level_counts["l2"] = carry.c2
    if carry.c3:
        miss_level_counts["l3"] = carry.c3
    if carry.cm:
        miss_level_counts["memory"] = carry.cm
    stats.miss_level_counts = miss_level_counts
    return stats


# ---------------------------------------------------------------------------
# The kernel: PlanBatch
# ---------------------------------------------------------------------------
#
# Every columnar replay runs here.  A single simulation is a
# one-slot batch; a sweep puts V compiled plan variants into V slots
# that share one pass over each shard.  An engine-less slot has an
# empty site table, so its phase A is the plain L1I demand sweep, it
# never pops an in-flight line (and so never reruns), and its phase C
# is the reference fold of instruction time and miss stalls.  Every
# *decision* that feeds the sequential core loop is precomputed with
# arrays (:func:`_plan_shard_precompute`):
#
#   * conditional fire/suppress outcomes come from a vectorized
#     counting-Bloom model: per-block contribution vectors, prefix sums,
#     and sliding-window (LBR-depth) counter values as prefix-sum
#     differences, evaluated at each site occurrence;
#   * exact-context (Fig. 21) ground truth comes from per-block
#     occurrence arrays and ``searchsorted`` window membership;
#   * coalescing targets are compiled per site once
#     (:meth:`PrefetchPlan.compiled_sites`);
#   * the data-traffic stream is bulk-decoded from raw MT19937 words.
#
# What remains sequential splits into three phases, so the expensive
# one runs lane-vectorized across every slot at once:
#
#   A. per-slot decision replay (Python): prefetch-issue decisions, the
#      full L1I demand sweep and the in-flight map.  Each issue decision
#      reads the L1 residency its own earlier prefetches produced, but
#      touches no timing float and no L2/L3 state.  Phase A emits the
#      slot's L2-bound event stream (prefetch queries and demand misses)
#      plus a timing-event stream for phase C.
#   B. lane-vectorized L2/L3 sweeps (NumPy): every (slot, set) pair is
#      one lane of a timestamp-LRU array; one round of the sweep
#      advances every slot's sets together, so the per-round Python
#      overhead is amortized across the whole batch.
#   C. per-slot timing fold (Python): replays the reference loop's
#      float operations in the identical order, using the per-event hit
#      levels phase B produced, so equality is exact, never approximate.
#
# Exactness rests on two facts about the reference loop:
#
#   * cache/engine *state* evolution is timing-independent except at
#     one point: a demand access that pops a still-in-flight line and
#     misses the L1 takes the reference's late path — it counts an L1
#     miss, fills nothing, sends nothing to L2/L3 and stalls until the
#     arrival.  Phase A speculates every such pop on time and phase C
#     checks the speculation against the real arrival.  A slot whose
#     check fails restores its shard-start L1 carry and in-flight map,
#     drops its swept L2/L3 lanes uncommitted, and reruns the shard with
#     that pop on the late path.  The rerun is identical up to that
#     pop, so each pass fixes the earliest error and a shard takes at
#     most (late pop-misses + 1) passes.
#   * in-flight insertion is unconditional: every fill level's latency
#     is positive (:class:`MachineParams` rejects any other), so
#     arrival = start + penalty > now always.
#
# The timestamp LRU encodes recency as float64 stamps: demand touches
# use fresh integer stamps, prefetch depth-`pd` insertions the midpoint
# of the two rank-adjacent stamps.  A midpoint that would degenerate
# onto a neighbour (after ~50 same-depth prefetch fills into one set
# with no demand touch) first renumbers that lane's stamps to integer
# ranks — LRU needs only their order — so every insertion is exact.

_TS_EMPTY = -1.0e18  # unoccupied-way sentinel, below any reachable stamp
_TS_OCCUPIED = -1.0e17  # stamps above this mark an occupied way


class _LaneCache:
    """Slot-stacked set-associative LRU state for one cache level.

    Lane ``v * num_sets + s`` holds slot *v*'s set *s*.  Recency is a
    float64 timestamp per way (larger = more recent); ``fill`` counts
    occupied ways and ``touched`` marks lanes that saw any event, which
    for L2/L3 is exactly the reference's materialized-set criterion
    (every reference materialization is followed by a fill).
    """

    __slots__ = (
        "num_sets", "ways", "pd", "n_lanes",
        "lines", "ts", "pend", "fill", "touched", "ts_base",
    )

    def __init__(self, n_slots: int, num_sets: int, ways: int, pd: int):
        n_lanes = n_slots * num_sets
        self.num_sets = num_sets
        self.ways = ways
        self.pd = pd
        self.n_lanes = n_lanes
        self.lines = np.full((n_lanes, ways), -1, dtype=np.int64)
        self.ts = np.full((n_lanes, ways), _TS_EMPTY, dtype=np.float64)
        self.pend = np.zeros((n_lanes, ways), dtype=bool)
        self.fill = np.zeros(n_lanes, dtype=np.int64)
        self.touched = np.zeros(n_lanes, dtype=bool)
        self.ts_base = 0.0

    def commit(self, swept: tuple, keep: np.ndarray) -> None:
        """Write back the lanes :func:`_lane_sweep` advanced, for the
        slots whose *keep* flag is set; other slots' lanes stay as they
        were before the sweep."""
        lane_ids, lines, ts, pend, fill = swept
        sel = keep[lane_ids // self.num_sets]
        ids = lane_ids[sel]
        self.lines[ids] = lines[sel]
        self.ts[ids] = ts[sel]
        self.pend[ids] = pend[sel]
        self.fill[ids] = fill[sel]
        self.touched[ids] = True

    def export(self, n_slots: int):
        """Every slot's contents in one vectorized pass over the
        occupied ways (a lane fills its ways in index order and never
        frees one): per slot, the touched set indices, their MRU-first
        line lists, and the pending-prefetch lines."""
        ns = self.num_sets
        lanes = np.flatnonzero(self.touched)
        counts = self.fill[lanes]
        row = np.repeat(np.arange(len(lanes)), counts)
        ends = np.cumsum(counts)
        way = np.arange(len(row)) - np.repeat(ends - counts, counts)
        lane = lanes[row]
        order = np.lexsort((-self.ts[lane, way], row))  # by lane, MRU first
        lane = lane[order]
        way = way[order]
        lines = self.lines[lane, way]
        flat = lines.tolist()
        ends = ends.tolist()
        rows = [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]
        sets = (lanes % ns).tolist()
        edges = np.searchsorted(lanes, np.arange(n_slots + 1) * ns).tolist()
        pend = self.pend[lane, way]
        pend_lines = lines[pend].tolist()
        pend_edges = np.searchsorted(
            lane[pend], np.arange(n_slots + 1) * ns
        ).tolist()
        return [
            (
                sets[edges[v]:edges[v + 1]],
                rows[edges[v]:edges[v + 1]],
                pend_lines[pend_edges[v]:pend_edges[v + 1]],
            )
            for v in range(n_slots)
        ]

    def load(self, v: int, entries, pend) -> None:
        """Install slot *v*'s contents from MRU-first ``(set, lines)``
        entries (a resumed checkpoint)."""
        base = v * self.num_sets
        for index, recency in entries:
            lane = base + index
            k = len(recency)
            self.lines[lane, :k] = recency
            self.ts[lane, :k] = -1.0 - np.arange(k, dtype=np.float64)
            self.pend[lane, :k] = [line in pend for line in recency]
            self.fill[lane] = k
            self.touched[lane] = True


def _renumber(s_ts: np.ndarray, rows: np.ndarray, ts_now: float) -> None:
    """Replace the occupied stamps of *rows* by consecutive integers
    just below *ts_now*, keeping their order."""
    sub = s_ts[rows]
    ways = sub.shape[1]
    rank = np.argsort(np.argsort(sub, axis=1), axis=1)
    s_ts[rows] = np.where(sub > _TS_OCCUPIED, ts_now - ways + rank, _TS_EMPTY)


def _lane_sweep(cache: _LaneCache, lanes: np.ndarray, lines: np.ndarray,
                kinds: np.ndarray):
    """Sweep one event stream over *cache*'s lanes; return per-event
    outcomes.

    ``kinds``: 0 = data demand, 1 = instruction demand, 2 = prefetch
    query+fill.  Demand semantics: hit → MRU touch, clear pending;
    miss → evict LRU when full, fill at MRU, not pending.  Prefetch
    semantics: hit → no state change; miss → evict LRU when full, fill
    at depth ``pd`` (or the LRU end when shallower), pending.

    Returns ``(hit, pend_cleared, evicted, evicted_pend)``, each
    indexed per event, and the advanced lanes, which
    :meth:`_LaneCache.commit` writes back: the sweep leaves the cache's
    lanes unchanged (only its stamp base advances).
    """
    n = len(lanes)
    hit_out = np.zeros(n, dtype=bool)
    pclr_out = np.zeros(n, dtype=bool)
    ev_out = np.zeros(n, dtype=bool)
    evp_out = np.zeros(n, dtype=bool)
    if not n:
        none = np.empty(0, dtype=np.int64)
        return (hit_out, pclr_out, ev_out, evp_out), (
            none, cache.lines[none], cache.ts[none], cache.pend[none],
            cache.fill[none],
        )

    # Rank the lanes that saw any event by event count, descending.
    # Events pack densely from round 0, so at round r the active lanes
    # are exactly ranks [0, k_r) — every per-round operation below runs
    # on that prefix and total work is proportional to the event count,
    # not lanes x rounds (the L3 stream is sparse over many lanes).
    counts = np.bincount(lanes, minlength=cache.n_lanes)
    used = np.flatnonzero(counts)
    ucounts = counts[used]
    uorder = np.argsort(-ucounts, kind="stable")
    lane_ids = used[uorder]
    rcounts = ucounts[uorder]
    n_used = len(lane_ids)
    maxlen = int(rcounts[0])
    rank_of = np.zeros(cache.n_lanes, dtype=np.int64)
    rank_of[lane_ids] = np.arange(n_used, dtype=np.int64)
    k_r = np.searchsorted(-rcounts, -np.arange(maxlen, dtype=np.int64),
                          side="left")

    order = np.argsort(lanes, kind="stable")
    sl = lanes[order]
    starts = np.zeros(cache.n_lanes + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    within = np.arange(n, dtype=np.int64) - starts[sl]
    rr = rank_of[sl]
    # round-major layout: each round's slice is a contiguous prefix
    # view; only [round, :k_r] cells are ever read, so empty is safe
    cols = np.empty((maxlen, n_used), dtype=np.int64)
    cols[within, rr] = lines[order]
    kmat = np.empty((maxlen, n_used), dtype=np.int8)
    kmat[within, rr] = kinds[order]
    posm = np.empty((maxlen, n_used), dtype=np.int64)
    posm[within, rr] = order

    # rank-ordered working copies of the touched lanes' state
    s_lines = cache.lines[lane_ids]
    s_ts = cache.ts[lane_ids]
    s_pend = cache.pend[lane_ids]
    s_fill = cache.fill[lane_ids]
    ways = cache.ways
    pd = cache.pd
    ts_base = cache.ts_base
    aridx = np.arange(n_used, dtype=np.int64)

    for r in range(maxlen):
        k = int(k_r[r])
        col = cols[r, :k]
        kk = kmat[r, :k]
        eq = s_lines[:k] == col[:, None]
        way_hit = eq.argmax(axis=1)
        hitvec = eq[aridx[:k], way_hit]
        ts_now = ts_base + float(r)
        demand = kk < 2
        p = posm[r, :k]
        hit_out[p] = hitvec

        # demand hits: MRU touch + pending clear
        dhl = np.flatnonzero(demand & hitvec)
        if len(dhl):
            w = way_hit[dhl]
            pclr_out[p[dhl]] = s_pend[dhl, w]
            s_ts[dhl, w] = ts_now
            s_pend[dhl, w] = False

        ml = np.flatnonzero(~hitvec)
        if len(ml):
            # victim bookkeeping (before any overwrite)
            fill_m = s_fill[ml]
            full_m = fill_m >= ways
            victim = s_ts[ml].argmin(axis=1)
            evl = np.flatnonzero(full_m)
            if len(evl):
                ev_out[p[ml[evl]]] = True
                evp_out[p[ml[evl]]] = s_pend[ml[evl], victim[evl]]
            place = np.where(full_m, victim, np.minimum(fill_m, ways - 1))
            dm = demand[ml]

            # demand-miss fills: MRU insert
            dml = ml[dm]
            if len(dml):
                w = place[dm]
                s_lines[dml, w] = col[dml]
                s_ts[dml, w] = ts_now
                s_pend[dml, w] = False

            # prefetch-miss fills: evict-first depth insert
            pml = ml[~dm]
            if len(pml):
                sel = ~dm
                asc = np.sort(s_ts[pml], axis=1)
                # occupied ways *after* the eviction the reference does first
                occ_eff = fill_m[sel] - full_m[sel]
                ts_new = np.full(len(pml), ts_now)
                if pd > 0:
                    ti = np.flatnonzero((occ_eff > 0) & (occ_eff <= pd))
                    if len(ti):
                        # insert at the LRU end: below the post-evict minimum
                        ts_new[ti] = asc[ti, ways - occ_eff[ti]] - 1.0
                    di = np.flatnonzero(occ_eff > pd)
                    if len(di):
                        # between descending ranks pd-1 and pd (both survive
                        # the eviction: rank indices never reach the minimum)
                        upper = asc[di, ways - pd]
                        lower = asc[di, ways - 1 - pd]
                        mid = (upper + lower) * 0.5
                        degen = (mid <= lower) | (mid >= upper)
                        if degen.any():
                            # order-preserving renumbering leaves the
                            # victim way and both neighbours in place
                            fix = pml[di[degen]]
                            _renumber(s_ts, fix, ts_now)
                            asc_fix = np.sort(s_ts[fix], axis=1)
                            mid[degen] = (
                                asc_fix[:, ways - pd] + asc_fix[:, ways - 1 - pd]
                            ) * 0.5
                        ts_new[di] = mid
                w = place[sel]
                s_lines[pml, w] = col[pml]
                s_ts[pml, w] = ts_new
                s_pend[pml, w] = True

            nf = ml[~full_m]
            s_fill[nf] += 1

    cache.ts_base = ts_base + maxlen
    return (
        (hit_out, pclr_out, ev_out, evp_out),
        (lane_ids, s_lines, s_ts, s_pend, s_fill),
    )


#: the PlanCarry counters phase A advances
_PHASE_A_INTS = (
    "sim_misses", "issued", "resident",
    "l1_dh", "l1_dm", "l1_ph", "l1_pf", "l1_pu", "l1_ev",
)


def _save_phase_a(carry: PlanCarry) -> tuple:
    """Everything phase A mutates, copied, for :func:`_restore_phase_a`."""
    return (
        [None if s is None else s[:] for s in carry.l1_sets],
        set(carry.l1_res),
        set(carry.l1_pend),
        dict(carry.inflight),
        len(carry.arrivals),
        tuple(getattr(carry, name) for name in _PHASE_A_INTS),
    )


def _restore_phase_a(carry: PlanCarry, saved: tuple) -> None:
    sets, res, pend, inflight, n_arrivals, ints = saved
    carry.l1_sets = [None if s is None else s[:] for s in sets]
    carry.l1_res = set(res)
    carry.l1_pend = set(pend)
    carry.inflight = dict(inflight)
    del carry.arrivals[n_arrivals:]
    for name, value in zip(_PHASE_A_INTS, ints):
        setattr(carry, name, value)


def _batched_phase_a(ctx: PlanContext, carry: PlanCarry, rows_list: list,
                     site_plan: list, reset_local, late):
    """Per-slot decision replay: issues, the L1I sweep, no timing.

    Mutates the carry's L1 structures and counters exactly as the
    reference does and maintains ``carry.inflight`` as line → issue
    index (issues number on from ``len(carry.arrivals)``).  A pop-miss
    whose issue index is in *late* takes the reference's late path;
    every other pop-miss is speculated on time.  Returns the slot's
    event streams: ``(a_t, a_kind, a_line)`` for phase B (kind 1 =
    instruction demand miss, 2 = prefetch query) and ``(tev_t,
    tev_kind, tev_issue)`` for phase C (kind 0 = pop checked for
    lateness, 1 = pop-miss speculated on time, 2 = plain miss).
    """
    l1_sets = carry.l1_sets
    l1_res = carry.l1_res
    l1_pend = carry.l1_pend
    inflight = carry.inflight
    l1_ns = ctx.l1_ns
    l1_ways = ctx.l1_ways
    pd1 = ctx.pd1
    pairs_list = ctx.pairs_list
    inflight_pop = inflight.pop

    sim_misses = carry.sim_misses
    issued = carry.issued
    resident = carry.resident
    l1_dh, l1_dm, l1_ph = carry.l1_dh, carry.l1_dm, carry.l1_ph
    l1_pf, l1_pu, l1_ev = carry.l1_pf, carry.l1_pu, carry.l1_ev
    boundary = reset_local if reset_local is not None else -1

    a_t: list = []
    a_kind: list = []
    a_line: list = []
    tev_t: list = []
    tev_kind: list = []
    tev_issue: list = []
    ap_t = a_t.append
    ap_kind = a_kind.append
    ap_line = a_line.append
    tp_t = tev_t.append
    tp_kind = tev_kind.append
    tp_issue = tev_issue.append
    n_issues = len(carry.arrivals)

    for t, (row, plan_entry) in enumerate(zip(rows_list, site_plan)):
        if t == boundary:
            sim_misses = issued = resident = 0
            l1_dh = l1_dm = l1_ph = l1_pf = l1_pu = l1_ev = 0

        if plan_entry is not None:
            for targets in plan_entry[0]:
                if targets is None:
                    continue  # suppressed (pre-counted vectorized)
                for line in targets:
                    if line in inflight:
                        resident += 1
                        continue
                    si1 = line % l1_ns
                    s1 = l1_sets[si1]
                    if s1 is None:
                        s1 = []
                        l1_sets[si1] = s1
                    if line in l1_res:
                        resident += 1
                        continue
                    # L2/L3 query + conditional fills: a phase-B event
                    ap_t(t)
                    ap_kind(2)
                    ap_line(line)
                    if len(s1) >= l1_ways:
                        victim = s1.pop()
                        l1_res.discard(victim)
                        l1_ev += 1
                        if victim in l1_pend:
                            l1_pend.discard(victim)
                            l1_pu += 1
                    s1.insert(pd1 if pd1 < len(s1) else len(s1), line)
                    l1_res.add(line)
                    l1_pf += 1
                    l1_pend.add(line)
                    issued += 1
                    inflight[line] = n_issues
                    n_issues += 1

        for line, si1 in pairs_list[row]:
            idx = inflight_pop(line, None)
            s1 = l1_sets[si1]
            if s1 is None:
                s1 = []
                l1_sets[si1] = s1
            elif s1 and s1[0] == line:
                l1_dh += 1
                if line in l1_pend:
                    l1_pend.discard(line)
                    l1_ph += 1
                if idx is not None:
                    tp_t(t)
                    tp_kind(0)
                    tp_issue(idx)
                continue
            elif line in l1_res:
                s1.remove(line)
                s1.insert(0, line)
                l1_dh += 1
                if line in l1_pend:
                    l1_pend.discard(line)
                    l1_ph += 1
                if idx is not None:
                    tp_t(t)
                    tp_kind(0)
                    tp_issue(idx)
                continue
            l1_dm += 1
            tp_t(t)
            if idx is not None and idx in late:
                # the late path: no fill, no L2/L3 event, stall only
                tp_kind(0)
                tp_issue(idx)
                continue
            # L1 miss — on-time speculated when it popped an in-flight
            # line; phase C verifies the arrival actually beat the pop.
            ap_t(t)
            ap_kind(1)
            ap_line(line)
            if idx is not None:
                tp_kind(1)
                tp_issue(idx)
            else:
                tp_kind(2)
                tp_issue(-1)
            if len(s1) >= l1_ways:
                victim = s1.pop()
                l1_res.discard(victim)
                l1_ev += 1
                if victim in l1_pend:
                    l1_pend.discard(victim)
                    l1_pu += 1
            s1.insert(0, line)
            l1_res.add(line)
            sim_misses += 1

    carry.sim_misses = sim_misses
    carry.issued = issued
    carry.resident = resident
    carry.l1_dh, carry.l1_dm, carry.l1_ph = l1_dh, l1_dm, l1_ph
    carry.l1_pf, carry.l1_pu, carry.l1_ev = l1_pf, l1_pu, l1_ev
    return (a_t, a_kind, a_line), (tev_t, tev_kind, tev_issue)


def _batched_timing_fold(ctx: PlanContext, carry: PlanCarry,
                         rows_list: list, site_plan: list, reset_local,
                         iss_t: list, iss_level: list,
                         tev_t: list, tev_kind: list, tev_issue: list,
                         instr_level: list,
                         block_cycles: Optional[list] = None,
                         miss_cycles: Optional[list] = None) -> Optional[int]:
    """Replay the reference loop's float operations in identical order.

    Appends one arrival per issue to ``carry.arrivals`` (indexed by the
    issue indices phase A handed out) and verifies phase A's on-time
    speculation for every pop-miss.  Returns ``None`` once the shard's
    timing is folded into the carry, or the issue index of the earliest
    pop-miss whose line had not yet arrived — the carry's floats are
    then untouched.  Given *block_cycles* and *miss_cycles* lists, it
    appends the cycle each block begins fetching and the cycle each
    phase-B instruction miss completes (the observer's ``on_block`` and
    ``on_miss`` cycles).
    """
    now = carry.now
    busy = carry.busy
    frontend_stalls = carry.frontend_stalls
    late_hits = carry.late_hits
    late_stall = carry.late_stall
    penalty = ctx.penalty
    occupancy = ctx.occupancy
    incr_row = ctx.incr_row
    boundary = reset_local if reset_local is not None else -1
    arrivals = carry.arrivals
    arrivals_append = arrivals.append
    record_block = block_cycles.append if block_cycles is not None else None
    record_miss = miss_cycles.append if miss_cycles is not None else None

    ii = 0
    ni = len(iss_t)
    ti = 0
    nt = len(tev_t)
    il = 0

    for t, row in enumerate(rows_list):
        if record_block is not None:
            record_block(now)
        if t == boundary:
            frontend_stalls = 0.0
            late_hits = 0
            late_stall = 0.0
        plan_entry = site_plan[t]
        if plan_entry is not None:
            while ii < ni and iss_t[ii] == t:
                level = iss_level[ii]
                start = now if now > busy else busy
                busy = start + occupancy[level]
                arrivals_append(start + penalty[level])
                ii += 1
            now += plan_entry[1]
        stall = 0.0
        while ti < nt and tev_t[ti] == t:
            kind = tev_kind[ti]
            if kind == 0:  # pop: pay only the remaining latency if late
                arrival = arrivals[tev_issue[ti]]
                if arrival > now + stall:
                    remainder = arrival - (now + stall)
                    stall += remainder
                    late_hits += 1
                    late_stall += remainder
            else:
                if kind == 1:  # pop-miss: verify the on-time speculation
                    issue = tev_issue[ti]
                    if arrivals[issue] > now + stall:
                        return issue
                level = instr_level[il]
                il += 1
                start = now + stall
                if start < busy:
                    start = busy
                busy = start + occupancy[level]
                stall = (start + penalty[level]) - now
                if record_miss is not None:
                    record_miss(now + stall)
            ti += 1
        if stall:
            frontend_stalls += stall
            now += stall
        now += incr_row[row]

    carry.now = now
    carry.busy = busy
    carry.frontend_stalls = frontend_stalls
    carry.late_hits = late_hits
    carry.late_stall = late_stall
    return None


def _merge_events(a_t: list, a_kind: list, a_line: list,
                  d_lines: np.ndarray, d_t: np.ndarray):
    """One slot's L2 event stream: per block, the slot's own events
    (instruction misses, prefetch queries) precede the block's data
    accesses, as in the reference.  Returns ``(t, kind, line)``."""
    na = len(a_t)
    nd = len(d_t)
    t_m = np.empty(na + nd, dtype=np.int64)
    k_m = np.zeros(na + nd, dtype=np.int8)
    l_m = np.empty(na + nd, dtype=np.int64)
    if na:
        at = np.asarray(a_t, dtype=np.int64)
        a_pos = np.arange(na, dtype=np.int64) + np.searchsorted(
            d_t, at, side="left"
        )
        t_m[a_pos] = at
        k_m[a_pos] = np.asarray(a_kind, dtype=np.int8)
        l_m[a_pos] = np.asarray(a_line, dtype=np.int64)
        d_pos = np.arange(nd, dtype=np.int64) + np.searchsorted(
            at, d_t, side="right"
        )
    else:
        d_pos = np.arange(nd, dtype=np.int64)
    t_m[d_pos] = d_t
    l_m[d_pos] = d_lines
    return t_m, k_m, l_m


class _BatchSlot:
    """One simulation's state inside a :class:`PlanBatch`.

    ``events`` collects the slot's per-shard :class:`ReplayEvents` when
    the batch records them, else it is ``None``."""

    __slots__ = ("index", "core", "ctx", "carry", "events")

    def __init__(self, index, core, ctx, record_events):
        self.index = index
        self.core = core
        self.ctx = ctx
        self.carry = PlanCarry(ctx)
        self.events = [] if record_events else None


class PlanBatch:
    """Shared-pass replay of V simulators, one slot each.

    *cores* are :class:`~repro.sim.cpu.CoreSimulator` instances over
    one program and machine that the kernel can reconstruct from
    scratch: a pristine hierarchy and, when a core has a prefetch
    engine, a pristine engine (:mod:`repro.sim.streaming` checks this).
    A core without an engine is an engine-less slot.
    Feed trace shards through :meth:`run_shard`, then :meth:`finish`
    writes every slot's stats, hierarchy and engine state.  With
    ``record_events`` each slot also keeps its observer view per shard
    in ``slot.events``, and :meth:`finish` writes back only the stats:
    a recording batch serves the profiler's recorded replay
    (:func:`~repro.sim.streaming.stream_replay_events`), whose private
    simulators are discarded unread.  No slot can fail once built;
    mixed prefetch insertion depths, which the shared lanes cannot
    hold, are rejected here with a ``ValueError``.
    """

    def __init__(self, cores, record_events: bool = False):
        program = cores[0].program
        machine = self.machine = cores[0].machine
        self.record_events = record_events
        self.view = columnar_view(program)
        self.slots = [
            _BatchSlot(
                i, core,
                PlanContext(program, machine, core.engine, core.hierarchy),
                record_events,
            )
            for i, core in enumerate(cores)
        ]
        depths = {(s.ctx.pd1, s.ctx.pd2, s.ctx.pd3) for s in self.slots}
        if len(depths) != 1:
            raise ValueError(
                "a plan batch needs one prefetch insertion depth per "
                f"cache level across its slots, got {sorted(depths)}"
            )
        (_, pd2, pd3), = depths
        n = len(self.slots)
        self.l2 = _LaneCache(n, machine.l2.num_sets, machine.l2.ways, pd2)
        self.l3 = _LaneCache(n, machine.l3.num_sets, machine.l3.ways, pd3)

    def run_shard(self, rows, offset: int = 0, eff: int = 0) -> None:
        """Advance every slot across one trace shard.

        Each internal phase is a ``batch:<phase>`` span on the current
        tracer (observation only — never consulted by the replay)."""
        tracer = get_tracer()
        view = self.view
        n_local = len(rows)
        reset_local = (
            eff - offset if offset <= eff < offset + n_local else None
        )
        rows_list = rows.tolist()
        counts_list = view.instruction_counts[rows].tolist()

        # Per-slot decision tables.
        with tracer.span("batch:precompute"):
            shared_pre: dict = {}
            pres = [
                _plan_shard_precompute(
                    slot.ctx, slot.carry, rows, offset, eff, shared=shared_pre
                )
                for slot in self.slots
            ]

        # Shared trace decode: each slot advances its own model, but
        # identical model states hit the decode cache and come back as
        # the same list objects, so the derived arrays are built once.
        with tracer.span("batch:decode"):
            d_arrays: Dict[int, tuple] = {}
            data = []
            for slot in self.slots:
                dl, dc = _decode_data_stream(slot.core.data_traffic, counts_list)
                entry = d_arrays.get(id(dl))
                if entry is None:
                    d_lines = np.asarray(dl, dtype=np.int64)
                    d_t = np.repeat(
                        np.arange(n_local, dtype=np.int64),
                        np.asarray(dc, dtype=np.int64),
                    ) if dl else np.empty(0, dtype=np.int64)
                    entry = (dl, d_lines, d_t)
                    d_arrays[id(dl)] = entry
                data.append(entry[1:])

        saved = [_save_phase_a(slot.carry) for slot in self.slots]
        late = [set() for _ in self.slots]
        pending = self.slots
        while pending:
            pending = self._pass(
                tracer, pending, pres, data, rows, rows_list, offset,
                reset_local, saved, late,
            )

        for slot, pre in zip(self.slots, pres):
            carry = slot.carry
            ctx = slot.ctx
            # Vectorized counters follow the loop counters' since-last-
            # reset convention: the shard holding the reset replaces
            # the carry with its post-reset counts, others add theirs.
            if reset_local is None:
                carry.suppressed += pre["suppressed"]
                carry.executed += pre["executed"]
                carry.l1i_accesses += pre["l1i_accesses"]
                carry.program_instructions += pre["program_instructions"]
            else:
                carry.suppressed = pre["suppressed"]
                carry.executed = pre["executed"]
                carry.l1i_accesses = pre["l1i_accesses"]
                carry.program_instructions = pre["program_instructions"]
            # Fig. 21 engine counters never reset at the warmup boundary.
            carry.tp += pre["tp"]
            carry.fp += pre["fp"]
            if ctx.tracker is not None:
                carry.tracker_tail = (
                    carry.tracker_tail + pre["new_hashed"]
                )[-ctx.depth:]
            if ctx.exact_hist is not None and ctx.exact_depth:
                ids_tail = view.block_ids[rows[-ctx.exact_depth:]].tolist()
                carry.exact_tail = (
                    carry.exact_tail + ids_tail
                )[-ctx.exact_depth:]
            # Only lines still in flight need their arrival times.
            arrivals = carry.arrivals
            carry.arrivals = [arrivals[i] for i in carry.inflight.values()]
            carry.inflight = dict(
                zip(carry.inflight, range(len(carry.arrivals)))
            )

    def _pass(self, tracer, slots, pres, data, rows, rows_list, offset,
              reset_local, saved, late):
        """Phases A, B and C of one shard (trace rows at global positions
        ``offset ..``) for *slots*; returns the slots that must rerun the
        shard with one more pop on the late path, their shard-start
        state already restored (their L2/L3 lanes are never
        committed)."""
        l2_ns = self.l2.num_sets
        l3_ns = self.l3.num_sets

        # -- phase A + per-slot stream merge -----------------------------
        with tracer.span("batch:phase-a"):
            streams = []
            timing = []
            issued = []
            for slot in slots:
                a_events, tev = _batched_phase_a(
                    slot.ctx, slot.carry, rows_list,
                    pres[slot.index]["site_plan"], reset_local,
                    late[slot.index],
                )
                timing.append(tev)
                issued.append(a_events)
                streams.append(_merge_events(*a_events, *data[slot.index]))

            t2 = np.concatenate([s[0] for s in streams])
            kinds2 = np.concatenate([s[1] for s in streams])
            lines2 = np.concatenate([s[2] for s in streams])
            voff = np.zeros(len(slots) + 1, dtype=np.int64)
            np.cumsum([len(s[0]) for s in streams], out=voff[1:])
            v_of = np.repeat(
                np.asarray([s.index for s in slots], dtype=np.int64),
                np.diff(voff),
            )
            lanes2 = v_of * l2_ns + lines2 % l2_ns

        # -- phase B: L2 sweep, then L3 over the L2 misses ---------------
        with tracer.span("batch:sweep-l2"):
            (hit2, pclr2, ev2, evp2), swept2 = _lane_sweep(
                self.l2, lanes2, lines2, kinds2
            )
        with tracer.span("batch:sweep-l3"):
            miss_idx = np.flatnonzero(~hit2)
            lines3 = lines2[miss_idx]
            kinds3 = kinds2[miss_idx]
            t3 = t2[miss_idx]
            lanes3 = v_of[miss_idx] * l3_ns + lines3 % l3_ns
            (hit3, pclr3, ev3, evp3), swept3 = _lane_sweep(
                self.l3, lanes3, lines3, kinds3
            )

        with tracer.span("batch:fold"):
            # per-event fill level: 1 = L2 hit, 2 = L3 hit, 3 = memory
            level2 = np.where(hit2, 1, 3).astype(np.int64)
            level2[miss_idx[hit3]] = 2
            # slot slices stay contiguous through the miss filter
            voff3 = np.searchsorted(miss_idx, voff)

            rerun = []
            keep = np.ones(len(self.slots), dtype=bool)
            for pos, slot in enumerate(slots):
                carry = slot.carry
                s2 = slice(int(voff[pos]), int(voff[pos + 1]))
                s3 = slice(int(voff3[pos]), int(voff3[pos + 1]))

                # -- phase C: the float fold + speculation check --------
                k_v = kinds2[s2]
                pf_sel = k_v == 2
                tev_t, tev_kind, tev_issue = timing[pos]
                record = slot.events is not None
                block_cycles = [] if record else None
                miss_cycles = [] if record else None
                late_issue = _batched_timing_fold(
                    slot.ctx, carry, rows_list,
                    pres[slot.index]["site_plan"], reset_local,
                    t2[s2][pf_sel].tolist(), level2[s2][pf_sel].tolist(),
                    tev_t, tev_kind, tev_issue,
                    level2[s2][k_v == 1].tolist(),
                    block_cycles, miss_cycles,
                )
                if late_issue is not None:
                    late[slot.index].add(late_issue)
                    _restore_phase_a(carry, saved[slot.index])
                    keep[slot.index] = False
                    rerun.append(slot)
                    continue
                if record:
                    slot.events.append(_replay_events(
                        self.view, rows, offset, issued[pos],
                        block_cycles, miss_cycles,
                    ))
                _fold_level_counters(
                    carry, reset_local, t2[s2], k_v,
                    hit2[s2], pclr2[s2], ev2[s2], evp2[s2], "l2",
                )
                _fold_level_counters(
                    carry, reset_local, t3[s3], kinds3[s3],
                    hit3[s3], pclr3[s3], ev3[s3], evp3[s3], "l3",
                )
            self.l2.commit(swept2, keep)
            self.l3.commit(swept3, keep)
            return rerun

    def finish(self) -> None:
        """Write every slot's stats, hierarchy and engine runtime state
        (bit-identical to the reference composition), each level's
        lanes in one vectorized pass."""
        with get_tracer().span("batch:finish"):
            if self.record_events:
                for slot in self.slots:
                    _plan_stats(slot.ctx, slot.carry, slot.core.stats)
                return
            n = len(self.slots)
            l2 = self.l2.export(n)
            l3 = self.l3.export(n)
            for slot in self.slots:
                core = slot.core
                carry = slot.carry
                hierarchy = core.hierarchy
                l1_ids = [i for i, s in enumerate(carry.l1_sets) if s is not None]
                _install_cache(
                    hierarchy.l1i, l1_ids, [carry.l1_sets[i] for i in l1_ids],
                    carry.l1_pend, carry.l1_dh, carry.l1_dm,
                    carry.l1_pf, carry.l1_ph, carry.l1_pu, carry.l1_ev,
                )
                _install_cache(
                    hierarchy.l2, *l2[slot.index],
                    carry.l2_dh, carry.l2_dm,
                    carry.l2_pf, carry.l2_ph, carry.l2_pu, carry.l2_ev,
                )
                _install_cache(
                    hierarchy.l3, *l3[slot.index],
                    carry.l3_dh, carry.l3_dm,
                    carry.l3_pf, carry.l3_ph, carry.l3_pu, carry.l3_ev,
                )
                hierarchy.fill_port.busy_until = carry.busy
                _plan_stats(slot.ctx, carry, core.stats)
                if core.engine is not None:
                    core.engine.restore_runtime_state(
                        _inflight_arrivals(carry),
                        list(carry.tracker_tail),
                        list(carry.exact_tail),
                        carry.tp,
                        carry.fp,
                    )


def _replay_events(view, rows, offset, issued, block_cycles, miss_cycles):
    """One shard's observer view: phase A's instruction misses (kind 1
    of its L2-bound events, in stream order) with phase C's cycles."""
    a_t, a_kind, a_line = issued
    miss = np.asarray(a_kind, dtype=np.int8) == 1
    miss_t = np.asarray(a_t, dtype=np.int64)[miss]
    return ReplayEvents(
        block_cycles=np.asarray(block_cycles, dtype=np.float64),
        miss_trace_index=miss_t + offset,
        miss_block_ids=view.block_ids[rows[miss_t]],
        miss_lines=np.asarray(a_line, dtype=np.int64)[miss],
        miss_cycles=np.asarray(miss_cycles, dtype=np.float64),
    )


def _inflight_arrivals(carry: PlanCarry) -> Dict[int, float]:
    """The in-flight map as line -> arrival cycle."""
    arrivals = carry.arrivals
    return {line: arrivals[i] for line, i in carry.inflight.items()}


def _fold_level_counters(carry, reset_local, t_v, k_v, hit_v, pclr_v,
                         ev_v, evp_v, prefix):
    """Apply one level's event outcomes to the carry counters with
    the loop's since-last-reset convention."""
    if reset_local is not None:
        post = t_v >= reset_local
        dh = int((hit_v & (k_v < 2) & post).sum())
        ph = int((pclr_v & post).sum())
        dm = int((~hit_v & (k_v < 2) & post).sum())
        pf = int((~hit_v & (k_v == 2) & post).sum())
        ev = int((ev_v & post).sum())
        pu = int((evp_v & post).sum())
        ch = int((hit_v & (k_v == 1) & post).sum())
        cmiss = int((~hit_v & (k_v == 1) & post).sum())
    else:
        k_dem = k_v < 2
        dh = int((hit_v & k_dem).sum())
        ph = int(pclr_v.sum())
        dm = int((~hit_v & k_dem).sum())
        pf = int((~hit_v & (k_v == 2)).sum())
        ev = int(ev_v.sum())
        pu = int(evp_v.sum())
        ch = int((hit_v & (k_v == 1)).sum())
        cmiss = int((~hit_v & (k_v == 1)).sum())
    if prefix == "l2":
        if reset_local is not None:
            carry.l2_dh, carry.l2_ph, carry.l2_dm = dh, ph, dm
            carry.l2_pf, carry.l2_ev, carry.l2_pu = pf, ev, pu
            carry.c2 = ch
        else:
            carry.l2_dh += dh
            carry.l2_ph += ph
            carry.l2_dm += dm
            carry.l2_pf += pf
            carry.l2_ev += ev
            carry.l2_pu += pu
            carry.c2 += ch
    else:
        if reset_local is not None:
            carry.l3_dh, carry.l3_ph, carry.l3_dm = dh, ph, dm
            carry.l3_pf, carry.l3_ev, carry.l3_pu = pf, ev, pu
            carry.c3, carry.cm = ch, cmiss
        else:
            carry.l3_dh += dh
            carry.l3_ph += ph
            carry.l3_dm += dm
            carry.l3_pf += pf
            carry.l3_ev += ev
            carry.l3_pu += pu
            carry.c3 += ch
            carry.cm += cmiss

"""Batched sweep benchmark: one V-wide plan batch vs V one-slot batches.

Every plan replay runs on one kernel (``PlanBatch``); a single
simulation is a one-slot batch.  This benchmark times a fig18-style
five-variant minimum-distance sweep on the wordpress workload two
ways — five independent ``CoreSimulator.run`` replays (five one-slot
batches) against one five-slot ``run_plan_batch`` pass over the same
trace — and asserts the batch's contract along the way: every
variant's statistics, final cache residency, and engine state are
``==`` the per-variant run, both whole-trace and composed with
``--shard-insns`` streaming.

Honesty note — the recorded speedup is a real measured wall-clock
ratio, best-of-N both sides (interleaved), with the batch's own
measured phase decomposition alongside: the seconds of its
``batch:<phase>`` spans, recorded by a live tracer on both sides.
Both sides run the same kernel, so the ratio measures only what a
wider batch shares: the trace decode, the Bloom-filter window
reconstruction, the per-round overhead of the lane-vectorized L2/L3
sweeps, and the one vectorized
write-back.
Phase A (the prefetch-issue / L1 decision walk, pure Python because
its control flow is data-dependent per variant) and the float timing
fold (kept as a sequential ``+=`` chain because float associativity is
exactly what bit-identity forbids reordering) scale linearly with the
variant count on both sides of the ratio, bounding the win.  The JSON
records both the ratio and the decomposition so a future reader can
see exactly which slice any further optimization must attack.
"""

from __future__ import annotations

import sys
import time

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.analysis.reporting import render_table
from repro.core.config import DEFAULT_CONFIG
from repro.obs.trace import Tracer, summarize, use_tracer
from repro.sim.cpu import CoreSimulator
from repro.sim.streaming import run_plan_batch

from .conftest import write_json, write_result

APP = "wordpress"
MINIMA = (5, 13, 27, 54, 108)
REPEATS = 5
SHARD_INSNS = 200_000

#: regression floor for the measured V-wide / one-slot ratio.  When
#: this definition was introduced, fourteen interleaved best-of-3 and
#: best-of-5 readings on a 2-vCPU host spread from 0.95x to 1.22x
#: (median 1.09x): a wider batch shares only its decode, Bloom windows
#: and sweep rounds, and the host's speed swings by more than that.
#: The floor sits one quartile spread below the lowest reading, so it
#: catches a batch that has become slower than one-slot replays, not
#: host noise.  The committed ratio itself is guarded by
#: scripts/bench_diff.py at 0.9x.
SPEEDUP_FLOOR = 0.9


def _snapshot(core):
    levels = {}
    for name in ("l1i", "l2", "l3"):
        cache = getattr(core.hierarchy, name)
        levels[name] = (
            {s: list(st._stack) for s, st in cache._sets.items()},
            sorted(cache._pending_prefetched),
        )
    engine = core.engine
    return (
        core.stats,
        levels,
        core.hierarchy.fill_port.busy_until,
        dict(engine.inflight),
        engine.true_positive_firings,
        engine.false_positive_firings,
    )


def _solo_pass(program, evaluation, plans, warmup, shard_insns=None):
    snaps = []
    with use_tracer(Tracer()):
        t0 = time.perf_counter()
        for plan in plans:
            core = CoreSimulator(
                program, plan=plan, data_traffic=evaluation._eval_data_traffic()
            )
            core.run(
                evaluation.eval_trace, warmup=warmup, shard_insns=shard_insns
            )
            assert core.last_replay_backend == "columnar-plan"
            snaps.append(_snapshot(core))
        elapsed = time.perf_counter() - t0
    return elapsed, snaps


def _batched_pass(program, evaluation, plans, warmup, shard_insns=None):
    cores = [
        CoreSimulator(
            program, plan=plan, data_traffic=evaluation._eval_data_traffic()
        )
        for plan in plans
    ]
    tracer = Tracer()
    with use_tracer(tracer):
        t0 = time.perf_counter()
        reasons = run_plan_batch(
            cores, evaluation.eval_trace, warmup=warmup,
            shard_insns=shard_insns,
        )
        elapsed = time.perf_counter() - t0
    assert reasons == [None] * len(plans), reasons
    phases = {
        name.partition(":")[2]: entry.seconds
        for name, entry in summarize(tracer.snapshot()).stages.items()
        if name.startswith("batch:")
    }
    return elapsed, [_snapshot(c) for c in cores], phases


def test_batched_sweep(results_dir):
    evaluation = Evaluator(ExperimentSettings.medium())[APP]
    program = evaluation.app.program
    warmup = evaluation.settings.warmup
    plans = [
        evaluation.ispy_plan(
            DEFAULT_CONFIG.with_window(m, DEFAULT_CONFIG.max_prefetch_distance)
        )
        for m in MINIMA
    ]
    blocks = len(evaluation.eval_trace.block_ids)

    with kernel.force_numpy_kernel():
        # warm the decode caches once so neither side pays them
        _solo_pass(program, evaluation, plans[:1], warmup)
        _batched_pass(program, evaluation, plans, warmup)

        # interleaved, so a swing in host speed hits both sides alike
        solo_runs = []
        batch_runs = []
        for _ in range(REPEATS):
            solo_runs.append(_solo_pass(program, evaluation, plans, warmup))
            batch_runs.append(
                _batched_pass(program, evaluation, plans, warmup)
            )
        t_solo, solo_snaps = min(solo_runs, key=lambda r: r[0])
        t_batch, batch_snaps, phases = min(batch_runs, key=lambda r: r[0])

        # the contract: bit-identical per variant, whole-trace...
        assert batch_snaps == solo_snaps

        # ...and composed with sharded streaming
        t_solo_sh, solo_sh = _solo_pass(
            program, evaluation, plans, warmup, shard_insns=SHARD_INSNS
        )
        t_batch_sh, batch_sh, _ = _batched_pass(
            program, evaluation, plans, warmup, shard_insns=SHARD_INSNS
        )
        assert batch_sh == solo_sh
        assert solo_sh == solo_snaps  # sharding is invisible, both sides

    speedup = t_solo / t_batch
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched sweep speedup {speedup:.2f}x fell below the "
        f"{SPEEDUP_FLOOR}x floor"
    )

    shared = {
        k: phases.get(k, 0.0) for k in ("precompute", "decode", "sweep-l2",
                                        "sweep-l3")
    }
    per_variant = {
        k: phases.get(k, 0.0) for k in ("phase-a", "fold", "finish")
    }
    payload = {
        "definition": (
            f"one {len(MINIMA)}-slot PlanBatch pass (run_plan_batch) vs "
            f"{len(MINIMA)} one-slot batches (CoreSimulator.run), same kernel"
        ),
        "host": {"python": sys.version.split()[0]},
        "workload": {
            "app": APP,
            "eval_blocks": blocks,
            "warmup": warmup,
            "variants": len(MINIMA),
            "sweep": {"kind": "fig18-min-distance", "minima": list(MINIMA)},
        },
        "measured": {
            "per_variant_seconds": t_solo,
            "batched_seconds": t_batch,
            "speedup": speedup,
            "sharded": {
                "shard_insns": SHARD_INSNS,
                "per_variant_seconds": t_solo_sh,
                "batched_seconds": t_batch_sh,
                "speedup": t_solo_sh / t_batch_sh,
            },
            "batch_phases": dict(phases),
        },
        "bit_identity": {
            "verified": True,
            "scope": (
                "stats, per-set LRU residency of all three levels, "
                "pending-prefetch sets, fill-port clock, engine "
                "inflight map and firing counters; whole-trace and "
                f"shard_insns={SHARD_INSNS}"
            ),
        },
        "decomposition_note": (
            "batch_phases (seconds per batch:<phase> span) splits "
            "the batched wall into phases "
            "shared across variants "
            f"({', '.join(sorted(shared))}) and inherently per-variant "
            f"phases ({', '.join(sorted(per_variant))}).  Both sides "
            "run the same kernel (the per-variant side is one-slot "
            "batches), so the ratio is what a wider batch shares; "
            "phase A (data-dependent Python decision walk) and the "
            "sequential float timing fold cannot be shared or "
            "reordered without breaking bit-identity, and they scale "
            "with the variant count on both sides of the ratio."
        ),
    }
    write_json(results_dir, "batched_sweep", payload)

    rows = [
        {
            "configuration": f"one-slot batches x{len(MINIMA)}",
            "wall_s": round(t_solo, 3),
            "speedup": "1.00x",
        },
        {
            "configuration": f"one {len(MINIMA)}-slot batch",
            "wall_s": round(t_batch, 3),
            "speedup": f"{speedup:.2f}x",
        },
        {
            "configuration": f"per-variant, shard_insns={SHARD_INSNS}",
            "wall_s": round(t_solo_sh, 3),
            "speedup": "",
        },
        {
            "configuration": f"batched, shard_insns={SHARD_INSNS}",
            "wall_s": round(t_batch_sh, 3),
            "speedup": f"{t_solo_sh / t_batch_sh:.2f}x",
        },
    ]
    table = render_table(
        rows,
        title=(
            f"batched sweep ({APP}, {len(MINIMA)} variants, "
            "bit-identity verified)"
        ),
    )
    write_result(results_dir, "batched_sweep", table)

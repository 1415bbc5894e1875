"""End-to-end pipeline smoke benchmark: columnar kernel vs reference.

Times the profile → plan → simulate → plan-replay pipeline twice —
once on the pure-Python reference paths, once on the columnar NumPy
kernel (plan-free replay takes the ``columnar`` backend, plan-bearing
replay the ``columnar-plan`` backend) — and
records both the human-readable table and a machine-readable
``BENCH_perf_smoke.json`` (stage seconds, blocks/sec, speedups) so the
perf trajectory is tracked across PRs.

Workload synthesis and trace generation are performed once, outside
the timed region: they are input preparation shared verbatim by both
backends (the harness's own spans make the same cut: synthesis is
``app:synthesize``, outside every replay span).  The two backends
produce bit-identical profiles, plans and statistics — that
equivalence is asserted here as well as in the differential test
suite — so this benchmark measures speed and only speed.
"""

from __future__ import annotations

import time

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.analysis.reporting import render_table
from repro.core.config import DEFAULT_CONFIG
from repro.core.ispy import build_ispy_plan
from repro.profiling.profiler import profile_execution
from repro.sim.cpu import CoreSimulator

from .conftest import write_json, write_result

SETTINGS = ExperimentSettings()
REPEATS = 3
STAGES = ("profile", "plan", "simulate", "plan_replay")


def _pipeline_seconds(evaluation, backend) -> tuple:
    """One timed profile→plan→simulate→plan-replay run.

    Returns the per-stage seconds, the plan, the plan-free and
    plan-bearing stats, and the replay backends the two simulate
    stages actually used (``CoreSimulator.last_replay_backend``).
    """
    app = evaluation.app
    profile_trace = app.trace(SETTINGS.profile_length)
    eval_trace = evaluation.eval_trace
    with backend():
        t0 = time.perf_counter()
        profile = profile_execution(
            app.program, profile_trace, data_traffic=app.data_traffic()
        )
        t1 = time.perf_counter()
        plan = build_ispy_plan(app.program, profile, DEFAULT_CONFIG).plan
        t2 = time.perf_counter()
        core = CoreSimulator(
            app.program, data_traffic=evaluation._eval_data_traffic()
        )
        stats = core.run(eval_trace, warmup=SETTINGS.warmup)
        t3 = time.perf_counter()
        plan_core = CoreSimulator(
            app.program, plan=plan, data_traffic=evaluation._eval_data_traffic()
        )
        plan_stats = plan_core.run(eval_trace, warmup=SETTINGS.warmup)
        t4 = time.perf_counter()
    seconds = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
    backends = (core.last_replay_backend, plan_core.last_replay_backend)
    return seconds, plan, stats, plan_stats, backends


def test_pipeline_speedup(results_dir):
    evaluation = Evaluator(SETTINGS)["wordpress"]
    backends = {
        "reference": kernel.reference_path,
        "columnar": kernel.force_numpy_kernel,
    }

    best = {name: None for name in backends}
    outputs = {}
    for _ in range(REPEATS):
        for name, backend in backends.items():
            seconds, plan, stats, plan_stats, used = _pipeline_seconds(
                evaluation, backend
            )
            previous = best[name]
            best[name] = (
                seconds
                if previous is None
                else tuple(min(a, b) for a, b in zip(previous, seconds))
            )
            outputs[name] = (list(plan), stats, plan_stats, used)

    # Same plan, same stats — the backends differ in speed only.
    assert outputs["reference"][0] == outputs["columnar"][0]
    assert outputs["reference"][1] == outputs["columnar"][1]
    assert outputs["reference"][2] == outputs["columnar"][2]
    # ... and each simulate stage ran on the backend it claims.
    assert outputs["reference"][3] == ("reference", "reference")
    assert outputs["columnar"][3] == ("columnar", "columnar-plan")

    totals = {name: sum(seconds) for name, seconds in best.items()}
    speedup = totals["reference"] / totals["columnar"]
    stage_units = {
        "profile": SETTINGS.profile_length,
        "plan": 0,
        "simulate": SETTINGS.eval_length,
        "plan_replay": SETTINGS.eval_length,
    }

    rows = []
    payload = {
        "app": "wordpress",
        "settings": {
            "profile_blocks": SETTINGS.profile_length,
            "eval_blocks": SETTINGS.eval_length,
            "warmup": SETTINGS.warmup,
            "scale": SETTINGS.scale,
        },
        "repeats": REPEATS,
        "stages": {},
        "end_to_end": {
            "reference_seconds": totals["reference"],
            "columnar_seconds": totals["columnar"],
            "speedup": speedup,
        },
    }
    for index, stage in enumerate(STAGES):
        ref = best["reference"][index]
        col = best["columnar"][index]
        units = stage_units[stage]
        payload["stages"][stage] = {
            "reference_seconds": ref,
            "columnar_seconds": col,
            "speedup": ref / col,
            "blocks": units,
            "reference_blocks_per_sec": units / ref if units else None,
            "columnar_blocks_per_sec": units / col if units else None,
        }
        rows.append(
            {
                "stage": stage,
                "reference_s": f"{ref:.3f}",
                "columnar_s": f"{col:.3f}",
                "speedup": f"{ref / col:.2f}x",
                "col_blocks_per_sec": int(units / col) if units else "-",
            }
        )
    rows.append(
        {
            "stage": "end-to-end",
            "reference_s": f"{totals['reference']:.3f}",
            "columnar_s": f"{totals['columnar']:.3f}",
            "speedup": f"{speedup:.2f}x",
            "col_blocks_per_sec": "-",
        }
    )

    write_result(
        results_dir,
        "perf_smoke",
        render_table(
            rows, title="pipeline speedup, columnar vs reference (wordpress)"
        ),
    )
    write_json(results_dir, "perf_smoke", payload)

    # The tentpole acceptance bar: the columnar kernel must at least
    # halve the profile→plan→simulate wall time, and plan-bearing
    # replay itself must clear 2x against the reference loop.
    assert speedup >= 2.0
    assert payload["stages"]["plan_replay"]["speedup"] >= 2.0


def test_replay_throughput(results_dir):
    """Engine-driven replay throughput (plans take ``columnar-plan``)."""
    evaluation = Evaluator(ExperimentSettings.small())["wordpress"]
    trace = evaluation.eval_trace
    blocks = len(trace)

    expected_backend = {
        "no-plan": "columnar",
        "asmdb": "columnar-plan",
        "ispy": "columnar-plan",
    }
    timings = {}
    for mode, plan in (
        ("no-plan", None),
        ("asmdb", evaluation.asmdb_plan()),
        ("ispy", evaluation.ispy_plan()),
    ):
        bench_best = float("inf")
        for _ in range(REPEATS):
            core = CoreSimulator(
                evaluation.app.program,
                plan=plan,
                data_traffic=evaluation._eval_data_traffic(),
            )
            started = time.perf_counter()
            core.run(trace, warmup=evaluation.settings.warmup)
            bench_best = min(bench_best, time.perf_counter() - started)
            if kernel.numpy_enabled():
                assert core.last_replay_backend == expected_backend[mode]
        timings[mode] = bench_best

    rows = [
        {
            "mode": mode,
            "seconds": seconds,
            "blocks_per_sec": int(blocks / seconds),
        }
        for mode, seconds in timings.items()
    ]
    write_result(
        results_dir,
        "replay_throughput",
        render_table(rows, title="replay throughput (wordpress, small)"),
    )

    # sanity floor: even this box should clear a few thousand blocks/sec
    assert all(row["blocks_per_sec"] > 2_000 for row in rows)
    # the no-plan fast path must not be slower than engine-driven
    # replay (10% tolerance for timer noise) — if it is, the fast
    # path has stopped being taken
    assert timings["no-plan"] <= timings["ispy"] * 1.10
    assert timings["no-plan"] <= timings["asmdb"] * 1.10


def test_telemetry_artifacts_and_overhead(results_dir):
    """Traced perf-smoke run: the artifacts CI uploads, plus a bound
    on what span tracing costs the replay hot loop.

    Writes ``BENCH_perf_smoke_trace.jsonl`` (Chrome-trace JSONL) and
    ``BENCH_perf_smoke_manifest.json`` (schema-validated manifest)
    next to ``BENCH_perf_smoke.json``.  The disabled-tracing cost is
    covered by :func:`test_pipeline_speedup` — the pipeline clears its
    speedup bar with the null tracer installed, which is the default
    state every untraced run executes in.
    """
    from repro.obs.manifest import RunManifest
    from repro.obs.trace import NULL_TRACER, Tracer, read_trace, set_tracer, use_tracer
    from repro.runconfig import RunConfig

    settings = ExperimentSettings.small()
    trace_path = results_dir / "BENCH_perf_smoke_trace.jsonl"
    manifest_path = results_dir / "BENCH_perf_smoke_manifest.json"
    try:
        config = RunConfig(
            settings=settings,
            trace_path=trace_path,
            manifest_path=manifest_path,
            command="perf-smoke",
        )
        evaluator = config.evaluator()
        evaluator.prewarm(apps=["wordpress"], variants=("baseline", "ispy"))
        config.finalize(evaluator)
    finally:
        set_tracer(None)

    events = read_trace(trace_path)
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert "run:perf-smoke" in names
    assert "sim:run" in names
    manifest = RunManifest.load(manifest_path)
    assert manifest.validate() == []
    assert "wordpress" in manifest.payload["apps"]

    # Span overhead on the replay hot path: the simulator opens a
    # handful of spans per run, so even a live tracer should cost
    # little; the null tracer is the default and costs less still.
    evaluation = Evaluator(settings)["wordpress"]
    plan = evaluation.ispy_plan()
    trace = evaluation.eval_trace

    def best_replay_seconds(tracer) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            core = CoreSimulator(
                evaluation.app.program,
                plan=plan,
                data_traffic=evaluation._eval_data_traffic(),
            )
            with use_tracer(tracer):
                started = time.perf_counter()
                core.run(trace, warmup=settings.warmup)
                best = min(best, time.perf_counter() - started)
        return best

    null_seconds = best_replay_seconds(NULL_TRACER)
    live_seconds = best_replay_seconds(Tracer())
    write_json(
        results_dir,
        "perf_smoke_telemetry",
        {
            "replay_null_tracer_seconds": null_seconds,
            "replay_live_tracer_seconds": live_seconds,
            "live_tracer_overhead": live_seconds / null_seconds - 1.0,
            "trace_events": len(events),
        },
    )
    # generous bound: a few spans per replay must not halve throughput
    assert live_seconds <= null_seconds * 1.5


def test_sharded_replay_memory_bounded(results_dir, tmp_path):
    """Streaming a >= 8-shard on-disk trace must hold peak replay
    allocation well below the whole-trace columnar path — the point
    of the sharded pipeline — while staying bit-identical.

    Peaks are measured with ``tracemalloc`` around the replay only;
    the in-memory trace and the shard directory are both prepared
    before tracing starts, so the comparison isolates what the replay
    itself allocates (whole-trace lowering + event arrays vs one
    shard's worth at a time).
    """
    import random
    import tracemalloc

    from repro.sim.trace import BlockInfo, BlockTrace, Program, write_trace_shards

    rng = random.Random(2024)
    blocks = []
    address = 0x400000
    for block_id in range(96):
        size = rng.choice((32, 64, 128))
        blocks.append(BlockInfo(block_id, address, size, max(1, size // 4)))
        address += size
    program = Program(blocks, name="shard-memory")
    trace = BlockTrace([rng.randrange(96) for _ in range(200_000)])
    total_insns = trace.instruction_count(program)
    sharded = write_trace_shards(trace, program, tmp_path, total_insns // 12)
    assert sharded.num_shards >= 8

    def replay_peak(replay_trace):
        with kernel.force_numpy_kernel():
            core = CoreSimulator(program)
            tracemalloc.start()
            try:
                stats = core.run(replay_trace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return stats, peak

    whole_stats, whole_peak = replay_peak(trace)
    sharded_stats, sharded_peak = replay_peak(sharded)

    write_json(
        results_dir,
        "shard_memory",
        {
            "trace_blocks": len(trace),
            "num_shards": sharded.num_shards,
            "whole_peak_bytes": whole_peak,
            "sharded_peak_bytes": sharded_peak,
            "reduction": whole_peak / sharded_peak,
        },
    )
    assert sharded_stats == whole_stats
    # the acceptance bar: sharding must bound replay memory — at
    # twelve shards anything under half the whole-trace peak proves
    # the trace is no longer materialized at once
    assert sharded_peak * 2 <= whole_peak

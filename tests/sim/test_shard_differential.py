"""Randomized differential tests: sharded streaming vs whole-trace replay.

Sharding a replay must never change the answer.  For every backend
(reference loop, array, plan) and every shard budget — one
instruction per shard, an awkward prime, one shard for the whole
trace — the sharded run must be ``==`` the whole-trace run:
every statistic, every float, the final cache residency, and the
prefetch engine's runtime state.

Inputs come from the seeded factories in ``tests/conftest.py``; the
seed alone reproduces any failure.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.baselines import ProfileView, ReplayContext, get_prefetcher
from repro.sim.columnar import columnar_view
from repro.sim.cpu import CoreSimulator
from repro.sim.datatraffic import make_data_traffic
from repro.sim.trace import (
    ShardedTrace,
    shard_bounds,
    trace_shard_bounds,
    write_trace_shards,
)

from ..conftest import (
    adversarial_workloads,
    engine_state,
    hierarchy_state,
    make_random_plan,
    make_random_program,
    make_random_trace,
)

#: one instruction (every block its own shard), an awkward prime, and a
#: budget so large the whole trace fits in one shard.
SHARD_SIZES = (1, 37, 10**9)

BACKENDS = ("reference", "columnar")


def _gate(backend):
    return kernel.reference_path if backend == "reference" else (
        kernel.force_numpy_kernel
    )


def _replay(program, trace, backend, plan=None,
            traffic_seed=None, warmup=0, shard_insns=None):
    data_traffic = None
    if traffic_seed is not None:
        data_traffic = make_data_traffic(
            rate_per_instruction=0.05, working_set_kib=64, seed=traffic_seed
        )
    with _gate(backend)():
        core = CoreSimulator(program, plan=plan, data_traffic=data_traffic)
        stats = core.run(trace, warmup=warmup, shard_insns=shard_insns)
    return core, stats


def _assert_sharding_invisible(program, trace, backend, plan=None,
                               traffic_seed=None, warmup=0,
                               shard_sizes=SHARD_SIZES):
    """Whole-trace and every sharded budget agree exactly."""
    whole_core, whole_stats = _replay(
        program, trace, backend, plan=plan,
        traffic_seed=traffic_seed, warmup=warmup,
    )
    for shard_insns in shard_sizes:
        core, stats = _replay(
            program, trace, backend, plan=plan,
            traffic_seed=traffic_seed, warmup=warmup,
            shard_insns=shard_insns,
        )
        context = f"backend={backend} shard_insns={shard_insns}"
        assert stats == whole_stats, context
        assert core.last_replay_backend == whole_core.last_replay_backend, (
            context
        )
        assert hierarchy_state(core) == hierarchy_state(whole_core), context
        assert engine_state(core) == engine_state(whole_core), context
    return whole_stats


class TestBaseline:
    """No plan, no data traffic: the pure L1I replay."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fanout", (1, 4, 16))
    def test_fanout_sweep(self, backend, fanout):
        rng = random.Random(1000 + fanout)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=600, fanout=fanout)
        _assert_sharding_invisible(program, trace, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_blocks", (8, 160))
    def test_miss_density_sweep(self, backend, n_blocks):
        """Small programs fit the L1I (hits), large ones thrash."""
        rng = random.Random(2000 + n_blocks)
        program = make_random_program(rng, n_blocks=n_blocks)
        trace = make_random_trace(rng, n_blocks, length=600)
        _assert_sharding_invisible(program, trace, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warmup_crossing_shard_boundaries(self, backend):
        """The warmup reset lands mid-shard, at a boundary, and after
        the last shard — the carried counters must absorb all three."""
        rng = random.Random(3)
        program = make_random_program(rng, n_blocks=32)
        trace = make_random_trace(rng, 32, length=400)
        for warmup in (1, 37, 399):
            _assert_sharding_invisible(program, trace, backend,
                                       warmup=warmup)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ideal_mode(self, backend):
        """The ``ideal`` zoo member streams its no-prefetch replay: its
        bound is the same at every shard budget."""
        rng = random.Random(4)
        program = make_random_program(rng, n_blocks=64)
        trace = make_random_trace(rng, 64, length=500)
        ideal = get_prefetcher("ideal")
        whole = _assert_sharding_invisible(
            program, trace, backend, warmup=50
        ).ideal_bound()
        for shard_insns in SHARD_SIZES:
            ctx = ReplayContext(warmup=50, shard_insns=shard_insns)
            with _gate(backend)():
                stats = ideal.simulate(ProfileView(program), trace, ctx)
            assert stats == whole, f"shard_insns={shard_insns}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_data_traffic_rng_continuity(self, backend):
        """The data-traffic model's Mersenne Twister must advance
        identically across shard boundaries."""
        rng = random.Random(5)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=500)
        _assert_sharding_invisible(program, trace, backend,
                                   traffic_seed=12345)


class TestPlans:
    """Plan-bearing replay: engine state crosses shard boundaries."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_sites", (4, 12))
    def test_plan_density_sweep(self, backend, n_sites):
        rng = random.Random(6000 + n_sites)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=600, fanout=3)
        plan = make_random_plan(rng, program, n_sites=n_sites)
        _assert_sharding_invisible(program, trace, backend, plan=plan)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plan_with_warmup_and_traffic(self, backend):
        rng = random.Random(7)
        program = make_random_program(rng, n_blocks=64)
        trace = make_random_trace(rng, 64, length=700, fanout=2)
        plan = make_random_plan(rng, program, n_sites=8)
        _assert_sharding_invisible(program, trace, backend, plan=plan,
                                   traffic_seed=999, warmup=100)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_sweep(self, seed):
        """Eight fully random configurations across both backends."""
        rng = random.Random(8000 + seed)
        n_blocks = rng.choice((12, 48, 120))
        program = make_random_program(rng, n_blocks=n_blocks)
        trace = make_random_trace(
            rng, n_blocks, length=rng.choice((300, 800)),
            fanout=rng.choice((1, 2, 4, 16)),
        )
        plan = make_random_plan(rng, program, n_sites=rng.randint(0, 10))
        warmup = rng.choice((0, 53))
        for backend in BACKENDS:
            _assert_sharding_invisible(program, trace, backend, plan=plan,
                                       warmup=warmup)


class TestShardCut:
    """The greedy instruction-budget cut itself."""

    @pytest.mark.parametrize("seed", range(4))
    def test_python_and_columnar_cuts_agree(self, seed):
        rng = random.Random(9000 + seed)
        program = make_random_program(rng, n_blocks=40)
        trace = make_random_trace(rng, 40, length=500)
        view = columnar_view(program)
        rows = view.trace_rows(trace)
        for shard_insns in (1, 7, 37, 1000, 10**9):
            expected = trace_shard_bounds(trace, program, shard_insns)
            assert view.shard_bounds(rows, shard_insns) == expected

    def test_cut_invariants(self):
        rng = random.Random(10)
        counts = [rng.randint(1, 50) for _ in range(300)]
        bounds = shard_bounds(counts, 100)
        # contiguous cover of the whole trace
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(counts)
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        # every shard except possibly the last meets the budget
        for start, stop in bounds[:-1]:
            assert sum(counts[start:stop]) >= 100

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            shard_bounds([1, 2, 3], 0)


class TestOnDiskShards:
    """write_trace_shards / ShardedTrace round trip and replay."""

    def test_round_trip_materializes_identically(self, tmp_path):
        rng = random.Random(11)
        program = make_random_program(rng, n_blocks=32)
        trace = make_random_trace(rng, 32, length=400)
        trace.metadata["note"] = "round-trip"
        sharded = write_trace_shards(trace, program, tmp_path, 50)
        reread = ShardedTrace(tmp_path)
        assert reread.num_shards == sharded.num_shards
        assert reread.bounds == trace_shard_bounds(trace, program, 50)
        materialized = reread.materialize()
        assert materialized.block_ids == trace.block_ids
        assert materialized.metadata == trace.metadata

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_on_disk_replay_with_at_least_eight_shards(
        self, backend, tmp_path
    ):
        """The acceptance bar: a >= 8-shard on-disk trace replays
        bit-identically to the in-memory whole trace, per backend."""
        rng = random.Random(12)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=800, fanout=3)
        plan = make_random_plan(rng, program, n_sites=6)
        total_insns = sum(
            program.block(b).instruction_count for b in trace.block_ids
        )
        sharded = write_trace_shards(
            trace, program, tmp_path, total_insns // 10
        )
        assert sharded.num_shards >= 8

        whole_core, whole_stats = _replay(program, trace, backend, plan=plan)
        with _gate(backend)():
            core = CoreSimulator(program, plan=plan)
            stats = core.run(sharded)
        assert stats == whole_stats
        assert core.last_replay_backend == whole_core.last_replay_backend
        assert hierarchy_state(core) == hierarchy_state(whole_core)
        assert engine_state(core) == engine_state(whole_core)


class TestAdversarialApps:
    """The zoo's stress generators run through the same invariants.

    Hash saturation, Bloom-heavy miss storms and phase-changing call
    chains are exactly the inputs that would expose a sharding bug the
    benign factories miss — so the randomized
    sweep samples them from the shared conftest strategy."""

    @settings(max_examples=8, deadline=None)
    @given(case=adversarial_workloads(), seed=st.integers(0, 2**16))
    def test_sharding_invisible(self, case, seed):
        name, app, trace = case
        plan = make_random_plan(random.Random(seed), app.program, n_sites=5)
        for backend in BACKENDS:
            _assert_sharding_invisible(
                app.program, trace, backend, plan=plan,
                shard_sizes=(37, 10**9),
            )

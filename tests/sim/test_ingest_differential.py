"""Differential tests: ingested external traces through every backend.

The acceptance bar for the ingestion frontend: a ChampSim-style
fixture trace, ingested into the synthesized ``Program`` + block-trace
view and persisted as an on-disk shard directory, must replay
**bit-identically** — every statistic, the final residency of every
cache level, and the prefetch engine's runtime state — across

* the sequential reference loop and the columnar kernel,
* ``--shard-insns`` streaming over the materialized trace,
* the on-disk :class:`ShardedTrace` consumed directly, and
* the plan-batched executor (``run_plan_batch``).

An ingested program is ordinary simulator input; nothing downstream
may be able to tell it was born outside the synthesizer.
"""

from __future__ import annotations

import random

import pytest

from repro import kernel
from repro.sim.cpu import CoreSimulator
from repro.sim.streaming import run_plan_batch

from ..conftest import (
    engine_state,
    hierarchy_state,
    make_random_plan,
)

#: an awkward prime, the fixture's own on-disk budget, one huge shard
SHARD_SIZES = (409, 2048, 10**9)

BACKENDS = ("reference", "columnar")


def _gate(backend):
    return kernel.reference_path if backend == "reference" else (
        kernel.force_numpy_kernel
    )


def _replay(program, trace, backend, plan=None, warmup=0,
            shard_insns=None):
    with _gate(backend)():
        core = CoreSimulator(program, plan=plan)
        stats = core.run(trace, warmup=warmup, shard_insns=shard_insns)
    return core, stats


def _snap(core):
    return (core.stats, hierarchy_state(core), engine_state(core))


def _plan(program, seed=2026, n_sites=8):
    return make_random_plan(random.Random(seed), program, n_sites=n_sites)


class TestIngestedBitIdentity:
    """The ingested fixture is indistinguishable from native input."""

    @pytest.mark.parametrize("with_plan", (False, True))
    def test_backends_agree(self, ingested_fixture, with_plan):
        workload, _ = ingested_fixture
        plan = _plan(workload.program) if with_plan else None
        ref_core, _ = _replay(
            workload.program, workload.trace, "reference", plan=plan
        )
        col_core, _ = _replay(
            workload.program, workload.trace, "columnar", plan=plan
        )
        assert _snap(col_core) == _snap(ref_core)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharding_invisible(self, ingested_fixture, backend):
        workload, _ = ingested_fixture
        plan = _plan(workload.program)
        whole_core, _ = _replay(
            workload.program, workload.trace, backend, plan=plan
        )
        for shard_insns in SHARD_SIZES:
            core, _ = _replay(
                workload.program, workload.trace, backend, plan=plan,
                shard_insns=shard_insns,
            )
            context = f"backend={backend} shard_insns={shard_insns}"
            assert _snap(core) == _snap(whole_core), context

    @pytest.mark.parametrize("with_plan", (False, True))
    def test_on_disk_shards_replay_identically(
        self, ingested_fixture, with_plan
    ):
        """The persisted shard directory is a drop-in for the trace
        it was written from (same greedy budget)."""
        workload, sharded = ingested_fixture
        assert sharded.num_shards > 1
        plan = _plan(workload.program) if with_plan else None
        seq_core, _ = _replay(
            workload.program, workload.trace, "columnar", plan=plan,
            shard_insns=2048,
        )
        disk_core, _ = _replay(
            workload.program, sharded, "columnar", plan=plan
        )
        assert _snap(disk_core) == _snap(seq_core)

    def test_plan_batch(self, ingested_fixture):
        """A sweep-style variant set over the ingested program batches
        cleanly and lands on the per-variant reference answers."""
        workload, _ = ingested_fixture
        plans = [
            _plan(workload.program, seed=seed, n_sites=sites)
            for seed, sites in ((1, 3), (2, 6), (3, 9))
        ]
        expected = []
        for plan in plans:
            core, _ = _replay(
                workload.program, workload.trace, "reference", plan=plan
            )
            expected.append(_snap(core))
        cores = [
            CoreSimulator(workload.program, plan=plan) for plan in plans
        ]
        with kernel.force_numpy_kernel():
            reasons = run_plan_batch(cores, workload.trace)
        assert reasons == [None, None, None]
        for core in cores:
            assert core.last_replay_backend == "columnar-plan"
        assert [_snap(core) for core in cores] == expected

    def test_acceptance_matrix(self, ingested_fixture):
        """The headline guarantee in one table: sequential reference,
        sequential columnar, shard-streamed, on-disk shards and
        plan-batched replays of the ingested fixture all produce the
        same snapshot."""
        workload, sharded = ingested_fixture
        program, trace = workload.program, workload.trace
        plan = _plan(program)

        snapshots = {}
        core, _ = _replay(program, trace, "reference", plan=plan,
                          shard_insns=2048)
        snapshots["sequential-reference"] = _snap(core)
        core, _ = _replay(program, trace, "columnar", plan=plan,
                          shard_insns=2048)
        snapshots["sequential-columnar"] = _snap(core)
        core, _ = _replay(program, trace, "columnar", plan=plan,
                          shard_insns=409)
        snapshots["shard-streamed"] = _snap(core)
        core, _ = _replay(program, sharded, "columnar", plan=plan)
        snapshots["on-disk-shards"] = _snap(core)
        core = CoreSimulator(program, plan=plan)
        with kernel.force_numpy_kernel():
            reasons = run_plan_batch([core], trace, shard_insns=2048)
        assert reasons == [None]
        snapshots["plan-batched"] = _snap(core)

        baseline = snapshots["sequential-reference"]
        for label, snap in snapshots.items():
            assert snap == baseline, f"{label} diverged"

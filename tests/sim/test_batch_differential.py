"""Differential tests: plan-batched replay vs per-variant replay.

The batched backend (:func:`repro.sim.streaming.run_plan_batch` over
:class:`repro.sim.array_replay.PlanBatch`) evaluates a whole variant
set in one pass over the trace.  Its contract is exact: every
successfully batched variant must be ``==`` the same variant replayed
on its own — every statistic, the final residency of every cache
level, and the prefetch engine's runtime state — against both the
reference loop and the columnar backend, for every batch width and
shard budget.  Engine-less (no-plan) slots batch like plan slots.  A
variant the kernel cannot take comes back with a traced reason, after
the same call replayed it on the reference loop to the answer its own
``core.run`` gives.  Slots fail only when
the batch is built: a late pop-miss reruns the slot's shard and a
degenerate LRU timestamp renumbers its lane, neither bounces the slot.

Inputs come from the seeded factories in ``tests/conftest.py``; the
seed alone reproduces any failure.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.sim import array_replay
from repro.sim.cpu import CoreSimulator, TraceObserver
from repro.sim.datatraffic import make_data_traffic
from repro.sim.params import MachineParams, line_of
from repro.sim.stats import SimStats
from repro.sim.streaming import run_plan_batch
from repro.sim.trace import BlockTrace

from ..conftest import (
    adversarial_workloads,
    engine_state,
    hierarchy_state,
    make_program,
    make_random_plan,
    make_random_program,
    make_random_trace,
)

#: whole-trace, one block per shard, an awkward prime, one huge shard
SHARD_SIZES = (None, 1, 37, 10**9)

#: batch widths: degenerate singleton batches, pairs, the whole sweep
WIDTHS = (1, 2, None)


def _traffic(seed):
    if seed is None:
        return None
    return make_data_traffic(
        rate_per_instruction=0.05, working_set_kib=64, seed=seed
    )


def _core(program, plan, traffic_seed):
    return CoreSimulator(program, plan=plan, data_traffic=_traffic(traffic_seed))


def _snap(core):
    return (core.stats, hierarchy_state(core), engine_state(core))


def _solo(program, trace, plans, backend, warmup=0, shard_insns=None,
          traffic_seed=None):
    """Per-variant replays through the named sequential backend."""
    gate = (
        kernel.reference_path
        if backend == "reference"
        else kernel.force_numpy_kernel
    )
    snaps = []
    for plan in plans:
        with gate():
            core = _core(program, plan, traffic_seed)
            core.run(trace, warmup=warmup, shard_insns=shard_insns)
        snaps.append(_snap(core))
    return snaps


def _batched(program, trace, plans, width, warmup=0, shard_insns=None,
             traffic_seed=None):
    """Batched replays, the sweep cut into batches of *width*."""
    step = len(plans) if width is None else width
    snaps = []
    for lo in range(0, len(plans), step):
        chunk = plans[lo:lo + step]
        cores = [_core(program, plan, traffic_seed) for plan in chunk]
        # pin the kernel on: the batch requires it, and this helper's
        # assertions are about batching (REPRO_NUMPY_KERNEL=0 runs
        # would otherwise fall back with "kernel-disabled")
        with kernel.force_numpy_kernel():
            reasons = run_plan_batch(
                cores, trace, warmup=warmup, shard_insns=shard_insns
            )
        for core, reason in zip(cores, reasons):
            assert reason is None, f"unexpected fallback: {reason}"
            assert core.last_replay_backend == "columnar-plan"
            snaps.append(_snap(core))
    return snaps


def _plan_set(rng, program):
    """A sweep-like variant set: same program, varying plan density."""
    return [
        make_random_plan(rng, program, n_sites=sites)
        for sites in (2, 5, 8, 11)
    ]


class TestBatchedMatchesSequential:
    """Batched == per-variant, across backends × widths × shards."""

    @pytest.mark.parametrize("shard_insns", SHARD_SIZES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_width_and_shard_grid(self, width, shard_insns):
        rng = random.Random(4242)
        program = make_random_program(rng, n_blocks=64)
        trace = make_random_trace(rng, 64, length=700, fanout=3)
        plans = _plan_set(rng, program)
        reference = _solo(program, trace, plans, "reference",
                          shard_insns=shard_insns)
        columnar = _solo(program, trace, plans, "columnar",
                         shard_insns=shard_insns)
        assert columnar == reference
        batched = _batched(program, trace, plans, width,
                           shard_insns=shard_insns)
        assert batched == reference

    @pytest.mark.parametrize("width", WIDTHS)
    def test_warmup_and_data_traffic(self, width):
        """The warmup reset and the data-traffic RNG stream both land
        identically inside a batch."""
        rng = random.Random(77)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=600, fanout=2)
        plans = _plan_set(rng, program)
        for warmup, shard_insns in ((100, None), (100, 53), (599, None)):
            reference = _solo(program, trace, plans, "reference",
                              warmup=warmup, shard_insns=shard_insns,
                              traffic_seed=999)
            batched = _batched(program, trace, plans, width, warmup=warmup,
                               shard_insns=shard_insns, traffic_seed=999)
            assert batched == reference, (warmup, shard_insns)


class TestFallbacks:
    """Refused cores replay on the reference loop inside the same call;
    the rest still batch."""

    def test_no_plan_and_dirty_engine_slots(self):
        rng = random.Random(11)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=500, fanout=3)
        good = make_random_plan(rng, program, n_sites=6)
        other = make_random_plan(rng, program, n_sites=3)

        def dirty_core():
            core = _core(program, other, None)
            core.run(trace)  # engine state is no longer pristine
            return core

        cores = [
            _core(program, good, None),
            _core(program, None, None),  # an engine-less slot
            dirty_core(),
            _core(program, other, None),
        ]
        with kernel.force_numpy_kernel():
            reasons = run_plan_batch(cores, trace)
        assert reasons[0] is None
        assert reasons[1] is None
        assert reasons[2] == "state-not-pristine"
        assert reasons[3] is None
        assert [core.last_replay_backend for core in cores] == [
            "columnar-plan", "columnar", "reference", "columnar-plan",
        ]

        # the refused slot was replayed by the call itself, exactly as
        # core.run replays a core built the same way
        again = dirty_core()
        with kernel.force_numpy_kernel():
            again.run(trace)
        assert again.last_replay_backend == "reference"
        assert _snap(cores[2]) == _snap(again)

        # the batched slots are exact
        expected = _solo(program, trace, [good, None, other], "reference")
        assert [_snap(cores[i]) for i in (0, 1, 3)] == expected

    def test_kernel_disabled_fails_every_slot(self):
        """With the kernel off every slot is refused, and every slot
        replays on the reference loop."""
        rng = random.Random(12)
        program = make_random_program(rng, n_blocks=24)
        trace = make_random_trace(rng, 24, length=200)
        plans = [make_random_plan(rng, program, n_sites=4) for _ in range(2)]
        cores = [_core(program, plan, None) for plan in plans + [None]]
        with kernel.reference_path():
            reasons = run_plan_batch(cores, trace)
        assert reasons == ["kernel-disabled"] * 3
        assert {core.last_replay_backend for core in cores} == {"reference"}
        expected = _solo(program, trace, plans + [None], "columnar")
        assert [_snap(core) for core in cores] == expected


    def test_observer_takes_a_one_core_call_only(self):
        """An observed core is refused with ``observer`` and replayed on
        the reference loop, hooks and all; a wider call is rejected."""
        rng = random.Random(14)
        program = make_random_program(rng, n_blocks=24)
        trace = make_random_trace(rng, 24, length=200)
        plan = make_random_plan(rng, program, n_sites=4)

        class Blocks(TraceObserver):
            def __init__(self):
                self.seen = []

            def on_block(self, index, block_id, cycle):
                self.seen.append(block_id)

        core, observer = _core(program, plan, None), Blocks()
        with kernel.force_numpy_kernel():
            reasons = run_plan_batch([core], trace, observer=observer)
        assert reasons == ["observer"]
        assert core.last_replay_backend == "reference"
        assert observer.seen == list(trace.block_ids)
        assert [_snap(core)] == _solo(program, trace, [plan], "columnar")
        cores = [_core(program, plan, None) for _ in range(2)]
        with pytest.raises(ValueError, match="one-core"):
            run_plan_batch(cores, trace, observer=Blocks())


class TestNoMidRunFailure:
    """The two states that used to bounce a slot mid-run are replayed
    exactly instead."""

    def test_late_pop_miss_reruns_the_shard(self):
        """A prefetched line evicted from the L1 and demanded before it
        arrives takes the reference's late path.  The 0.75 insertion
        fraction (the replacement-priority ablation's setting) makes
        the small wordpress run hit it."""
        evaluation = Evaluator(ExperimentSettings.small())["wordpress"]
        program = evaluation.app.program
        trace = evaluation.eval_trace
        warmup = evaluation.settings.warmup
        plan = evaluation.ispy_plan()

        def core():
            return CoreSimulator(
                program, plan=plan,
                data_traffic=evaluation.eval_data_traffic(),
                prefetch_insertion_fraction=0.75,
            )

        with kernel.reference_path():
            reference = core()
            reference.run(trace, warmup=warmup)
        batched = core()
        with kernel.force_numpy_kernel():
            reasons = run_plan_batch([batched], trace, warmup=warmup)
        assert reasons == [None]
        assert _snap(batched) == _snap(reference)
        assert batched.stats.late_prefetch_hits > 0

    @staticmethod
    def _colliding_case():
        """Eighty prefetches of distinct lines that all map to one L2
        set and one L3 set no demand access touches: each fill lands
        at the same half-priority depth, halving the timestamp gap it
        is inserted into."""
        machine = MachineParams()
        program = make_program([64] * 8)
        lines = {line_of(block.address) for block in program}
        base = (1 << 20) + machine.l2.num_sets // 2
        assert all(
            (line - base) % machine.l2.num_sets for line in lines
        )
        targets = [base + k * machine.l3.num_sets for k in range(80)]
        plan = PrefetchPlan("collide")
        plan.extend(
            PrefetchInstr(site_block=k % 4, base_line=line)
            for k, line in enumerate(targets)
        )
        sparse = PrefetchPlan("collide-sparse")
        sparse.extend(instr for instr in plan if instr.site_block < 2)
        return program, [plan, sparse], BlockTrace(list(range(8)) * 3)

    @pytest.mark.parametrize("shard_insns", (None, 37))
    @pytest.mark.parametrize("width", (1, 2))
    def test_degenerate_midpoint_renumbers(self, monkeypatch, width,
                                           shard_insns):
        program, plans, trace = self._colliding_case()
        plans = plans[:width]
        expected = _solo(program, trace, plans, "reference",
                         shard_insns=shard_insns)

        def batched():
            cores = [_core(program, plan, None) for plan in plans]
            with kernel.force_numpy_kernel():
                reasons = run_plan_batch(
                    cores, trace, shard_insns=shard_insns
                )
            assert reasons == [None] * width
            return [_snap(core) for core in cores]

        assert batched() == expected

        # ...and the case really reaches a degenerate midpoint
        renumbered = []
        renumber = array_replay._renumber

        def counting(s_ts, rows, ts_now):
            renumbered.append(len(rows))
            renumber(s_ts, rows, ts_now)

        monkeypatch.setattr(array_replay, "_renumber", counting)
        assert batched() == expected
        assert renumbered

    def test_mixed_insertion_depths_rejected_when_built(self):
        rng = random.Random(13)
        program = make_random_program(rng, n_blocks=24)
        trace = make_random_trace(rng, 24, length=100)
        plan = make_random_plan(rng, program, n_sites=4)
        cores = [
            CoreSimulator(program, plan=plan, prefetch_insertion_fraction=f)
            for f in (0.5, 0.75)
        ]
        with kernel.force_numpy_kernel(), pytest.raises(
            ValueError, match="insertion depth"
        ):
            run_plan_batch(cores, trace)
        for core in cores:
            assert core.stats == SimStats()


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_batch_property(data):
    """Randomized plan sets — including ``None`` (engine-less) slots,
    random widths, warmup and shard budgets — are batched whole and
    always reproduce the per-variant reference answers exactly."""
    seed = data.draw(st.integers(0, 2**20), label="seed")
    rng = random.Random(seed)
    n_blocks = data.draw(st.sampled_from((12, 48, 96)), label="n_blocks")
    program = make_random_program(rng, n_blocks=n_blocks)
    trace = make_random_trace(
        rng, n_blocks,
        length=data.draw(st.sampled_from((300, 700)), label="length"),
        fanout=data.draw(st.sampled_from((1, 3, 8)), label="fanout"),
    )
    plans = [
        make_random_plan(rng, program, n_sites=rng.randint(1, 10))
        if data.draw(st.booleans(), label=f"has_plan_{i}")
        else None
        for i in range(data.draw(st.integers(1, 5), label="variants"))
    ]
    warmup = data.draw(st.sampled_from((0, 53)), label="warmup")
    shard_insns = data.draw(st.sampled_from((None, 29)), label="shard")
    traffic_seed = data.draw(st.sampled_from((None, 321)), label="traffic")

    expected = _solo(program, trace, plans, "reference", warmup=warmup,
                     shard_insns=shard_insns, traffic_seed=traffic_seed)

    cores = [_core(program, plan, traffic_seed) for plan in plans]
    with kernel.force_numpy_kernel():
        reasons = run_plan_batch(cores, trace, warmup=warmup,
                                 shard_insns=shard_insns)
    assert reasons == [None] * len(plans)
    for i, (core, plan) in enumerate(zip(cores, plans)):
        assert core.last_replay_backend == (
            "columnar" if plan is None else "columnar-plan"
        ), f"slot {i}"
        assert _snap(core) == expected[i], f"slot {i}"


@settings(max_examples=6, deadline=None)
@given(case=adversarial_workloads(), seed=st.integers(0, 2**16))
def test_adversarial_batch_property(case, seed):
    """The stress generators batch exactly too: a variant pair over a
    hash-saturating / Bloom-heavy / phase-changing app reproduces the
    per-variant reference answers (default LBR depth — the overflow
    bail-out has its own suite in ``tests/workloads``)."""
    name, app, trace = case
    rng = random.Random(seed)
    plans = [
        make_random_plan(rng, app.program, n_sites=rng.randint(2, 6))
        for _ in range(2)
    ]
    expected = _solo(app.program, trace, plans, "reference")
    cores = [_core(app.program, plan, None) for plan in plans]
    with kernel.force_numpy_kernel():
        reasons = run_plan_batch(cores, trace)
    assert reasons == [None, None], name
    assert [_snap(core) for core in cores] == expected, name

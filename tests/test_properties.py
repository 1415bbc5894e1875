"""Cross-module property-based tests.

Hypothesis drives randomized programs, traces and plans through the
full simulator and checks the invariants that hold for *any* input —
the accounting identities every figure ultimately rests on.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.io import ArtifactStore
from repro.sim.cpu import CoreSimulator, simulate
from repro.sim.datatraffic import make_data_traffic
from repro.sim.params import MachineParams
from repro.sim.stats import SimStats
from repro.sim.streaming import StoreCheckpointer
from repro.sim.trace import BlockInfo, BlockTrace, Program

from .conftest import KillAfter as _KillAfter

# -- strategies -------------------------------------------------------------


@st.composite
def programs(draw):
    n_blocks = draw(st.integers(2, 20))
    sizes = draw(
        st.lists(st.integers(8, 200), min_size=n_blocks, max_size=n_blocks)
    )
    blocks = []
    address = 0x400000
    for block_id, size in enumerate(sizes):
        blocks.append(
            BlockInfo(block_id, address, size, max(1, size // 4))
        )
        address += size + draw(st.integers(0, 64))  # optional padding
    return Program(blocks)


@st.composite
def programs_with_traces(draw):
    program = draw(programs())
    ids = program.block_ids()
    length = draw(st.integers(1, 120))
    trace = BlockTrace(
        [ids[draw(st.integers(0, len(ids) - 1))] for _ in range(length)]
    )
    return program, trace


@st.composite
def programs_traces_plans(draw):
    program, trace = draw(programs_with_traces())
    plan = PrefetchPlan()
    n_instrs = draw(st.integers(0, 6))
    ids = program.block_ids()
    lines = sorted(
        {line for bid in ids for line in program.lines_of(bid)}
    )
    for _ in range(n_instrs):
        plan.add(
            PrefetchInstr(
                site_block=ids[draw(st.integers(0, len(ids) - 1))],
                base_line=lines[draw(st.integers(0, len(lines) - 1))],
                bit_vector=draw(st.integers(0, 255)),
            )
        )
    return program, trace, plan


# -- invariants -------------------------------------------------------------


class TestSimulationInvariants:
    @given(programs_with_traces())
    @settings(max_examples=60, deadline=None)
    def test_accesses_equal_lines_fetched(self, case):
        program, trace = case
        stats = simulate(program, trace)
        expected = sum(len(program.lines_of(b)) for b in trace)
        assert stats.l1i_accesses == expected

    @given(programs_with_traces())
    @settings(max_examples=60, deadline=None)
    def test_ideal_never_slower(self, case):
        program, trace = case
        real = simulate(program, trace)
        ideal = real.ideal_bound()
        assert ideal.cycles <= real.cycles
        assert ideal.l1i_misses == 0

    @given(programs_with_traces())
    @settings(max_examples=60, deadline=None)
    def test_cycles_decompose(self, case):
        program, trace = case
        stats = simulate(program, trace)
        assert stats.cycles == stats.compute_cycles + stats.frontend_stall_cycles
        assert stats.frontend_stall_cycles >= 0
        assert stats.program_instructions == trace.instruction_count(program)

    @given(programs_with_traces())
    @settings(max_examples=40, deadline=None)
    def test_misses_bounded_by_accesses(self, case):
        program, trace = case
        stats = simulate(program, trace)
        assert 0 <= stats.l1i_misses <= stats.l1i_accesses
        assert sum(stats.miss_level_counts.values()) == stats.l1i_misses

    @given(programs_with_traces())
    @settings(max_examples=40, deadline=None)
    def test_replay_is_deterministic(self, case):
        program, trace = case
        a = simulate(program, trace)
        b = simulate(program, trace)
        assert a.cycles == b.cycles
        assert a.l1i_misses == b.l1i_misses


class TestPrefetchedSimulationInvariants:
    @given(programs_traces_plans())
    @settings(max_examples=60, deadline=None)
    def test_prefetching_never_crashes_and_accounts(self, case):
        program, trace, plan = case
        stats = simulate(program, trace, plan=plan)
        executed_sites = sum(
            len(plan.at_site(block)) for block in trace
        )
        assert stats.prefetch_instructions_executed == executed_sites
        assert (
            stats.prefetches_useful
            <= stats.prefetches_issued + stats.prefetches_resident
        )

    @given(programs_traces_plans())
    @settings(max_examples=40, deadline=None)
    def test_warmup_region_not_counted(self, case):
        program, trace, plan = case
        warm = len(trace) // 2
        stats = simulate(program, trace, plan=plan, warmup=warm)
        remaining = trace.block_ids[warm:]
        expected = sum(len(program.lines_of(b)) for b in remaining)
        assert stats.l1i_accesses == expected

    @given(programs_traces_plans(), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_any_insertion_fraction_is_sound(self, case, fraction):
        program, trace, plan = case
        stats = simulate(
            program, trace, plan=plan, prefetch_insertion_fraction=fraction
        )
        assert stats.cycles > 0


class TestIdealBound:
    """The ideal I-cache is a projection of the no-prefetch replay: its
    counters are the post-warmup line and instruction counts of the
    program's blocks, whatever the kernel, the cut or the data
    traffic."""

    @given(
        programs_with_traces(),
        st.sampled_from(["none", "inside", "beyond"]),
        st.sampled_from([None, 1, 40]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_is_the_post_warmup_program_counts(
        self, case, warmup_kind, shard_insns, use_kernel, with_traffic
    ):
        program, trace = case
        length = len(trace)
        warmup = {"none": 0, "inside": length // 2, "beyond": length + 3}[
            warmup_kind
        ]
        # a warmup that never ends resets nothing: every block counts
        counted = trace.block_ids[warmup:] if warmup < length else trace.block_ids
        instructions = sum(program.block(b).instruction_count for b in counted)
        machine = MachineParams()
        expected = SimStats(
            compute_cycles=instructions * (1.0 / machine.base_ipc),
            program_instructions=instructions,
            l1i_accesses=sum(len(program.lines_of(b)) for b in counted),
        )
        traffic = make_data_traffic(
            rate_per_instruction=0.05, working_set_kib=64, seed=5
        ) if with_traffic else None
        path = kernel.force_numpy_kernel if use_kernel else kernel.reference_path
        with path():
            stats = CoreSimulator(program, data_traffic=traffic).run(
                trace, warmup=warmup, shard_insns=shard_insns
            )
        assert stats.ideal_bound() == expected

    @given(programs_traces_plans())
    @settings(max_examples=40, deadline=None)
    def test_bound_refuses_a_replay_that_executed_prefetches(self, case):
        program, trace, plan = case
        stats = simulate(program, trace, plan=plan)
        if stats.prefetch_instructions_executed:
            with pytest.raises(ValueError):
                stats.ideal_bound()
        else:
            assert stats.ideal_bound() == simulate(program, trace).ideal_bound()


class TestShardedResumeInvariants:
    """Killing a sharded run after any number of checkpoints and
    re-running it against the same ArtifactStore must produce exactly
    the uninterrupted whole-trace result.

    If the crash lands after the final checkpoint, the first run
    completes and the resume degenerates to a fresh run — also
    required to match, so the property holds for every ``kill_at``.
    """

    @given(programs_traces_plans(), st.integers(1, 6), st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_killed_run_resumes_to_identical_result(
        self, case, kill_at, warmup
    ):
        program, trace, plan = case
        whole = simulate(program, trace, plan=plan, warmup=warmup)

        with tempfile.TemporaryDirectory() as tmp:
            store = ArtifactStore(tmp)
            parts = {"case": "resume-property", "warmup": warmup}
            try:
                CoreSimulator(program, plan=plan).run(
                    trace, warmup=warmup, shard_insns=40,
                    checkpointer=_KillAfter(store, parts, kill_at),
                )
            except KeyboardInterrupt:
                pass
            resumed = CoreSimulator(program, plan=plan).run(
                trace, warmup=warmup, shard_insns=40,
                checkpointer=StoreCheckpointer(store, parts),
            )
        assert resumed == whole

    @given(programs_with_traces(), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_resume_survives_repeated_crashes(self, case, crashes):
        """Crash-resume-crash-resume...: every restart picks up from
        the newest surviving checkpoint and still lands exactly on
        the whole-trace statistics."""
        program, trace = case
        whole = simulate(program, trace)

        with tempfile.TemporaryDirectory() as tmp:
            store = ArtifactStore(tmp)
            parts = {"case": "repeated-crashes"}
            for _ in range(crashes):
                try:
                    CoreSimulator(program).run(
                        trace, shard_insns=25,
                        checkpointer=_KillAfter(store, parts, 1),
                    )
                except KeyboardInterrupt:
                    pass
            resumed = CoreSimulator(program).run(
                trace, shard_insns=25,
                checkpointer=StoreCheckpointer(store, parts),
            )
        assert resumed == whole


class TestMachineInvariants:
    @given(
        programs_with_traces(),
        st.floats(0.5, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_faster_core_never_slower(self, case, ipc):
        program, trace = case
        slow = simulate(program, trace, machine=MachineParams(base_ipc=ipc))
        fast = simulate(
            program, trace, machine=MachineParams(base_ipc=ipc * 2)
        )
        assert fast.cycles <= slow.cycles

"""Property tests for the adversarial workload generators.

Each generator exists to provoke one specific mechanism, so each gets
a property pinning that provocation: ``hash-alias`` must collapse the
16-bit context hash onto its two alias bits, ``bloom-storm`` must drive
one runtime-hash counter to its ``depth + 1`` peak on any LBR depth —
within the tracker's derived counter width, and with every columnar
backend still bit-identical to the reference — and ``phase-chain``
must actually change its instruction footprint between phases.
Registry integration — the three are first-class apps next to the
paper's nine — is pinned here too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.hashing import context_bit_positions, context_mask
from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.sim.cpu import CoreSimulator
from repro.sim.params import line_of
from repro.sim.streaming import run_plan_batch
from repro.workloads.adversarial import (
    ADVERSARIAL_APP_NAMES,
    ALIAS_BITS,
    BLOOM_STORM_BIT,
    HASH_BITS,
    PHASE_COUNT,
    PhasedApp,
    mine_aliased_addresses,
    phase_mix,
)
from repro.workloads.apps import ALL_APP_NAMES, APP_NAMES, get_app

from ..conftest import (
    ADVERSARIAL_TEST_SCALE,
    PeakCounters,
    adversarial_app,
    adversarial_workloads,
    engine_state,
    hierarchy_state,
)


def _positions(program, hash_bits=HASH_BITS):
    """The set of hash-bit positions the program's blocks land on."""
    return {
        context_bit_positions(block.address, hash_bits)[0]
        for block in program
    }


def _conditional_plan(program):
    """A minimal plan with one conditional site, enough to arm the
    runtime-hash tracker."""
    blocks = sorted(program, key=lambda b: b.block_id)
    ctx = (blocks[0].block_id, blocks[1].block_id)
    plan = PrefetchPlan("bloom-probe")
    plan.extend([
        PrefetchInstr(
            site_block=blocks[2].block_id,
            base_line=line_of(blocks[3].address),
            bit_vector=0,
            context_mask=context_mask(
                [program.block(b).address for b in ctx], HASH_BITS
            ),
            context_blocks=ctx,
        )
    ])
    return plan


class TestRegistry:
    """The adversarial roster rides next to the paper's nine apps."""

    def test_paper_roster_untouched(self):
        assert len(APP_NAMES) == 9
        assert ALL_APP_NAMES == APP_NAMES + ADVERSARIAL_APP_NAMES

    @pytest.mark.parametrize("name", ADVERSARIAL_APP_NAMES)
    def test_first_class_apps(self, name):
        app = get_app(name, ADVERSARIAL_TEST_SCALE)
        assert app.spec.name == name
        assert name not in APP_NAMES
        trace = app.trace(100, seed=5)
        assert trace.metadata["app"] == name
        assert len(trace.block_ids) == 100

    @settings(max_examples=10, deadline=None)
    @given(case=adversarial_workloads())
    def test_strategy_traces_stay_in_program(self, case):
        """The shared conftest strategy only ever emits valid input:
        every block id resolves, and the trace self-describes."""
        name, app, trace = case
        valid = set(app.program.block_ids())
        assert set(trace.block_ids) <= valid
        assert trace.metadata["app"] == name


class TestHashAlias:
    """The 16-bit context hash saturates by construction."""

    def test_collapses_to_alias_bits(self):
        app = adversarial_app("hash-alias")
        positions = _positions(app.program)
        assert positions == {3, 11}
        assert len(positions) <= ALIAS_BITS

    def test_collision_rate_exceeds_threshold(self):
        """At 16 hash bits nearly every block collides with another:
        n blocks share ALIAS_BITS positions, so the collision rate is
        1 - distinct/n — far beyond anything a benign layout hits."""
        app = adversarial_app("hash-alias")
        n_blocks = len(app.program)
        rate = 1.0 - len(_positions(app.program)) / n_blocks
        assert rate >= 0.9

    def test_paper_apps_do_not_collide_like_this(self, small_app):
        """Contrast: a paper app's layout spreads across many more
        positions than the adversarial collapse."""
        assert len(_positions(small_app.program)) > 4 * ALIAS_BITS

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_context_mask_is_degenerate(self, data):
        """Any context over hash-alias blocks hashes into the two
        alias bits — distinct contexts are indistinguishable to the
        conditional subset test."""
        app = adversarial_app("hash-alias")
        ids = sorted(app.program.block_ids())
        ctx = data.draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=6),
            label="context",
        )
        mask = context_mask(
            [app.program.block(b).address for b in ctx], HASH_BITS
        )
        allowed = (1 << 3) | (1 << 11)
        assert mask != 0
        assert mask & ~allowed == 0

    @settings(max_examples=10, deadline=None)
    @given(
        count=st.integers(1, 40),
        bit=st.integers(0, HASH_BITS - 1),
    )
    def test_mining_is_sound_and_deterministic(self, count, bit):
        mined = mine_aliased_addresses(count, allowed_bits=(bit,))
        assert mined == mine_aliased_addresses(count, allowed_bits=(bit,))
        assert len(mined) == count
        for address in mined:
            assert context_bit_positions(address, HASH_BITS)[0] == bit


class TestBloomStorm:
    """Every block hits one Bloom counter; deep LBRs widen it."""

    def test_single_bit_saturation(self):
        app = adversarial_app("bloom-storm")
        assert _positions(app.program) == {BLOOM_STORM_BIT}

    def test_default_depth_is_safe(self):
        """The stock 32-deep LBR peaks below the 6-bit counter max, so
        the columnar plan backend serves the replay normally."""
        app = adversarial_app("bloom-storm")
        trace = app.trace(400, seed=1)
        with kernel.force_numpy_kernel():
            core = CoreSimulator(app.program, plan=_conditional_plan(app.program))
            stats = core.run(trace)
        assert core.last_replay_backend == "columnar-plan"
        assert stats.l1i_misses > 0

    @settings(max_examples=6, deadline=None)
    @given(depth=st.integers(33, 256), seed=st.integers(0, 2**10))
    def test_deep_lbr_columnar_matches_reference(self, depth, seed):
        """Past the paper's depth the storm drives the shared counter
        beyond 6 bits; the columnar plan backend still serves the run,
        whole-trace and sharded, bit-identical to the reference."""
        app = adversarial_app("bloom-storm")
        trace = app.trace(400, seed=seed)
        plan = _conditional_plan(app.program)

        def run(shard_insns=None):
            core = CoreSimulator(app.program, plan=plan, lbr_depth=depth)
            stats = core.run(trace, shard_insns=shard_insns)
            return core, (stats, hierarchy_state(core), engine_state(core))

        with kernel.reference_path():
            _, reference = run()
        with kernel.force_numpy_kernel():
            for shard_insns in (None, 1000):
                core, columnar = run(shard_insns)
                assert core.last_replay_backend == "columnar-plan"
                assert columnar == reference, f"shard_insns={shard_insns}"

    @settings(max_examples=6, deadline=None)
    @given(depth=st.integers(33, 256), seed=st.integers(0, 2**10))
    def test_deep_lbr_counters_fit_the_derived_width(self, depth, seed):
        """Every block sets the one storm bit, so its counter peaks at
        depth + 1 once the LBR fills — and never exceeds the width
        the tracker derives from its depth."""
        app = adversarial_app("bloom-storm")
        trace = app.trace(400, seed=seed)
        core = CoreSimulator(
            app.program, plan=_conditional_plan(app.program),
            lbr_depth=depth,
        )
        tracker = core.engine.tracker
        counters = tracker._counters = PeakCounters(tracker._counters)
        with kernel.reference_path():
            core.run(trace)
        assert counters.peak == min(depth + 1, len(trace.block_ids))
        assert counters.peak <= 2 ** tracker.counter_bits - 1

    def test_batch_serves_deep_and_default_lbr(self):
        """The plan-batched executor serves a deep-LBR slot next to a
        default one, each bit-identical to its own sequential replay."""
        app = adversarial_app("bloom-storm")
        trace = app.trace(400, seed=1)
        plan = _conditional_plan(app.program)
        depths = (128, 32)
        with kernel.force_numpy_kernel():
            batched = [
                CoreSimulator(app.program, plan=plan, lbr_depth=depth)
                for depth in depths
            ]
            reasons = run_plan_batch(batched, trace)
            solo = [
                CoreSimulator(app.program, plan=plan, lbr_depth=depth)
                for depth in depths
            ]
            for core in solo:
                core.run(trace)
        assert reasons == [None, None]
        for batch_core, solo_core in zip(batched, solo):
            assert batch_core.last_replay_backend == "columnar-plan"
            assert batch_core.stats == solo_core.stats
            assert hierarchy_state(batch_core) == hierarchy_state(solo_core)
            assert engine_state(batch_core) == engine_state(solo_core)


class TestPhaseChain:
    """Default traces rotate their footprint through phases."""

    def test_builds_as_phased_app(self):
        app = adversarial_app("phase-chain")
        assert isinstance(app, PhasedApp)
        assert app.phases == PHASE_COUNT

    @settings(max_examples=15, deadline=None)
    @given(
        phase=st.integers(0, 12),
        request_types=st.integers(2, 8),
    )
    def test_phase_mix_is_a_distribution(self, phase, request_types):
        mix = phase_mix(phase, request_types)
        assert len(mix) == request_types
        assert abs(sum(mix) - 1.0) < 1e-9
        assert max(mix) == mix[phase % request_types]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_segments_are_exact_phase_mix_walks(self, seed):
        """The phase machinery, pinned exactly: segment *p* of a
        default trace IS the walk the underlying model generates under
        ``phase_mix(p)`` with the derived per-phase seed.  (Whether a
        given walk seed makes the footprints *look* different is
        statistical — few requests land in a short segment — so the
        emergent-footprint claim is asserted on the app's own default
        seed below, not over arbitrary seeds.)"""
        app = adversarial_app("phase-chain")
        length = 2400
        segment = length // PHASE_COUNT
        trace = app.trace(length, seed=seed)
        assert trace.metadata["phases"] == PHASE_COUNT
        for phase in range(PHASE_COUNT):
            model = app.model.with_branch_probs(
                {app.dispatch_block: phase_mix(phase, app.spec.request_types)}
            )
            assert trace.block_ids[
                phase * segment:(phase + 1) * segment
            ] == model.generate(segment, seed + phase), f"phase {phase}"

    def test_default_trace_shifts_footprint(self):
        """On the app's own default walk seed, the phase rotation
        visibly moves the instruction footprint: at least one phase
        pair shares almost nothing, so a plan trained on one phase
        goes stale on another."""
        app = adversarial_app("phase-chain")
        length = 2400
        trace = app.trace(length)
        segment = length // PHASE_COUNT
        sets = [
            set(trace.block_ids[i * segment:(i + 1) * segment])
            for i in range(PHASE_COUNT)
        ]
        overlaps = [
            len(a & b) / len(a | b)
            for i, a in enumerate(sets)
            for b in sets[i + 1:]
        ]
        assert min(overlaps) < 0.5
        assert max(overlaps) < 1.0

    def test_deterministic_per_seed(self):
        app = adversarial_app("phase-chain")
        assert app.trace(600, seed=9).block_ids == (
            app.trace(600, seed=9).block_ids
        )
        assert app.trace(600, seed=9).block_ids != (
            app.trace(600, seed=10).block_ids
        )

    def test_explicit_mix_restores_single_phase_traces(self):
        """The Fig. 16 input machinery still works: an explicit mix
        bypasses the phase rotation entirely."""
        app = adversarial_app("phase-chain")
        n = app.spec.request_types
        mix = tuple(1.0 / n for _ in range(n))
        trace = app.trace(600, seed=3, mix=mix)
        assert "phases" not in trace.metadata
        assert trace.metadata["mix"] == mix

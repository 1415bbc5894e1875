"""FDIP (fetch-directed prefetching) baseline tests."""

import pytest

from repro.baselines.fdip import BimodalBTB
from repro.baselines.protocol import ProfileView, ReplayContext, get_prefetcher
from repro.sim.cpu import simulate
from repro.sim.trace import BlockTrace

from ..conftest import make_program


def fdip_replay(program, trace, runahead=16, warmup=0, data_traffic=None):
    """The registry's FDIP member, replayed on *trace*."""
    prefetcher = get_prefetcher("fdip", runahead=runahead)
    return prefetcher.simulate(
        ProfileView(program),
        trace,
        ReplayContext(data_traffic=data_traffic, warmup=warmup),
    )


class TestBimodalBTB:
    def test_untrained_predicts_nothing(self):
        assert BimodalBTB().predict(0) is None

    def test_learns_after_one_observation(self):
        btb = BimodalBTB()
        btb.train(0, 1)
        assert btb.predict(0) == 1

    def test_correct_training_returns_true(self):
        btb = BimodalBTB()
        btb.train(0, 1)
        assert btb.train(0, 1)

    def test_hysteresis_resists_single_flip(self):
        btb = BimodalBTB()
        for _ in range(4):
            btb.train(0, 1)
        btb.train(0, 2)  # one flip
        assert btb.predict(0) == 1  # still predicts the strong target

    def test_persistent_flip_retrains(self):
        btb = BimodalBTB()
        btb.train(0, 1)
        for _ in range(4):
            btb.train(0, 2)
        assert btb.predict(0) == 2


class TestSimulateFdip:
    def test_thrashing_loop_mostly_hidden(self):
        """A loop larger than the L1I (600 lines vs 512) thrashes the
        baseline on every lap; a trained FDIP runs ahead and hides
        most of those misses."""
        program = make_program([64] * 600)
        trace = BlockTrace(list(range(600)) * 5)
        base = simulate(program, trace, warmup=600)
        fdip = fdip_replay(program, trace, runahead=16, warmup=600)
        assert base.l1i_misses > 1000  # the baseline thrashes
        assert fdip.prefetches_issued > 0
        # FDIP hides the bulk of the stall (late arrivals may remain)
        assert fdip.frontend_stall_cycles < 0.7 * base.frontend_stall_cycles

    def test_single_block_trace(self):
        program = make_program([64])
        stats = fdip_replay(program, BlockTrace([0, 0, 0]))
        assert stats.l1i_misses == 1

    def test_rejects_bad_runahead(self):
        program = make_program([64])
        with pytest.raises(ValueError):
            fdip_replay(program, BlockTrace([0]), runahead=0)

    def test_instruction_accounting_matches_baseline(self):
        program = make_program([64] * 6)
        trace = BlockTrace([0, 1, 2, 3, 4, 5] * 3)
        base = simulate(program, trace)
        fdip = fdip_replay(program, trace)
        assert fdip.program_instructions == base.program_instructions
        assert fdip.l1i_accesses == base.l1i_accesses

    def test_branchy_code_defeats_runahead(self, small_app):
        """On a real branchy application FDIP helps less than the
        profile-guided schemes (the paper's Section VIII argument)."""
        trace = small_app.trace(15_000)
        base = simulate(
            small_app.program, trace, warmup=3000,
            data_traffic=small_app.data_traffic(seed=5),
        )
        fdip = fdip_replay(
            small_app.program, trace, runahead=16, warmup=3000,
            data_traffic=small_app.data_traffic(seed=5),
        )
        # FDIP helps some but leaves a large fraction of misses
        assert fdip.l1i_misses < base.l1i_misses
        assert fdip.l1i_misses > 0.05 * base.l1i_misses

    def test_warmup_supported(self):
        program = make_program([64] * 10)
        trace = BlockTrace(list(range(10)) * 4)
        stats = fdip_replay(program, trace, warmup=10)
        assert stats.l1i_accesses == 30

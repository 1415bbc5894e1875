"""Counting-Bloom-filter runtime-hash tests (paper Fig. 7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import LBRRuntimeHash, exact_history_match
from repro.core.hashing import bit_position_table, context_mask

from ..conftest import PeakCounters


def make_hash(n_blocks=64, hash_bits=16, depth=32):
    addresses = {i: 0x400000 + 0x40 * i for i in range(n_blocks)}
    table = bit_position_table(addresses, hash_bits)
    return LBRRuntimeHash(table, hash_bits=hash_bits, depth=depth), addresses


class TestPushEvict:
    def test_empty_hash_matches_nothing_but_zero(self):
        runtime, _ = make_hash()
        assert runtime.bits() == 0
        assert runtime.matches(0)
        assert not runtime.matches(1)

    def test_push_sets_bits(self):
        runtime, _ = make_hash()
        runtime.push(5)
        assert runtime.bits() != 0

    def test_fifo_depth_respected(self):
        runtime, _ = make_hash(depth=4)
        for block in range(10):
            runtime.push(block)
        assert len(runtime.history()) == 4
        assert runtime.history() == (6, 7, 8, 9)

    def test_eviction_clears_bits(self):
        runtime, _ = make_hash(depth=2, hash_bits=64)
        runtime.push(1)
        bits_after_one = runtime.bits()
        runtime.push(2)
        runtime.push(3)  # evicts 1
        runtime.push(4)  # evicts 2
        # block 1's bit should be gone unless 3/4 collide with it
        from repro.core.hashing import context_bit_positions

        bit1 = context_bit_positions(0x400040, 64)[0]
        bits_34 = {
            context_bit_positions(0x400000 + 0x40 * b, 64)[0] for b in (3, 4)
        }
        if bit1 not in bits_34:
            assert not (runtime.bits() >> bit1) & 1
        assert bits_after_one != 0

    def test_unknown_block_ignored(self):
        runtime, _ = make_hash()
        runtime.push(99999)
        assert runtime.bits() == 0
        assert runtime.history() == ()

    def test_counter_overflow_guard(self):
        """The counter width is derived from the depth, so no push can
        overflow it: 6 bits at the paper's depth 32 (Fig. 7), and a
        counter every entry shares peaks at depth + 1 — the new entry
        is counted before the oldest is evicted."""
        table = bit_position_table({0: 0x400000}, 4)
        assert LBRRuntimeHash(table, hash_bits=4, depth=32).counter_bits == 6
        runtime = LBRRuntimeHash(table, hash_bits=4, depth=100)
        counters = runtime._counters = PeakCounters(runtime._counters)
        for _ in range(300):
            runtime.push(0)
        assert counters.peak == 101
        assert counters.peak <= 2 ** runtime.counter_bits - 1
        # a block whose two hashes coincide sets its bit twice per entry
        doubled = LBRRuntimeHash({0: (1, 1)}, hash_bits=4, depth=32)
        assert doubled.counter_bits == (2 * 33).bit_length()

    def test_reset(self):
        runtime, _ = make_hash()
        runtime.push(1)
        runtime.reset()
        assert runtime.bits() == 0
        assert runtime.history() == ()


class TestSubsetMatching:
    def test_no_false_negatives(self):
        """The paper's guarantee: if all context blocks are in the
        LBR, the hashed subset check must pass."""
        runtime, addresses = make_hash()
        context_blocks = [3, 17, 40, 61]
        for block in context_blocks:
            runtime.push(block)
        mask = context_mask(
            (addresses[b] for b in context_blocks), runtime.hash_bits
        )
        assert runtime.matches(mask)

    @given(
        history=st.lists(st.integers(0, 63), min_size=0, max_size=32),
        context=st.lists(st.integers(0, 63), min_size=1, max_size=4),
    )
    @settings(max_examples=100)
    def test_no_false_negatives_property(self, history, context):
        runtime, addresses = make_hash()
        for block in history + context:
            runtime.push(block)
        mask = context_mask((addresses[b] for b in context), runtime.hash_bits)
        assert runtime.matches(mask)

    def test_counters_track_multiplicity(self):
        runtime, _ = make_hash(hash_bits=64)
        runtime.push(7)
        runtime.push(7)
        assert max(runtime.counters()) == 2


class TestReferenceModel:
    @given(blocks=st.lists(st.integers(0, 63), min_size=0, max_size=80))
    @settings(max_examples=80)
    def test_incremental_equals_recomputed(self, blocks):
        """The rolling counter maintenance must match a from-scratch
        evaluation of the FIFO contents after any push sequence."""
        runtime, _ = make_hash(depth=16)
        for block in blocks:
            runtime.push(block)
            assert runtime.bits() == runtime.reference_bits()


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LBRRuntimeHash({}, hash_bits=0)
        with pytest.raises(ValueError):
            LBRRuntimeHash({}, hash_bits=16, depth=0)


class TestExactHistoryMatch:
    def test_all_present(self):
        assert exact_history_match([1, 2, 3], [2, 3])

    def test_missing_block(self):
        assert not exact_history_match([1, 2], [3])

    def test_empty_context_always_matches(self):
        assert exact_history_match([], [])

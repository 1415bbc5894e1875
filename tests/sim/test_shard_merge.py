"""Unit tests for the ShardStats merge algebra.

The sharded pipeline's correctness rests on this being a well-behaved
monoid (up to range adjacency): merging partial statistics must be
associative and permutation-invariant, the identity must be a
two-sided unit, and a delta/finalize round trip must reproduce the
snapshots it was built from.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.stats import (
    SHARD_FLOAT_FIELDS,
    SHARD_INT_FIELDS,
    ShardMergeError,
    ShardStats,
    SimStats,
)


def random_snapshots(rng, n_shards):
    """Cumulative SimStats snapshots at each of ``n_shards`` shard
    boundaries (monotone ints, arbitrary floats, growing miss levels),
    plus the initial empty snapshot."""
    snapshots = [SimStats()]
    totals = {name: 0 for name in SHARD_INT_FIELDS}
    levels = {"l2": 0, "l3": 0, "memory": 0}
    for _ in range(n_shards):
        snap = SimStats()
        for name in SHARD_INT_FIELDS:
            totals[name] += rng.randrange(0, 50)
            setattr(snap, name, totals[name])
        for name in SHARD_FLOAT_FIELDS:
            setattr(snap, name, rng.uniform(0.0, 1e6))
        for key in levels:
            levels[key] += rng.randrange(0, 5)
        snap.miss_level_counts = {k: v for k, v in levels.items() if v}
        snapshots.append(snap)
    return snapshots


def random_parts(seed, n_shards=8):
    rng = random.Random(seed)
    snapshots = random_snapshots(rng, n_shards)
    return [
        ShardStats.delta(i, snapshots[i], snapshots[i + 1])
        for i in range(n_shards)
    ]


class TestIdentity:
    def test_identity_is_two_sided_unit(self):
        part = random_parts(1, 3)[0]
        identity = ShardStats.identity()
        assert identity.merge(part) == part
        assert part.merge(identity) == part
        assert identity.merge(identity) == identity

    def test_merge_zero_shards_finalizes_empty(self):
        assert ShardStats.merge_all([]).finalize() == SimStats()

    def test_merge_one_shard_is_that_shard(self):
        part = random_parts(2, 1)[0]
        assert ShardStats.merge_all([part]) == part


class TestMonoidLaws:
    @pytest.mark.parametrize("seed", range(5))
    def test_merge_is_associative(self, seed):
        a, b, c = random_parts(seed, 3)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_all_is_permutation_invariant(self, seed):
        parts = random_parts(seed, 8)
        reference = ShardStats.merge_all(parts)
        rng = random.Random(seed + 1000)
        for _ in range(10):
            shuffled = list(parts)
            rng.shuffle(shuffled)
            assert ShardStats.merge_all(shuffled) == reference

    def test_merged_range_covers_all_parts(self):
        parts = random_parts(3, 6)
        merged = ShardStats.merge_all(parts)
        assert (merged.first, merged.last) == (0, 5)


class TestDeltaFinalize:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_reproduces_final_snapshot(self, seed):
        rng = random.Random(seed)
        snapshots = random_snapshots(rng, 7)
        parts = [
            ShardStats.delta(i, snapshots[i], snapshots[i + 1])
            for i in range(7)
        ]
        final = ShardStats.merge_all(parts).finalize()
        expected = snapshots[-1]
        for name in SHARD_INT_FIELDS:
            assert getattr(final, name) == getattr(expected, name)
        for name in SHARD_FLOAT_FIELDS:
            assert getattr(final, name) == getattr(expected, name)
        assert final.miss_level_counts == expected.miss_level_counts

    def test_negative_deltas_telescope(self):
        """A warmup-reset shard reports counters below the previous
        snapshot; the telescoping sum still lands on the final value."""
        before = SimStats()
        before.l1i_misses = 100
        after = SimStats()
        after.l1i_misses = 7  # reset fired mid-shard
        part = ShardStats.delta(3, before, after)
        index = SHARD_INT_FIELDS.index("l1i_misses")
        assert part.ints[index] == -93

    def test_payload_round_trip(self):
        part = random_parts(4, 5)[2]
        assert ShardStats.from_payload(part.to_payload()) == part


class TestAdjacency:
    def test_gap_raises(self):
        a, _b, c = random_parts(5, 3)
        with pytest.raises(ShardMergeError):
            a.merge(c)

    def test_finalize_requires_shard_zero(self):
        parts = random_parts(6, 4)
        tail = ShardStats.merge_all(parts[1:])
        with pytest.raises(ShardMergeError):
            tail.finalize()

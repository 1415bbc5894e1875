"""The profile's dynamic-CFG counters and fan-out estimation tests."""

from collections import Counter

import pytest

from repro.cfg.fanout import dynamic_fanout, label_occurrences, path_fanout
from repro.profiling.pebs import MissSample
from repro.profiling.profiler import ExecutionProfile


def profile_from(block_ids, miss_positions, line=999, cpb=4.0):
    cycles = [i * cpb for i in range(len(block_ids))]
    samples = [
        MissSample(i, block_ids[i], line, cycles[i]) for i in miss_positions
    ]
    return ExecutionProfile(
        program_name="synthetic",
        block_ids=list(block_ids),
        block_cycles=cycles,
        miss_samples=samples,
        edge_counts=Counter(zip(block_ids, block_ids[1:])),
        block_counts=Counter(block_ids),
        cumulative_instructions=[4 * i for i in range(len(block_ids))],
    )


def misses_by_block(profile):
    return Counter(sample.block_id for sample in profile.miss_samples)


class TestProfileCFG:
    """The profile is the miss-annotated dynamic CFG (paper Fig. 2):
    ``block_counts`` weighs its nodes, ``edge_counts`` its edges and
    ``miss_samples`` annotates its nodes with misses."""

    def test_edge_count_conservation(self, small_profile):
        total = sum(small_profile.edge_counts.values())
        assert total == len(small_profile.block_ids) - 1

    def test_execution_counts_match_trace(self, small_profile):
        total = sum(small_profile.block_counts.values())
        assert total == len(small_profile.block_ids)

    def test_misses_annotated(self, small_profile):
        annotated = misses_by_block(small_profile)
        assert sum(annotated.values()) == small_profile.sampled_miss_count
        # every miss annotates a block the trace executed
        assert set(annotated) <= set(small_profile.block_counts)

    def test_small_synthetic(self):
        profile = profile_from([1, 2, 3, 1, 2, 3], miss_positions=[2, 5])
        assert profile.edge_counts[(1, 2)] == 2
        assert misses_by_block(profile)[3] == 2


class TestLabelOccurrences:
    def test_labels_match_construction(self):
        # site=5 at positions 0 and 3; miss at position 2 only
        profile = profile_from([5, 1, 9, 5, 1, 2], miss_positions=[2])
        labels = label_occurrences(profile, 5, 999, max_cycles=100.0)
        assert labels.indices == (0, 3)
        assert labels.leads_to_miss == (True, False)
        assert labels.miss_probability == 0.5
        assert labels.fanout == 0.5

    def test_window_limits_labels(self):
        profile = profile_from([5, 1, 1, 1, 1, 9], miss_positions=[5])
        labels = label_occurrences(profile, 5, 999, max_cycles=4.0)
        assert labels.leads_to_miss == (False,)

    def test_occurrence_sampling(self):
        profile = profile_from([5] * 1000 + [9], miss_positions=[1000])
        labels = label_occurrences(profile, 5, 999, 100.0, max_occurrences=10)
        assert labels.total == 10


class TestDynamicFanout:
    def test_always_leads_zero_fanout(self):
        profile = profile_from([5, 9] * 10, miss_positions=list(range(1, 20, 2)))
        assert dynamic_fanout(profile, 5, 999, 100.0) == 0.0

    def test_never_leads_full_fanout(self):
        profile = profile_from([5, 1] * 10, miss_positions=[])
        assert dynamic_fanout(profile, 5, 999, 100.0) == 1.0


class TestPathFanout:
    def test_single_path_always_to_miss(self):
        profile = profile_from([5, 1, 9] * 10, miss_positions=list(range(2, 30, 3)))
        assert path_fanout(profile, 5, 999, 100.0, path_length=2) == 0.0

    def test_many_paths_one_to_miss(self):
        # site 5 followed by 8 distinct forward paths; only one misses
        blocks = []
        for variant in range(8):
            blocks.extend([5, 10 + variant, 9 if variant == 0 else 30 + variant])
        miss_positions = [2]  # the variant-0 tail
        profile = profile_from(blocks, miss_positions)
        fanout = path_fanout(profile, 5, 999, 1000.0, path_length=2)
        assert fanout == pytest.approx(1.0 - 1.0 / 8.0)

    def test_unweighted_by_frequency(self):
        """A hot path counts once: execution-weighted fan-out is low
        but path fan-out stays high."""
        blocks = []
        # hot path to miss repeated 20x, 9 distinct cold paths without
        for _ in range(20):
            blocks.extend([5, 10, 9])
        for variant in range(9):
            blocks.extend([5, 11 + variant, 40 + variant])
        miss_positions = [i for i in range(2, 60, 3)]
        profile = profile_from(blocks, miss_positions)
        execution = dynamic_fanout(profile, 5, 999, 1000.0)
        paths = path_fanout(profile, 5, 999, 1000.0, path_length=2)
        assert execution < 0.4
        assert paths == pytest.approx(0.9)

    def test_no_occurrences(self):
        profile = profile_from([1, 2, 3], miss_positions=[])
        assert path_fanout(profile, 99, 999, 100.0) == 1.0

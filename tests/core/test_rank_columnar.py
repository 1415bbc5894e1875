"""Differential tests: columnar candidate ranking, line by line.

The columnar ranking must produce, for every miss line, the *same*
:class:`CandidateSite` tuple as the reference scan — same blocks, same
order, and bit-identical ``coverage``, ``fanout`` and
``mean_distance`` floats — under both distance estimators and across
prefetch windows.  :func:`select_site` is compared the same way,
including AsmDB's path fan-out threshold.  The handcrafted profiles
pin the boundary cases the array form has to get right: lines without
samples, windows that are all empty, a miss at trace index 0, a site
executing at a miss's own trace index, two lines missing at one index,
and a site executed often enough that fan-out is estimated from a
subsample of its occurrences.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import kernel
from repro.core.config import DEFAULT_CONFIG, ISpyConfig
from repro.core.injection import (
    frequent_miss_lines,
    rank_candidates,
    rank_lines,
    select_site,
)
from repro.io import profile_from_dict, profile_to_dict
from repro.profiling.pebs import MissSample
from repro.profiling.profiler import ExecutionProfile, profile_execution
from repro.workloads.apps import build_app

APPS = ("wordpress", "drupal", "finagle-http")

#: the default window plus one point of each Fig. 18 sweep
WINDOWS = {
    "default": DEFAULT_CONFIG,
    "min-5": DEFAULT_CONFIG.with_window(5, 200),
    "max-400": DEFAULT_CONFIG.with_window(27, 400),
}

ESTIMATORS = ("cycles", "ipc")


def _fresh(profile):
    """A copy of *profile* with no memo (nor any other cache)."""
    return profile_from_dict(profile_to_dict(profile))


@pytest.fixture(scope="module", params=APPS)
def real_profile(request):
    app = build_app(request.param, scale=0.25)
    return profile_execution(
        app.program, app.trace(12_000), data_traffic=app.data_traffic()
    )


def _sampled_lines(profile, config):
    """The frequent lines, heaviest first, then a few rare ones."""
    frequent = [line for line, _ in frequent_miss_lines(profile, config)]
    rare = sorted(set(profile.miss_counts_by_line()) - set(frequent))
    return frequent + rare[:10]


def _ranked(profile, line, config, estimator):
    """The columnar ranking of one *line*, as the reference's list."""
    ranked = rank_lines(profile, [line], config, distance_estimator=estimator)
    return list(ranked[line])


def _selections(profile, lines, config, **kwargs):
    return [select_site(profile, line, config, **kwargs) for line in lines]


class TestRealProfiles:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_rank_candidates_identical(self, real_profile, window, estimator):
        config = WINDOWS[window]
        lines = _sampled_lines(real_profile, config)
        assert lines
        for line in lines:
            ref = rank_candidates(
                real_profile, line, config, distance_estimator=estimator
            )
            col = _ranked(real_profile, line, config, estimator)
            assert col == ref, line

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_select_site_identical(self, real_profile, window, estimator):
        config = WINDOWS[window]
        lines = _sampled_lines(real_profile, config)
        with kernel.reference_path():
            ref = _selections(
                _fresh(real_profile), lines, config,
                distance_estimator=estimator,
            )
        with kernel.force_numpy_kernel():
            col = _selections(
                _fresh(real_profile), lines, config,
                distance_estimator=estimator,
            )
        for ref_selection, col_selection in zip(ref, col):
            assert col_selection == ref_selection, ref_selection.line
        assert any(selection.chosen is not None for selection in ref)

    def test_small_batch_budget_identical(self, real_profile, monkeypatch):
        # A tiny element budget splits the columnar pass over the
        # frequent lines into many chunks.
        lines = _sampled_lines(real_profile, DEFAULT_CONFIG)
        monkeypatch.setattr(kernel, "BATCH_ELEMENTS", 64, raising=False)
        with kernel.reference_path():
            ref = _selections(_fresh(real_profile), lines, DEFAULT_CONFIG)
        with kernel.force_numpy_kernel():
            col = _selections(_fresh(real_profile), lines, DEFAULT_CONFIG)
        assert col == ref

    @pytest.mark.parametrize("threshold", (0.5, 0.95))
    def test_asmdb_path_fanout_identical(self, real_profile, threshold):
        lines = _sampled_lines(real_profile, DEFAULT_CONFIG)
        kwargs = dict(
            max_fanout=threshold, fanout_mode="path", distance_estimator="ipc"
        )
        with kernel.reference_path():
            ref = _selections(
                _fresh(real_profile), lines, DEFAULT_CONFIG, **kwargs
            )
        with kernel.force_numpy_kernel():
            col = _selections(
                _fresh(real_profile), lines, DEFAULT_CONFIG, **kwargs
            )
        for ref_selection, col_selection in zip(ref, col):
            assert col_selection == ref_selection, ref_selection.line


# -- handcrafted profiles ---------------------------------------------------

EDGE_CONFIG = ISpyConfig(
    min_prefetch_distance=15.0,
    max_prefetch_distance=60.0,
    min_miss_samples=1,
)


def _make_profile(block_ids, miss_events, cycle_offset=1.0):
    """10 cycles per trace step, 3 instructions per block; each
    ``(trace_index, line)`` miss event is sampled *cycle_offset* cycles
    after its block starts."""
    cycles = [float(10 * i) for i in range(len(block_ids))]
    samples = [
        MissSample(
            trace_index=index,
            block_id=block_ids[index],
            line=line,
            cycle=cycles[index] + cycle_offset,
        )
        for index, line in miss_events
    ]
    return ExecutionProfile(
        program_name="rank-edge-case",
        block_ids=list(block_ids),
        block_cycles=cycles,
        miss_samples=samples,
        edge_counts=Counter(zip(block_ids, block_ids[1:])),
        block_counts=Counter(block_ids),
        cumulative_instructions=[3 * i for i in range(len(block_ids))],
    )


def _assert_identical(profile, lines, config=EDGE_CONFIG):
    """Every line ranks and selects identically on both engines, under
    both estimators; returns the reference rankings (cycles)."""
    rankings = {}
    for estimator in ESTIMATORS:
        for line in lines:
            ref = rank_candidates(
                profile, line, config, distance_estimator=estimator
            )
            col = _ranked(profile, line, config, estimator)
            assert col == ref, (estimator, line)
            if estimator == "cycles":
                rankings[line] = ref
        with kernel.reference_path():
            ref = _selections(
                _fresh(profile), lines, config, distance_estimator=estimator
            )
        with kernel.force_numpy_kernel():
            col = _selections(
                _fresh(profile), lines, config, distance_estimator=estimator
            )
        assert col == ref, estimator
    return rankings


class TestEdgeCases:
    def test_line_without_samples(self):
        profile = _make_profile([1, 2, 3, 4] * 10, [(7, 77), (15, 77)])
        rankings = _assert_identical(profile, [77, 12345])
        assert rankings[12345] == []
        with kernel.force_numpy_kernel():
            selection = select_site(profile, 12345, EDGE_CONFIG)
        assert selection.chosen is None
        assert (selection.miss_block, selection.sample_count) == (-1, 0)

    def test_all_windows_empty(self):
        # Both misses sit within 15 cycles of the trace start: no
        # block is far enough ahead to be a candidate.
        profile = _make_profile(list(range(20)), [(0, 55), (1, 55)])
        rankings = _assert_identical(profile, [55])
        assert rankings[55] == []

    def test_miss_at_trace_index_zero(self):
        block_ids = [5, 1, 2, 3, 4, 6] * 8
        misses = [(0, 77)] + [
            (index, 77) for index, block in enumerate(block_ids)
            if block == 6
        ]
        profile = _make_profile(block_ids, misses)
        rankings = _assert_identical(profile, [77])
        assert rankings[77]

    def test_occurrence_at_a_miss_index(self):
        # Block 3 both precedes line 77's misses (40 cycles ahead) and
        # is the block that misses: its execution at a miss's own
        # trace index leads to the *next* miss, not that one.
        block_ids = [9, 1, 2, 3] * 12
        misses = [
            (index, 77) for index, block in enumerate(block_ids) if block == 3
        ]
        profile = _make_profile(block_ids, misses)
        rankings = _assert_identical(profile, [77])
        assert 3 in {site.block_id for site in rankings[77]}

    def test_two_lines_missing_at_one_index(self):
        block_ids = [8, 1, 2, 3, 4, 5, 6, 7] * 10
        misses = []
        for index, block in enumerate(block_ids):
            if block == 7:
                misses += [(index, 77), (index, 78)]
            elif block == 5 and index % 16 == 5:
                misses.append((index, 78))
        profile = _make_profile(block_ids, misses)
        rankings = _assert_identical(profile, [77, 78])
        assert rankings[77] and rankings[78]
        assert rankings[77] != rankings[78]

    def test_subsampled_occurrences(self):
        # Block 1 executes 22,000 times, beyond the 20,000 occurrences
        # fan-out reads, so its fan-out comes from the subsample.
        block_ids = []
        misses = []
        for repeat in range(22_000):
            base = len(block_ids)
            block_ids += [1, 2] if repeat % 7 else [1, 3]
            if repeat % 7 == 0:
                misses.append((base + 1, 77))
        profile = _make_profile(block_ids, misses)
        assert len(profile.occurrences(1)) > 20_000
        rankings = _assert_identical(profile, [77])
        assert 1 in {site.block_id for site in rankings[77]}

    def test_cycle_boundaries_exact(self):
        # Misses sampled exactly at their block's cycle put candidate
        # distances on the window bounds themselves (15 and 60 are not
        # multiples of 10, so probe 20/60 with a shifted window too).
        block_ids = [4, 1, 2, 3, 5, 6, 7, 8] * 10
        misses = [
            (index, 77) for index, block in enumerate(block_ids) if block == 8
        ]
        profile = _make_profile(block_ids, misses, cycle_offset=0.0)
        for config in (EDGE_CONFIG, EDGE_CONFIG.with_window(20.0, 60.0)):
            rankings = _assert_identical(profile, [77], config)
            assert rankings[77]

"""Ablation-study machinery tests (fast scale)."""

import pytest

from repro.analysis.ablations import (
    ablation_hardware_prefetcher,
    ablation_lbr_depth,
    ablation_replacement_priority,
    ablation_sample_period,
)
from repro.analysis.experiments import Evaluator, ExperimentSettings


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(ExperimentSettings.small())


class TestReplacementPriority:
    def test_rows_cover_fractions(self, evaluator):
        rows = ablation_replacement_priority(
            evaluator, app="kafka", fractions=(0.0, 0.5)
        )
        assert [row["insertion_fraction"] for row in rows] == [0.0, 0.5]
        for row in rows:
            assert row["pct_of_ideal"] > 0.0
            assert row["l1i_mpki"] >= 0.0


class TestReplaySpans:
    def test_ablation_replays_record_their_backend(self, evaluator):
        ablation_lbr_depth(evaluator, app="kafka", depths=(16,))
        backends = {
            e["args"]["plan"]: e["args"].get("backend")
            for e in evaluator.tracer.snapshot()
            if e["ph"] == "X" and e["name"] == "sim:replay"
        }
        assert backends["lbr-depth-16"] in ("columnar-plan", "reference")


class TestSamplePeriod:
    def test_sparser_sampling_sees_fewer_misses(self, evaluator):
        rows = ablation_sample_period(evaluator, app="kafka", periods=(1, 8))
        by_period = {row["sample_period"]: row for row in rows}
        assert by_period[8]["sampled_misses"] < by_period[1]["sampled_misses"]
        assert (
            by_period[8]["plan_instructions"]
            <= by_period[1]["plan_instructions"]
        )


class TestLbrDepth:
    def test_depths_reported(self, evaluator):
        rows = ablation_lbr_depth(evaluator, app="kafka", depths=(16, 32))
        assert [row["lbr_depth"] for row in rows] == [16, 32]
        for row in rows:
            assert row["pct_of_ideal"] > 0.0


class TestHardwarePrefetcher:
    def test_profile_guided_beats_nextline(self, evaluator):
        rows = ablation_hardware_prefetcher(
            evaluator, apps=("kafka",), lines_ahead=(1, 2)
        )
        row = rows[0]
        best_nextline = max(
            row["nextline1_pct_of_ideal"], row["nextline2_pct_of_ideal"]
        )
        assert row["ispy_pct_of_ideal"] > best_nextline

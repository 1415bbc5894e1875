"""Gap-attribution tests: the loss channels must partition the gap."""

import pytest

from repro.analysis.metrics import gap_attribution
from repro.core.ispy import build_ispy_plan
from repro.sim.cpu import simulate


class TestGapAttribution:
    @pytest.fixture(scope="class")
    def runs(self, request):
        small_app = request.getfixturevalue("small_app")
        small_profile = request.getfixturevalue("small_profile")
        small_eval_trace = request.getfixturevalue("small_eval_trace")
        plan = build_ispy_plan(small_app.program, small_profile).plan
        candidate = simulate(
            small_app.program,
            small_eval_trace,
            plan=plan,
            warmup=4000,
            data_traffic=small_app.data_traffic(seed=1),
        )
        ideal = simulate(
            small_app.program, small_eval_trace, warmup=4000
        ).ideal_bound()
        return candidate, ideal

    def test_channels_partition_the_gap(self, runs):
        candidate, ideal = runs
        attribution = gap_attribution(candidate, ideal)
        total = (
            attribution["residual_miss_stall"]
            + attribution["late_prefetch_stall"]
            + attribution["instruction_overhead"]
        )
        assert total == pytest.approx(attribution["gap_cycles"], rel=1e-9)

    def test_fractions_sum_to_one(self, runs):
        candidate, ideal = runs
        attribution = gap_attribution(candidate, ideal)
        fractions = sum(
            attribution[key]
            for key in attribution
            if key.endswith("_fraction")
        )
        assert fractions == pytest.approx(1.0)

    def test_all_channels_nonnegative(self, runs):
        candidate, ideal = runs
        attribution = gap_attribution(candidate, ideal)
        assert attribution["residual_miss_stall"] >= 0
        assert attribution["late_prefetch_stall"] >= 0
        assert attribution["instruction_overhead"] >= 0
        assert attribution["gap_cycles"] > 0

    def test_ideal_vs_itself_has_no_gap(self, runs):
        _, ideal = runs
        attribution = gap_attribution(ideal, ideal)
        assert attribution["gap_cycles"] == 0.0
        assert "residual_miss_stall_fraction" not in attribution

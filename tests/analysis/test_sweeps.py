"""Sensitivity-sweep machinery tests (figures 3, 17, 18, 19, 21)
at a fast scale — shape assertions live in the benchmarks."""

import pytest

from repro import kernel
from repro.analysis.experiments import (
    Evaluator,
    ExperimentSettings,
    fig03_fanout_tradeoff,
    fig16_generalization,
    fig17_predecessors,
    fig18_distance,
    fig19_coalesce_size,
    fig21_hash_size,
)

APP = "kafka"


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(ExperimentSettings.small())


class TestFig03Machinery:
    def test_rows_per_threshold(self, evaluator):
        rows = fig03_fanout_tradeoff(
            evaluator, app=APP, thresholds=(0.5, 0.99)
        )
        assert [row["fanout_threshold"] for row in rows] == [0.5, 0.99]
        for row in rows:
            assert 0.0 <= row["prefetch_accuracy"] <= 1.0
            assert 0.0 <= row["planned_lines_covered"] <= 1.0


class TestFig16Machinery:
    def test_rows_per_app_input(self, evaluator):
        rows = fig16_generalization(
            evaluator, apps=(APP,), inputs=("default", "input-2")
        )
        assert len(rows) == 2
        for row in rows:
            assert row["app"] == APP
            assert -1.0 < row["ispy_pct_of_ideal"] <= 1.0

    def test_one_batched_pass_per_app_input(self, evaluator):
        """Each input's baseline, I-SPY and AsmDB replays share one
        three-slot batch: one sweep per (app, input) when cold."""

        def sweeps():
            return [
                e["args"]
                for e in evaluator.tracer.snapshot()
                if e["ph"] == "X" and e["name"] == "sim:batch-sweep"
            ]

        before = len(sweeps())
        inputs = ("input-3", "input-4")
        fig16_generalization(evaluator, apps=(APP,), inputs=inputs)
        cold = sweeps()[before:]
        assert [(s["app"], s["variants"]) for s in cold] == [(APP, 3)] * 2
        served = (
            {"columnar": 1, "columnar-plan": 2}
            if kernel.numpy_enabled()
            else {"reference": 3}
        )
        for sweep in cold:
            assert sweep["backends"] == served


class TestFig17Machinery:
    def test_rows_per_count(self, evaluator):
        rows = fig17_predecessors(evaluator, counts=(1, 2), apps=(APP,))
        assert [row["predecessors"] for row in rows] == [1, 2]
        for row in rows:
            assert row["mean_pct_of_ideal"] > 0.0


class TestFig18Machinery:
    def test_min_and_max_sweeps(self, evaluator):
        rows = fig18_distance(
            evaluator, minima=(27,), maxima=(200,), apps=(APP,)
        )
        sweeps = {row["sweep"] for row in rows}
        assert sweeps == {"min", "max"}


class TestFig19Machinery:
    def test_plan_shrinks_with_width(self, evaluator):
        rows = fig19_coalesce_size(evaluator, bits=(1, 16), apps=(APP,))
        narrow, wide = rows
        assert wide["mean_plan_instructions"] <= narrow["mean_plan_instructions"]


class TestFig21Machinery:
    def test_hash_sweep_reports_fp_and_static(self, evaluator):
        rows = fig21_hash_size(evaluator, bits=(8, 64), app=APP)
        for row in rows:
            assert 0.0 <= row["false_positive_rate"] <= 1.0
            assert row["static_increase"] > 0.0
        assert rows[1]["static_increase"] >= rows[0]["static_increase"]

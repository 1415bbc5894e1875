"""Reporting helper and top-down (Fig. 1) quantity tests."""

import pytest

from repro.analysis.reporting import format_cell, percent, render_table, summarize
from repro.sim.stats import SimStats


class TestRenderTable:
    def test_basic_table(self):
        rows = [{"app": "kafka", "speedup": 1.234567}]
        table = render_table(rows, title="T")
        assert "kafka" in table
        assert "1.235" in table
        assert table.splitlines()[0] == "T"

    def test_missing_cells_dash(self):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        table = render_table(rows)
        assert "-" in table.splitlines()[-1]

    def test_column_order_explicit(self):
        rows = [{"a": 1, "b": 2}]
        table = render_table(rows, columns=["b", "a"])
        header = table.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], title="X")

    def test_precision(self):
        table = render_table([{"v": 0.123456}], precision=5)
        assert "0.12346" in table


class TestFormatting:
    def test_format_cell_types(self):
        assert format_cell("x") == "x"
        assert format_cell(3) == "3"
        assert format_cell(0.5) == "0.500"
        assert format_cell(True) == "yes"

    def test_percent(self):
        assert percent(0.155) == "15.5%"


class TestSummarize:
    def test_mean_min_max(self):
        rows = [{"v": 1.0}, {"v": 3.0}]
        summary = summarize(rows, "v")
        assert summary == {"mean": 2.0, "min": 1.0, "max": 3.0}

    def test_missing_column(self):
        with pytest.raises(ValueError):
            summarize([{"a": 1}], "v")


class TestTopDown:
    def test_frontend_bound_fraction(self):
        # Fig. 1 reads the quantity straight off the run's statistics
        stats = SimStats()
        stats.compute_cycles = 600.0
        stats.frontend_stall_cycles = 400.0
        assert stats.frontend_bound_fraction == pytest.approx(0.4)

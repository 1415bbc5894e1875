"""Report-generation tests (fast scale, no sweeps)."""

import pytest

from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.analysis.report import generate_report, write_report


#: the report's section titles, in order, without its sweep block
CORE_SECTIONS = [
    "Table I — simulated system",
    "Fig. 1 — frontend-bound fractions",
    "Fig. 10 — speedup vs ideal and AsmDB",
    "Fig. 11 — MPKI reduction",
    "Fig. 12 — mechanism ablation (gain over AsmDB)",
    "Fig. 13 — prefetch accuracy",
    "Fig. 14 — static footprint increase",
    "Fig. 15 — dynamic footprint increase",
    "Fig. 4 — AsmDB footprints",
    "Fig. 5 — Contiguous-8 vs Non-contiguous-8",
]
#: the sweep block, which follows them
SWEEP_SECTIONS = [
    "Fig. 3 — AsmDB fan-out threshold (wordpress)",
    "Fig. 16 — generalization across inputs",
    "Fig. 17 — context predecessors",
    "Fig. 18 — prefetch distances",
    "Fig. 19 — coalescing size",
    "Fig. 20 — coalesced line distances",
    "Fig. 21 — context-hash size (wordpress)",
]


def section_titles(text):
    return [line[3:] for line in text.splitlines() if line.startswith("## ")]


@pytest.fixture(scope="module")
def report_text():
    evaluator = Evaluator(ExperimentSettings.small())
    return generate_report(
        evaluator, include_sweeps=False, apps=["kafka", "finagle-http"]
    )


class TestGenerateReport:
    def test_contains_headline_sections(self, report_text):
        assert "# I-SPY reproduction report" in report_text
        assert "Table I" in report_text
        assert "Fig. 10" in report_text
        assert "Headline summary" in report_text

    def test_contains_app_rows(self, report_text):
        assert "kafka" in report_text
        assert "finagle-http" in report_text

    def test_section_titles_in_order(self, report_text):
        assert section_titles(report_text) == CORE_SECTIONS + ["Headline summary"]

    def test_sweeps_skippable(self, report_text):
        assert "Fig. 17" not in report_text
        assert "Fig. 21" not in report_text

    def test_write_report(self, tmp_path):
        evaluator = Evaluator(ExperimentSettings.small())
        target = write_report(
            tmp_path / "r.md", evaluator, include_sweeps=False
        )
        assert target.exists()
        assert "Headline summary" in target.read_text()

"""End-to-end I-SPY pipeline tests on a real (small) application."""

import pytest

from repro.core.config import DEFAULT_CONFIG, ISpyConfig
from repro.core.ispy import ISpy, ISpyReport, build_ispy_plan
from repro.sim.cpu import simulate


@pytest.fixture(scope="module")
def ispy_result(small_app_module, small_profile_module):
    return build_ispy_plan(small_app_module.program, small_profile_module)


@pytest.fixture(scope="module")
def small_app_module(request):
    return request.getfixturevalue("small_app")


@pytest.fixture(scope="module")
def small_profile_module(request):
    return request.getfixturevalue("small_profile")


class TestPlanConstruction:
    def test_plan_not_empty(self, ispy_result):
        assert len(ispy_result.plan) > 10

    def test_covers_most_hot_lines(self, ispy_result):
        assert ispy_result.report.coverage > 0.9

    def test_kind_mix_includes_conditionals_and_coalesced(self, ispy_result):
        counts = ispy_result.plan.kind_counts()
        assert counts.get("Cprefetch", 0) + counts.get("CLprefetch", 0) > 0
        assert counts.get("Lprefetch", 0) + counts.get("CLprefetch", 0) > 0

    def test_contexts_recorded(self, ispy_result):
        assert ispy_result.report.contexts
        for context in ispy_result.report.contexts.values():
            assert context.probability >= DEFAULT_CONFIG.min_context_probability
            assert context.support >= DEFAULT_CONFIG.min_context_support

    def test_sites_exist_in_program(self, ispy_result, small_app_module):
        for instr in ispy_result.plan:
            assert instr.site_block in small_app_module.program

    def test_static_bytes_positive(self, ispy_result, small_app_module):
        text = small_app_module.program.text_bytes
        assert 0 < ispy_result.plan.static_increase(text) < 0.2


class TestAblationFlags:
    def test_conditional_only_has_no_coalesced(self, small_app_module, small_profile_module):
        config = DEFAULT_CONFIG.conditional_only()
        result = ISpy(config).build_plan(
            small_app_module.program, small_profile_module
        )
        assert all(not instr.is_coalesced for instr in result.plan)

    def test_coalescing_only_has_no_conditionals(self, small_app_module, small_profile_module):
        config = DEFAULT_CONFIG.coalescing_only()
        result = ISpy(config).build_plan(
            small_app_module.program, small_profile_module
        )
        assert all(not instr.is_conditional for instr in result.plan)

    def test_coalescing_reduces_instruction_count(self, small_app_module, small_profile_module):
        with_coalescing = build_ispy_plan(
            small_app_module.program, small_profile_module
        )
        without = ISpy(DEFAULT_CONFIG.conditional_only()).build_plan(
            small_app_module.program, small_profile_module
        )
        assert len(with_coalescing.plan) <= len(without.plan)


class TestEndToEndSpeedup:
    def test_ispy_speeds_up_evaluation_trace(
        self, ispy_result, small_app_module, small_eval_trace
    ):
        app = small_app_module
        base = simulate(
            app.program,
            small_eval_trace,
            warmup=4000,
            data_traffic=app.data_traffic(seed=1),
        )
        ispy = simulate(
            app.program,
            small_eval_trace,
            plan=ispy_result.plan,
            warmup=4000,
            data_traffic=app.data_traffic(seed=1),
        )
        assert ispy.cycles < base.cycles
        assert ispy.l1i_mpki < base.l1i_mpki * 0.5

    def test_deterministic_plan(self, small_app_module, small_profile_module):
        plan_a = build_ispy_plan(small_app_module.program, small_profile_module)
        plan_b = build_ispy_plan(small_app_module.program, small_profile_module)
        instrs_a = sorted(
            (i.site_block, i.base_line, i.bit_vector, i.context_mask or 0)
            for i in plan_a.plan
        )
        instrs_b = sorted(
            (i.site_block, i.base_line, i.bit_vector, i.context_mask or 0)
            for i in plan_b.plan
        )
        assert instrs_a == instrs_b


class TestConditionalFraction:
    def test_divides_by_planned_lines(self):
        report = ISpyReport(config=DEFAULT_CONFIG)
        report.considered_lines = 10
        report.uncovered_lines = [1, 2, 3, 4, 5, 6]
        report.contexts = {(7, 1): None, (8, 2): None}
        # 4 planned lines, 2 of them conditional
        assert report.conditional_fraction == 0.5
        assert report.coverage == pytest.approx(0.4)

    def test_no_planned_lines(self):
        report = ISpyReport(config=DEFAULT_CONFIG)
        report.considered_lines = 3
        report.uncovered_lines = [1, 2, 3]
        assert report.conditional_fraction == 0.0
        assert ISpyReport(config=DEFAULT_CONFIG).conditional_fraction == 0.0

"""Online (JIT-style) I-SPY adaptation tests (paper Section VII)."""

import pytest

from repro.core.online import OnlineISpy
from repro.obs.trace import Tracer, use_tracer
from repro.workloads.apps import build_app


@pytest.fixture(scope="module")
def app():
    return build_app("finagle-http", scale=0.3)


@pytest.fixture(scope="module")
def online_result(app):
    online = OnlineISpy(
        app.program,
        data_traffic_factory=lambda epoch: app.data_traffic(seed=epoch),
    )
    trace = app.trace(30_000)
    return online.run(trace, epoch_length=10_000)


class TestEpochStructure:
    def test_epoch_count(self, online_result):
        assert len(online_result.epochs) == 3

    def test_first_epoch_is_cold(self, online_result):
        assert online_result.epochs[0].plan_size == 0

    def test_later_epochs_have_plans(self, online_result):
        for epoch in online_result.epochs[1:]:
            assert epoch.plan_size > 0

    def test_profiles_collected_each_epoch(self, online_result):
        for epoch in online_result.epochs:
            assert epoch.profile is not None
            assert len(epoch.profile) == 10_000


class TestAdaptationBenefit:
    def test_warm_epochs_miss_less_than_cold(self, online_result):
        cold = online_result.epochs[0].stats.l1i_mpki
        warm = min(e.stats.l1i_mpki for e in online_result.warm_epochs)
        assert warm < cold

    def test_mpki_trajectory_length(self, online_result):
        assert len(online_result.mpki_trajectory()) == 3

    def test_total_cycles_positive(self, online_result):
        assert online_result.total_cycles > 0


class TestValidation:
    def test_rejects_bad_epoch_length(self, app):
        online = OnlineISpy(app.program)
        with pytest.raises(ValueError):
            online.run(app.trace(1000), epoch_length=0)

    def test_short_trace_single_epoch(self, app):
        online = OnlineISpy(app.program)
        result = online.run(app.trace(2000), epoch_length=10_000)
        assert len(result.epochs) == 1


class TestTelemetry:
    def test_each_epoch_is_a_replay_span(self, app):
        tracer = Tracer()
        with use_tracer(tracer):
            result = OnlineISpy(app.program).run(
                app.trace(4000), epoch_length=2000
            )
        backends = [
            e["args"]["backend"]
            for e in tracer.snapshot()
            if e["ph"] == "X" and e["name"] == "sim:replay"
        ]
        assert backends == [epoch.backend for epoch in result.epochs]

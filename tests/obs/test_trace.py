"""Tests for the span tracer (repro.obs.trace)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    use_tracer,
)


def x_events(tracer):
    return [e for e in tracer.snapshot() if e["ph"] == "X"]


class TestSpans:
    def test_span_emits_complete_event(self):
        tracer = Tracer()
        with tracer.span("sim:run", app="kafka"):
            pass
        (event,) = x_events(tracer)
        assert event["name"] == "sim:run"
        assert event["cat"] == "sim"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"app": "kafka"}
        assert event["pid"] == event["tid"] == tracer.pid

    def test_nested_spans_both_recorded(self):
        tracer = Tracer()
        with tracer.span("analysis:outer"):
            with tracer.span("analysis:inner"):
                pass
        names = [e["name"] for e in x_events(tracer)]
        # inner closes first (stack order)
        assert names == ["analysis:inner", "analysis:outer"]

    def test_span_set_attaches_late_args(self):
        tracer = Tracer()
        with tracer.span("sim:replay", app="kafka") as span:
            span.set(backend="columnar")
        (event,) = x_events(tracer)
        assert event["args"] == {"app": "kafka", "backend": "columnar"}

    def test_current_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span is None
        with tracer.span("run:evaluate"):
            assert tracer.current_span.name == "run:evaluate"
        assert tracer.current_span is None

    def test_ending_a_span_twice_raises_and_records_once(self):
        """A span ended twice would be counted twice by every
        span-derived table, so the second end is an error."""
        tracer = Tracer()
        span = tracer.start_span("sim:replay")
        tracer.end_span(span)
        with pytest.raises(ValueError, match="not open"):
            tracer.end_span(span)
        assert len(x_events(tracer)) == 1

    def test_ending_a_foreign_span_raises(self):
        other = Tracer().start_span("sim:replay")
        tracer = Tracer()
        with pytest.raises(ValueError, match="not open"):
            tracer.end_span(other)
        assert x_events(tracer) == []

    def test_category_defaults_without_prefix(self):
        tracer = Tracer()
        with tracer.span("toplevel"):
            pass
        assert x_events(tracer)[0]["cat"] == "run"


class TestPointEvents:
    def test_instant(self):
        tracer = Tracer()
        tracer.instant("store:hit", kind="stats", app="kafka")
        (event,) = [e for e in tracer.snapshot() if e["ph"] == "i"]
        assert event["name"] == "store:hit"
        assert event["args"] == {"kind": "stats", "app": "kafka"}

    def test_counter(self):
        tracer = Tracer()
        tracer.counter("cache", hits=3, misses=1)
        (event,) = [e for e in tracer.snapshot() if e["ph"] == "C"]
        assert event["args"] == {"hits": 3, "misses": 1}


class TestNullTracer:
    def test_span_is_noop_and_records_nothing(self):
        with NULL_TRACER.span("sim:run", app="x") as span:
            span.set(backend="columnar")
        NULL_TRACER.instant("store:hit")
        NULL_TRACER.counter("cache", hits=1)
        assert NULL_TRACER.snapshot() == []

    def test_enabled_flags(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_span_context_is_shared_singleton(self):
        # the null path must not allocate per call
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.start_span("a") is NULL_SPAN

    def test_write_refuses(self, tmp_path):
        with pytest.raises(RuntimeError):
            NULL_TRACER.write(tmp_path / "t.jsonl")

    def test_absorb_is_noop(self):
        NULL_TRACER.absorb([{"ph": "X", "pid": 1}])
        assert NULL_TRACER.snapshot() == []


class TestCrossProcessAbsorb:
    def test_absorb_reparents_pid_and_tid(self):
        parent = Tracer()
        worker = Tracer(process_label="repro-worker")
        with worker.span("job:evaluate-variant", app="kafka"):
            pass
        worker_events = pickle.loads(pickle.dumps(worker.snapshot()))
        with parent.span("prewarm:simulate"):
            parent.absorb(worker_events)
        absorbed = [
            e for e in x_events(parent) if e["name"] == "job:evaluate-variant"
        ]
        (event,) = absorbed
        assert event["pid"] == parent.pid
        assert event["tid"] == worker.pid
        assert event["args"]["reparented_under"] == "prewarm:simulate"

    def test_absorb_names_worker_thread_once(self):
        parent = Tracer()
        worker = Tracer()
        with worker.span("job:a"):
            pass
        with worker.span("job:b"):
            pass
        parent.absorb(worker.snapshot())
        metas = [
            e
            for e in parent.snapshot()
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["tid"] == worker.pid
        ]
        assert len(metas) == 1
        # NB: parent and worker run in the same test process, so the
        # synthetic thread name collapses onto the main row here; in a
        # real pool the worker pid differs and gets its own row.

    def test_timestamps_share_the_epoch_anchor(self):
        parent = Tracer()
        worker = Tracer()
        with worker.span("job:x"):
            pass
        parent.absorb(worker.snapshot())
        (event,) = x_events(parent)
        # both clocks anchor perf_counter to the Unix epoch: an
        # absorbed timestamp lands near the parent's own clock, not
        # near zero
        assert abs(event["ts"] - parent._now_us()) < 60 * 1e6


class TestWriteRead:
    def test_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("sim:run", app="kafka"):
            tracer.instant("store:hit", kind="plan")
        target = tracer.write(tmp_path / "trace.jsonl")
        events = read_trace(target)
        assert events == tracer.snapshot()

    def test_file_is_chrome_trace_array(self, tmp_path):
        tracer = Tracer()
        with tracer.span("sim:run"):
            pass
        text = (tracer.write(tmp_path / "t.jsonl")).read_text()
        lines = text.splitlines()
        assert lines[0] == "["
        # the trailing-comma array flavour: closing "]" is optional,
        # and json accepts the completed form
        assert json.loads(text.rstrip().rstrip(",") + "]")
        # every event line parses standalone (JSONL consumers)
        for line in lines[1:]:
            json.loads(line.rstrip(","))

    def test_len_counts_events(self):
        tracer = Tracer()
        before = len(tracer)
        tracer.instant("x")
        assert len(tracer) == before + 1


class TestCurrentTracer:
    def test_defaults_to_null(self):
        assert get_tracer() is NULL_TRACER

    def test_set_and_restore(self):
        tracer = Tracer()
        try:
            assert set_tracer(tracer) is tracer
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exit(self):
        tracer = Tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_is_a_nulltracer(self):
        assert isinstance(NULL_TRACER, NullTracer)

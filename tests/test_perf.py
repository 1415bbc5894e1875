"""Tests for the span summary behind ``--timing`` and the manifest
(repro.obs.trace.summarize): per-span aggregation, worker merges and
the derived store-hit, backend and batch counts."""

from __future__ import annotations

import pickle
import time

from repro.obs.trace import SpanStats, Tracer, summarize


def _span_event(name, dur_s, tid=1, ts=0.0, **args):
    """A complete ``"X"`` event as :meth:`Tracer.write` records it."""
    return {
        "name": name, "ph": "X", "ts": ts, "dur": dur_s * 1e6,
        "pid": 1, "tid": tid, "args": args,
    }


class TestStageCounter:
    def test_stage_accumulates_calls_seconds_units(self):
        tracer = Tracer()
        with tracer.span("sim:replay", blocks=100):
            pass
        with tracer.span("sim:replay", blocks=50):
            time.sleep(0.002)
        entry = summarize(tracer.snapshot()).stage("sim:replay")
        assert entry.calls == 2
        assert entry.units == 150
        assert entry.seconds > 0.0

    def test_stage_records_time_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("sim:replay"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert summarize(tracer.snapshot()).stage("sim:replay").calls == 1

    def test_count_is_instantaneous(self):
        tracer = Tracer()
        tracer.instant("store:hit", kind="stats")
        tracer.instant("store:hit", kind="stats")
        summary = summarize(tracer.snapshot())
        assert summary.store_hits == {"stats": 2}
        # instants are counts, never zero-second stages
        assert summary.stages == {}

    def test_units_per_second(self):
        summary = summarize([_span_event("sim:replay", 2.0, blocks=100)])
        assert summary.stage("sim:replay").units_per_second == 50.0

    def test_missing_counter_accessors_default_to_zero(self):
        entry = summarize([]).stage("nope")
        assert entry == SpanStats()
        assert (entry.calls, entry.seconds, entry.units) == (0, 0.0, 0)


class TestSnapshotMerge:
    def test_snapshot_roundtrip_through_pickle(self):
        worker = Tracer()
        with worker.span("profiling:execution", blocks=1000):
            pass
        parent = Tracer()
        parent.absorb(pickle.loads(pickle.dumps(worker.snapshot())))
        entry = summarize(parent.snapshot()).stage("profiling:execution")
        assert entry.calls == 1
        assert entry.units == 1000

    def test_merge_accumulates_into_existing(self):
        parent = Tracer()
        with parent.span("sim:replay", blocks=10):
            pass
        worker = Tracer()
        with worker.span("sim:replay", blocks=20):
            pass
        with worker.span("profiling:execution"):
            pass
        parent.absorb(worker.snapshot())
        summary = summarize(parent.snapshot())
        assert summary.stage("sim:replay").calls == 2
        assert summary.stage("sim:replay").units == 30
        assert summary.stage("profiling:execution").calls == 1

    def test_merge_disjoint_snapshots(self):
        parent = Tracer()
        with parent.span("profiling:execution", blocks=5):
            pass
        worker = Tracer()
        with worker.span("sim:replay", blocks=20):
            pass
        parent.absorb(worker.snapshot())
        summary = summarize(parent.snapshot())
        assert summary.stage("profiling:execution").calls == 1
        assert summary.stage("sim:replay").calls == 1
        assert summary.stage("sim:replay").units == 20
        assert set(summary.stages) == {"profiling:execution", "sim:replay"}

    def test_merge_empty_snapshot_is_noop(self):
        tracer = Tracer()
        tracer.instant("store:hit", kind="plan")
        tracer.absorb(Tracer().snapshot())
        summary = summarize(tracer.snapshot())
        assert summary.store_hits == {"plan": 1}
        assert summary.stages == {}

    def test_self_seconds_subtract_nested_spans_per_timeline(self):
        summary = summarize(
            [
                _span_event("run:x", 3.0, ts=0.0),
                _span_event("sim:replay", 2.0, ts=0.5e6),
                _span_event("sim:run", 1.5, ts=0.5e6),
                # another timeline: nests under nothing here
                _span_event("sim:replay", 1.0, tid=2, ts=1e6),
            ]
        )
        assert summary.stage("run:x").self_seconds == 1.0
        assert summary.stage("sim:replay").self_seconds == 1.5
        assert summary.stage("sim:run").self_seconds == 1.5
        assert summary.total_seconds() == 4.0


class TestBackendCounts:
    def test_counts_by_backend_suffix(self):
        summary = summarize(
            [
                _span_event("sim:replay", 0.1, backend="columnar"),
                _span_event("sim:replay", 0.1, backend="columnar"),
                _span_event("sim:replay", 0.1, backend="reference"),
                # the kernel's own run span is not a served replay
                _span_event("sim:run", 0.1, backend="columnar"),
            ]
        )
        assert summary.backend_counts == {"columnar": 2, "reference": 1}

    def test_bare_prefix_counter_excluded(self):
        summary = summarize(
            [
                # a mechanism member's replay names no backend
                _span_event("sim:replay", 0.1),
                _span_event("sim:replay", 0.1, backend="columnar"),
            ]
        )
        assert summary.backend_counts == {"columnar": 1}

    def test_empty_registry(self):
        assert summarize([]).backend_counts == {}

    def test_custom_prefix(self):
        tracer = Tracer()
        tracer.instant("store:hit", kind="stats")
        with tracer.span("sim:replay", backend="columnar"):
            pass
        summary = summarize(tracer.snapshot())
        assert summary.store_hits == {"stats": 1}
        assert summary.backend_counts == {"columnar": 1}

    def test_batched_sweep_counts_its_replays(self):
        summary = summarize(
            [
                _span_event(
                    "sim:batch-sweep", 0.1, backend="columnar-plan",
                    variants=3, replays=3, fallbacks=0,
                ),
                _span_event("sim:batch-sweep", 0.1, variants=2, replays=0,
                            fallbacks=2),
                _span_event("sim:replay", 0.1, backend="columnar-plan"),
            ]
        )
        assert summary.backend_counts == {"columnar-plan": 4}
        assert summary.batch == {
            "sweeps": 2, "batched_replays": 3, "fallbacks": 2,
        }


class TestReport:
    def test_report_lists_stages_and_total(self):
        tracer = Tracer()
        tracer.instant("store:hit", kind="stats")
        events = tracer.snapshot() + [
            _span_event("sim:replay", 2.0, blocks=100, backend="columnar")
        ]
        text = summarize(events).report()
        assert "sim:replay" in text
        assert "store hits: stats=1" in text
        assert "replay backends: columnar=1" in text
        assert "total" in text
        assert "2.000" in text

    def test_report_on_empty_registry(self):
        assert "total" in summarize([]).report()

    def test_manifest_sections_match_the_table(self):
        sections = summarize(
            [_span_event("sim:replay", 2.0, blocks=100, backend="columnar")]
        ).manifest_sections()
        assert sections["stages"] == {
            "sim:replay": {
                "calls": 1, "seconds": 2.0, "self_seconds": 2.0, "units": 100,
            }
        }
        assert sections["backend_counts"] == {"columnar": 1}
        assert sections["batch"] == {
            "sweeps": 0, "batched_replays": 0, "fallbacks": 0,
        }

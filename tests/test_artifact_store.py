"""Tests for the persistent artifact cache (repro.io.ArtifactStore)."""

from __future__ import annotations

import gzip
import json
from collections import Counter

import pytest

import repro.io as repro_io
from repro.core.coalesce import CoalesceStats
from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.io import (
    AppSummary,
    ArtifactStore,
    TrainSummary,
    artifact_key,
    plan_fingerprint,
    stats_from_record,
    stats_to_record,
)
from repro.sim.cpu import simulate
from repro.sim.stats import SimStats


def make_plan(name: str = "test-plan") -> PrefetchPlan:
    plan = PrefetchPlan(name)
    plan.add(PrefetchInstr(site_block=3, base_line=100, covers=(100,)))
    plan.add(
        PrefetchInstr(
            site_block=7,
            base_line=200,
            bit_vector=0b101,
            context_mask=0x5,
            context_blocks=(1, 2),
            covers=(200, 202, 204),
        )
    )
    return plan


def make_stats() -> SimStats:
    stats = SimStats()
    stats.compute_cycles = 123.456789012345
    stats.frontend_stall_cycles = 98.7654321
    stats.program_instructions = 100_000
    stats.l1i_accesses = 45_000
    stats.l1i_misses = 1_234
    stats.prefetches_issued = 321
    stats.prefetches_useful = 300
    stats.record_miss_level("l2")
    stats.record_miss_level("memory")
    stats.false_positive_rate = 0.0625  # type: ignore[attr-defined]
    return stats


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestKeys:
    def test_key_is_deterministic(self):
        parts = {"app": "x", "settings": {"scale": 0.5}}
        assert artifact_key("stats", parts) == artifact_key("stats", dict(parts))

    def test_key_varies_with_every_part(self):
        base = {"app": "x", "threshold": 0.9}
        k = artifact_key("plan", base)
        assert artifact_key("plan", {**base, "app": "y"}) != k
        assert artifact_key("plan", {**base, "threshold": 0.95}) != k
        assert artifact_key("stats", base) != k

    def test_plan_fingerprint_tracks_content(self):
        assert plan_fingerprint(None) == "no-plan"
        a = make_plan("a")
        b = make_plan("b")  # same instructions, different name
        assert plan_fingerprint(a) == plan_fingerprint(b)
        b.add(PrefetchInstr(site_block=9, base_line=50))
        assert plan_fingerprint(a) != plan_fingerprint(b)

    def test_plan_fingerprint_is_cached_until_add(self, monkeypatch):
        plan = make_plan("a")
        first = plan_fingerprint(plan)

        def unreachable(plan):
            raise AssertionError("the cached fingerprint was re-encoded")

        monkeypatch.setattr(repro_io, "plan_to_dict", unreachable)
        assert plan_fingerprint(plan) == first
        plan.add(PrefetchInstr(site_block=9, base_line=50))
        assert plan.fingerprint is None
        monkeypatch.undo()
        assert plan_fingerprint(plan) != first


class TestStatsRecord:
    def test_roundtrip_is_lossless(self):
        stats = make_stats()
        restored = stats_from_record(
            json.loads(json.dumps(stats_to_record(stats)))
        )
        assert stats_to_record(restored) == stats_to_record(stats)
        assert restored.compute_cycles == stats.compute_cycles
        assert restored.miss_level_counts == {"l2": 1, "memory": 1}
        assert restored.false_positive_rate == 0.0625

    def test_missing_false_positive_rate_tolerated(self):
        record = stats_to_record(SimStats())
        record.pop("false_positive_rate", None)
        stats_from_record(record)


class TestStoreRoundtrips:
    def test_plan_hit_vs_miss(self, store):
        key = artifact_key("plan", {"app": "x"})
        assert store.load_plan(key) is None
        assert not store.has("plans", key)
        plan = make_plan()
        store.save_plan(key, plan)
        assert store.has("plans", key)
        loaded = store.load_plan(key)
        assert loaded is not None
        assert repro_io.plan_to_dict(loaded) == repro_io.plan_to_dict(plan)

    def test_stats_hit_vs_miss(self, store):
        key = artifact_key("stats", {"app": "x"})
        assert store.load_stats(key) is None
        stats = make_stats()
        store.save_stats(key, stats)
        loaded = store.load_stats(key)
        assert loaded is not None
        assert stats_to_record(loaded) == stats_to_record(stats)

    def test_profile_roundtrip_preserves_baseline_stats(
        self, store, small_app, small_profile
    ):
        key = artifact_key("profile", {"app": small_app.name})
        store.save_profile(key, small_profile)
        loaded = store.load_profile(key)
        assert loaded is not None
        assert loaded.miss_counts_by_line() == small_profile.miss_counts_by_line()
        assert loaded.baseline_stats is not None
        assert stats_to_record(loaded.baseline_stats) == stats_to_record(
            small_profile.baseline_stats
        )

    def test_cached_plan_simulates_identically(
        self, store, small_app, small_eval_trace
    ):
        plan = make_plan()
        key = artifact_key("plan", {"app": small_app.name})
        store.save_plan(key, plan)
        loaded = store.load_plan(key)
        fresh = simulate(small_app.program, small_eval_trace, plan=plan)
        cached = simulate(small_app.program, small_eval_trace, plan=loaded)
        assert stats_to_record(fresh) == stats_to_record(cached)


class TestSummaries:
    def test_train_summary_roundtrip_restores_int_keys(self, store):
        summary = TrainSummary(
            considered_lines=10,
            uncovered_lines=3,
            contexts=2,
            coalesce_stats=CoalesceStats(
                distance_histogram=Counter({1: 3, 7: 1}),
                lines_per_instruction=Counter({2: 4}),
                merged_prefetches=5,
                emitted_instructions=4,
            ),
        )
        key = artifact_key("plan", {"app": "x"})
        assert store.load_train_summary(key) is None
        store.save_train_summary(key, summary)
        loaded = store.load_train_summary(key)
        assert loaded == summary
        assert sorted(loaded.coalesce_stats.distance_histogram) == [1, 7]
        assert loaded.coverage == 0.7

    def test_asmdb_summary_has_no_coalescing(self, store):
        summary = TrainSummary(considered_lines=0, uncovered_lines=0)
        key = artifact_key("plan", {"app": "x"})
        store.save_train_summary(key, summary)
        assert store.load_train_summary(key) == summary
        assert summary.coverage == 0.0

    def test_app_summary_roundtrip(self, store):
        key = artifact_key("app", {"app": "x"})
        assert store.load_app_summary(key) is None
        store.save_app_summary(key, AppSummary(text_bytes=4096))
        assert store.load_app_summary(key) == AppSummary(text_bytes=4096)


class TestInvalidation:
    def test_corrupt_payload_is_a_miss(self, store):
        key = artifact_key("stats", {"app": "x"})
        store.save_stats(key, make_stats())
        store._path("stats", key).write_text("{not json")
        assert store.load_stats(key) is None

    def test_truncated_gzip_profile_is_a_miss(self, store):
        key = artifact_key("profile", {"app": "x"})
        path = store._path("profiles", key)
        path.write_bytes(gzip.compress(b'{"format":')[:-4])
        assert store.load_profile(key) is None

    def test_wrong_format_payload_is_a_miss(self, store):
        key = artifact_key("plan", {"app": "x"})
        store._path("plans", key).write_text(
            json.dumps({"format": "something-else", "version": 1})
        )
        assert store.load_plan(key) is None

    def test_non_object_payload_is_a_miss(self, store):
        key = artifact_key("plan", {"app": "x"})
        store._path("plans", key).write_text("[1, 2]")
        assert store.load_plan(key) is None
        store._path("trains", key).write_text('"text"')
        assert store.load_train_summary(key) is None

    def test_schema_version_bump_orphans_old_artifacts(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "cache"
        key = artifact_key("stats", {"app": "x"})
        ArtifactStore(root).save_stats(key, make_stats())

        monkeypatch.setattr(repro_io, "CACHE_SCHEMA_VERSION", 999)
        bumped = ArtifactStore(root)
        # same parts now produce a different key AND a different
        # directory, so the old artifact can never be served
        assert artifact_key("stats", {"app": "x"}) != key
        assert bumped.load_stats(key) is None
        assert bumped.base.name == "v999"

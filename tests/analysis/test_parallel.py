"""Parallel evaluation and artifact-cache integration tests.

The contract under test: whatever the job count and whatever the
cache state, an (app, variant) simulation yields bit-identical
statistics — and a warm cache replaces simulation entirely.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import zlib
from collections import Counter

import pytest

from repro.analysis import experiments as exp_mod
from repro.analysis.experiments import (
    DEFAULT_PREWARM_VARIANTS,
    GENERALIZATION_APPS,
    Evaluator,
    ExperimentSettings,
)
from repro.analysis.jobs import resolve_jobs
from repro.analysis.report import generate_report
from repro.baselines import get_prefetcher
from repro.core.config import DEFAULT_CONFIG, ISpyConfig
from repro.io import ArtifactStore, TrainSummary, stats_to_record
from repro.obs.trace import Tracer, summarize
from repro.runconfig import RunConfig
from repro.workloads import apps as apps_mod
from repro.workloads.inputs import INPUT_NAMES, InputTrace, input_mixes
from repro.workloads.synthesis import AppSpec

APPS = ("wordpress", "kafka")
#: contiguous8 is a mechanism member: it replays outside run_plan, on
#: whatever app object the worker already holds
VARIANTS = ("baseline", "ideal", "asmdb", "ispy", "contiguous8")

SETTINGS = ExperimentSettings(
    profile_length=12_000, eval_length=15_000, warmup=3_000, scale=0.25
)


@pytest.fixture(scope="module")
def serial_evaluator():
    evaluator = Evaluator(SETTINGS)
    evaluator.prewarm(apps=APPS, variants=VARIANTS)
    return evaluator


@pytest.fixture(scope="module")
def serial_records(serial_evaluator):
    return {
        (name, variant): stats_to_record(
            serial_evaluator[name].stats_for(variant)
        )
        for name in APPS
        for variant in VARIANTS
    }


class TestParallelEqualsSerial:
    def test_two_workers_bit_identical(self, serial_records):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        evaluator.prewarm(apps=APPS, variants=VARIANTS)
        for name in APPS:
            for variant in VARIANTS:
                assert (
                    stats_to_record(evaluator[name].stats_for(variant))
                    == serial_records[(name, variant)]
                ), f"{name}/{variant} diverged under jobs=2"

    def test_sharded_workers_bit_identical(self):
        """--jobs 2 --shard-insns N: every worker streams its replays
        in shards, bit-identically to a serial whole-trace run."""
        config = RunConfig(settings=SETTINGS, jobs=2, shard_insns=4_000)
        evaluator = Evaluator(config=config)
        evaluator.prewarm(apps=["wordpress"], variants=("baseline", "ideal"))
        serial = Evaluator(SETTINGS)
        for variant in ("baseline", "ideal"):
            assert (
                stats_to_record(evaluator["wordpress"].stats_for(variant))
                == stats_to_record(serial["wordpress"].stats_for(variant))
            ), f"{variant} diverged under jobs=2 with shard_insns"

    def test_parallel_prewarm_populates_memory_caches(self):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        evaluator.prewarm(apps=["wordpress"], variants=VARIANTS)
        replays = summarize(evaluator.tracer.snapshot()).stage("sim:replay")
        # the workers' replays were absorbed into the parent's tracer;
        # ideal is the baseline's bound, never a replay
        assert replays.calls == len(VARIANTS) - 1
        # every variant must now come from the in-memory/persistent
        # caches — no further simulation in the parent
        for variant in VARIANTS:
            evaluator["wordpress"].stats_for(variant)
        after = summarize(evaluator.tracer.snapshot()).stage("sim:replay")
        assert after.calls == replays.calls

    def test_workers_synthesize_each_app_at_most_once(self, monkeypatch):
        # an empty memo, so forked workers cannot inherit the parent's apps
        monkeypatch.setattr(apps_mod, "_CACHE", {})
        tracer = Tracer()
        evaluator = Evaluator(
            config=RunConfig(settings=SETTINGS, jobs=2, tracer=tracer)
        )
        evaluator.prewarm(apps=APPS, variants=VARIANTS)
        synth = Counter(
            (e["tid"], e["args"]["app"])
            for e in tracer.snapshot()
            if e["ph"] == "X" and e["name"] == "app:synthesize"
        )
        assert synth, "no worker synthesized anything"
        assert max(synth.values()) == 1, synth

    def test_ephemeral_store_created_for_parallel_runs(self):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        assert evaluator.store is None
        evaluator._ensure_store()
        assert isinstance(evaluator.store, ArtifactStore)
        assert evaluator._ephemeral_store is not None


    def test_variants_sharing_a_stats_key_replay_once(self, monkeypatch):
        """Two members that train one plan share its stats key: a
        two-worker prewarm replays that key in one job and stores the
        stats under both variants, run after run."""
        from repro.baselines import protocol
        from repro.baselines.ispy import ISpyPrefetcher

        protocol._load_zoo()
        # forked workers inherit the shadow registry; teardown drops it
        monkeypatch.setattr(protocol, "_REGISTRY", dict(protocol._REGISTRY))
        protocol.register_prefetcher(
            "ispy-twin", lambda: ISpyPrefetcher(name="ispy-twin")
        )
        variants = ("ispy", "ispy-twin")
        for _ in range(2):
            evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
            evaluator.prewarm(apps=["wordpress"], variants=variants)
            summary = summarize(evaluator.tracer.snapshot())
            assert summary.stage("sim:replay").calls == 1
            evaluation = evaluator["wordpress"]
            assert evaluation._variant_key("ispy") == evaluation._variant_key(
                "ispy-twin"
            )
            assert evaluation._stats["ispy"] is evaluation._stats["ispy-twin"]


class TestPersistentWarmRun:
    def test_second_run_skips_profiling_and_simulation(
        self, tmp_path, serial_records
    ):
        cold = Evaluator(
            config=RunConfig(settings=SETTINGS, store=tmp_path / "cache")
        )
        cold.prewarm(apps=["wordpress"], variants=VARIANTS)
        cold_summary = summarize(cold.tracer.snapshot())
        # ideal is the baseline's bound: neither replayed nor stored
        assert cold_summary.stage("sim:replay").calls == len(VARIANTS) - 1
        assert cold_summary.stage("profiling:execution").calls == 1

        warm = Evaluator(
            config=RunConfig(settings=SETTINGS, store=tmp_path / "cache")
        )
        warm.prewarm(apps=["wordpress"], variants=VARIANTS)
        warm_summary = summarize(warm.tracer.snapshot())
        assert warm_summary.stage("sim:replay").calls == 0
        assert warm_summary.stage("profiling:execution").calls == 0
        assert warm_summary.stage("app:synthesize").calls == 0
        assert warm_summary.store_hits.get("stats") == len(VARIANTS) - 1
        for variant in VARIANTS:
            assert (
                stats_to_record(warm["wordpress"].stats_for(variant))
                == serial_records[("wordpress", variant)]
            )

    def test_warm_mechanism_variants_never_synthesize_or_train(
        self, tmp_path, monkeypatch
    ):
        variants = DEFAULT_PREWARM_VARIANTS + ("nextline", "fdip", "mana")
        cache = tmp_path / "cache"
        cold = Evaluator(config=RunConfig(settings=SETTINGS, store=cache))
        cold.prewarm(apps=["wordpress"], variants=variants)

        # a fresh process's view: nothing memoized, only the store
        monkeypatch.setattr(apps_mod, "_CACHE", {})
        warm = Evaluator(config=RunConfig(settings=SETTINGS, store=cache))
        warm.prewarm(apps=["wordpress"], variants=variants)
        summary = summarize(warm.tracer.snapshot())
        for stage in ("app:synthesize", "profiling:execution", "sim:replay"):
            assert summary.stage(stage).calls == 0, stage
        assert "profile" not in summary.store_hits
        trained = {
            name: entry.calls
            for name, entry in summary.stages.items()
            if name.startswith("plan:") and entry.calls
        }
        assert trained == {}
        for variant in variants:
            assert stats_to_record(
                warm["wordpress"].stats_for(variant)
            ) == stats_to_record(cold["wordpress"].stats_for(variant)), variant


#: a report small enough for the tier-1 suite; the per-app figures run
#: on two apps, the sweeps on their own default apps
REPORT_SETTINGS = ExperimentSettings(
    profile_length=4_000, eval_length=2_000, warmup=500, scale=0.05
)
REPORT_APPS = ("wordpress", "kafka")

#: span names that mean a run built something instead of reading it
BUILD_SPANS = ("app:synthesize", "profiling:execution")
BUILD_PREFIXES = ("plan:", "sim:", "prewarm:")


def _report(cache, jobs=2):
    """One ``repro report --jobs N --cache`` run, in process."""
    config = RunConfig(
        settings=REPORT_SETTINGS, store=cache, jobs=jobs, command="report"
    )
    with config.session() as evaluator:
        text = generate_report(evaluator, apps=REPORT_APPS)
    return text, config.tracer.snapshot()


def _body(text):
    return [
        line for line in text.splitlines()
        if not line.startswith("_Generated in")
    ]


def _log_profile_loads(patch, log):
    """Patch the store so that every profile it loads appends ``<pid>
    <key>`` to *log*, from forked workers too (a lookup that misses is
    not a load)."""
    log.touch()
    load_profile = ArtifactStore.load_profile

    def logged(store, key):
        profile = load_profile(store, key)
        if profile is not None:
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {key}\n")
        return profile

    patch.setattr(ArtifactStore, "load_profile", logged)
    return log


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A store filled by one cold ``--jobs 2`` report, that report's
    text and events, and how often each process loaded each profile
    from the store (``(pid, key) -> loads``)."""
    root = tmp_path_factory.mktemp("report")
    cache = root / "cache"
    with pytest.MonkeyPatch.context() as patch:
        log = _log_profile_loads(patch, root / "profile-loads")
        text, events = _report(cache)
    loads = Counter(tuple(line.split()) for line in log.read_text().splitlines())
    return cache, text, events, loads


@pytest.fixture(scope="module")
def serial_report(tmp_path_factory):
    """The text and events of a cold ``--jobs 1`` report."""
    return _report(tmp_path_factory.mktemp("serial") / "cache", jobs=1)


class TestParallelReport:
    """A cold ``--jobs 2`` report runs the sweeps in the pool: the
    parent only reads what the workers stored."""

    def test_body_equals_serial(self, filled_cache, serial_report):
        assert _body(filled_cache[1]) == _body(serial_report[0])

    def test_parent_builds_nothing_after_the_pool(self, filled_cache):
        spans = [e for e in filled_cache[2] if e["ph"] == "X"]
        assert any(e["name"] == "job:evaluate-sweep" for e in spans)
        (simulate,) = [e for e in spans if e["name"] == "prewarm:simulate"]
        end = simulate["ts"] + simulate["dur"]
        late = [
            e["name"] for e in spans
            # the parent's own thread: absorbed worker spans carry the
            # worker's pid as their tid
            if e["tid"] == e["pid"] and e["ts"] >= end
            and e["name"].startswith(("plan:", "sim:"))
        ]
        assert late == []

    def test_sweep_jobs_are_no_wider_than_a_figure_run(self, filled_cache):
        """A worker holds no more replays' cache state at once than a
        figure's own ``run_plans`` call does."""
        config = RunConfig(settings=REPORT_SETTINGS, store=filled_cache[0])
        evaluation = Evaluator(config=config)["kafka"]
        with evaluation.stored_plans():
            runs = exp_mod.sweep_requests(evaluation)
        widest = max(len(items) for items, _ in runs)
        widths = [
            e["args"]["variants"] for e in filled_cache[2]
            if e["ph"] == "X" and e["name"] == "job:evaluate-sweep"
        ]
        assert max(widths) <= widest, (widths, widest)

    def test_replays_per_backend_equal_serial(self, filled_cache, serial_report):
        """Each stats key is replayed once, in whichever process."""
        parallel = summarize(filled_cache[2]).backend_counts
        assert parallel == summarize(serial_report[1]).backend_counts
        assert parallel

    def test_workers_load_each_profile_at_most_once(self, filled_cache):
        loads = filled_cache[3]
        assert loads, "no process loaded a profile"
        assert max(loads.values()) == 1, loads.most_common(3)


class TestWarmReport:
    """A report over a filled store reads the store and builds nothing:
    no synthesis, profiling, training, simulation or worker pool."""

    @pytest.fixture
    def warm_cache(self, filled_cache, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        shutil.copytree(filled_cache[0], cache)
        # a fresh process's view: no app memoized
        monkeypatch.setattr(apps_mod, "_CACHE", {})
        return cache

    def test_warm_report_reads_only_the_store(self, filled_cache, warm_cache):
        text, events = _report(warm_cache)
        spans = Counter(e["name"] for e in events if e["ph"] == "X")
        built = {
            name: calls for name, calls in spans.items()
            if name in BUILD_SPANS or name.startswith(BUILD_PREFIXES)
        }
        assert built == {}
        assert spans["run:report"] == 1
        assert _body(text) == _body(filled_cache[1])

    def test_warm_report_loads_each_plan_once(self, warm_cache, monkeypatch):
        loads = Counter()
        load_plan = ArtifactStore.load_plan

        def counted(store, key):
            loads[key] += 1
            return load_plan(store, key)

        monkeypatch.setattr(ArtifactStore, "load_plan", counted)
        _report(warm_cache)
        assert loads
        assert max(loads.values()) == 1, loads.most_common(3)


class TestCorruptSummaries:
    """A truncated or garbage summary file is a miss: the value is
    recomputed and the file rewritten, as for plans and stats."""

    @pytest.mark.parametrize("garbage", ['{"format": "train-sum', "[1, 2]"])
    def test_train_summary(self, tmp_path, garbage):
        cache = tmp_path / "cache"
        cold = Evaluator(config=RunConfig(settings=SETTINGS, store=cache))
        fresh = cold["wordpress"].ispy_summary()
        store = ArtifactStore(cache)
        key = cold["wordpress"]._plan_key(get_prefetcher("ispy"))
        path = store._path("trains", key)
        path.write_text(garbage)

        warm = Evaluator(config=RunConfig(settings=SETTINGS, store=cache))
        assert warm["wordpress"].ispy_summary() == fresh
        assert summarize(warm.tracer.snapshot()).stage("plan:ispy").calls == 1
        assert store.load_train_summary(key) == fresh

    @pytest.mark.parametrize("garbage", ['{"format": "app-sum', '"text"'])
    def test_app_summary(self, tmp_path, garbage):
        cache = tmp_path / "cache"
        cold = Evaluator(config=RunConfig(settings=SETTINGS, store=cache))
        text_bytes = cold["wordpress"].text_bytes
        store = ArtifactStore(cache)
        path = store._path("apps", cold["wordpress"]._key("app"))
        path.write_text(garbage)

        warm = Evaluator(config=RunConfig(settings=SETTINGS, store=cache))
        assert warm["wordpress"].text_bytes == text_bytes
        assert store.load_app_summary(cold["wordpress"]._key("app")).text_bytes == (
            text_bytes
        )


def _changed(value):
    """A different value of the same kind (validation is bypassed)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-changed"
    if isinstance(value, tuple):
        return value + value[-1:]
    raise TypeError(type(value))


def _with_field(obj, name):
    clone = copy.copy(obj)
    object.__setattr__(clone, name, _changed(getattr(obj, name)))
    return clone


#: unscaled, so a changed spec field reaches the keys as it is
KEY_SETTINGS = dataclasses.replace(SETTINGS, scale=1.0)


class TestSummaryKeysComplete:
    """The app summary's key and the train summaries' keys (their
    plans' keys) change with everything their values depend on."""

    @staticmethod
    def keys(settings=KEY_SETTINGS, **planners):
        evaluation = Evaluator(settings)["wordpress"]
        keys = {"app": evaluation._key("app")}
        for label, prefetcher in planners.items():
            keys[label] = evaluation._plan_key(prefetcher)
        return keys

    @staticmethod
    def default_planners():
        return {
            "ispy": get_prefetcher("ispy"),
            "asmdb": get_prefetcher("asmdb"),
        }

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AppSpec)])
    def test_every_spec_field(self, monkeypatch, name):
        spec = apps_mod.app_spec("wordpress")
        base = self.keys(**self.default_planners())
        monkeypatch.setattr(exp_mod, "app_spec", lambda app: _with_field(spec, name))
        changed = self.keys(**self.default_planners())
        assert all(changed[k] != base[k] for k in base), name

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ExperimentSettings)]
    )
    def test_every_setting(self, name):
        base = self.keys(**self.default_planners())
        changed = self.keys(
            _with_field(KEY_SETTINGS, name), **self.default_planners()
        )
        assert all(changed[k] != base[k] for k in base), name

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ISpyConfig)])
    def test_every_ispy_parameter(self, name):
        config = _with_field(DEFAULT_CONFIG, name)
        base = self.keys(
            ispy=get_prefetcher("ispy"), asmdb=get_prefetcher("asmdb")
        )
        changed = self.keys(
            ispy=get_prefetcher("ispy", config=config),
            asmdb=get_prefetcher("asmdb", config=config),
        )
        assert changed["ispy"] != base["ispy"], name
        assert changed["asmdb"] != base["asmdb"], name
        assert changed["app"] == base["app"]

    def test_asmdb_threshold(self):
        assert self.keys(asmdb=get_prefetcher("asmdb"))["asmdb"] != self.keys(
            asmdb=get_prefetcher("asmdb", fanout_threshold=0.5)
        )["asmdb"]

    #: hash-alias: an adversarial app whose built spec differs from
    #: the evaluation's in a field the trace metadata does not read
    @pytest.mark.parametrize("app", GENERALIZATION_APPS + ("hash-alias",))
    @pytest.mark.parametrize("input_name", INPUT_NAMES)
    def test_fig16_trace_parts_match_the_built_trace(self, app, input_name):
        """Fig. 16 keys an input's replays on the trace's generating
        parameters; they must equal the parts of the trace it builds
        the way it always has, so its stats keys are unchanged."""
        evaluation = Evaluator(SETTINGS)[app]
        built = evaluation.app
        seed = built.spec.seed + 50_000 + zlib.crc32(input_name.encode()) % 1000
        trace = built.trace(
            SETTINGS.eval_length,
            seed=seed,
            mix=input_mixes(built)[input_name],
            input_name=input_name,
        )
        params = InputTrace(evaluation.spec, input_name, SETTINGS.eval_length, seed)
        assert evaluation._trace_parts(params) == evaluation._trace_parts(trace)
        assert list(params.build(built).block_ids) == list(trace.block_ids)


def test_train_summary_of_a_fresh_report():
    evaluation = Evaluator(SETTINGS)["wordpress"]
    ispy = evaluation.ispy_result()
    summary = TrainSummary.of(ispy)
    assert summary.coverage == ispy.report.coverage
    assert summary.contexts == len(ispy.report.contexts)
    assert summary.coalesce_stats == ispy.report.coalesce_stats
    asmdb = evaluation.asmdb_result()
    assert TrainSummary.of(asmdb).coverage == asmdb.report.coverage
    assert TrainSummary.of(asmdb).coalesce_stats is None


class TestKeyGranularity:
    """Sweep points must never alias each other's cached artifacts."""

    def evaluation(self):
        return Evaluator(SETTINGS)["wordpress"]

    def test_key_depends_on_settings(self):
        a = self.evaluation()
        b = Evaluator(
            ExperimentSettings(
                profile_length=12_000,
                eval_length=15_000,
                warmup=4_000,  # only the warmup differs
                scale=0.25,
            )
        )["wordpress"]
        assert a._stats_key(None, 16, False, None) != b._stats_key(
            None, 16, False, None
        )

    def test_key_depends_on_run_parameters(self):
        ev = self.evaluation()
        base = ev._stats_key(None, 16, False, None)
        assert ev._stats_key(None, 8, False, None) != base
        assert ev._stats_key(None, 16, True, None) != base

    def test_key_depends_on_trace_identity(self):
        ev = self.evaluation()
        app = ev.app
        t1 = app.trace(2_000, seed=1, input_name="a")
        t2 = app.trace(2_000, seed=2, input_name="a")
        t3 = app.trace(2_000, seed=1, input_name="b")
        keys = {
            ev._stats_key(None, 16, False, t)
            for t in (None, t1, t2, t3)
        }
        assert len(keys) == 4

    def test_plan_keys_depend_on_planner_parameters(self):
        from repro.baselines import get_prefetcher
        from repro.core.config import DEFAULT_CONFIG

        ev = self.evaluation()

        def plan_key(prefetcher):
            return ev._key("plan", **prefetcher.plan_key_parts())

        assert plan_key(
            get_prefetcher("asmdb", fanout_threshold=0.90)
        ) != plan_key(get_prefetcher("asmdb", fanout_threshold=0.95))
        assert plan_key(get_prefetcher("ispy")) != plan_key(
            get_prefetcher("ispy", config=DEFAULT_CONFIG.conditional_only())
        )

    def test_sweep_stats_do_not_alias(self, tmp_path):
        """Fig. 3-style sweep: distinct thresholds, distinct artifacts."""
        evaluator = Evaluator(
            config=RunConfig(settings=SETTINGS, store=tmp_path / "cache")
        )
        ev = evaluator["wordpress"]
        low = ev.run_plan(ev.asmdb_plan(0.5))
        high = ev.run_plan(ev.asmdb_plan(0.99))
        # the two planner outputs genuinely differ, and so must the
        # cached stats entries (no aliasing between sweep points)
        assert stats_to_record(low) != stats_to_record(high)
        assert summarize(evaluator.tracer.snapshot()).stage("sim:replay").calls == 2


def test_a_worker_loads_each_profile_once(tmp_path, monkeypatch):
    """The jobs one worker runs share one load of a stored profile,
    however many of them train on it."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.analysis import jobs

    store = str(tmp_path / "cache")
    log = _log_profile_loads(monkeypatch, tmp_path / "profile-loads")
    with ProcessPoolExecutor(max_workers=1) as worker:
        worker.submit(
            jobs.prepare_app, "wordpress", (), REPORT_SETTINGS, store
        ).result()
        for variant in ("contiguous8", "noncontiguous8"):
            worker.submit(
                jobs.evaluate_variant, "wordpress", variant, REPORT_SETTINGS,
                store,
            ).result()
    assert len(log.read_text().splitlines()) == 1


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(-2) >= 1


def test_default_prewarm_variants_are_known():
    evaluator = Evaluator(SETTINGS)
    evaluation = evaluator["wordpress"]
    for variant in DEFAULT_PREWARM_VARIANTS:
        # stats_for would raise KeyError on an unknown name; probing
        # the dispatch table must not require running simulations
        assert variant in (
            "baseline", "ideal", "asmdb", "ispy", "ispy-conditional",
            "ispy-coalescing", "contiguous8", "noncontiguous8", "nextline",
        )
    assert evaluation.name == "wordpress"

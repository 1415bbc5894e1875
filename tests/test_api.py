"""Top-level package API tests."""

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.nonexistent_thing

    def test_dir_lists_exports(self):
        listing = dir(repro)
        assert "simulate" in listing
        assert "ISpy" in listing

    def test_exports_are_canonical_objects(self):
        from repro.core.ispy import ISpy as canonical

        assert repro.ISpy is canonical

    def test_app_names_exported(self):
        assert len(repro.APP_NAMES) == 9

    def test_dir_matches_all(self):
        assert sorted(dir(repro)) == sorted(repro.__all__)

    def test_observability_exports_are_canonical(self):
        from repro.obs.manifest import RunManifest
        from repro.obs.trace import Tracer
        from repro.runconfig import RunConfig

        assert repro.RunConfig is RunConfig
        assert repro.Tracer is Tracer
        assert repro.RunManifest is RunManifest


class TestApiSnapshot:
    """The public surface is a contract: additions are deliberate,
    removals are breaking.  Update this snapshot when the API changes
    on purpose."""

    SNAPSHOT = frozenset(
        {
            # simulator
            "simulate", "CoreSimulator", "MachineParams", "SimStats",
            "Program", "BlockInfo", "BlockTrace",
            # workloads
            "APP_NAMES", "get_app", "build_app", "AppSpec", "synthesize",
            # profiling
            "profile_execution", "ExecutionProfile",
            # core
            "ISpy", "ISpyConfig", "build_ispy_plan", "PrefetchPlan",
            "PrefetchInstr",
            # baselines (the prefetcher zoo)
            "Prefetcher", "get_prefetcher", "prefetcher_names",
            "build_asmdb_plan",
            # analysis
            "Evaluator", "ExperimentSettings", "render_table",
            # run configuration & observability
            "RunConfig", "Tracer", "RunManifest",
        }
    )

    def test_all_matches_snapshot(self):
        assert set(repro.__all__) == self.SNAPSHOT | {"__version__"}

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__ if n != "__version__"]
        assert names == sorted(names)
        assert len(repro.__all__) == len(set(repro.__all__))


class TestBaselinesApiSnapshot:
    """The prefetcher-zoo package surface, same contract as above."""

    SNAPSHOT = frozenset(
        {
            # protocol & registry
            "Footprint", "MechanismPrefetcher", "Prefetcher", "ProfileView",
            "ReplayContext", "capability_rows", "get_prefetcher",
            "plan_of", "plan_prefetcher_names", "prefetcher_names",
            "register_prefetcher",
            # asmdb
            "ASMDB_FANOUT_THRESHOLD", "AsmDBPrefetcher", "AsmDBResult",
            "build_asmdb_plan",
            # window limit study and next-N-line
            "NextLinePrefetcher", "WindowPrefetcher", "build_window_plan",
            # fdip
            "BimodalBTB", "FDIPPrefetcher",
            # ideal
            "IdealPrefetcher",
            # ispy adapter
            "ISpyPrefetcher",
            # mana
            "ManaPrefetcher", "ManaResult", "ManaTable",
            "build_mana_table",
        }
    )

    #: every registered zoo member; additions are deliberate
    REGISTRY = frozenset(
        {
            "asmdb",
            "contiguous8",
            "noncontiguous8",
            "fdip",
            "ideal",
            "ispy",
            "ispy-conditional",
            "ispy-coalescing",
            "mana",
            "nextline",
        }
    )

    def test_all_matches_snapshot(self):
        from repro import baselines

        assert set(baselines.__all__) == self.SNAPSHOT

    def test_all_exports_resolve(self):
        from repro import baselines

        for name in baselines.__all__:
            assert getattr(baselines, name) is not None

    def test_all_is_sorted(self):
        from repro import baselines

        assert list(baselines.__all__) == sorted(baselines.__all__)

    def test_registry_matches_snapshot(self):
        from repro.baselines import prefetcher_names

        assert set(prefetcher_names()) == self.REGISTRY

    def test_zoo_exports_are_canonical(self):
        from repro import baselines
        from repro.baselines.protocol import Prefetcher, get_prefetcher

        assert baselines.Prefetcher is Prefetcher
        assert baselines.get_prefetcher is get_prefetcher
        assert repro.Prefetcher is Prefetcher
        assert repro.get_prefetcher is get_prefetcher


class TestDocstringQuickstartShape:
    def test_quickstart_flow_works(self):
        """The README / module docstring flow, miniaturized."""
        app = repro.get_app("tomcat", scale=0.15)
        profile = repro.profile_execution(
            app.program, app.trace(4000), data_traffic=app.data_traffic()
        )
        result = repro.build_ispy_plan(app.program, profile)
        stats = repro.simulate(
            app.program,
            app.trace(4000, seed=7),
            plan=result.plan,
            data_traffic=app.data_traffic(seed=9),
        )
        assert stats.cycles > 0
        assert isinstance(result.plan, repro.PrefetchPlan)

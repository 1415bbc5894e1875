"""I-SPY: context-driven conditional instruction prefetching with
coalescing — a full reproduction of the MICRO 2020 paper.

Subpackages
-----------
``repro.sim``        trace-driven cache/CPU simulator (the ZSim substrate).
``repro.workloads``  synthetic data-center applications (the nine apps).
``repro.profiling``  LBR/PEBS profiling.
``repro.cfg``        fan-out analysis over the profile's dynamic CFG.
``repro.core``       the I-SPY contribution: conditional prefetching,
                     prefetch coalescing, the Cprefetch/Lprefetch/
                     CLprefetch instruction family.
``repro.baselines``  the prefetcher zoo: the :class:`Prefetcher`
                     protocol and registry, plus AsmDB, MANA, FDIP,
                     next-line, Contiguous-8/Non-contiguous-8 and the
                     ideal cache.
``repro.analysis``   metrics and the per-figure experiment harness.

Quickstart
----------
>>> from repro import get_app, profile_execution, build_ispy_plan, simulate
>>> app = get_app("wordpress", scale=0.3)
>>> profile = profile_execution(app.program, app.trace(20_000),
...                             data_traffic=app.data_traffic())
>>> plan = build_ispy_plan(app.program, profile).plan
>>> stats = simulate(app.program, app.trace(20_000, seed=7), plan=plan,
...                  data_traffic=app.data_traffic(seed=9))
"""

from __future__ import annotations

__version__ = "1.0.0"

#: name -> "module:attribute" for the curated top-level API.
_EXPORTS = {
    # simulator
    "simulate": "repro.sim.cpu:simulate",
    "CoreSimulator": "repro.sim.cpu:CoreSimulator",
    "MachineParams": "repro.sim.params:MachineParams",
    "SimStats": "repro.sim.stats:SimStats",
    "Program": "repro.sim.trace:Program",
    "BlockInfo": "repro.sim.trace:BlockInfo",
    "BlockTrace": "repro.sim.trace:BlockTrace",
    # workloads
    "APP_NAMES": "repro.workloads.apps:APP_NAMES",
    "get_app": "repro.workloads.apps:get_app",
    "build_app": "repro.workloads.apps:build_app",
    "AppSpec": "repro.workloads.synthesis:AppSpec",
    "synthesize": "repro.workloads.synthesis:synthesize",
    # profiling
    "profile_execution": "repro.profiling.profiler:profile_execution",
    "ExecutionProfile": "repro.profiling.profiler:ExecutionProfile",
    # core
    "ISpy": "repro.core.ispy:ISpy",
    "ISpyConfig": "repro.core.config:ISpyConfig",
    "build_ispy_plan": "repro.core.ispy:build_ispy_plan",
    "PrefetchPlan": "repro.core.instructions:PrefetchPlan",
    "PrefetchInstr": "repro.core.instructions:PrefetchInstr",
    # baselines (the prefetcher zoo)
    "Prefetcher": "repro.baselines.protocol:Prefetcher",
    "get_prefetcher": "repro.baselines.protocol:get_prefetcher",
    "prefetcher_names": "repro.baselines.protocol:prefetcher_names",
    "build_asmdb_plan": "repro.baselines.asmdb:build_asmdb_plan",
    # analysis
    "Evaluator": "repro.analysis.experiments:Evaluator",
    "ExperimentSettings": "repro.analysis.experiments:ExperimentSettings",
    "render_table": "repro.analysis.reporting:render_table",
    # run configuration & observability
    "RunConfig": "repro.runconfig:RunConfig",
    "Tracer": "repro.obs.trace:Tracer",
    "RunManifest": "repro.obs.manifest:RunManifest",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    """Lazy top-level exports: keeps ``import repro`` cheap."""
    try:
        target = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module_name, _, attribute = target.partition(":")
    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__():
    return __all__

"""The kernel's deferred hierarchy install.

:meth:`PlanBatch.finish` writes each slot's stats and engine state and
hands its caches and fill port to
:meth:`~repro.sim.hierarchy.MemoryHierarchy.defer`: they are rebuilt
the first time anything reads the replayed hierarchy.  These tests pin
the three halves of that contract, with the kernel on:

* whatever route reads it first (the simulator, its engine, a
  reference held from before the run, a later reference-loop
  ``core.run``), the installed state is ``==`` the reference loop's,
  for one-slot and V-slot batches, sharded and checkpoint-resumed runs;
* a caller that reads only stats (``AppEvaluation.run_plans``) installs
  nothing;
* the pending install forms no reference cycle: with the cyclic
  collector off, a replayed core and its batch's lanes die on ``del``.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.io import ArtifactStore
from repro.obs.trace import Tracer, use_tracer
from repro.runconfig import RunConfig
from repro.sim import array_replay
from repro.sim.array_replay import PlanBatch
from repro.sim.cpu import CoreSimulator
from repro.sim.datatraffic import make_data_traffic
from repro.sim.streaming import StoreCheckpointer, run_plan_batch

from ..conftest import (
    KillAfter,
    engine_state,
    make_random_plan,
    make_random_program,
    make_random_trace,
)

WARMUP = 150


def _case():
    """A program, a trace and four plans: none, then three of rising
    density."""
    rng = random.Random(31)
    program = make_random_program(rng, n_blocks=72)
    trace = make_random_trace(rng, 72, length=900, fanout=3)
    plans = [None] + [
        make_random_plan(rng, program, n_sites=sites) for sites in (3, 7, 11)
    ]
    return program, trace, plans


def _core(program, plan):
    traffic = make_data_traffic(
        rate_per_instruction=0.05, working_set_kib=64, seed=5
    )
    return CoreSimulator(program, plan=plan, data_traffic=traffic)


def _levels_state(hierarchy):
    """Residency, pending prefetches and counters of every level, and
    the fill-port clock, read off *hierarchy* itself."""
    state = {}
    for name in ("l1i", "l2", "l3"):
        cache = getattr(hierarchy, name)
        state[name] = (
            {index: list(stack._stack) for index, stack in cache._sets.items()},
            sorted(cache._pending_prefetched),
            cache.stats,
        )
    state["busy"] = hierarchy.fill_port.busy_until
    return state


def _reference(program, trace, plan, **run):
    with kernel.reference_path():
        core = _core(program, plan)
        core.run(trace, warmup=WARMUP, **run)
    assert core.last_replay_backend == "reference"
    return core


def _snap(core, hierarchy):
    return core.stats, _levels_state(hierarchy), engine_state(core)


@pytest.fixture
def installs(monkeypatch):
    """Counts ``_install_cache`` calls (three per installed slot)."""
    calls = []
    real = array_replay._install_cache

    def counted(cache, *args):
        calls.append(cache)
        real(cache, *args)

    monkeypatch.setattr(array_replay, "_install_cache", counted)
    return calls


#: how the first reader reaches the replayed hierarchy
ROUTES = {
    "core": lambda core, held: core.hierarchy,
    "engine": lambda core, held: (
        core.engine.hierarchy if core.engine is not None else core.hierarchy
    ),
    "held": lambda core, held: held,
}


class TestInstalledStateMatchesReference:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("shard_insns", (None, 97))
    def test_one_slot_batches(self, installs, route, shard_insns):
        program, trace, plans = _case()
        for plan in plans:
            core = _core(program, plan)
            held = core.hierarchy
            with kernel.force_numpy_kernel():
                core.run(trace, warmup=WARMUP, shard_insns=shard_insns)
            assert core.last_fallback_reason is None
            assert installs == []
            first = ROUTES[route](core, held)
            ref = _reference(program, trace, plan, shard_insns=shard_insns)
            assert _snap(core, first) == _snap(ref, ref.hierarchy)
            if core.engine is not None:
                assert core.engine.hierarchy is core.hierarchy
            assert len(installs) == 3
            installs.clear()

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("shard_insns", (None, 97))
    def test_v_slot_batches(self, installs, route, shard_insns):
        program, trace, plans = _case()
        cores = [_core(program, plan) for plan in plans]
        held = [core.hierarchy for core in cores]
        with kernel.force_numpy_kernel():
            reasons = run_plan_batch(cores, trace, WARMUP, shard_insns)
        assert reasons == [None] * len(cores)
        assert installs == []
        # read the slots out of order: each installs only its own
        for index in reversed(range(len(cores))):
            core = cores[index]
            first = ROUTES[route](core, held[index])
            ref = _reference(program, trace, plans[index],
                             shard_insns=shard_insns)
            assert _snap(core, first) == _snap(ref, ref.hierarchy), index
        assert len(installs) == 3 * len(cores)

    @pytest.mark.parametrize("plan_index", (0, 2))
    def test_checkpoint_resumed_run(self, installs, tmp_path, plan_index):
        program, trace, plans = _case()
        plan = plans[plan_index]
        store = ArtifactStore(tmp_path)
        parts = {"case": "deferred-install"}
        with kernel.force_numpy_kernel():
            with pytest.raises(KeyboardInterrupt):
                _core(program, plan).run(
                    trace, warmup=WARMUP, shard_insns=120,
                    checkpointer=KillAfter(store, parts, 3),
                )
            core = _core(program, plan)
            tracer = Tracer()
            with use_tracer(tracer):
                core.run(
                    trace, warmup=WARMUP, shard_insns=120,
                    checkpointer=StoreCheckpointer(store, parts),
                )
        names = [e["name"] for e in tracer.snapshot()]
        assert "sim:resume" in names
        assert installs == []
        ref = _reference(program, trace, plan, shard_insns=120)
        assert _snap(core, core.hierarchy) == _snap(ref, ref.hierarchy)

    @pytest.mark.parametrize("plan_index", (0, 2))
    def test_later_reference_run_composes(self, plan_index):
        """A replayed core is not pristine: its next run takes the
        reference loop from the installed state."""
        program, trace, plans = _case()
        plan = plans[plan_index]
        core = _core(program, plan)
        with kernel.force_numpy_kernel():
            core.run(trace, warmup=WARMUP)
            core.run(trace)
        assert core.last_fallback_reason == "state-not-pristine"
        ref = _reference(program, trace, plan)
        with kernel.reference_path():
            ref.run(trace)
        assert _snap(core, core.hierarchy) == _snap(ref, ref.hierarchy)

    def test_install_runs_once_under_its_own_span(self, installs):
        program, trace, plans = _case()
        core = _core(program, plans[1])
        tracer = Tracer()
        with kernel.force_numpy_kernel(), use_tracer(tracer):
            core.run(trace, warmup=WARMUP)
            assert not any(
                e["name"] == "batch:install" for e in tracer.snapshot()
            )
            core.hierarchy.l2
            core.engine.hierarchy.l1i
            core.hierarchy.is_pristine()
        spans = [e for e in tracer.snapshot() if e["name"] == "batch:install"]
        assert len(spans) == 1
        assert len(installs) == 3

    def test_unknown_attributes_still_raise(self):
        program, trace, _ = _case()
        core = _core(program, None)
        with kernel.force_numpy_kernel():
            core.run(trace)
        with pytest.raises(AttributeError):
            core.hierarchy.no_such_attribute
        assert not hasattr(core.hierarchy, "__deepcopy__")
        # neither lookup installed anything
        assert "_deferred" in vars(core.hierarchy)


class TestStatsOnlyCallers:
    def test_run_plans_installs_nothing(self, installs):
        tracer = Tracer()
        settings = ExperimentSettings(
            profile_length=4_000, eval_length=3_000, warmup=1_000, scale=0.1
        )
        evaluation = Evaluator(
            config=RunConfig(settings=settings, tracer=tracer)
        )["kafka"]
        with kernel.force_numpy_kernel():
            plan = evaluation.ispy_plan()
            # a one-slot call, then a batch of the baseline and two plans
            evaluation.run_plans([plan])
            evaluation.run_plans(
                [None, evaluation.asmdb_plan(), (plan, {"hash_bits": 8})]
            )
        names = [e["name"] for e in tracer.snapshot()]
        assert names.count("sim:replay") >= 1
        assert names.count("sim:batch-sweep") == 1
        assert installs == []
        assert "batch:install" not in names


class TestNoReferenceCycle:
    @pytest.fixture
    def collector_off(self):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.fixture
    def lanes(self, monkeypatch):
        """Weak references to the L2/L3 lanes of every finished batch."""
        refs = []
        finish = PlanBatch.finish

        def watched(batch):
            refs.extend((weakref.ref(batch.l2), weakref.ref(batch.l3)))
            finish(batch)

        monkeypatch.setattr(PlanBatch, "finish", watched)
        return refs

    @pytest.mark.parametrize("read_first", (False, True))
    def test_one_slot_core_dies_on_del(self, collector_off, lanes, read_first):
        program, trace, plans = _case()
        core = _core(program, plans[2])
        with kernel.force_numpy_kernel():
            core.run(trace, warmup=WARMUP)
        assert all(ref() is not None for ref in lanes)
        if read_first:
            core.hierarchy.l1i
            # the install drops the lanes with the pending closure
            assert [ref() for ref in lanes] == [None, None]
        refs = [weakref.ref(core), weakref.ref(core.engine)] + lanes
        del core
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_batched_cores_die_on_del(self, collector_off, lanes):
        program, trace, plans = _case()
        cores = [_core(program, plan) for plan in plans]
        with kernel.force_numpy_kernel():
            run_plan_batch(cores, trace, WARMUP)
        # one core installed, the rest still pending
        cores[1].hierarchy.l3
        refs = [weakref.ref(core) for core in cores] + lanes
        del cores
        assert [ref() for ref in refs] == [None] * len(refs)

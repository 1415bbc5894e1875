"""Shared fixtures and factories: deterministic programs, seeded
random traces/plans, and microarchitectural state snapshots.

The randomized factories are the one source of generated inputs for
the differential suites — every test that wants "a random program
with a random trace and maybe a random plan" builds it here, from an
explicit ``random.Random`` so failures replay from the seed alone.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import strategies as st

from repro.core.hashing import context_mask
from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.profiling.profiler import profile_execution
from repro.sim.params import line_of
from repro.sim.streaming import StoreCheckpointer
from repro.sim.trace import BlockInfo, BlockTrace, Program
from repro.workloads.adversarial import ADVERSARIAL_APP_NAMES
from repro.workloads.apps import build_app, get_app


def make_program(block_sizes, base_address=0x400000, name="test-program"):
    """A program with the given per-block byte sizes, laid out
    contiguously from *base_address*."""
    blocks = []
    address = base_address
    for block_id, size in enumerate(block_sizes):
        blocks.append(
            BlockInfo(
                block_id=block_id,
                address=address,
                size_bytes=size,
                instruction_count=max(1, size // 4),
            )
        )
        address += size
    return Program(blocks, name=name)


def make_random_program(rng, n_blocks=48, sizes=(32, 64, 128, 192), name=None):
    """A seeded random program.  *n_blocks* (against the 32 KiB L1I)
    is the miss-density knob: small programs fit and mostly hit, large
    ones thrash."""
    return make_program(
        [rng.choice(sizes) for _ in range(n_blocks)],
        name=name or f"random-{n_blocks}b",
    )


def make_random_trace(rng, n_blocks, length, fanout=4):
    """A seeded Markov walk over a random CFG.

    Each block gets *fanout* successors drawn once; low fan-out yields
    loopy, predictable traces, high fan-out approaches uniform-random
    block selection.
    """
    successors = {
        block: [rng.randrange(n_blocks) for _ in range(max(1, fanout))]
        for block in range(n_blocks)
    }
    current = rng.randrange(n_blocks)
    ids = []
    for _ in range(length):
        ids.append(current)
        current = rng.choice(successors[current])
    return BlockTrace(ids, {"generator": "markov", "fanout": fanout})


def make_random_plan(rng, program, n_sites=6, hash_bits=16):
    """A seeded random prefetch plan mixing every instruction kind
    (plain, coalesced, conditional, both).  *n_sites* is the plan-
    density knob."""
    n_blocks = len(list(program))
    instrs = []
    for _ in range(n_sites):
        site = rng.randrange(n_blocks)
        target = line_of(program.block(rng.randrange(n_blocks)).address)
        bit_vector = rng.randrange(1, 8) if rng.random() < 0.4 else 0
        if rng.random() < 0.5:
            ctx = tuple(sorted(
                {rng.randrange(n_blocks) for _ in range(rng.randint(1, 3))}
            ))
            mask = context_mask(
                [program.block(b).address for b in ctx], hash_bits
            )
            instrs.append(PrefetchInstr(
                site_block=site, base_line=target, bit_vector=bit_vector,
                context_mask=mask, context_blocks=ctx,
            ))
        else:
            instrs.append(PrefetchInstr(
                site_block=site, base_line=target, bit_vector=bit_vector,
            ))
    plan = PrefetchPlan(f"random-{n_sites}s")
    plan.extend(instrs)
    return plan


class KillAfter(StoreCheckpointer):
    """A checkpointer that dies after its k-th successful save — the
    crash model for the resume tests."""

    def __init__(self, store, parts, kill_at):
        super().__init__(store, parts)
        self.kill_at = kill_at
        self.saves = 0

    def save(self, index, payload):
        super().save(index, payload)
        self.saves += 1
        if self.saves >= self.kill_at:
            raise KeyboardInterrupt("simulated crash")


class PeakCounters(list):
    """A runtime-hash counter list that records the largest value ever
    stored — install it as ``tracker._counters`` to observe the
    transient peak of a push (counted before the eviction)."""

    peak = 0

    def __setitem__(self, index, value):
        self.peak = max(self.peak, value)
        super().__setitem__(index, value)


def hierarchy_state(core):
    """The complete final cache state of a replay: per level, per set,
    MRU-first resident lines, pending-prefetch sets, fill-port clock."""
    levels = (
        ("l1i", core.hierarchy.l1i),
        ("l2", core.hierarchy.l2),
        ("l3", core.hierarchy.l3),
    )
    state = {
        level: {
            index: list(stack._stack)
            for index, stack in cache._sets.items()
        }
        for level, cache in levels
    }
    state["pending"] = {
        level: sorted(cache._pending_prefetched) for level, cache in levels
    }
    state["fill_port_busy"] = core.hierarchy.fill_port.busy_until
    return state


def engine_state(core):
    """The prefetch engine's complete runtime state after a replay."""
    engine = core.engine
    if engine is None:
        return None
    state = {
        "inflight": dict(engine.inflight),
        "tp": engine.true_positive_firings,
        "fp": engine.false_positive_firings,
        "fp_rate": engine.conditional_false_positive_rate,
    }
    if engine.tracker is not None:
        state["fifo"] = engine.tracker.history()
        state["counters"] = engine.tracker.counters()
        state["bits"] = engine.tracker.bits()
    if engine.exact_history is not None:
        state["exact"] = list(engine.exact_history)
    return state


#: the scale the test suites build adversarial apps at (small enough
#: to build in tens of milliseconds, big enough to stress the L1I)
ADVERSARIAL_TEST_SCALE = 0.12


def adversarial_app(name, scale=ADVERSARIAL_TEST_SCALE):
    """A (memoized) adversarial app at the suite's standard scale."""
    return get_app(name, scale)


@st.composite
def adversarial_workloads(draw, lengths=(240, 600)):
    """Hypothesis strategy: one adversarial app plus a seeded trace.

    Draws the generator name, walk seed and trace length; the app
    itself is deterministic per name (memoized via :func:`get_app`),
    so shrinking only moves along the seed/length axes.  Returns
    ``(name, app, trace)``.
    """
    name = draw(st.sampled_from(ADVERSARIAL_APP_NAMES), label="app")
    app = adversarial_app(name)
    seed = draw(st.integers(0, 2**16), label="walk_seed")
    length = draw(st.sampled_from(lengths), label="length")
    return name, app, app.trace(length, seed=seed)


@pytest.fixture(autouse=True)
def _collector_state_restored():
    """Fail a test that leaves the cyclic collector switched other than
    it found it (a run applied and never finalized pauses it), and
    restore it so the rest of the suite runs with the usual collector."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(
            f"test left the cyclic collector "
            f"{'disabled' if enabled else 'enabled'}: finalize the runs "
            "it applies"
        )


@pytest.fixture
def tiny_program():
    """Four 64-byte blocks, one cache line each."""
    return make_program([64, 64, 64, 64])


@pytest.fixture
def tiny_trace():
    return BlockTrace([0, 1, 2, 3, 0, 1, 2, 3])


@pytest.fixture(scope="session")
def small_app():
    """A scaled-down wordpress: big enough to miss, small enough to
    profile in well under a second."""
    return build_app("wordpress", scale=0.25)


@pytest.fixture(scope="session")
def small_profile(small_app):
    trace = small_app.trace(20_000)
    return profile_execution(
        small_app.program, trace, data_traffic=small_app.data_traffic()
    )


@pytest.fixture(scope="session")
def small_eval_trace(small_app):
    return small_app.trace(24_000, seed=small_app.spec.seed + 31337)


@pytest.fixture(scope="session")
def ingested_fixture(tmp_path_factory):
    """A ChampSim-style fixture trace, ingested end to end.

    A small synthetic app's block trace is expanded to instruction
    records, written as a gzip'd ChampSim binary, re-ingested, and
    persisted as an on-disk shard directory — the external-trace path
    the differential and protocol-contract suites replay through every
    backend.  Returns ``(workload, sharded_trace)``.
    """
    from repro.workloads import ingest as ing

    app = build_app("finagle-http", scale=0.2)
    trace = app.trace(6_000, seed=app.spec.seed + 404)
    root = tmp_path_factory.mktemp("ingested")
    path = root / "fixture.trace.gz"
    ing.write_champsim_fixture(path, app.program, trace, compress="gz")
    workload = ing.ingest_trace_file(path)
    sharded = ing.write_ingested(workload, root / "shards", shard_insns=2048)
    return workload, sharded

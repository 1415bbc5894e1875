"""Corrupt or stale replay checkpoints are discarded, never fatal.

A resumed sharded run whose newest checkpoint has a stale header (a
version-1 file, which stored ``merged`` partial stats next to the
carry), a malformed body, or a file that cannot be read back at all, must emit
a ``sim:resume-invalid`` instant naming the reason and replay from the
start — landing on exactly the whole-trace statistics.
"""

from __future__ import annotations

import gzip
import json
import random

import pytest

from repro import kernel
from repro.io import ArtifactStore
from repro.obs.trace import Tracer, use_tracer
from repro.sim.cpu import CoreSimulator
from repro.sim.datatraffic import make_data_traffic
from repro.sim.streaming import StoreCheckpointer

from ..conftest import (
    KillAfter,
    make_random_plan,
    make_random_program,
    make_random_trace,
)

SHARD_INSNS = 300


def _version_one_merged(payload):
    payload["version"] = 1
    payload["merged"] = {"first": 0}


def _drop_first_carry_key(payload):
    carry = payload["carry"]
    del carry[sorted(carry)[0]]


def _bad_rng_state(payload):
    payload["data_model"]["rng"] = [3, [1], None]


#: corruption -> (edit of the decoded payload, or None to truncate the
#: file, and the reason the resume must trace)
CORRUPTIONS = {
    "merged": (_version_one_merged, "header"),
    "carry": (_drop_first_carry_key, "body"),
    "data-model": (_bad_rng_state, "body"),
    "truncated": (None, "unreadable"),
}


def _core(program, plan, ideal):
    traffic = None if ideal else make_data_traffic(
        rate_per_instruction=0.05, working_set_kib=64, seed=5
    )
    return CoreSimulator(program, plan=plan, ideal=ideal, data_traffic=traffic)


@pytest.mark.parametrize(
    "with_plan, ideal",
    [(False, False), (True, False), (False, True)],
    ids=["columnar", "columnar-plan", "columnar-ideal"],
)
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_replays_from_start(
    tmp_path, corruption, with_plan, ideal
):
    if corruption == "data-model" and ideal:
        pytest.skip("ideal replays carry no data-traffic model")
    rng = random.Random(77)
    program = make_random_program(rng, n_blocks=60)
    trace = make_random_trace(rng, 60, length=1_500)
    plan = make_random_plan(rng, program) if with_plan else None
    edit, reason = CORRUPTIONS[corruption]

    with kernel.force_numpy_kernel():
        whole = _core(program, plan, ideal).run(trace, warmup=200)
        store = ArtifactStore(tmp_path)
        parts = {"case": "corrupt-checkpoint"}
        with pytest.raises(KeyboardInterrupt):
            _core(program, plan, ideal).run(
                trace, warmup=200, shard_insns=SHARD_INSNS,
                checkpointer=KillAfter(store, parts, 3),
            )
        (checkpoint,) = (store.base / "shards").glob("*.json.gz")
        if edit is None:
            checkpoint.write_bytes(checkpoint.read_bytes()[:20])
        else:
            payload = json.loads(gzip.decompress(checkpoint.read_bytes()))
            edit(payload)
            checkpoint.write_bytes(gzip.compress(json.dumps(payload).encode()))
        tracer = Tracer()
        with use_tracer(tracer):
            resumed = _core(program, plan, ideal).run(
                trace, warmup=200, shard_insns=SHARD_INSNS,
                checkpointer=StoreCheckpointer(store, parts),
            )

    assert resumed == whole
    instants = [e for e in tracer.snapshot() if e["ph"] == "i"]
    invalid = [e["args"] for e in instants if e["name"] == "sim:resume-invalid"]
    assert invalid == [{"shard": 2, "reason": reason}]
    assert not any(e["name"] == "sim:resume" for e in instants)

"""Adversarial synthetic workloads: stress inputs for I-SPY's own
mechanisms.

The nine :mod:`apps` model *representative* data-center services; the
three generators here model *worst cases* for the paper's two load-
bearing mechanisms — the 16-bit context hash (Section III-A) and the
counting-Bloom runtime subset test (Section III-B) — plus the
phase-changing microservice call chains the MANA line of work
evaluates on:

``hash-alias``
    Every basic block's address is *mined* so its FNV-1 hash-bit
    position lands in a handful of bits (:data:`ALIAS_BITS` of the 16).
    Distinct contexts become indistinguishable after hashing, so the
    conditional subset test saturates — the collision regime Fig. 21
    sweeps hash size to escape.
``bloom-storm``
    Every block aliases onto *one single* hash bit and the footprint
    is a multiple of the L1I, so replay is a miss storm in which each
    LBR push increments the same Bloom counter, driving it to its
    ``lbr_depth + 1`` peak.  The tracker derives its counter width from
    the depth (6 bits at the default 32-deep LBR, peak 33), so this is
    the workload that asserts no counter ever exceeds that width — and
    that the columnar backends stay bit-identical to the reference at
    any depth.
``phase-chain``
    Deep RPC-style call chains (five layers of small functions) whose
    request mix *rotates* through distinct phases within one trace —
    JIT-like phase change: each phase concentrates fetches on a
    different handler's code region, so any profile-driven plan
    trained on one phase mispredicts the next.

All three are first-class apps: :func:`repro.workloads.apps.get_app`
builds them by name (they are listed in ``ADVERSARIAL_APP_NAMES``,
deliberately *not* in the paper's nine-app ``APP_NAMES`` roster), and
the shared test conftest samples them as Hypothesis strategies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.hashing import context_bit_positions
from ..sim.params import CACHE_LINE_BYTES
from ..sim.trace import BlockInfo, BlockTrace, Program
from .cfgmodel import Branch, Call, ControlFlowModel, Jump, Return, Terminator
from .layout import FunctionLayout
from .synthesis import AppSpec, SyntheticApp, scaled_spec, synthesize

#: the hash width the generators target (the paper's default)
HASH_BITS = 16
#: distinct hash-bit positions the ``hash-alias`` program collapses to
ALIAS_BITS = 2

#: canonical order of the adversarial roster
ADVERSARIAL_APP_NAMES: Tuple[str, ...] = (
    "bloom-storm",
    "hash-alias",
    "phase-chain",
)


def _uniform_mix(n: int) -> Tuple[float, ...]:
    return tuple(1.0 / n for _ in range(n))


def mine_aliased_addresses(
    count: int,
    allowed_bits: Sequence[int],
    hash_bits: int = HASH_BITS,
    base: int = 0x400000,
    stride: int = CACHE_LINE_BYTES,
) -> List[int]:
    """The first *count* cache-line-aligned addresses from *base*
    whose FNV-1 position (mod *hash_bits*) falls in *allowed_bits*.

    Deterministic by construction — the acceptance test is a pure
    function of the address — so programs built from the mined pool
    need no stored tables.
    """
    allowed = frozenset(allowed_bits)
    addresses: List[int] = []
    address = base
    while len(addresses) < count:
        if context_bit_positions(address, hash_bits)[0] in allowed:
            addresses.append(address)
        address += stride
    return addresses


def _chain_terminators(
    rng: random.Random,
    blocks: Sequence[int],
    skip_prob: float,
) -> Dict[int, Terminator]:
    """A mostly-linear walk over *blocks*: jumps with occasional
    biased two-way branches that skip one block, ending in Return."""
    terms: Dict[int, Terminator] = {}
    last = len(blocks) - 1
    for index, block in enumerate(blocks[:-1]):
        nxt = blocks[index + 1]
        skip = blocks[min(index + 2, last)]
        if skip != nxt and rng.random() < skip_prob:
            terms[block] = Branch((nxt, skip), (0.7, 0.3))
        else:
            terms[block] = Jump(nxt)
    terms[blocks[-1]] = Return()
    return terms


def _dispatched_app(
    spec: AppSpec,
    handler_blocks: List[List[int]],
    addresses: Sequence[int],
    terms: Dict[int, Terminator],
    block_bytes: int,
) -> SyntheticApp:
    """Assemble a SyntheticApp from pre-built handler chains.

    The last ``request_types + 1`` mined addresses host the driver
    (one dispatch branch + one call stub per handler), mirroring the
    synthesizer's driver-loop structure so input-mix overrides and the
    request-type machinery behave identically.
    """
    n_handlers = len(handler_blocks)
    n_body = sum(len(blocks) for blocks in handler_blocks)
    blocks: List[BlockInfo] = []
    functions: List[FunctionLayout] = []

    cursor = 0
    for handler, members in enumerate(handler_blocks):
        layout = FunctionLayout(
            function_id=handler + 1,
            name=f"handler_{handler}",
            start_address=addresses[cursor],
            block_ids=list(members),
            end_address=addresses[cursor + len(members) - 1] + block_bytes,
        )
        for block_id in members:
            blocks.append(
                BlockInfo(
                    block_id=block_id,
                    address=addresses[cursor],
                    size_bytes=block_bytes,
                    instruction_count=max(1, block_bytes // 4),
                    function_id=handler + 1,
                )
            )
            cursor += 1
        functions.append(layout)

    dispatch = n_body
    stubs = [n_body + 1 + index for index in range(n_handlers)]
    driver = FunctionLayout(
        function_id=0,
        name="driver",
        start_address=addresses[cursor],
        block_ids=[dispatch] + stubs,
        end_address=addresses[cursor + n_handlers] + block_bytes,
    )
    functions.insert(0, driver)
    for block_id in [dispatch] + stubs:
        blocks.append(
            BlockInfo(
                block_id=block_id,
                address=addresses[cursor],
                size_bytes=block_bytes,
                instruction_count=max(1, block_bytes // 4),
                function_id=0,
            )
        )
        cursor += 1

    handler_entries = tuple(members[0] for members in handler_blocks)
    for stub, entry in zip(stubs, handler_entries):
        terms[stub] = Call(entry, dispatch)
    terms[dispatch] = Branch(tuple(stubs), spec.request_mix)

    model = ControlFlowModel(
        terms,
        entry=dispatch,
        type_markers={stub: req for req, stub in enumerate(stubs)},
    )
    return SyntheticApp(
        spec=spec,
        program=Program(blocks, name=spec.name),
        model=model,
        functions=functions,
        dispatch_block=dispatch,
        handler_entries=handler_entries,
    )


# ---------------------------------------------------------------------------
# hash-alias
# ---------------------------------------------------------------------------

_HASH_ALIAS_SPEC = AppSpec(
    name="hash-alias",
    seed=7101,
    request_types=4,
    request_mix=_uniform_mix(4),
    functions_per_layer=(4,),
    data_rate_per_instruction=0.10,
    data_working_set_kib=1024,
)


def build_hash_alias(scale: float = 1.0) -> SyntheticApp:
    """Context-aliasing stream: every block address collapses onto
    :data:`ALIAS_BITS` of the 16 hash bits."""
    spec = _HASH_ALIAS_SPEC
    rng = random.Random(spec.seed)
    per_handler = max(4, int(round(160 * scale)))
    total = spec.request_types * per_handler + spec.request_types + 1
    addresses = mine_aliased_addresses(total, allowed_bits=(3, 11))
    handler_blocks = [
        list(range(h * per_handler, (h + 1) * per_handler))
        for h in range(spec.request_types)
    ]
    terms: Dict[int, Terminator] = {}
    for members in handler_blocks:
        terms.update(_chain_terminators(rng, members, skip_prob=0.25))
    return _dispatched_app(
        spec, handler_blocks, addresses, terms, block_bytes=CACHE_LINE_BYTES
    )


# ---------------------------------------------------------------------------
# bloom-storm
# ---------------------------------------------------------------------------

_BLOOM_STORM_SPEC = AppSpec(
    name="bloom-storm",
    seed=7102,
    request_types=2,
    request_mix=(0.5, 0.5),
    functions_per_layer=(2,),
    data_rate_per_instruction=0.25,
    data_working_set_kib=4096,
)

#: the single hash bit every bloom-storm block increments
BLOOM_STORM_BIT = 0


def build_bloom_storm(scale: float = 1.0) -> SyntheticApp:
    """Bloom-counter-peak miss storm: one hash bit, a footprint
    several L1I multiples wide, and long rotating rings so almost
    every fetch misses."""
    spec = _BLOOM_STORM_SPEC
    rng = random.Random(spec.seed)
    per_handler = max(8, int(round(1024 * scale)))
    total = spec.request_types * per_handler + spec.request_types + 1
    addresses = mine_aliased_addresses(total, allowed_bits=(BLOOM_STORM_BIT,))
    handler_blocks = [
        list(range(h * per_handler, (h + 1) * per_handler))
        for h in range(spec.request_types)
    ]
    terms: Dict[int, Terminator] = {}
    for members in handler_blocks:
        # near-linear rings: maximal distinct-line pressure per request
        terms.update(_chain_terminators(rng, members, skip_prob=0.05))
    return _dispatched_app(
        spec, handler_blocks, addresses, terms, block_bytes=CACHE_LINE_BYTES
    )


# ---------------------------------------------------------------------------
# phase-chain
# ---------------------------------------------------------------------------

_PHASE_CHAIN_SPEC = AppSpec(
    name="phase-chain",
    seed=7103,
    request_types=6,
    request_mix=_uniform_mix(6),
    functions_per_layer=(24, 32, 40, 48, 56),
    shared_per_layer=2,
    stages_range=(3, 6),
    block_bytes_range=(16, 48),
    call_prob=0.45,
    diamond_prob=0.25,
    straightline=0.22,
    loop_prob=0.05,
    data_rate_per_instruction=0.15,
    data_working_set_kib=2048,
)

#: phases per generated phase-chain trace
PHASE_COUNT = 4
#: request-mix mass concentrated on each phase's hot type
PHASE_FOCUS = 0.85


def phase_mix(phase: int, request_types: int) -> Tuple[float, ...]:
    """The request mix of one phase: :data:`PHASE_FOCUS` mass on the
    phase's hot type, the remainder uniform."""
    rest = (1.0 - PHASE_FOCUS) / (request_types - 1)
    return tuple(
        PHASE_FOCUS if t == phase % request_types else rest
        for t in range(request_types)
    )


@dataclass
class PhasedApp(SyntheticApp):
    """A SyntheticApp whose default traces rotate through phases.

    An explicit ``mix`` argument restores ordinary single-mix traces
    (the Fig. 16 input-generalization machinery keeps working); the
    default walk concatenates :attr:`phases` segments, each generated
    under :func:`phase_mix`, modelling JIT-like phase change.
    """

    phases: int = PHASE_COUNT

    def trace(
        self,
        length: int,
        seed: Optional[int] = None,
        mix: Optional[Sequence[float]] = None,
        input_name: str = "default",
    ) -> BlockTrace:
        if mix is not None:
            return super().trace(length, seed=seed, mix=mix,
                                 input_name=input_name)
        walk_seed = self.spec.seed + 0x9E3779B9 if seed is None else seed
        segment = max(1, length // self.phases)
        block_ids: List[int] = []
        for phase in range(self.phases):
            remaining = length - len(block_ids)
            if remaining <= 0:
                break
            want = segment if phase < self.phases - 1 else remaining
            model = self.model.with_branch_probs(
                {self.dispatch_block: phase_mix(phase, self.spec.request_types)}
            )
            block_ids.extend(
                model.generate(min(want, remaining), walk_seed + phase)
            )
        return BlockTrace(
            block_ids[:length],
            metadata={
                "app": self.spec.name,
                "input": input_name,
                "seed": walk_seed,
                "length": length,
                "mix": None,
                "phases": self.phases,
            },
        )


def build_phase_chain(scale: float = 1.0) -> PhasedApp:
    """Microservice call-chain app with JIT-like phase changes."""
    spec = _PHASE_CHAIN_SPEC
    if scale != 1.0:
        spec = scaled_spec(spec, scale)
    base = synthesize(spec)
    return PhasedApp(
        spec=base.spec,
        program=base.program,
        model=base.model,
        functions=base.functions,
        dispatch_block=base.dispatch_block,
        handler_entries=base.handler_entries,
    )


# ---------------------------------------------------------------------------
# registry hooks consumed by workloads.apps
# ---------------------------------------------------------------------------

ADVERSARIAL_SPECS: Dict[str, AppSpec] = {
    "bloom-storm": _BLOOM_STORM_SPEC,
    "hash-alias": _HASH_ALIAS_SPEC,
    "phase-chain": _PHASE_CHAIN_SPEC,
}

ADVERSARIAL_BUILDERS = {
    "bloom-storm": build_bloom_storm,
    "hash-alias": build_hash_alias,
    "phase-chain": build_phase_chain,
}


__all__ = [
    "ADVERSARIAL_APP_NAMES",
    "ADVERSARIAL_BUILDERS",
    "ADVERSARIAL_SPECS",
    "ALIAS_BITS",
    "BLOOM_STORM_BIT",
    "HASH_BITS",
    "PHASE_COUNT",
    "PhasedApp",
    "build_bloom_storm",
    "build_hash_alias",
    "build_phase_chain",
    "mine_aliased_addresses",
    "phase_mix",
]

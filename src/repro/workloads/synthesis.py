"""Synthetic data-center application generator.

The paper's nine applications cannot ship with this reproduction, so
we synthesize applications with the structural properties I-SPY's
mechanisms depend on (see DESIGN.md, "Substitutions"):

* **Layered service structure.**  A driver loop dispatches *requests*
  across request-type handlers; handlers call into layers of service
  functions; a few *shared utilities* per layer have high fan-in.
  This produces the deep software stacks the paper's introduction
  describes, and — crucially — makes I-cache miss behaviour depend on
  *execution context*: whether a shared utility's lines survive in the
  cache depends on which request types ran recently.

* **Large instruction footprints.**  Total code size is a multiple of
  the 32 KiB L1I (hundreds of functions x dozens of blocks), so the
  frontend misses continually, as in Fig. 1.

* **Spatially-near, non-contiguous fetches.**  Blocks of a function
  are laid out contiguously, but only the taken path's blocks are
  fetched, so misses cluster in small windows with holes — the
  pattern prefetch coalescing exploits (Fig. 5).

Every choice is drawn from a ``random.Random`` seeded by the spec, so
applications, traces and therefore experiments are fully
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.trace import BlockTrace, Program
from .cfgmodel import (
    Branch,
    Call,
    ControlFlowModel,
    Jump,
    Return,
    Terminator,
    TypedBranch,
)
from .layout import FunctionLayout, LayoutBuilder


@dataclass(frozen=True)
class AppSpec:
    """Generative parameters for one synthetic application."""

    name: str
    seed: int
    #: number of request types the driver dispatches among
    request_types: int
    #: default input: probability of each request type
    request_mix: Tuple[float, ...]
    #: service functions per layer below the handlers
    functions_per_layer: Tuple[int, ...]
    #: of which, how many are shared high-fan-in utilities
    shared_per_layer: int = 2
    #: stages per function (uniform range)
    stages_range: Tuple[int, int] = (5, 12)
    #: basic-block size in bytes (uniform range)
    block_bytes_range: Tuple[int, int] = (16, 72)
    #: probability mass of the hot arm of a two-way branch
    branch_bias: float = 0.8
    #: per-stage probability of being a straight-line stage
    straightline: float = 0.30
    #: per-stage probability of being an if/else diamond
    diamond_prob: float = 0.35
    #: per-stage probability of being a call stage
    call_prob: float = 0.25
    #: per-stage probability of being a small loop (remainder -> plain)
    loop_prob: float = 0.08
    #: probability a loop body repeats
    loop_continue: float = 0.85
    #: private callees each function draws from the next layer
    callees_range: Tuple[int, int] = (1, 3)
    #: probability a call stage targets a shared utility instead of a
    #: private callee
    shared_call_prob: float = 0.50
    #: per-stage probability that a *shared* function stage is a typed
    #: dispatch (virtual-call-like per-request-type internal paths —
    #: the Fig. 2 context-dependent structure)
    typed_stage_prob_shared: float = 0.60
    #: same, for ordinary service functions
    typed_stage_prob: float = 0.08
    #: blocks per typed-dispatch arm (uniform range)
    typed_arm_blocks: Tuple[int, int] = (4, 8)
    #: background data-side accesses per retired instruction (the
    #: displacement pressure the application's data working set puts
    #: on the unified L2/L3 — see :mod:`repro.sim.datatraffic`)
    data_rate_per_instruction: float = 0.20
    #: data working-set size in KiB
    data_working_set_kib: int = 6144

    def __post_init__(self) -> None:
        if self.request_types <= 0:
            raise ValueError("need at least one request type")
        if len(self.request_mix) != self.request_types:
            raise ValueError("request_mix length must equal request_types")
        if abs(sum(self.request_mix) - 1.0) > 1e-6:
            raise ValueError("request_mix must sum to 1")
        if self.stages_range[0] < 1 or self.stages_range[0] > self.stages_range[1]:
            raise ValueError("invalid stages_range")
        stage_mass = self.straightline + self.diamond_prob + self.call_prob + self.loop_prob
        if stage_mass > 1.0 + 1e-9:
            raise ValueError("stage-kind probabilities exceed 1")


@dataclass
class SyntheticApp:
    """A generated application: static program + dynamic CFG model."""

    spec: AppSpec
    program: Program
    model: ControlFlowModel
    functions: List[FunctionLayout]
    #: the dispatcher branch block (its probs are the input mix)
    dispatch_block: int
    #: handler entry blocks, indexed by request type
    handler_entries: Tuple[int, ...]

    @property
    def name(self) -> str:
        return self.spec.name

    def data_traffic(self, seed: Optional[int] = None):
        """A fresh background data-traffic model for one simulation.

        Seeded from the app spec so repeated runs are identical; pass
        a *seed* to decorrelate (e.g. evaluation vs profiling runs).
        """
        from ..sim.datatraffic import make_data_traffic

        return make_data_traffic(
            self.spec.data_rate_per_instruction,
            self.spec.data_working_set_kib,
            self.spec.seed + 0x5D1 if seed is None else seed,
        )

    def trace(
        self,
        length: int,
        seed: Optional[int] = None,
        mix: Optional[Sequence[float]] = None,
        input_name: str = "default",
    ) -> BlockTrace:
        """Generate a dynamic trace, optionally under a different input mix."""
        model = self.model
        if mix is not None:
            if len(mix) != self.spec.request_types:
                raise ValueError("mix length must equal request_types")
            model = model.with_branch_probs({self.dispatch_block: tuple(mix)})
        walk_seed = self.spec.seed + 0x9E3779B9 if seed is None else seed
        block_ids = model.generate(length, walk_seed)
        return BlockTrace(
            block_ids,
            metadata=trace_metadata(self.spec, length, walk_seed, mix, input_name),
        )


def trace_metadata(
    spec: AppSpec,
    length: int,
    seed: int,
    mix: Optional[Sequence[float]] = None,
    input_name: str = "default",
) -> Dict[str, object]:
    """The ``metadata`` :meth:`SyntheticApp.trace` records on a trace,
    from the parameters that generate it alone.

    Artifact-cache keys hash this metadata, so a caller can look up a
    trace's cached replays before it builds the trace.
    """
    return {
        "app": spec.name,
        "input": input_name,
        "seed": seed,
        "length": length,
        # the actual mix replayed, so traces with the same input name
        # but different mixes stay distinguishable
        "mix": tuple(mix) if mix is not None else None,
    }


class _FunctionBody:
    """Blocks + terminators of one synthesized function."""

    def __init__(self, entry: int):
        self.entry = entry
        self.terminators: Dict[int, Terminator] = {}


def _build_function(
    builder: LayoutBuilder,
    rng: random.Random,
    spec: AppSpec,
    name: str,
    callee_entries: Sequence[int],
    allow_calls: bool,
    typed_prob: float = 0.0,
) -> _FunctionBody:
    """Synthesize one function as a chain of stages.

    Each stage is plain / diamond / call / loop; blocks are emitted in
    layout order so an if/else's not-taken arm occupies the address
    space between the taken arm and the join — the source of
    non-contiguous fetch patterns.
    """
    builder.begin_function(name)

    def block_bytes() -> int:
        return rng.randint(*spec.block_bytes_range)

    entry = builder.add_block(block_bytes())
    body = _FunctionBody(entry)
    terms = body.terminators

    # Blocks whose terminator must point at the next stage head.
    # Entries are (block_id, kind) where kind "jump" or ("loop", prob).
    pending: List[Tuple[int, object]] = [(entry, "jump")]

    def resolve(next_head: int) -> None:
        for block_id, kind in pending:
            if kind == "jump":
                terms[block_id] = Jump(next_head)
            else:  # ("loop", continue_prob)
                _, cont = kind  # type: ignore[misc]
                terms[block_id] = Branch(
                    (block_id, next_head), (cont, 1.0 - cont)
                )
        pending.clear()

    n_stages = rng.randint(*spec.stages_range)
    for _ in range(n_stages):
        if typed_prob and rng.random() < typed_prob:
            # Typed dispatch: one arm per request type.  Only the arm
            # of the *active* type executes, so an arm's blocks are
            # exclusive to that type's requests — the structure that
            # makes context predict future fetches.
            dispatch = builder.add_block(block_bytes())
            resolve(dispatch)
            arm_heads: List[int] = []
            for _type in range(spec.request_types):
                arm = [
                    builder.add_block(block_bytes())
                    for _ in range(rng.randint(*spec.typed_arm_blocks))
                ]
                arm_heads.append(arm[0])
                for block, successor in zip(arm, arm[1:]):
                    terms[block] = Jump(successor)
                pending.append((arm[-1], "jump"))
            terms[dispatch] = TypedBranch(tuple(arm_heads))
            continue
        roll = rng.random()
        if roll < spec.straightline:
            stage_kind = "plain"
        elif roll < spec.straightline + spec.diamond_prob:
            stage_kind = "diamond"
        elif roll < spec.straightline + spec.diamond_prob + spec.call_prob:
            stage_kind = "call" if (allow_calls and callee_entries) else "plain"
        elif roll < (
            spec.straightline + spec.diamond_prob + spec.call_prob + spec.loop_prob
        ):
            stage_kind = "loop"
        else:
            stage_kind = "plain"

        if stage_kind == "plain":
            head = builder.add_block(block_bytes())
            resolve(head)
            pending.append((head, "jump"))
        elif stage_kind == "diamond":
            cond = builder.add_block(block_bytes())
            taken = builder.add_block(block_bytes())
            not_taken = builder.add_block(block_bytes())
            resolve(cond)
            bias = min(0.98, max(0.5, rng.gauss(spec.branch_bias, 0.08)))
            terms[cond] = Branch((taken, not_taken), (bias, 1.0 - bias))
            pending.append((taken, "jump"))
            pending.append((not_taken, "jump"))
        elif stage_kind == "call":
            site = builder.add_block(block_bytes())
            link = builder.add_block(block_bytes())
            resolve(site)
            callee = rng.choice(list(callee_entries))
            terms[site] = Call(callee, link)
            pending.append((link, "jump"))
        else:  # loop
            loop_head = builder.add_block(block_bytes())
            resolve(loop_head)
            pending.append((loop_head, ("loop", spec.loop_continue)))

    ret = builder.add_block(block_bytes())
    resolve(ret)
    terms[ret] = Return()
    builder.end_function()
    return body


def synthesize(spec: AppSpec) -> SyntheticApp:
    """Generate the full application for *spec*."""
    rng = random.Random(spec.seed)
    builder = LayoutBuilder()
    all_terms: Dict[int, Terminator] = {}

    n_layers = len(spec.functions_per_layer)

    # Build from the deepest layer up so callee entries always exist.
    # entries_by_layer[l] lists (entry_block, is_shared) for layer l.
    entries_by_layer: List[List[int]] = [[] for _ in range(n_layers)]
    shared_by_layer: List[List[int]] = [[] for _ in range(n_layers)]

    for layer in range(n_layers - 1, -1, -1):
        count = spec.functions_per_layer[layer]
        if count <= 0:
            raise ValueError("each layer needs at least one function")
        deeper_private = entries_by_layer[layer + 1] if layer + 1 < n_layers else []
        deeper_shared = shared_by_layer[layer + 1] if layer + 1 < n_layers else []
        for index in range(count):
            is_shared = index < min(spec.shared_per_layer, count)
            callees: List[int] = []
            if deeper_private:
                k = rng.randint(*spec.callees_range)
                k = min(k, len(deeper_private))
                callees = rng.sample(deeper_private, k)
            # Shared utilities are reachable from any caller.
            if deeper_shared and rng.random() < spec.shared_call_prob:
                callees.append(rng.choice(deeper_shared))
            body = _build_function(
                builder,
                rng,
                spec,
                name=f"L{layer}_{'shared' if is_shared else 'svc'}_{index}",
                callee_entries=callees,
                allow_calls=layer + 1 < n_layers,
                typed_prob=(
                    spec.typed_stage_prob_shared
                    if is_shared
                    else spec.typed_stage_prob
                ),
            )
            all_terms.update(body.terminators)
            entries_by_layer[layer].append(body.entry)
            if is_shared:
                shared_by_layer[layer].append(body.entry)

    # Handlers: one per request type, each calling into layer 0 with a
    # private slice of the service graph plus the shared utilities.
    handler_entries: List[int] = []
    layer0 = entries_by_layer[0]
    for req in range(spec.request_types):
        k = rng.randint(*spec.callees_range) + 1
        k = min(k, len(layer0))
        callees = rng.sample(layer0, k)
        if shared_by_layer[0] and rng.random() < spec.shared_call_prob:
            callees.append(rng.choice(shared_by_layer[0]))
        body = _build_function(
            builder,
            rng,
            spec,
            name=f"handler_{req}",
            callee_entries=callees,
            allow_calls=True,
        )
        all_terms.update(body.terminators)
        handler_entries.append(body.entry)

    # Driver: a dispatch branch over per-request-type call stubs.
    builder.begin_function("driver")
    dispatch = builder.add_block(24)
    stubs: List[int] = []
    for entry in handler_entries:
        stub = builder.add_block(12)
        all_terms[stub] = Call(entry, dispatch)
        stubs.append(stub)
    builder.end_function()
    all_terms[dispatch] = Branch(tuple(stubs), spec.request_mix)

    program, functions = builder.build(spec.name)
    type_markers = {stub: req for req, stub in enumerate(stubs)}
    model = ControlFlowModel(all_terms, entry=dispatch, type_markers=type_markers)
    return SyntheticApp(
        spec=spec,
        program=program,
        model=model,
        functions=functions,
        dispatch_block=dispatch,
        handler_entries=tuple(handler_entries),
    )


def scaled_spec(spec: AppSpec, scale: float) -> AppSpec:
    """A smaller/larger variant of *spec* (used by fast test suites)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    functions = tuple(
        max(spec.shared_per_layer + 1, int(round(count * scale)))
        for count in spec.functions_per_layer
    )
    return replace(spec, functions_per_layer=functions)

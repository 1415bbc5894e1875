"""The I-SPY code-prefetch instruction family (paper Section III).

Four instruction kinds are injected into application binaries:

===========  =============================================  ==========
kind         operands                                       size
===========  =============================================  ==========
prefetch     address                                        7 bytes
Cprefetch    address, context-hash                          7 + hash
Lprefetch    address, bit-vector                            7 + vector
CLprefetch   address, context-hash, bit-vector              7 + both
===========  =============================================  ==========

The 7-byte base is the size of x86's ``prefetcht*``; the paper adds
one byte for an 8-bit coalescing vector (Lprefetch = 8 bytes) and two
bytes for a 16-bit context hash.  A bit ``i`` set in the coalescing
vector prefetches line ``base_line + i + 1``, so an n-bit vector can
bring in up to ``n + 1`` lines with one instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

#: x86 prefetcht* encoding size in bytes.
BASE_PREFETCH_BYTES = 7


def _operand_bytes(bits: int) -> int:
    """Bytes needed to encode a *bits*-wide immediate operand."""
    return (bits + 7) // 8


@dataclass(frozen=True)
class PrefetchInstr:
    """One injected code-prefetch instruction.

    ``site_block`` is the basic block the instruction is injected
    into; the prefetch executes every time that block does.

    ``context_mask`` (if not None) makes the instruction conditional:
    it only fires when the runtime-hash contains all mask bits.
    ``context_blocks`` records which basic blocks the mask encodes, so
    analyses can compute exact-match ground truth (Fig. 21 false
    positives).

    ``bit_vector`` coalesces additional lines; 0 means a single-line
    prefetch.
    """

    site_block: int
    base_line: int
    bit_vector: int = 0
    context_mask: Optional[int] = None
    context_blocks: Tuple[int, ...] = ()
    context_hash_bits: int = 16
    vector_bits: int = 8
    #: the profiled miss lines this instruction was injected to cover
    covers: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.bit_vector < 0:
            raise ValueError("bit_vector must be non-negative")
        if self.bit_vector >> self.vector_bits:
            raise ValueError(
                f"bit_vector 0x{self.bit_vector:x} does not fit in "
                f"{self.vector_bits} bits"
            )
        if self.context_mask is not None and self.context_mask >> self.context_hash_bits:
            raise ValueError("context_mask wider than context_hash_bits")

    # -- classification -------------------------------------------------

    @property
    def is_conditional(self) -> bool:
        return self.context_mask is not None

    @property
    def is_coalesced(self) -> bool:
        return self.bit_vector != 0

    @property
    def kind(self) -> str:
        if self.is_conditional and self.is_coalesced:
            return "CLprefetch"
        if self.is_conditional:
            return "Cprefetch"
        if self.is_coalesced:
            return "Lprefetch"
        return "prefetch"

    # -- encoding ---------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        size = BASE_PREFETCH_BYTES
        if self.is_conditional:
            size += _operand_bytes(self.context_hash_bits)
        if self.is_coalesced:
            size += _operand_bytes(self.vector_bits)
        return size

    # -- semantics ---------------------------------------------------------

    def target_lines(self) -> Tuple[int, ...]:
        """Cache lines this instruction prefetches when it fires."""
        lines = [self.base_line]
        vector = self.bit_vector
        offset = 1
        while vector:
            if vector & 1:
                lines.append(self.base_line + offset)
            vector >>= 1
            offset += 1
        return tuple(lines)


@dataclass(frozen=True)
class CompiledPrefetch:
    """Replay-ready view of one :class:`PrefetchInstr`.

    The simulator's hot loop needs exactly three things per
    instruction: the expanded coalescing targets, the conditional mask
    (None for unconditional prefetches) and the exact context blocks
    for Fig. 21 accounting.  Compiling them once per plan keeps
    :meth:`PrefetchInstr.target_lines`'s bit-walk out of replay.
    """

    targets: Tuple[int, ...]
    context_mask: Optional[int]
    context_blocks: Tuple[int, ...]


class PrefetchPlan:
    """All instructions injected into one binary (Fig. 9, step 3).

    Maps injection-site block ids to their instruction lists, and
    derives the static-footprint accounting the paper reports
    (Fig. 14): injected bytes over original text bytes.
    """

    def __init__(self, name: str = "plan"):
        self.name = name
        self._by_site: Dict[int, List[PrefetchInstr]] = {}
        self._compiled: Optional[Tuple[int, Dict[int, Tuple[CompiledPrefetch, ...]]]] = None
        #: :func:`repro.io.plan_fingerprint`'s content hash, cached
        #: until the next :meth:`add`
        self.fingerprint: Optional[str] = None

    def add(self, instr: PrefetchInstr) -> None:
        self._by_site.setdefault(instr.site_block, []).append(instr)
        self.fingerprint = None

    def extend(self, instrs: Iterable[PrefetchInstr]) -> None:
        for instr in instrs:
            self.add(instr)

    # -- lookup (hot path for the simulator) ----------------------------

    def at_site(self, block_id: int) -> Tuple[PrefetchInstr, ...]:
        return tuple(self._by_site.get(block_id, ()))

    def site_table(self) -> Mapping[int, List[PrefetchInstr]]:
        """Direct mapping view for the simulator's inner loop."""
        return self._by_site

    def compiled_sites(self) -> Dict[int, Tuple[CompiledPrefetch, ...]]:
        """Per-site :class:`CompiledPrefetch` tuples, cached per plan size.

        The cache is invalidated when instructions are added after the
        first compilation (plans are normally built once, then replayed
        many times).
        """
        cached = self._compiled
        count = len(self)
        if cached is not None and cached[0] == count:
            return cached[1]
        compiled = {
            site: tuple(
                CompiledPrefetch(
                    targets=instr.target_lines(),
                    context_mask=instr.context_mask,
                    context_blocks=instr.context_blocks,
                )
                for instr in instrs
            )
            for site, instrs in self._by_site.items()
        }
        self._compiled = (count, compiled)
        return compiled

    def sites(self) -> Tuple[int, ...]:
        return tuple(self._by_site.keys())

    def __iter__(self) -> Iterator[PrefetchInstr]:
        for instrs in self._by_site.values():
            yield from instrs

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_site.values())

    # -- accounting -----------------------------------------------------

    @property
    def static_bytes(self) -> int:
        return sum(instr.size_bytes for instr in self)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for instr in self:
            counts[instr.kind] = counts.get(instr.kind, 0) + 1
        return counts

    def covered_lines(self) -> Tuple[int, ...]:
        covered = set()
        for instr in self:
            covered.update(instr.target_lines())
        return tuple(sorted(covered))

    def static_increase(self, text_bytes: int) -> float:
        """Static code footprint increase relative to *text_bytes*."""
        if text_bytes <= 0:
            raise ValueError("text_bytes must be positive")
        return self.static_bytes / text_bytes


def empty_plan(name: str = "none") -> PrefetchPlan:
    """A plan with no injected instructions (the no-prefetch baseline)."""
    return PrefetchPlan(name)

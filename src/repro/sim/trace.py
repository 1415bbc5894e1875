"""Static program description and dynamic execution traces.

The whole reproduction operates at *basic-block* granularity, exactly
like the paper's dynamic CFG: a static :class:`Program` maps block ids
to their byte addresses and cache-line spans, and a dynamic
:class:`BlockTrace` is the sequence of block executions the simulator
replays (ZSim's trace-driven mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .params import CACHE_LINE_BYTES, line_of


@dataclass(frozen=True)
class BlockInfo:
    """One static basic block.

    ``address`` is the byte address of the first instruction (the
    block identity used by LBR records and context hashing);
    ``size_bytes`` is the block's code size, which determines the
    cache lines the fetch engine touches.
    """

    block_id: int
    address: int
    size_bytes: int
    instruction_count: int
    function_id: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("basic block must occupy at least one byte")
        if self.instruction_count <= 0:
            raise ValueError("basic block must contain at least one instruction")

    @property
    def lines(self) -> Tuple[int, ...]:
        """Cache lines spanned by this block, in fetch order."""
        first = line_of(self.address)
        last = line_of(self.address + self.size_bytes - 1)
        return tuple(range(first, last + 1))

    @property
    def start_line(self) -> int:
        return line_of(self.address)


class Program:
    """The static side of a workload: every basic block, plus text size.

    Blocks must have non-overlapping address ranges; the constructor
    validates this so layout bugs in the workload synthesizer surface
    immediately rather than as inexplicable cache behaviour.
    """

    def __init__(self, blocks: Sequence[BlockInfo], name: str = "program"):
        if not blocks:
            raise ValueError("a program needs at least one basic block")
        self.name = name
        self._blocks: Dict[int, BlockInfo] = {}
        for block in blocks:
            if block.block_id in self._blocks:
                raise ValueError(f"duplicate block id {block.block_id}")
            self._blocks[block.block_id] = block
        self._validate_layout()
        self._line_cache: Dict[int, Tuple[int, ...]] = {
            b.block_id: b.lines for b in blocks
        }

    def _validate_layout(self) -> None:
        ordered = sorted(self._blocks.values(), key=lambda b: b.address)
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.address + prev.size_bytes > cur.address:
                raise ValueError(
                    f"blocks {prev.block_id} and {cur.block_id} overlap in "
                    f"the address space"
                )

    # -- mapping-ish interface ----------------------------------------

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[BlockInfo]:
        return iter(self._blocks.values())

    def block(self, block_id: int) -> BlockInfo:
        return self._blocks[block_id]

    def block_ids(self) -> Tuple[int, ...]:
        return tuple(self._blocks.keys())

    def lines_of(self, block_id: int) -> Tuple[int, ...]:
        return self._line_cache[block_id]

    # -- aggregate properties ------------------------------------------

    @property
    def text_bytes(self) -> int:
        """Static code footprint in bytes."""
        return sum(b.size_bytes for b in self._blocks.values())

    @property
    def footprint_lines(self) -> int:
        """Distinct cache lines the program's code occupies."""
        lines = set()
        for block_lines in self._line_cache.values():
            lines.update(block_lines)
        return len(lines)

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_lines * CACHE_LINE_BYTES


@dataclass
class BlockTrace:
    """A dynamic execution: the sequence of basic blocks retired.

    ``block_ids`` is the replay order.  ``metadata`` carries workload
    provenance (app name, input mix, seed) so experiment results are
    self-describing.
    """

    block_ids: List[int]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.block_ids:
            raise ValueError("empty trace")

    def __len__(self) -> int:
        return len(self.block_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.block_ids)

    def instruction_count(self, program: Program) -> int:
        """Total retired instructions (excluding injected prefetches)."""
        counts = {b.block_id: b.instruction_count for b in program}
        return sum(counts[bid] for bid in self.block_ids)

    def slice(self, start: int, stop: Optional[int] = None) -> "BlockTrace":
        """A sub-trace view with the same metadata."""
        return BlockTrace(self.block_ids[start:stop], dict(self.metadata))


# -- program persistence ----------------------------------------------------

PROGRAM_FORMAT = "program"
PROGRAM_FORMAT_VERSION = 1


def program_payload(program: Program) -> Dict[str, object]:
    """A JSON-serializable description of *program*.

    Columns are ``[block_id, address, size_bytes, instruction_count,
    function_id]`` rows in address order — the sidecar format trace
    ingestion writes next to its shard directories.
    """
    ordered = sorted(program, key=lambda b: b.address)
    return {
        "format": PROGRAM_FORMAT,
        "version": PROGRAM_FORMAT_VERSION,
        "name": program.name,
        "blocks": [
            [b.block_id, b.address, b.size_bytes, b.instruction_count,
             b.function_id]
            for b in ordered
        ],
    }


def program_from_payload(payload: Dict[str, object]) -> Program:
    """Rebuild a :class:`Program` from :func:`program_payload` output
    (the constructor re-validates layout, so a corrupt sidecar fails
    loudly rather than simulating garbage)."""
    if payload.get("format") != PROGRAM_FORMAT:
        raise ValueError(f"not a {PROGRAM_FORMAT} payload")
    if payload.get("version") != PROGRAM_FORMAT_VERSION:
        raise ValueError(
            f"unsupported program payload version {payload.get('version')!r}"
        )
    blocks = [
        BlockInfo(
            block_id=int(row[0]),
            address=int(row[1]),
            size_bytes=int(row[2]),
            instruction_count=int(row[3]),
            function_id=int(row[4]),
        )
        for row in payload["blocks"]
    ]
    return Program(blocks, name=str(payload.get("name", "program")))


# -- sharding ---------------------------------------------------------------
#
# A shard is a contiguous run of trace positions.  Shards are cut
# greedily on *retired instructions*: a shard closes at the first block
# whose inclusion brings it to at least ``shard_insns`` instructions,
# so every shard except possibly the last carries >= shard_insns
# instructions, every block belongs to exactly one shard, and the shard
# boundaries depend only on the trace and the budget — never on how
# the trace is stored.  ``repro.sim.columnar`` implements the same cut
# vectorized; the two must (and are tested to) agree exactly.

SHARD_INDEX_NAME = "index.json"
SHARD_FORMAT = "trace-shards"
SHARD_FORMAT_VERSION = 1


def shard_bounds(
    instruction_counts: Sequence[int], shard_insns: int
) -> List[Tuple[int, int]]:
    """Half-open ``(start, stop)`` trace ranges for the greedy cut.

    *instruction_counts* is the per-trace-position retired instruction
    count (i.e. the instruction count of the block at each position).
    """
    if shard_insns <= 0:
        raise ValueError(f"shard_insns must be positive, got {shard_insns}")
    bounds: List[Tuple[int, int]] = []
    start = 0
    budget = 0
    for index, count in enumerate(instruction_counts):
        budget += count
        if budget >= shard_insns:
            bounds.append((start, index + 1))
            start = index + 1
            budget = 0
    total = len(instruction_counts)
    if start < total:
        bounds.append((start, total))
    return bounds


def trace_shard_bounds(
    trace: "BlockTrace", program: Program, shard_insns: int
) -> List[Tuple[int, int]]:
    """Shard bounds for an in-memory trace against *program*."""
    counts = {b.block_id: b.instruction_count for b in program}
    return shard_bounds([counts[bid] for bid in trace.block_ids], shard_insns)


def write_trace_shards(
    trace: "BlockTrace",
    program: Program,
    directory,
    shard_insns: int,
) -> "ShardedTrace":
    """Write *trace* as fixed-budget columnar shard chunks.

    The directory gets one block-id column file per shard plus an
    ``index.json`` recording the format, the cut, the per-shard block
    and instruction totals, and the trace metadata.  Chunks are NumPy
    ``.npy`` columns when the kernel is available, JSON lists
    otherwise; the reader accepts both, so shard directories are
    portable across kernel configurations.
    """
    import json
    import os

    from .. import kernel

    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    counts = {b.block_id: b.instruction_count for b in program}
    bounds = trace_shard_bounds(trace, program, shard_insns)
    shards = []
    for index, (start, stop) in enumerate(bounds):
        ids = trace.block_ids[start:stop]
        if kernel.HAVE_NUMPY:
            import numpy as np

            name = f"shard-{index:05d}.npy"
            with open(os.path.join(directory, name), "wb") as handle:
                np.save(handle, np.asarray(ids, dtype=np.int64),
                        allow_pickle=False)
        else:
            name = f"shard-{index:05d}.json"
            with open(os.path.join(directory, name), "w") as handle:
                json.dump([int(b) for b in ids], handle)
        shards.append(
            {
                "file": name,
                "blocks": stop - start,
                "instructions": sum(counts[bid] for bid in ids),
            }
        )
    index_payload = {
        "format": SHARD_FORMAT,
        "version": SHARD_FORMAT_VERSION,
        "shard_insns": shard_insns,
        "total_blocks": len(trace),
        "metadata": dict(trace.metadata),
        "shards": shards,
    }
    with open(os.path.join(directory, SHARD_INDEX_NAME), "w") as handle:
        json.dump(index_payload, handle, indent=1)
    return ShardedTrace(directory)


class ShardedTrace:
    """Reader for an on-disk shard directory written by
    :func:`write_trace_shards`.

    Only one shard's block-id column is materialized at a time, which
    is the whole point: replaying a :class:`ShardedTrace` keeps memory
    bounded by the shard budget rather than the trace length.
    """

    def __init__(self, directory):
        import json
        import os

        self.directory = os.fspath(directory)
        index_path = os.path.join(self.directory, SHARD_INDEX_NAME)
        with open(index_path) as handle:
            index = json.load(handle)
        if index.get("format") != SHARD_FORMAT:
            raise ValueError(f"{index_path}: not a {SHARD_FORMAT} directory")
        if index.get("version") != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"{index_path}: unsupported shard format version "
                f"{index.get('version')!r}"
            )
        self.shard_insns = int(index["shard_insns"])
        self.total_blocks = int(index["total_blocks"])
        self.metadata: Dict[str, object] = dict(index.get("metadata", {}))
        self._shards = index["shards"]
        bounds = []
        start = 0
        for entry in self._shards:
            stop = start + int(entry["blocks"])
            bounds.append((start, stop))
            start = stop
        if start != self.total_blocks:
            raise ValueError(
                f"{index_path}: shard block counts sum to {start}, "
                f"index says {self.total_blocks}"
            )
        self.bounds: List[Tuple[int, int]] = bounds

    def __len__(self) -> int:
        return self.total_blocks

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard(self, index: int) -> BlockTrace:
        """Materialize one shard as a :class:`BlockTrace`."""
        import json
        import os

        entry = self._shards[index]
        path = os.path.join(self.directory, entry["file"])
        if entry["file"].endswith(".npy"):
            import numpy as np

            with open(path, "rb") as handle:
                ids = np.load(handle, allow_pickle=False).tolist()
        else:
            with open(path) as handle:
                ids = json.load(handle)
        if len(ids) != int(entry["blocks"]):
            raise ValueError(
                f"{path}: has {len(ids)} blocks, index says {entry['blocks']}"
            )
        return BlockTrace([int(b) for b in ids], dict(self.metadata))

    def shard_array(self, index: int):
        """One shard's block-id column as an ``int64`` NumPy array.

        ``.npy`` chunks are memory-mapped (``mmap_mode="r"``), so a
        reader touches only the pages it needs; JSON chunks are
        decoded.  Requires
        NumPy — callers on the pure-Python path use :meth:`shard`.
        """
        import os

        import numpy as np

        entry = self._shards[index]
        path = os.path.join(self.directory, entry["file"])
        if entry["file"].endswith(".npy"):
            ids = np.load(path, mmap_mode="r", allow_pickle=False)
        else:
            import json

            with open(path) as handle:
                ids = np.asarray(json.load(handle), dtype=np.int64)
        if len(ids) != int(entry["blocks"]):
            raise ValueError(
                f"{path}: has {len(ids)} blocks, index says {entry['blocks']}"
            )
        return ids

    def iter_shards(self) -> Iterator[Tuple[int, BlockTrace]]:
        """Yield ``(offset, shard_trace)`` pairs in trace order."""
        for index, (start, _stop) in enumerate(self.bounds):
            yield start, self.shard(index)

    def materialize(self) -> BlockTrace:
        """The full in-memory trace (for differential testing)."""
        ids: List[int] = []
        for _offset, shard in self.iter_shards():
            ids.extend(shard.block_ids)
        return BlockTrace(ids, dict(self.metadata))

"""External trace ingestion: ChampSim-style binaries, JSONL and CSV.

Everything else in the repo replays synthetic workloads whose static
:class:`~repro.sim.trace.Program` is known by construction.  Real
frontend studies (ChampSim, the MANA/ESB line of work) instead start
from *instruction-level* traces — a sequence of retired instruction
pointers with branch annotations and no basic-block structure at all.
This module closes that gap: it parses external instruction traces,
reconstructs a basic-block program (the classic leader algorithm over
the *observed* dynamic footprint), and lands the result in the exact
on-disk sharded format :func:`~repro.sim.trace.write_trace_shards`
produces — so an ingested trace replays through every backend, every
registered prefetcher and the profiling/coalescing pipeline unchanged.

Supported input formats
-----------------------
``champsim``
    Fixed 64-byte binary records — the layout ChampSim's tracer
    emits: ``ip`` (u64 LE), ``is_branch`` (u8), ``branch_taken``
    (u8), two destination / four source register ids (u8 each), two
    destination / four source memory operands (u64 LE each).  Only
    the instruction pointer and branch fields matter to an I-cache
    study; the register/memory fields are skipped.  ``.gz`` and
    ``.xz`` compression are handled transparently (both ChampSim
    conventions), detected by magic bytes rather than extension.
``jsonl``
    One JSON object per line: ``{"ip": <int|"0x..">}`` with optional
    ``"size"`` (instruction bytes) and ``"taken"`` (bool) keys — the
    interchange format for everything that is not ChampSim.
``csv``
    ``ip[,size[,taken]]`` rows with an optional header line; ``ip``
    in decimal or ``0x`` hex.

A malformed input — a truncated or corrupt compressed stream, bytes
that are not UTF-8 text, a short ChampSim record, an unparsable field —
raises :class:`FormatError` naming the file and the record (line, or
64-byte ChampSim record) where decoding failed; no other exception
escapes :func:`read_records`.

Block reconstruction
--------------------
Two passes over the record stream.  Pass one collects, per distinct
instruction pointer, an inferred instruction *size* (the smallest
forward gap to its observed dynamic successor, clamped to
``MAX_INSTRUCTION_BYTES``; :data:`DEFAULT_INSTRUCTION_BYTES` when the
ip only ever precedes a discontinuity) and the *leader* set: the
first ip, every ip that follows a non-sequential step, and every ip
that follows a taken branch.  Sizes are then clamped so no
instruction overlaps the next distinct observed ip — which is what
lets the resulting :class:`~repro.sim.trace.Program` pass its
non-overlap validation unconditionally.  A block is a maximal run of
address-consecutive observed ips starting at a leader; blocks get ids
in address order and a ``function_id`` per contiguous address region
(a gap of :data:`REGION_GAP_BYTES` or more starts a new region), the
synthesized layout view.  Pass two re-walks the records and emits one
trace entry per leader ip.
"""

from __future__ import annotations

import csv as _csv
import gzip
import io
import json
import lzma
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..sim.trace import (
    BlockInfo,
    BlockTrace,
    Program,
    ShardedTrace,
    program_payload,
    program_from_payload,
    write_trace_shards,
)

#: one parsed instruction: (ip, size_bytes or 0 = unknown, taken_branch)
InstructionRecord = Tuple[int, int, bool]

#: fallback instruction size when the stream never reveals one
DEFAULT_INSTRUCTION_BYTES = 4
#: largest believable x86 instruction; larger forward gaps are
#: discontinuities, not fall-through
MAX_INSTRUCTION_BYTES = 16
#: an address gap at least this large starts a new synthesized
#: "function" region in the layout view
REGION_GAP_BYTES = 4096

#: the ChampSim tracer's fixed record layout (see module docstring)
CHAMPSIM_RECORD_BYTES = 64
_CHAMPSIM_HEAD = struct.Struct("<QBB")

PROGRAM_FILE = "program.json"
REPORT_FILE = "ingest.json"

FORMATS = ("champsim", "jsonl", "csv")

_GZIP_MAGIC = b"\x1f\x8b"
_XZ_MAGIC = b"\xfd7zXZ\x00"

#: what a corrupt compressed stream or undecodable text raises mid-read
_STREAM_ERRORS = (
    EOFError, gzip.BadGzipFile, lzma.LZMAError, zlib.error, UnicodeDecodeError,
)
#: what an unparsable JSON record raises while its fields are decoded
_RECORD_ERRORS = (
    KeyError, ValueError, TypeError, OverflowError, RecursionError,
)


class FormatError(ValueError):
    """A malformed trace file, located by *path* and 1-based *record*
    (the line of a text trace, the 64-byte record of a ChampSim one)."""

    def __init__(self, path, record: int, reason: str):
        self.path = os.fspath(path)
        self.record = record
        self.reason = reason
        super().__init__(f"{self.path}:{record}: {reason}")


# ---------------------------------------------------------------------------
# record encoding / decoding
# ---------------------------------------------------------------------------


def champsim_record(ip: int, is_branch: bool = False,
                    taken: bool = False) -> bytes:
    """Pack one 64-byte ChampSim-style record (test/benchmark fixtures
    and interop round trips; the register/memory fields are zeroed)."""
    head = _CHAMPSIM_HEAD.pack(ip, int(bool(is_branch)), int(bool(taken)))
    return head + b"\x00" * (CHAMPSIM_RECORD_BYTES - len(head))


def _open_binary(path) -> io.BufferedIOBase:
    """Open *path* for reading, decompressing gzip/xz by magic bytes."""
    handle = open(path, "rb")
    magic = handle.read(len(_XZ_MAGIC))
    handle.seek(0)
    if magic[: len(_GZIP_MAGIC)] == _GZIP_MAGIC:
        handle.close()
        return gzip.open(path, "rb")
    if magic == _XZ_MAGIC:
        handle.close()
        return lzma.open(path, "rb")
    return handle


def _parse_ip(token) -> int:
    if isinstance(token, int):
        value = token
    else:
        text = str(token).strip()
        value = int(text, 16) if text.lower().startswith("0x") else int(text)
    if value < 0:
        raise ValueError(f"negative instruction pointer {token!r}")
    return value


def _parse_taken(token) -> bool:
    if isinstance(token, bool):
        return token
    return str(token).strip().lower() in ("1", "true", "yes", "t")


def iter_champsim(path) -> Iterator[InstructionRecord]:
    """Decode a ChampSim-style binary trace (optionally gz/xz)."""
    unpack = _CHAMPSIM_HEAD.unpack_from
    with _open_binary(path) as handle:
        record = 0
        while True:
            record += 1
            try:
                chunk = handle.read(CHAMPSIM_RECORD_BYTES)
            except _STREAM_ERRORS as exc:
                raise FormatError(path, record, f"corrupt stream: {exc}") from exc
            if not chunk:
                return
            if len(chunk) != CHAMPSIM_RECORD_BYTES:
                raise FormatError(
                    path, record,
                    f"truncated record ({len(chunk)} trailing bytes; "
                    f"records are {CHAMPSIM_RECORD_BYTES} bytes)",
                )
            ip, is_branch, taken = unpack(chunk)
            yield ip, 0, bool(is_branch and taken)


def _text_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text trace (optionally gz/xz), decoded one
    at a time so a corrupt stream or a non-UTF-8 byte raises
    :class:`FormatError` at the line it is in."""
    with _open_binary(path) as handle:
        lineno = 0
        while True:
            lineno += 1
            try:
                line = handle.readline().decode("utf-8")
            except _STREAM_ERRORS as exc:
                raise FormatError(path, lineno, f"corrupt stream: {exc}") from exc
            if not line:
                return
            yield line


def iter_jsonl(path) -> Iterator[InstructionRecord]:
    """Decode the JSONL interchange format."""
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            record = (
                _parse_ip(obj["ip"]),
                int(obj.get("size") or 0),
                _parse_taken(obj.get("taken", False)),
            )
        except _RECORD_ERRORS as exc:
            raise FormatError(path, lineno, f"bad record: {exc}") from exc
        yield record


def iter_csv(path) -> Iterator[InstructionRecord]:
    """Decode the CSV interchange format (``ip[,size[,taken]]``)."""
    for lineno, line in enumerate(_text_lines(path), start=1):
        try:
            row = next(_csv.reader([line]), [])
        except _csv.Error as exc:
            raise FormatError(path, lineno, f"bad row: {exc}") from exc
        if not row or not row[0].strip():
            continue
        if lineno == 1 and row[0].strip().lower() in ("ip", "pc", "address"):
            continue  # header
        try:
            ip = _parse_ip(row[0])
        except ValueError as exc:
            raise FormatError(path, lineno, f"bad ip: {exc}") from exc
        try:
            size = int(row[1]) if len(row) > 1 and row[1].strip() else 0
        except ValueError as exc:
            raise FormatError(path, lineno, f"bad size: {exc}") from exc
        yield ip, size, _parse_taken(row[2]) if len(row) > 2 else False


_READERS = {
    "champsim": iter_champsim,
    "jsonl": iter_jsonl,
    "csv": iter_csv,
}


def detect_format(path) -> str:
    """Guess the trace format from the file name.

    Compression suffixes (``.gz``/``.xz``) are stripped first;
    ``.jsonl``/``.ndjson`` and ``.csv`` name the text formats, and
    everything else is assumed to be a ChampSim-style binary (the
    common ChampSim suffixes — ``.trace``, ``.champsim``, ``.bin`` —
    carry no other convention to key on).
    """
    name = os.path.basename(os.fspath(path)).lower()
    for suffix in (".gz", ".xz"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    if name.endswith((".jsonl", ".ndjson")):
        return "jsonl"
    if name.endswith(".csv"):
        return "csv"
    return "champsim"


def read_records(path, fmt: Optional[str] = None) -> Iterator[InstructionRecord]:
    """Decode *path* into instruction records (format auto-detected)."""
    fmt = fmt or detect_format(path)
    try:
        reader = _READERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format {fmt!r}; choose from {', '.join(FORMATS)}"
        ) from None
    return reader(path)


# ---------------------------------------------------------------------------
# basic-block reconstruction
# ---------------------------------------------------------------------------


@dataclass
class IngestedWorkload:
    """An external trace landed in the repo's native representation."""

    program: Program
    trace: BlockTrace
    #: ingestion statistics (records, blocks, leaders, regions, ...)
    report: Dict[str, object] = field(default_factory=dict)


def ingest_records(
    records: Iterable[InstructionRecord],
    name: str = "ingested",
    source: Optional[str] = None,
    fmt: Optional[str] = None,
) -> IngestedWorkload:
    """Reconstruct a basic-block program + block trace from an
    instruction-level record stream (see the module docstring for the
    leader algorithm)."""
    materialized = records if isinstance(records, list) else list(records)
    if not materialized:
        raise ValueError("empty instruction trace")

    # -- pass one: per-ip sizes and the leader set -------------------
    sizes: Dict[int, int] = {}
    leaders = {materialized[0][0]}
    prev_ip: Optional[int] = None
    prev_taken = False
    for ip, size, taken in materialized:
        if size > 0:
            known = sizes.get(ip, 0)
            sizes[ip] = size if known == 0 else min(known, size)
        if prev_ip is not None:
            gap = ip - prev_ip
            if 0 < gap <= MAX_INSTRUCTION_BYTES and not prev_taken:
                # dynamic fall-through reveals prev_ip's size
                known = sizes.get(prev_ip, 0)
                if known == 0 or gap < known:
                    sizes[prev_ip] = gap
            else:
                leaders.add(ip)
            if prev_taken:
                leaders.add(ip)
        prev_ip = ip
        prev_taken = taken

    ordered_ips = sorted({ip for ip, _, _ in materialized})
    # clamp sizes so no instruction overlaps the next observed ip:
    # this is what guarantees the Program's non-overlap invariant
    for current, nxt in zip(ordered_ips, ordered_ips[1:]):
        size = sizes.get(current, 0) or DEFAULT_INSTRUCTION_BYTES
        sizes[current] = min(size, nxt - current)
    last = ordered_ips[-1]
    sizes[last] = sizes.get(last, 0) or DEFAULT_INSTRUCTION_BYTES

    # -- blocks: maximal consecutive runs starting at a leader -------
    blocks: List[BlockInfo] = []
    block_of_leader: Dict[int, int] = {}
    block_of_ip: Dict[int, int] = {}
    region_id = 0
    start = count = total = 0
    open_block = False
    prev_end: Optional[int] = None

    def close_block() -> None:
        nonlocal open_block
        blocks.append(
            BlockInfo(
                block_id=len(blocks),
                address=start,
                size_bytes=total,
                instruction_count=count,
                function_id=region_id,
            )
        )
        block_of_leader[start] = blocks[-1].block_id
        open_block = False

    for ip in ordered_ips:
        size = sizes[ip]
        if open_block and (ip != start + total or ip in leaders):
            close_block()
        if not open_block:
            if prev_end is not None and ip - prev_end >= REGION_GAP_BYTES:
                region_id += 1
            leaders.add(ip)  # run heads are leaders even if never jumped to
            start, count, total = ip, 0, 0
            open_block = True
        block_of_ip[ip] = len(blocks)
        count += 1
        total += size
        prev_end = ip + size
    close_block()

    program = Program(blocks, name=name)

    # -- pass two: one trace entry per leader ------------------------
    block_ids: List[int] = []
    instructions = 0
    strays = 0
    current_block = -1
    for ip, _, _ in materialized:
        instructions += 1
        if ip in block_of_leader:
            current_block = block_of_leader[ip]
            block_ids.append(current_block)
        elif block_of_ip[ip] != current_block:
            # mid-block entry the leader pass never saw as a jump
            # target (possible only on pathological streams); count it
            # and re-synchronize on the containing block
            strays += 1
            current_block = block_of_ip[ip]
            block_ids.append(current_block)

    report: Dict[str, object] = {
        "records": len(materialized),
        "instructions": instructions,
        "blocks": len(blocks),
        "leaders": len(leaders & set(ordered_ips)),
        "regions": region_id + 1,
        "strays": strays,
        "text_bytes": program.text_bytes,
        "format": fmt,
        "source": source,
    }
    trace = BlockTrace(
        block_ids,
        metadata={
            "app": name,
            "input": "ingested",
            "source": source,
            "format": fmt,
            "records": len(materialized),
        },
    )
    return IngestedWorkload(program=program, trace=trace, report=report)


def ingest_trace_file(
    path, fmt: Optional[str] = None, name: Optional[str] = None
) -> IngestedWorkload:
    """Read and reconstruct one external trace file."""
    fmt = fmt or detect_format(path)
    if name is None:
        name = os.path.basename(os.fspath(path)).split(".")[0] or "ingested"
    return ingest_records(
        list(read_records(path, fmt)),
        name=name,
        source=os.fspath(path),
        fmt=fmt,
    )


# ---------------------------------------------------------------------------
# persistence: the PR 5 shard directory + a program sidecar
# ---------------------------------------------------------------------------


def write_ingested(
    workload: IngestedWorkload, directory, shard_insns: int
) -> ShardedTrace:
    """Persist *workload* as a shard directory plus ``program.json``.

    The trace lands in the exact :func:`write_trace_shards` format, so
    every consumer of on-disk shards (streaming, resume checkpoints)
    reads it unchanged; the sidecar carries the
    reconstructed program and the ingestion report.
    """
    directory = os.fspath(directory)
    sharded = write_trace_shards(
        workload.trace, workload.program, directory, shard_insns
    )
    payload = program_payload(workload.program)
    payload["report"] = dict(workload.report)
    with open(os.path.join(directory, PROGRAM_FILE), "w") as handle:
        json.dump(payload, handle, indent=1)
    return sharded


def load_ingested(directory) -> Tuple[Program, ShardedTrace]:
    """Load a directory written by :func:`write_ingested`."""
    directory = os.fspath(directory)
    path = os.path.join(directory, PROGRAM_FILE)
    with open(path) as handle:
        payload = json.load(handle)
    return program_from_payload(payload), ShardedTrace(directory)


# ---------------------------------------------------------------------------
# fixtures: instruction-level expansion of a block trace
# ---------------------------------------------------------------------------


def expand_block_trace(
    program: Program, trace: BlockTrace
) -> Iterator[InstructionRecord]:
    """Expand a block trace into instruction records (the inverse-ish
    of ingestion, used to synthesize external-trace fixtures from the
    workload zoo).

    Each block contributes ``instruction_count`` evenly-strided ips
    across its byte range; the final instruction of a block is marked
    a taken branch whenever the next block is not its fall-through.
    """
    layout = {}
    for block in program:
        stride = max(1, block.size_bytes // block.instruction_count)
        ips = [
            block.address + index * stride
            for index in range(block.instruction_count)
        ]
        layout[block.block_id] = (ips, block.address + block.size_bytes)

    ids = trace.block_ids
    for position, block_id in enumerate(ids):
        ips, end = layout[block_id]
        taken = True
        if position + 1 < len(ids):
            taken = program.block(ids[position + 1]).address != end
        for ip in ips[:-1]:
            yield ip, 0, False
        yield ips[-1], 0, taken


def write_champsim_fixture(path, program: Program, trace: BlockTrace,
                           compress: Optional[str] = None) -> int:
    """Write a ChampSim-style binary fixture for *trace*; returns the
    record count.  ``compress`` is ``None``, ``"gz"`` or ``"xz"``."""
    if compress == "gz":
        opener = gzip.open
    elif compress == "xz":
        opener = lzma.open
    elif compress is None:
        opener = open
    else:
        raise ValueError(f"unknown compression {compress!r}")
    count = 0
    with opener(path, "wb") as handle:
        for ip, _size, taken in expand_block_trace(program, trace):
            handle.write(champsim_record(ip, is_branch=taken, taken=taken))
            count += 1
    return count


__all__ = [
    "CHAMPSIM_RECORD_BYTES",
    "DEFAULT_INSTRUCTION_BYTES",
    "FORMATS",
    "IngestedWorkload",
    "MAX_INSTRUCTION_BYTES",
    "PROGRAM_FILE",
    "REGION_GAP_BYTES",
    "champsim_record",
    "detect_format",
    "expand_block_trace",
    "ingest_records",
    "ingest_trace_file",
    "iter_champsim",
    "iter_csv",
    "iter_jsonl",
    "load_ingested",
    "read_records",
    "write_champsim_fixture",
    "write_ingested",
]

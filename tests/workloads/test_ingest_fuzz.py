"""Malformed ingest inputs fail with one typed, located error.

Whatever the damage — a truncated or garbled compressed stream, bytes
that are not UTF-8, a short ChampSim record, an unparsable field —
:func:`repro.workloads.ingest.read_records` raises
:class:`~repro.workloads.ingest.FormatError` naming the file and the
record, and nothing else escapes.
"""

from __future__ import annotations

import gzip
import json
import lzma
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads import ingest as ing
from repro.workloads.ingest import FormatError, read_records

SUFFIX = {"champsim": ".trace", "jsonl": ".jsonl", "csv": ".csv"}


def _encode(fmt, records) -> bytes:
    if fmt == "champsim":
        return b"".join(ing.champsim_record(ip, taken, taken) for ip, _, taken in records)
    if fmt == "jsonl":
        return "".join(
            json.dumps({"ip": ip, "size": size, "taken": taken}) + "\n"
            for ip, size, taken in records
        ).encode()
    return ("ip,size,taken\n" + "".join(
        f"{ip:#x},{size},{int(taken)}\n" for ip, size, taken in records
    )).encode()


def _compress(data: bytes, compress) -> bytes:
    if compress == "gz":
        return gzip.compress(data)
    if compress == "xz":
        return lzma.compress(data)
    return data


@st.composite
def damaged_inputs(draw):
    """(format, file bytes): a valid trace, optionally compressed, then
    truncated, overwritten or replaced with garbage before or after
    compression."""
    fmt = draw(st.sampled_from(ing.FORMATS))
    records = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2**48), st.integers(0, 15), st.booleans()
            ),
            max_size=12,
        )
    )
    compress = draw(st.sampled_from((None, "gz", "xz")))
    data = _encode(fmt, records)
    damage_compressed = draw(st.booleans())
    if damage_compressed:
        data = _compress(data, compress)

    damage = draw(st.sampled_from(("truncate", "overwrite", "garbage")))
    if damage == "garbage":
        data = draw(st.binary(max_size=200))
    elif data:
        cut = draw(st.integers(0, len(data)))
        if damage == "truncate":
            data = data[:cut]
        else:
            patch = draw(st.binary(min_size=1, max_size=8))
            data = data[:cut] + patch + data[cut + len(patch):]

    if not damage_compressed:
        data = _compress(data, compress)
    return fmt, data


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(damaged_inputs())
def test_only_format_error_escapes_read_records(case):
    fmt, data = case
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "fuzz" + SUFFIX[fmt])
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            for ip, size, taken in read_records(path, fmt):
                assert isinstance(ip, int) and ip >= 0
                assert isinstance(size, int)
                assert isinstance(taken, bool)
        except FormatError as exc:
            assert exc.path == path
            assert exc.record >= 1
            assert str(exc).startswith(f"{path}:{exc.record}: ")


@pytest.mark.parametrize(
    "name, data, record",
    [
        ("size.csv", b"ip,size,taken\n0x10,4,0\n0x14,abc,0\n", 3),
        ("size.jsonl", b'{"ip": 16}\n{"ip": 20, "size": "x"}\n', 2),
        ("text.jsonl", b'{"ip": 16}\n{"ip": 20}\n\xff\xfe\n', 3),
        (
            "cut.trace.gz",
            gzip.compress(b"".join(ing.champsim_record(64 * i) for i in range(64)))[:-12],
            None,
        ),
        ("short.trace", ing.champsim_record(64) + b"\x01", 2),
    ],
)
def test_reported_location(tmp_path, name, data, record):
    """Inputs that used to escape as a bare ValueError, a
    UnicodeDecodeError or an EOFError now carry their location."""
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(FormatError) as info:
        list(read_records(path))
    assert info.value.path == str(path)
    if record is not None:
        assert info.value.record == record
    else:
        assert info.value.record >= 1

"""Columnar-kernel backend selection.

The simulator, profiler and planner each have two interchangeable
implementations: the readable per-event *reference* path (the semantic
oracle every differential test compares against) and a NumPy-backed
*columnar* path that computes the identical results from arrays.  This
module is the single switch that decides which one runs.

Selection order:

1. :func:`set_numpy_kernel` / the :func:`force_numpy_kernel` and
   :func:`reference_path` context managers (explicit program control);
2. the ``REPRO_NUMPY_KERNEL`` environment variable (``0``/``off``/
   ``false``/``no`` disables, anything else enables);
3. the default: enabled whenever NumPy imports.

Every consumer must degrade to the reference path when
:func:`numpy_enabled` is False, so the package keeps working on
interpreters without NumPy — the kernel is an accelerator, never a
requirement.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

NUMPY_KERNEL_ENV = "REPRO_NUMPY_KERNEL"

_FALSEY = frozenset({"0", "off", "false", "no"})

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - CI images all carry numpy
    _np = None
    HAVE_NUMPY = False

#: elements one chunk of a batched offline-analysis pass materializes
#: (window probes, LBR-history entries, combination words), give or
#: take one item; it bounds the passes' transient arrays, and so peak
#: memory, on long profiles
BATCH_ELEMENTS = 1 << 16

#: Tri-state program override: None = defer to the environment.
_forced: Optional[bool] = None


def numpy_enabled() -> bool:
    """Should vectorized paths run?  (False always on missing NumPy.)"""
    if not HAVE_NUMPY:
        return False
    if _forced is not None:
        return _forced
    value = os.environ.get(NUMPY_KERNEL_ENV)
    if value is not None and value.strip().lower() in _FALSEY:
        return False
    return True


def set_numpy_kernel(enabled: Optional[bool]) -> None:
    """Force the kernel on/off; ``None`` restores environment control."""
    global _forced
    _forced = enabled


@contextmanager
def reference_path() -> Iterator[None]:
    """Run the enclosed block on the reference implementations."""
    previous = _forced
    set_numpy_kernel(False)
    try:
        yield
    finally:
        set_numpy_kernel(previous)


@contextmanager
def force_numpy_kernel() -> Iterator[None]:
    """Run the enclosed block on the columnar kernel (if available)."""
    previous = _forced
    set_numpy_kernel(True)
    try:
        yield
    finally:
        set_numpy_kernel(previous)


def batch_chunks(weights) -> List[Tuple[int, int]]:
    """Split items of the given *weights* (an array) into consecutive
    ``[begin, end)`` chunks of about :data:`BATCH_ELEMENTS` total
    weight: a chunk ends where the running total crosses the next
    multiple, so only its last item can push it over."""
    if not len(weights):
        return []
    chunk = (_np.cumsum(weights) - weights) // BATCH_ELEMENTS
    bounds = [0] + (_np.flatnonzero(_np.diff(chunk)) + 1).tolist()
    return list(zip(bounds, bounds[1:] + [len(weights)]))


def bit_count(value: int) -> int:
    """Population count of a non-negative Python int."""
    return value.bit_count()


if not hasattr(int, "bit_count"):  # pragma: no cover - Python < 3.10

    def bit_count(value: int) -> int:  # type: ignore[no-redef]
        return bin(value).count("1")


def popcount_u64(words):
    """Per-element population count of a ``uint64`` ndarray."""
    if hasattr(_np, "bitwise_count"):
        return _np.bitwise_count(words)
    # NumPy < 2.0: count per byte through a 256-entry lookup table.
    table = _popcount_table()
    return table[words.view(_np.uint8)].reshape(words.shape + (8,)).sum(
        axis=-1, dtype=_np.int64
    )


_POPCOUNT_TABLE = None


def _popcount_table():
    global _POPCOUNT_TABLE
    if _POPCOUNT_TABLE is None:
        _POPCOUNT_TABLE = _np.array(
            [bit_count(i) for i in range(256)], dtype=_np.int64
        )
    return _POPCOUNT_TABLE

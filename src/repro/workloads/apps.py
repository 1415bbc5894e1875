"""The nine data-center application models (paper Section II).

Each entry mirrors one of the paper's workloads with a synthetic model
whose *structural* parameters follow the application's published
character:

* ``wordpress`` / ``drupal`` / ``mediawiki`` — HHVM PHP stacks: the
  largest instruction footprints, deep layering, many request types,
  the most frontend-bound (Fig. 1's right end).
* ``cassandra`` / ``kafka`` / ``tomcat`` — JVM services: large but
  less extreme footprints, moderate request diversity.
* ``finagle-chirper`` / ``finagle-http`` — Finagle micro-services:
  smaller RPC-style handlers.
* ``verilator`` — generated hardware-simulation code: long
  straight-line blocks, low branch entropy, high spatial locality
  (the paper notes 75% of its misses fall within an 8-line window,
  which is why coalescing wins there, Fig. 12).

Use :func:`get_app` (cached) or :func:`build_app` (fresh).

The sharing contract: a :class:`SyntheticApp` is immutable once built.
Its spec, block addresses and sizes, and model terminators never
change; the only attributes ever set on its ``Program`` afterwards are
pure derived caches (the columnar view, the bit-position tables, the
instruction-count map, the text-line set), which any user of the same
app may share.  That is what lets :func:`get_app` hand one object to
every caller in a process — the evaluation harness
(``AppEvaluation.app``) included, so each pool worker synthesizes an
app at most once.  The traces :func:`get_trace` memoizes next to the
apps, and the stored profiles :func:`get_profile` memoizes, are
read-only on the same terms.
"""

from __future__ import annotations

import atexit
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.trace import BlockTrace
from .adversarial import (
    ADVERSARIAL_APP_NAMES,
    ADVERSARIAL_BUILDERS,
    ADVERSARIAL_SPECS,
)
from .synthesis import AppSpec, SyntheticApp, scaled_spec, synthesize

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..io import ArtifactStore
    from ..profiling.profiler import ExecutionProfile

#: Canonical evaluation order (matches the paper's figure x-axes).
APP_NAMES: Tuple[str, ...] = (
    "cassandra",
    "drupal",
    "finagle-chirper",
    "finagle-http",
    "kafka",
    "mediawiki",
    "tomcat",
    "verilator",
    "wordpress",
)

#: Every buildable app: the paper's nine plus the adversarial roster
#: (:mod:`repro.workloads.adversarial`).  The adversarial names stay
#: out of ``APP_NAMES`` on purpose — figure averages and the headline
#: numbers are defined over the paper's nine apps only.
ALL_APP_NAMES: Tuple[str, ...] = APP_NAMES + ADVERSARIAL_APP_NAMES


def _mix(weights: List[float]) -> Tuple[float, ...]:
    total = float(sum(weights))
    return tuple(w / total for w in weights)


_SPECS: Dict[str, AppSpec] = {
    "wordpress": AppSpec(
        name="wordpress",
        seed=1101,
        request_types=8,
        request_mix=_mix([30, 22, 14, 10, 9, 7, 5, 3]),
        functions_per_layer=(700, 950, 1200),
        shared_per_layer=3,
        stages_range=(5, 13),
        branch_bias=0.74,
        call_prob=0.28,
        diamond_prob=0.36,
        straightline=0.24,
    ),
    "drupal": AppSpec(
        name="drupal",
        seed=1102,
        request_types=8,
        request_mix=_mix([26, 20, 16, 12, 10, 8, 5, 3]),
        functions_per_layer=(900, 1250, 1550),
        shared_per_layer=3,
        stages_range=(5, 12),
        branch_bias=0.76,
        call_prob=0.27,
        diamond_prob=0.36,
        straightline=0.25,
    ),
    "mediawiki": AppSpec(
        name="mediawiki",
        seed=1103,
        request_types=7,
        request_mix=_mix([28, 22, 16, 12, 10, 7, 5]),
        functions_per_layer=(600, 850, 1050),
        shared_per_layer=3,
        stages_range=(5, 12),
        branch_bias=0.765,
        call_prob=0.26,
        diamond_prob=0.35,
        straightline=0.26,
    ),
    "cassandra": AppSpec(
        name="cassandra",
        seed=1104,
        request_types=6,
        request_mix=_mix([32, 24, 16, 12, 9, 7]),
        functions_per_layer=(430, 620, 820),
        shared_per_layer=2,
        stages_range=(6, 13),
        branch_bias=0.795,
        call_prob=0.27,
        diamond_prob=0.34,
        straightline=0.29,
    ),
    "kafka": AppSpec(
        name="kafka",
        seed=1105,
        request_types=6,
        request_mix=_mix([34, 24, 15, 12, 8, 7]),
        functions_per_layer=(380, 570, 760),
        shared_per_layer=2,
        stages_range=(5, 12),
        branch_bias=0.78,
        call_prob=0.26,
        diamond_prob=0.33,
        straightline=0.31,
    ),
    "tomcat": AppSpec(
        name="tomcat",
        seed=1106,
        request_types=6,
        request_mix=_mix([36, 22, 16, 11, 8, 7]),
        functions_per_layer=(350, 520, 700),
        shared_per_layer=2,
        stages_range=(5, 11),
        branch_bias=0.81,
        call_prob=0.26,
        diamond_prob=0.33,
        straightline=0.31,
    ),
    "finagle-http": AppSpec(
        name="finagle-http",
        seed=1107,
        request_types=5,
        request_mix=_mix([40, 24, 16, 12, 8]),
        functions_per_layer=(120, 180, 240),
        shared_per_layer=2,
        stages_range=(4, 10),
        branch_bias=0.79,
        call_prob=0.26,
        diamond_prob=0.32,
        straightline=0.30,
    ),
    "finagle-chirper": AppSpec(
        name="finagle-chirper",
        seed=1108,
        request_types=5,
        request_mix=_mix([42, 24, 15, 11, 8]),
        functions_per_layer=(110, 160, 220),
        shared_per_layer=2,
        stages_range=(4, 10),
        branch_bias=0.80,
        call_prob=0.26,
        diamond_prob=0.32,
        straightline=0.30,
    ),
    "verilator": AppSpec(
        name="verilator",
        seed=1109,
        request_types=4,
        request_mix=_mix([30, 27, 23, 20]),
        functions_per_layer=(680, 820),
        shared_per_layer=2,
        stages_range=(12, 22),
        block_bytes_range=(32, 96),
        branch_bias=0.90,
        call_prob=0.17,
        diamond_prob=0.18,
        straightline=0.54,
        loop_prob=0.06,
    ),
}

_CACHE: Dict[Tuple[str, float], SyntheticApp] = {}
# Empty the memo before interpreter shutdown.  Freed here its apps cost
# a few milliseconds; left alive into finalization, their object graphs
# are walked by its garbage-collection passes (~0.14 s at the exit of a
# ``repro report --scale 0.05`` on a 2-vCPU Xeon VM).
atexit.register(_CACHE.clear)
_TRACES: Dict[Tuple[str, float, int, int, str], BlockTrace] = {}
atexit.register(_TRACES.clear)
_PROFILES: Dict[Tuple[str, str], "ExecutionProfile"] = {}
atexit.register(_PROFILES.clear)


def app_spec(name: str) -> AppSpec:
    """The generative spec for application *name*."""
    if name in ADVERSARIAL_SPECS:
        return ADVERSARIAL_SPECS[name]
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {', '.join(ALL_APP_NAMES)}"
        ) from None


def build_app(name: str, scale: float = 1.0) -> SyntheticApp:
    """Synthesize a fresh instance of application *name*.

    ``scale`` shrinks/grows the per-layer function counts — test
    suites use small scales for speed; benchmarks use 1.0.  The
    adversarial roster builds through its dedicated generators, which
    interpret ``scale`` the same way.

    The result is equal in every field to :func:`get_app`'s shared
    instance; build a fresh one only when the caller needs an object
    nobody else holds.
    """
    if name in ADVERSARIAL_BUILDERS:
        return ADVERSARIAL_BUILDERS[name](scale)
    spec = app_spec(name)
    if scale != 1.0:
        spec = scaled_spec(spec, scale)
    return synthesize(spec)


def get_app(name: str, scale: float = 1.0) -> SyntheticApp:
    """Memoized :func:`build_app`: one shared instance per ``(name, scale)``
    per process.

    Callers must treat the app as read-only (see the module docstring);
    the evaluation harness relies on this to reuse one app across every
    job a worker runs for it.
    """
    key = (name, scale)
    if key not in _CACHE:
        _CACHE[key] = build_app(name, scale)
    return _CACHE[key]


def get_trace(
    name: str, scale: float, length: int, seed: int, input_name: str
) -> BlockTrace:
    """Memoized ``get_app(name, scale).trace(length, seed=seed,
    input_name=input_name)``: one shared, read-only trace per key per
    process, so a pool worker generates an app's evaluation trace once
    however many of its jobs replay it."""
    key = (name, scale, length, seed, input_name)
    if key not in _TRACES:
        _TRACES[key] = get_app(name, scale).trace(
            length, seed=seed, input_name=input_name
        )
    return _TRACES[key]


def get_profile(store: "ArtifactStore", key: str) -> Optional["ExecutionProfile"]:
    """Memoized ``store.load_profile(key)``: one shared, read-only
    profile per store and key per process, so a pool worker loads an
    app's profile once however many of its jobs train on it (and they
    share the profile's analysis memo).  A miss is not remembered."""
    memo_key = (str(store.root), key)
    profile = _PROFILES.get(memo_key)
    if profile is None:
        profile = store.load_profile(key)
        if profile is not None:
            _PROFILES[memo_key] = profile
    return profile


def cached_app(name: str, scale: float = 1.0) -> Optional[SyntheticApp]:
    """The memoized app if :func:`get_app` already built it, else None.

    Lets callers tell a memo hit from a real synthesis (the harness
    times and traces only the latter) without building anything.
    """
    return _CACHE.get((name, scale))

"""Alternative application inputs (Fig. 16 generalization study).

The paper stresses that data-center load "drastically varies (e.g.,
diurnal load trends or load transients)", so a profile-guided
optimization must help on inputs *other than the profiled one*.  We
model an input as a request-type mix: the program text is unchanged,
only the dispatcher's branch probabilities move, shifting which
handler paths dominate — exactly the control-flow divergence that
degrades AsmDB's statically-chosen prefetches.

Input "default" is always the profiling input; inputs "input-1" …
"input-4" progressively diverge from it (rotated and skewed mixes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..sim.trace import BlockTrace
from .synthesis import AppSpec, SyntheticApp, trace_metadata

#: Names of the five inputs used in the Fig. 16 study.
INPUT_NAMES: Tuple[str, ...] = (
    "default",
    "input-1",
    "input-2",
    "input-3",
    "input-4",
)


def _normalize(weights: Sequence[float]) -> Tuple[float, ...]:
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("input mix weights must sum to a positive value")
    return tuple(w / total for w in weights)


def _rotate(mix: Sequence[float], steps: int) -> List[float]:
    steps %= len(mix)
    return list(mix[steps:]) + list(mix[:steps])


def _skew(mix: Sequence[float], exponent: float) -> List[float]:
    return [w ** exponent for w in mix]


def input_mixes(app: Union[AppSpec, SyntheticApp]) -> Dict[str, Tuple[float, ...]]:
    """The five request mixes for an app (or its spec), keyed by input
    name.  They read only the spec's ``request_mix``, so no app needs
    to be synthesized for them.

    * ``default`` — the profiling mix from the spec.
    * ``input-1`` — mildly flattened (load spread more evenly).
    * ``input-2`` — sharpened (one request type surges).
    * ``input-3`` — rotated by one (a different type dominates).
    * ``input-4`` — rotated by two and flattened (worst drift).
    """
    spec = app.spec if isinstance(app, SyntheticApp) else app
    base = spec.request_mix
    return {
        "default": _normalize(base),
        "input-1": _normalize(_skew(base, 0.6)),
        "input-2": _normalize(_skew(base, 1.7)),
        "input-3": _normalize(_rotate(base, 1)),
        "input-4": _normalize(_skew(_rotate(base, 2), 0.7)),
    }


@dataclass(frozen=True)
class InputTrace:
    """An app's trace under one named input, by the parameters that
    generate it.

    :attr:`metadata` equals what :meth:`SyntheticApp.trace` records on
    the built trace, so a cache keyed on it can be consulted before
    the trace (or even the app) exists; :meth:`build` makes the trace.
    """

    spec: AppSpec
    input_name: str
    length: int
    seed: int

    def __post_init__(self) -> None:
        if self.input_name not in INPUT_NAMES:
            raise KeyError(
                f"unknown input {self.input_name!r}; "
                f"known: {', '.join(INPUT_NAMES)}"
            )

    @property
    def mix(self) -> Tuple[float, ...]:
        return input_mixes(self.spec)[self.input_name]

    @property
    def metadata(self) -> Dict[str, object]:
        return trace_metadata(
            self.spec, self.length, self.seed, self.mix, self.input_name
        )

    def build(self, app: SyntheticApp) -> BlockTrace:
        return app.trace(
            self.length, seed=self.seed, mix=self.mix, input_name=self.input_name
        )


def trace_for_input(
    app: SyntheticApp,
    input_name: str,
    length: int,
    seed_offset: int = 0,
) -> BlockTrace:
    """Generate *app*'s trace under the named input mix."""
    return InputTrace(
        app.spec, input_name, length, app.spec.seed + 7001 + seed_offset
    ).build(app)

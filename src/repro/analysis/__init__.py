"""Evaluation harness: metrics, experiments, reporting.

``metrics``      speedup / MPKI / accuracy / footprint definitions.
``experiments``  one entry point per paper table/figure.
``reporting``    fixed-width table rendering.
"""

from . import metrics
from .experiments import (
    AppEvaluation,
    Evaluator,
    ExperimentSettings,
    headline_summary,
)
from .reporting import render_table, summarize

__all__ = [
    "AppEvaluation",
    "Evaluator",
    "ExperimentSettings",
    "headline_summary",
    "metrics",
    "render_table",
    "summarize",
]

"""Full-evaluation markdown report generation.

:func:`generate_report` runs every figure of the report
(:data:`~repro.analysis.experiments.FIGURES`) and renders one
self-contained markdown document — the
programmatic route to regenerating EXPERIMENTS.md's measured tables
(``python -m repro report -o report.md``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

from . import experiments as exp
from .reporting import percent

PathLike = Union[str, Path]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    evaluator: Optional[exp.Evaluator] = None,
    include_sweeps: bool = True,
    apps: Optional[Sequence[str]] = None,
) -> str:
    """Run the evaluation and return the markdown report text: one
    section per figure of :func:`~repro.analysis.experiments.report_figures`,
    then the headline summary."""
    evaluator = evaluator or exp.Evaluator(exp.ExperimentSettings.medium())
    settings = evaluator.settings
    started = time.time()
    figures = exp.report_figures(include_sweeps)
    # Bulk-compute what the figures read first: with jobs > 1 this fans
    # the simulations across worker processes; the figure calls below
    # then consume the warmed caches.
    evaluator.prewarm(apps, figures=figures)
    parts: List[str] = []

    parts.append("# I-SPY reproduction report\n")
    parts.append(
        f"- workload scale: {settings.scale}\n"
        f"- profile length: {settings.profile_length} block executions\n"
        f"- evaluation length: {settings.eval_length} "
        f"(warmup {settings.warmup})\n"
    )
    for figure in figures:
        body = figure.render(figure.result(evaluator, apps))
        parts.append(_section(figure.title, body))

    summary = exp.headline_summary(evaluator, apps)
    parts.append("## Headline summary\n")
    parts.append(
        f"- mean I-SPY speedup: **+{summary['mean_speedup'] * 100:.1f}%** "
        f"(max +{summary['max_speedup'] * 100:.1f}%)\n"
        f"- mean %-of-ideal: **{percent(summary['mean_pct_of_ideal'])}**\n"
        f"- mean MPKI reduction: **{percent(summary['mean_mpki_reduction'])}** "
        f"(max {percent(summary['max_mpki_reduction'])})\n"
        f"- mean improvement over AsmDB: "
        f"**{percent(summary['mean_improvement_over_asmdb'])}**\n"
    )
    parts.append(f"\n_Generated in {time.time() - started:.0f}s._\n")
    return "\n".join(parts)


def write_report(
    path: PathLike,
    evaluator: Optional[exp.Evaluator] = None,
    include_sweeps: bool = True,
) -> Path:
    """Generate the report and write it to *path*."""
    target = Path(path)
    target.write_text(generate_report(evaluator, include_sweeps))
    return target

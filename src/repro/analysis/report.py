"""Full-evaluation markdown report generation.

:func:`generate_report` runs every experiment the benchmark harness
covers and renders one self-contained markdown document — the
programmatic route to regenerating EXPERIMENTS.md's measured tables
(``python -m repro report -o report.md``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

from . import experiments as exp
from .reporting import percent, render_table

PathLike = Union[str, Path]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def _table(rows, title=None, precision=4) -> str:
    return render_table(rows, title=title, precision=precision)


def generate_report(
    evaluator: Optional[exp.Evaluator] = None,
    include_sweeps: bool = True,
    apps: Optional[Sequence[str]] = None,
) -> str:
    """Run the evaluation and return the markdown report text."""
    evaluator = evaluator or exp.Evaluator(exp.ExperimentSettings.medium())
    settings = evaluator.settings
    started = time.time()
    # Bulk-compute the per-app variants and the sweeps' replays first:
    # with jobs > 1 this fans the simulations across worker processes;
    # the figure calls below then consume the warmed caches.
    evaluator.prewarm(apps, sweeps=include_sweeps)
    parts: List[str] = []

    parts.append("# I-SPY reproduction report\n")
    parts.append(
        f"- workload scale: {settings.scale}\n"
        f"- profile length: {settings.profile_length} block executions\n"
        f"- evaluation length: {settings.eval_length} "
        f"(warmup {settings.warmup})\n"
    )

    parts.append(_section("Table I — simulated system", _table(exp.table1_system())))
    parts.append(
        _section(
            "Fig. 1 — frontend-bound fractions",
            _table(exp.fig01_frontend_bound(evaluator, apps)),
        )
    )
    parts.append(
        _section(
            "Fig. 10 — speedup vs ideal and AsmDB",
            _table(exp.fig10_speedup(evaluator, apps)),
        )
    )
    parts.append(
        _section("Fig. 11 — MPKI reduction", _table(exp.fig11_mpki(evaluator, apps)))
    )
    parts.append(
        _section(
            "Fig. 12 — mechanism ablation (gain over AsmDB)",
            _table(exp.fig12_ablation(evaluator, apps)),
        )
    )
    parts.append(
        _section(
            "Fig. 13 — prefetch accuracy",
            _table(exp.fig13_accuracy(evaluator, apps)),
        )
    )
    parts.append(
        _section(
            "Fig. 14 — static footprint increase",
            _table(exp.fig14_static_footprint(evaluator, apps), precision=5),
        )
    )
    parts.append(
        _section(
            "Fig. 15 — dynamic footprint increase",
            _table(exp.fig15_dynamic_footprint(evaluator, apps)),
        )
    )
    parts.append(
        _section(
            "Fig. 4 — AsmDB footprints",
            _table(exp.fig04_asmdb_footprint(evaluator, apps)),
        )
    )
    parts.append(
        _section(
            "Fig. 5 — Contiguous-8 vs Non-contiguous-8",
            _table(exp.fig05_noncontiguous(evaluator, apps)),
        )
    )

    if include_sweeps:
        parts.append(
            _section(
                "Fig. 3 — AsmDB fan-out threshold (wordpress)",
                _table(exp.fig03_fanout_tradeoff(evaluator)),
            )
        )
        parts.append(
            _section(
                "Fig. 16 — generalization across inputs",
                _table(exp.fig16_generalization(evaluator)),
            )
        )
        parts.append(
            _section(
                "Fig. 17 — context predecessors",
                _table(exp.fig17_predecessors(evaluator)),
            )
        )
        parts.append(
            _section(
                "Fig. 18 — prefetch distances",
                _table(exp.fig18_distance(evaluator)),
            )
        )
        parts.append(
            _section(
                "Fig. 19 — coalescing size",
                _table(exp.fig19_coalesce_size(evaluator)),
            )
        )
        coalesce = exp.fig20_coalesce_profile(evaluator, apps)
        fig20_rows = [
            {"line_distance": d, "probability": p}
            for d, p in coalesce["distance_distribution"].items()
        ]
        fig20 = _table(fig20_rows) + (
            f"\nfraction of coalesced instructions bringing in < 4 lines: "
            f"{percent(coalesce['fraction_below_4_lines'])}"
        )
        parts.append(_section("Fig. 20 — coalesced line distances", fig20))
        parts.append(
            _section(
                "Fig. 21 — context-hash size (wordpress)",
                _table(exp.fig21_hash_size(evaluator), precision=5),
            )
        )

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

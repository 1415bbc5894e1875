"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``apps``        list the applications (paper + adversarial) and footprints.
``profile``     profile one application and summarize its misses.
``plan``        build and describe any plan-producing prefetcher's plan.
``evaluate``    run baseline / ideal / AsmDB / I-SPY on one app
                (``--prefetcher`` adds any other registered variant).
``matrix``      every registered prefetcher on one yardstick.
``figure``      regenerate one paper figure table (e.g. ``fig10``).
``headline``    the abstract's aggregate numbers over all nine apps.
``report``      generate a full markdown evaluation report.
``ingest``      land an external instruction trace (ChampSim-style
                binary, JSONL or CSV) as an on-disk sharded trace with
                a reconstructed program view.
``trace-summary`` print the per-stage timing table of a ``--trace``
                file (the ``--timing`` table of the run that wrote it).

``profile``/``plan``/``evaluate``/``matrix`` accept the paper's nine
apps *and* the adversarial roster (``bloom-storm``, ``hash-alias``,
``phase-chain`` — see :mod:`repro.workloads.adversarial`).

The ``--prefetcher`` names come from the zoo registry
(:func:`repro.baselines.prefetcher_names`); any prefetcher registered
through :func:`repro.baselines.register_prefetcher` is immediately
addressable from every command here.

Every evaluating command shares one set of run-configuration flags
(scale, jobs, cache, kernel gate, telemetry) registered by
:func:`repro.runconfig.add_run_arguments` and consumed by
:meth:`repro.runconfig.RunConfig.from_args` — the CLI is a thin shell
around the same :class:`~repro.runconfig.RunConfig` object library
callers use.

Examples
--------
::

    python -m repro apps
    python -m repro evaluate wordpress --scale 0.5
    python -m repro evaluate wordpress --trace t.jsonl --manifest m.json
    python -m repro trace-summary t.jsonl
    python -m repro figure fig11 --scale 0.6
    python -m repro plan kafka --prefetcher asmdb
    python -m repro evaluate wordpress --prefetcher mana --prefetcher fdip
    python -m repro matrix --apps wordpress kafka --json matrix.json
    # stream replays in 20k-instruction shards; with a cache directory,
    # a killed run resumes from the last completed shard when re-run
    python -m repro evaluate wordpress --shard-insns 20000 --cache .repro-cache
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import experiments as exp
from .analysis.reporting import percent, render_table
from .baselines import protocol as zoo
from .runconfig import RunConfig, add_run_arguments, positive_int
from .workloads.apps import ALL_APP_NAMES, APP_NAMES

#: figure name -> experiments function (single-table figures only)
FIGURES = {
    "matrix": exp.matrix_prefetchers,
    "table1": exp.table1_system,
    "fig01": exp.fig01_frontend_bound,
    "fig03": exp.fig03_fanout_tradeoff,
    "fig04": exp.fig04_asmdb_footprint,
    "fig05": exp.fig05_noncontiguous,
    "fig10": exp.fig10_speedup,
    "fig11": exp.fig11_mpki,
    "fig12": exp.fig12_ablation,
    "fig13": exp.fig13_accuracy,
    "fig14": exp.fig14_static_footprint,
    "fig15": exp.fig15_dynamic_footprint,
    "fig16": exp.fig16_generalization,
    "fig17": exp.fig17_predecessors,
    "fig18": exp.fig18_distance,
    "fig19": exp.fig19_coalesce_size,
    "fig20": exp.fig20_coalesce_profile,
    "fig21": exp.fig21_hash_size,
}


def cmd_apps(args: argparse.Namespace) -> int:
    from .workloads.apps import build_app

    rows = []
    for name in ALL_APP_NAMES:
        app = build_app(name, scale=args.scale)
        rows.append(
            {
                "app": name,
                "roster": "paper" if name in APP_NAMES else "adversarial",
                "blocks": len(app.program),
                "text_kib": app.program.text_bytes // 1024,
                "request_types": app.spec.request_types,
                "layers": len(app.spec.functions_per_layer),
            }
        )
    print(render_table(rows, title=f"applications (scale={args.scale})"))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    with RunConfig.from_args(args).session() as evaluator:
        evaluation = evaluator[args.app]
        profile = evaluation.profile
        counts = profile.miss_counts_by_line()
        print(
            f"{args.app}: {len(profile)} block executions profiled, "
            f"{profile.sampled_miss_count} sampled L1I misses on "
            f"{len(counts)} distinct lines"
        )
        stats = profile.baseline_stats
        if stats is not None:
            print(
                f"baseline: {stats.l1i_mpki:.2f} MPKI, "
                f"{percent(stats.frontend_bound_fraction)} frontend-bound, "
                f"IPC {stats.ipc:.2f}"
            )
        top = counts.most_common(10)
        rows = [{"line": line, "sampled_misses": count} for line, count in top]
        print(render_table(rows, title="hottest miss lines"))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    with RunConfig.from_args(args).session() as evaluator:
        evaluation = evaluator[args.app]
        plan = evaluation.plan_for(args.prefetcher)
        text = evaluation.text_bytes
        print(f"{args.prefetcher} plan for {args.app}:")
        print(f"  instructions: {len(plan)}")
        for kind, count in sorted(plan.kind_counts().items()):
            print(f"    {kind:11s} {count}")
        print(f"  injected bytes: {plan.static_bytes}")
        print(f"  static increase: {percent(plan.static_increase(text))}")
        print(f"  distinct sites: {len(plan.sites())}")
        print(f"  lines covered: {len(plan.covered_lines())}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    with RunConfig.from_args(args).session() as evaluator:
        variants = ["baseline", "ideal", "asmdb", "ispy"]
        for extra in args.prefetcher or ():
            if extra not in variants:
                variants.append(extra)
        evaluator.prewarm(apps=[args.app], variants=tuple(variants))
        evaluation = evaluator[args.app]
        rows = []
        for variant in variants:
            stats = evaluation.stats_for(variant)
            row = {
                "variant": variant,
                "cycles": int(stats.cycles),
                "mpki": stats.l1i_mpki,
                "accuracy": stats.prefetch_accuracy,
            }
            if variant not in ("baseline",):
                row["speedup"] = evaluation.speedup(variant)
            if variant not in ("baseline", "ideal"):
                row["pct_of_ideal"] = evaluation.percent_of_ideal(variant)
            rows.append(row)
        print(
            render_table(
                rows,
                columns=[
                    "variant", "cycles", "mpki", "speedup",
                    "pct_of_ideal", "accuracy",
                ],
                title=f"{args.app} (scale={args.scale})",
            )
        )

        # where I-SPY's remaining gap to the ideal cache goes
        from .analysis.metrics import gap_attribution

        attribution = gap_attribution(
            evaluation.stats_for("ispy"), evaluation.ideal_stats
        )
        if attribution["gap_cycles"] > 0:
            print("\nI-SPY gap to ideal, by loss channel:")
            for channel in (
                "residual_miss_stall",
                "late_prefetch_stall",
                "instruction_overhead",
            ):
                fraction = attribution.get(f"{channel}_fraction", 0.0)
                print(
                    f"  {channel:21s} {attribution[channel]:12.0f} cycles "
                    f"({percent(fraction)})"
                )
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    with RunConfig.from_args(args).session() as evaluator:
        prefetchers = tuple(args.prefetcher) if args.prefetcher else (
            exp.MATRIX_PREFETCHERS
        )
        apps = tuple(args.apps) if args.apps else exp.SWEEP_APPS
        if args.jobs != 1:
            evaluator.prewarm(apps=apps, variants=prefetchers)
        rows = exp.matrix_prefetchers(evaluator, apps=apps, prefetchers=prefetchers)
        print(
            render_table(
                rows,
                title=f"prefetcher matrix ({', '.join(apps)})",
                precision=4,
            )
        )
        if args.json:
            import json

            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump({"apps": list(apps), "rows": rows}, handle, indent=2)
            print(f"matrix written to {args.json}")
    return 0


def _figure_rows(result) -> List[dict]:
    """Normalize a figure function's return value for render_table.

    Most figure functions return a list of row dicts; a few (fig20)
    return a single summary mapping, rendered as metric/value rows.
    """
    if isinstance(result, dict):
        import json

        return [
            {
                "metric": key,
                "value": json.dumps(value) if isinstance(value, (dict, list))
                else value,
            }
            for key, value in result.items()
        ]
    return result


def cmd_figure(args: argparse.Namespace) -> int:
    function = FIGURES.get(args.name)
    if function is None:
        print(
            f"unknown figure {args.name!r}; choose from: "
            f"{', '.join(sorted(FIGURES))}",
            file=sys.stderr,
        )
        return 2
    if args.name == "table1":
        print(render_table(function(), title="Table I"))
        return 0
    with RunConfig.from_args(args).session() as evaluator:
        if args.jobs != 1:
            evaluator.prewarm()
        rows = _figure_rows(function(evaluator))
        print(render_table(rows, title=args.name, precision=4))
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    with RunConfig.from_args(args).session() as evaluator:
        evaluator.prewarm(variants=("baseline", "ideal", "asmdb", "ispy"))
        summary = exp.headline_summary(evaluator)
        print(f"mean I-SPY speedup:      +{summary['mean_speedup'] * 100:.1f}%")
        print(f"max I-SPY speedup:       +{summary['max_speedup'] * 100:.1f}%")
        print(f"mean %-of-ideal:         {percent(summary['mean_pct_of_ideal'])}")
        print(f"mean MPKI reduction:     {percent(summary['mean_mpki_reduction'])}")
        print(f"max MPKI reduction:      {percent(summary['max_mpki_reduction'])}")
        print(
            "mean improvement vs AsmDB: "
            f"{percent(summary['mean_improvement_over_asmdb'])}"
        )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from .workloads import ingest as ing

    fmt = args.format or ing.detect_format(args.trace_file)
    workload = ing.ingest_trace_file(
        args.trace_file, fmt=fmt, name=args.name
    )
    report = dict(workload.report)
    sharded = ing.write_ingested(workload, args.output, args.shard_insns)
    report["shards"] = sharded.num_shards
    report["shard_insns"] = args.shard_insns
    report["output"] = args.output
    print(
        f"{args.trace_file} [{fmt}]: {report['records']} records -> "
        f"{report['blocks']} blocks "
        f"({report['text_bytes'] / 1024:.1f} KiB text, "
        f"{report['regions']} regions), "
        f"{len(workload.trace)} trace entries in {sharded.num_shards} "
        f"shard(s) at {args.output}"
    )
    if args.replay:
        from .sim.cpu import CoreSimulator

        core = CoreSimulator(workload.program)
        stats = core.run(sharded)
        report["replay"] = {
            "backend": core.last_replay_backend,
            "l1i_mpki": stats.l1i_mpki,
            "ipc": stats.ipc,
        }
        print(
            f"replay [{core.last_replay_backend}]: "
            f"{stats.l1i_mpki:.2f} MPKI, IPC {stats.ipc:.2f}"
        )
    # the report doubles as the run's provenance record (the trace
    # metadata embedded in index.json carries the same source fields)
    with open(os.path.join(args.output, ing.REPORT_FILE), "w") as handle:
        _json.dump(report, handle, indent=1)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_report

    with RunConfig.from_args(args).session() as evaluator:
        target = write_report(
            args.output, evaluator, include_sweeps=not args.no_sweeps
        )
        print(f"report written to {target}")
    return 0


def cmd_trace_summary(args: argparse.Namespace) -> int:
    from .obs.trace import read_trace, summarize

    print(summarize(read_trace(args.trace_file)).report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="I-SPY reproduction command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_apps = commands.add_parser("apps", help="list the applications")
    p_apps.add_argument("--scale", type=float, default=0.3)
    p_apps.set_defaults(func=cmd_apps)

    p_profile = commands.add_parser("profile", help="profile one application")
    p_profile.add_argument("app", choices=ALL_APP_NAMES)
    add_run_arguments(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_plan = commands.add_parser("plan", help="build and describe a plan")
    p_plan.add_argument("app", choices=ALL_APP_NAMES)
    p_plan.add_argument(
        "--prefetcher",
        choices=zoo.plan_prefetcher_names(),
        default="ispy",
        help="any plan-producing member of the prefetcher zoo",
    )
    add_run_arguments(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_eval = commands.add_parser("evaluate", help="evaluate one application")
    p_eval.add_argument("app", choices=ALL_APP_NAMES)
    p_eval.add_argument(
        "--prefetcher",
        action="append",
        choices=zoo.prefetcher_names(),
        metavar="NAME",
        help="additional zoo variants beyond baseline/ideal/asmdb/ispy "
        f"(choices: {', '.join(zoo.prefetcher_names())}; repeatable)",
    )
    add_run_arguments(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_matrix = commands.add_parser(
        "matrix", help="compare every registered prefetcher on one yardstick"
    )
    p_matrix.add_argument(
        "--apps", nargs="+", choices=ALL_APP_NAMES, default=None,
        help=f"applications to average over (default: {' '.join(exp.SWEEP_APPS)})",
    )
    p_matrix.add_argument(
        "--prefetcher",
        action="append",
        choices=("baseline",) + zoo.prefetcher_names(),
        metavar="NAME",
        help="restrict the matrix to these rows (default: the full zoo)",
    )
    p_matrix.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the rows as JSON (the benchmark artifact format)",
    )
    add_run_arguments(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_figure = commands.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("name", help="e.g. fig10, fig21, table1")
    add_run_arguments(p_figure)
    p_figure.set_defaults(func=cmd_figure)

    p_report = commands.add_parser(
        "report", help="generate a full markdown evaluation report"
    )
    p_report.add_argument("-o", "--output", default="report.md")
    p_report.add_argument(
        "--no-sweeps", action="store_true",
        help="skip the slow sensitivity sweeps",
    )
    # the full report is the expensive entry point: parallel over all
    # CPUs and persistently cached by default
    add_run_arguments(p_report, jobs_default=0, cache_default=".repro-cache")
    p_report.set_defaults(func=cmd_report)

    p_ingest = commands.add_parser(
        "ingest", help="land an external instruction trace on disk"
    )
    p_ingest.add_argument("trace_file", help="ChampSim binary / JSONL / CSV "
                          "instruction trace (.gz/.xz handled)")
    p_ingest.add_argument(
        "-o", "--output", required=True, metavar="DIR",
        help="shard directory to write (index.json + program.json)",
    )
    from .workloads.ingest import FORMATS

    p_ingest.add_argument(
        "--format", choices=FORMATS, default=None,
        help="input format (default: detect from the file name)",
    )
    p_ingest.add_argument(
        "--name", default=None,
        help="program name recorded in the sidecar (default: file stem)",
    )
    p_ingest.add_argument(
        "--shard-insns", type=positive_int, default=100_000, metavar="N",
        help="instructions per on-disk shard (default: 100000)",
    )
    p_ingest.add_argument(
        "--replay", action="store_true",
        help="replay the ingested trace once (baseline, no prefetcher) "
        "and print its MPKI/IPC as an end-to-end check",
    )
    p_ingest.set_defaults(func=cmd_ingest)

    p_summary = commands.add_parser(
        "trace-summary", help="per-stage timing table of a --trace file"
    )
    p_summary.add_argument("trace_file", help="a file written by --trace")
    p_summary.set_defaults(func=cmd_trace_summary)

    p_headline = commands.add_parser(
        "headline", help="abstract-level aggregate numbers"
    )
    add_run_arguments(p_headline)
    p_headline.set_defaults(func=cmd_headline)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""CLI tests (fast scales)."""

import re

import pytest

from repro.cli import FIGURES, build_parser, main

FAST = ["--scale", "0.15", "--profile-blocks", "6000",
        "--eval-blocks", "8000", "--warmup", "1500"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "redis"])

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_shard_insns_rejected(self, value, capsys):
        """Rejected while parsing, before any synthesis or profiling."""
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "wordpress", *FAST, "--shard-insns", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --shard-insns: must be at least 1, got {value}" in err
        assert "Traceback" not in err

    def test_runconfig_rejects_nonpositive_shard_insns(self):
        from repro.runconfig import RunConfig

        with pytest.raises(ValueError, match="shard_insns"):
            RunConfig(shard_insns=0)

    @pytest.mark.parametrize(
        "flag", [["--parallel-shards", "exact"], ["--worker-budget", "4"]]
    )
    def test_removed_parallel_shard_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "wordpress", *FAST, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_figure_registry_covers_paper(self):
        expected = {
            "table1", "fig01", "fig03", "fig04", "fig05", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "fig18", "fig19", "fig20", "fig21",
        }
        assert expected <= set(FIGURES)

    def test_every_experiment_figure_function_is_registered(self):
        """No fig*/table* experiment function may be missing from FIGURES.

        This is the regression the fig20 omission slipped through: a
        new figure function landed in experiments.py but never became
        reachable from the CLI.
        """
        from repro.analysis import experiments as exp

        pattern = re.compile(r"^(fig\d+|table\d+)_\w+$")
        expected = {
            match.group(1)
            for name in vars(exp)
            if callable(getattr(exp, name))
            for match in [pattern.match(name)]
            if match is not None
        }
        assert expected, "experiment-function scan found nothing"
        missing = expected - set(FIGURES)
        assert not missing, (
            f"experiment functions not registered in cli.FIGURES: "
            f"{sorted(missing)}"
        )

    def test_figures_map_to_matching_functions(self):
        for key, function in FIGURES.items():
            assert function.__name__.startswith(key + "_"), (
                f"FIGURES[{key!r}] points at {function.__name__}"
            )


class TestCommands:
    def test_apps(self, capsys):
        assert main(["apps", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "wordpress" in out and "verilator" in out

    def test_profile(self, capsys):
        assert main(["profile", "finagle-chirper"] + FAST) == 0
        out = capsys.readouterr().out
        assert "sampled L1I misses" in out
        assert "hottest miss lines" in out

    def test_plan_ispy(self, capsys):
        assert main(["plan", "finagle-chirper"] + FAST) == 0
        out = capsys.readouterr().out
        assert "instructions:" in out
        assert "static increase:" in out

    def test_plan_asmdb(self, capsys):
        assert main(
            ["plan", "finagle-chirper", "--prefetcher", "asmdb"] + FAST
        ) == 0
        out = capsys.readouterr().out
        assert "asmdb plan" in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "finagle-chirper"] + FAST) == 0
        out = capsys.readouterr().out
        assert "ideal" in out and "ispy" in out

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2

    def test_figure_fig20_renders_summary_mapping(self, capsys):
        """fig20 returns a dict, exercising the metric/value rendering."""
        assert main(["figure", "fig20"] + FAST) == 0
        out = capsys.readouterr().out
        assert "fraction_below_4_lines" in out
        assert "distance_distribution" in out

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "apps", "--scale", "0.15"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "wordpress" in result.stdout


class TestRunTeardown:
    def test_failing_command_ends_its_run(self, tmp_path, capsys):
        """A command that raises mid-run still closes its root span,
        uninstalls its tracer and restores the cyclic collector; only
        its sinks, which describe a finished run, are not written."""
        import gc

        from repro.obs.trace import NULL_TRACER, get_tracer

        cache = tmp_path / "cache"
        cache.write_text("a regular file, not a cache directory")
        trace_path = tmp_path / "t.jsonl"
        with pytest.raises(NotADirectoryError):
            main(
                ["evaluate", "wordpress", *FAST, "--cache", str(cache),
                 "--trace", str(trace_path)]
            )
        assert get_tracer() is NULL_TRACER
        assert gc.isenabled()
        assert not trace_path.exists()
        assert "trace written to" not in capsys.readouterr().out


class TestTelemetryFlags:
    def test_evaluate_with_trace_and_manifest_across_workers(
        self, tmp_path, capsys
    ):
        """The headline acceptance path: --jobs 2 --trace --manifest.

        The trace must contain spans from the parent *and* the worker
        processes (distinct tids after re-parenting), and the manifest
        must pass schema validation.
        """
        from repro.obs.manifest import RunManifest
        from repro.obs.trace import read_trace, set_tracer

        trace_path = tmp_path / "t.jsonl"
        manifest_path = tmp_path / "m.json"
        try:
            assert main(
                ["evaluate", "finagle-chirper", *FAST, "--jobs", "2",
                 "--trace", str(trace_path), "--manifest", str(manifest_path)]
            ) == 0
        finally:
            set_tracer(None)

        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "manifest written to" in out

        events = read_trace(trace_path)
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert "run:evaluate" in names          # parent root span
        assert "job:evaluate-variant" in names  # shipped back from workers
        assert len({e["tid"] for e in spans}) >= 2, (
            "expected worker spans on their own timeline rows"
        )

        manifest = RunManifest.load(manifest_path)  # load() validates
        payload = manifest.payload
        assert payload["command"] == "evaluate"
        assert payload["jobs"] == 2
        assert "finagle-chirper" in payload["apps"]
        assert payload["trace_path"] == str(trace_path)

    def test_trace_summary_of_an_evaluate_trace(self, tmp_path, capsys):
        from repro.obs.trace import read_trace, set_tracer, summarize

        trace_path = tmp_path / "t.jsonl"
        try:
            assert main(
                ["evaluate", "finagle-chirper", *FAST,
                 "--trace", str(trace_path)]
            ) == 0
        finally:
            set_tracer(None)
        capsys.readouterr()

        assert main(["trace-summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert out == summarize(read_trace(trace_path)).report() + "\n"
        # the run's stages, its replay backends and the self-time total
        assert "run:evaluate" in out
        assert "sim:replay" in out
        assert "analysis:context-discovery" in out
        assert "replay backends:" in out
        assert "total" in out

    def test_timing_flag_prints_report(self, capsys):
        from repro.obs.trace import set_tracer

        try:
            assert main(
                ["evaluate", "finagle-chirper", *FAST, "--timing"]
            ) == 0
        finally:
            set_tracer(None)
        out = capsys.readouterr().out
        # the table is the run's span summary: replay spans, their
        # backends, and the self-time total
        assert "sim:replay" in out
        assert "replay backends:" in out
        assert "total" in out

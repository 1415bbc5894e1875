"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest bench -q`` from the repository
root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import hostspeed
import layers
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, sid, parent, t0, t1, pid=1, info=None):
    return [name, pid, sid, parent, t0, t1, info]


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        spans = [
            span("cli", 0, None, 0.0, 10.0),
            span("analysis.report", 1, 0, 1.0, 9.0),
            span("core.build_plan", 2, 1, 2.0, 5.0),
            span("core.select_site", 3, 2, 3.0, 4.0),
            span("io.save_plan", 4, 1, 6.0, 7.0),
        ]
        assert {s[0]: t for s, t in layers.self_times(spans)} == {
            "cli": 2.0,
            "analysis.report": 4.0,
            "core.build_plan": 2.0,
            "core.select_site": 1.0,
            "io.save_plan": 1.0,
        }

    def test_worker_spans_keep_their_own_timeline(self):
        # span ids restart in each process; parents resolve per pid
        parent = [
            span("cli", 0, None, 0.0, 10.0, pid=1),
            span("analysis.prewarm", 1, 0, 1.0, 9.0, pid=1),
        ]
        worker = [
            span("analysis.jobs", 0, None, 2.0, 6.0, pid=2),
            span("workloads.synthesize", 1, 0, 2.0, 3.0, pid=2),
            span("analysis.jobs", 2, None, 6.0, 8.0, pid=2),
        ]
        metrics = layers.layer_metrics(
            parent + worker, wall_s=11.0, untraced_wall_s=10.0, jobs=2, cache_mib=1.5
        )
        assert metrics["cli.self_s"] == 2.0
        assert metrics["analysis.prewarm.self_s"] == 8.0
        assert metrics["workloads.synthesize.self_s"] == 1.0
        assert metrics["process.self_s"] == 1.0
        assert metrics["analysis.jobs.busy_s"] == 6.0
        assert metrics["analysis.jobs.utilization"] == 6.0 / (8.0 * 2)
        assert metrics["trace.overhead"] == pytest.approx(0.1)
        assert metrics["io.cache_mib"] == 1.5
        # shares divide by the summed self time of both processes
        assert metrics["analysis.share"] == pytest.approx(13.0 / 17.0)
        assert sum(metrics[f"{layer}.share"] for layer in layers.LAYERS) == (
            pytest.approx(1.0)
        )

    def test_counts_become_ratios(self):
        spans = [
            span("core.discover_context", 0, None, 0, 1, info={"found": True}),
            span("core.discover_context", 1, None, 1, 2, info={"found": False}),
            span("sim.run_plan_batch", 2, None, 2, 3, info={"slots": 4, "fallbacks": 1}),
            span("io.load_stats", 3, None, 3, 4, info={"hit": True}),
            span("sim.run.columnar", 4, None, 4, 6, info={"blocks": 100}),
        ]
        metrics = layers.layer_metrics(spans, 6.0, 6.0, 1, 0.0)
        assert metrics["core.discover_context.found_ratio"] == 0.5
        assert metrics["sim.run_plan_batch.fallback_ratio"] == 0.25
        assert metrics["io.load_stats.hit_ratio"] == 1.0
        assert metrics["sim.run.columnar.blocks_per_s"] == 50.0
        assert set(metrics) == set(layers.metric_names())

    def test_an_unknown_span_fails_loudly(self):
        with pytest.raises(ValueError, match="sim.run.fancy"):
            layers.layer_metrics([span("sim.run.fancy", 0, None, 0, 1)], 1, 1, 1, 0)


class TestPercentiles:
    def test_p90_needs_ten_samples_beyond_it(self):
        durations = [i / 1000 for i in range(1, 100)]
        assert layers.percentile_ms(durations) == (50.0, 99.0)  # max below n=100
        durations.append(0.1)
        p50, p90 = layers.percentile_ms(durations)
        assert p50 == pytest.approx(50.5)
        assert sum(d * 1e3 > p90 for d in durations) >= 10

    def test_no_samples(self):
        assert layers.percentile_ms([]) == (0.0, 0.0)


class TestCompare:
    A = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]

    def test_claim_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread(self):
        faster = [x * 0.9 for x in self.A]
        assert compare.decide(self.A, faster, 0.1, "lower") == "better"
        mixed = faster[:8] + [11.0, 11.0]  # 8/10 wins
        assert compare.decide(self.A, mixed, 0.1, "lower") == "within"

    def test_worse_beyond_the_bound(self):
        slower = [x * 1.2 for x in self.A]
        assert compare.decide(self.A, slower, 0.1, "lower") == "worse"
        assert compare.decide(self.A, slower, 0.25, "lower") == "within"

    def test_higher_is_better(self):
        lower = [x * 0.8 for x in self.A]
        assert compare.decide(self.A, lower, 0.1, "higher") == "worse"

    def test_wide_parent_spread_is_unresolved(self):
        wide = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
        assert compare.decide(wide, [x * 1.05 for x in wide], 0.1, "lower") == (
            "unresolved"
        )
        assert compare.decide(wide, [4.0] * 10, 0.1, "lower") == "better-all"

    def test_rows_check_simulated_results_and_failures(self):
        spec = [{"name": "wall_s", "bound": 0.1, "better": "lower"}]

        def doc(seed, wall, simulated, failed=0):
            return {"workload": "w", "seed": seed, "trace": False, "correct": not failed,
                    "attempted": 3, "failed": failed, "simulated": simulated,
                    "metrics": {"wall_s": wall}}

        a = {"w": [doc(s, 10.0 + s / 100, {"x": 1.0}) for s in range(10)]}
        same = {"w": [doc(s, 10.0 + s / 100, {"x": 1.0}) for s in range(10)]}
        (row,) = compare.compare(a, same, spec)
        assert row["simulated"] == "identical" and not compare.regressed(row)
        changed = {"w": [doc(s, 10.0, {"x": 1.1 if s else 1.0}) for s in range(10)]}
        assert compare.compare(a, changed, spec)[0]["simulated"] == "DIFFERENT"
        failing = {"w": [doc(s, 10.0, None, failed=int(s == 3)) for s in range(10)]}
        assert compare.regressed(compare.compare(a, failing, spec)[0])

        # a wide parent spread leaves even a 2x slowdown unresolved, and
        # an unresolved metric does not pass the gate
        wide = {"w": [doc(s, w, {"x": 1.0}) for s, w in enumerate(
            [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0])]}
        slower = {"w": [doc(d["seed"], d["metrics"]["wall_s"] * 2, {"x": 1.0})
                        for d in wide["w"]]}
        rows = compare.compare(wide, slower, spec)
        assert rows[0]["wall_s"].startswith("unresolved")
        assert compare.exit_code(rows) == 2
        assert compare.exit_code(compare.compare(a, failing, spec)) == 1
        assert compare.exit_code(compare.compare(a, same, spec)) == 0


class TestBenchmarkSpec:
    def test_top_level_keys(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert SPEC["command"][:2] == ["python3", "bench/run.py"]
        assert SPEC["paths"] == ["bench"]
        assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60

    def test_names_units_and_counts(self):
        workloads, e2e, per_layer = (
            SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"],
        )
        assert 2 <= len(workloads) <= 4
        assert 1 <= len(e2e) <= 16
        assert 1 <= len(per_layer) <= 128
        names = [entry["name"] for entry in workloads + e2e + per_layer]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names), names
        for entry in workloads:
            assert set(entry) == {"name", "why"}
            assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
        for entry in e2e:
            assert set(entry) == {"name", "unit", "better", "bound"}
            assert 0 < entry["bound"] <= 0.25
        for entry in per_layer:
            assert set(entry) == {"name", "unit", "better"}
        for entry in e2e + per_layer:
            assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")

    def test_setup_time_has_the_largest_bound(self):
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    def test_workloads_match_the_runner_and_goldens(self):
        names = [w["name"] for w in SPEC["workloads"]]
        assert names == list(run.WORKLOADS)
        golden = json.loads((run.BENCH / "golden.json").read_text())
        assert set(golden) == set(names)

    def test_per_layer_metrics_are_the_traced_table(self):
        assert [m["name"] for m in SPEC["per_layer"]] == layers.metric_names()

    def test_every_layer_metric_names_what_it_should_move(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        for metric in layers.metric_names():
            pairs = layers.moves_for(metric)
            assert pairs, metric
            for moved, workload in pairs:
                assert moved in e2e and workload in workloads, (metric, moved, workload)

    def test_expected_layers_are_real_spans(self):
        for workload in run.WORKLOADS.values():
            for name in workload.expect + workload.forbid:
                assert any(s == name or s.startswith(name) for s in layers.SPAN_NAMES)


class TestWrappers:
    def test_every_entry_point_resolves(self):
        for targets in layers.ENTRY_POINTS.values():
            for target in targets:
                assert callable(layers.resolve(target)[2])

    @pytest.mark.parametrize("target", [
        "repro.io:ArtifactStore.load_everything",
        "repro.sim.streaming:run_everything",
        "repro.no_such_module:run",
        # inherited, not defined on the class: wrapping would shadow the base
        "repro.baselines.ideal:IdealPrefetcher.train",
    ])
    def test_a_missing_entry_point_is_named(self, target):
        with pytest.raises(LookupError, match=re.escape(target)):
            layers.resolve(target)

    def test_traced_run_matches_untraced_and_records_workers(self, tmp_path):
        argv = ["evaluate", "wordpress", "--scale", "0.12", "--profile-blocks", "4000",
                "--eval-blocks", "5000", "--warmup", "800", "--no-cache", "--jobs", "2"]
        env = dict(run.ENV)
        plain = subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                               cwd=run.ROOT, capture_output=True, text=True, timeout=120)
        traced = subprocess.run(
            [sys.executable, str(run.BENCH / "layers.py"), str(tmp_path), *argv],
            env=env, cwd=run.ROOT, capture_output=True, text=True, timeout=120,
        )
        assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        spans = layers.load_spans(tmp_path)
        assert len({s[1] for s in spans}) >= 2  # the parent and its workers
        names = {s[0] for s in spans}
        assert {"cli", "import", "analysis.jobs", "core.build_plan"} <= names
        metrics = layers.layer_metrics(spans, 10.0, 10.0, 2, 0.0)
        assert metrics["analysis.jobs.busy_s"] > 0


class TestRunner:
    def test_tables_parse(self):
        from repro.analysis.reporting import render_table

        text = render_table(
            [{"variant": "baseline", "speedup": None},
             {"variant": "ispy", "speedup": 1.25, "pct_of_ideal": 0.5}],
            columns=["variant", "speedup", "pct_of_ideal"], title="t",
        )
        workload = run.WORKLOADS["evaluate-stream"]
        assert run.simulated_metrics(workload, text) == {
            "ispy_speedup": 1.25, "ispy_pct_of_ideal": 0.5,
        }

    def test_a_command_runs_on_its_cpus_under_the_gauge(self, tmp_path):
        cmd = [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"]
        wall, speed, _, code, stdout = run.run_command(cmd, tmp_path, "pinned", run.CPUS[:1])
        assert code == 0 and stdout.read_text() == f"{run.CPUS[:1]}\n"
        assert wall > 0 and speed > 0
        # the runner itself keeps every CPU
        assert sorted(os.sched_getaffinity(0)) == run.CPUS

    def test_the_gauge_times_its_work_at_least_once(self):
        with hostspeed.Gauge(run.CPUS) as gauge:
            pass
        assert len(gauge.times) >= 1
        mean = sum(gauge.times) / len(gauge.times)
        assert gauge.speed == pytest.approx(hostspeed.REFERENCE_S / mean)

    def test_without_sources_it_fails_and_prints_no_result(self, tmp_path):
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(run.BENCH, tmp_path / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__", "results"))
        result = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "report-cold", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode != 0
        assert result.stdout == ""

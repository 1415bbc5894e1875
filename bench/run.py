#!/usr/bin/env python3
"""Whole-paper benchmark: the ``repro`` commands a user runs, timed.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out DIR]

For each workload (default: all of them, in turn) the runner times
three set-ups: report-warm's is the cold report that fills its cache,
run three times first; the other workloads fill nothing, and time a
fresh ``import repro.cli`` before each of their first three samples.
It starts the workload's CLI command in a fresh subprocess, one at a
time, again and again until ``--seconds`` have passed (a closed loop
with one client), and checks every run's output against
``bench/golden.json``.
Each command runs on as many CPUs as it has pool workers, while a
``bench/hostspeed.py`` gauge measures how fast those CPUs run.  The
end-to-end times are host seconds times that speed: seconds on the
gauge's reference host.  The per-layer times stay host seconds.
It prints each end-to-end metric of ``BENCHMARK.json`` with its unit,
and as the last line one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 1`` it then runs the command once more
through ``bench/layers.py`` and reports the per-layer metrics instead.
``--out DIR`` also writes every sample to ``DIR/<workload>.seed<N>.json``
(``bench/compare.py`` reads those files).

The CLI has no input seed: every workload's inputs are derived from the
fixed application specs of the paper's nine apps, so ``--seed`` is
recorded and changes nothing.  Run from a checkout of the repository;
the runner sets ``PYTHONPATH`` to its ``src`` itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
#: the CPUs this process may use; a command gets the first ``jobs``
CPUS = sorted(os.sched_getaffinity(0))

#: ``repro report`` sizing: a reduced-size regime, not what users run.
#: At the CLI's default sizing a cold report takes minutes, and at
#: ``--scale 0.3 --profile-blocks 24000`` 75 s on a 2-vCPU host, while a
#: benchmark run must end within 180 s and report-warm sets up three cold
#: reports per run.  At this sizing one takes 10-14 s.  ``bench/sizing.py``
#: compares the layer shares of a traced report at this sizing with
#: those at scale 0.3 and at the CLI defaults.  The caches barely warm
#: over 3000 blocks, so the simulated %-of-ideal means nothing here.
REPORT = (
    "report", "--scale", "0.05", "--profile-blocks", "6000",
    "--eval-blocks", "3000", "--warmup", "3000",
)
#: one app, streamed over a trace 100x longer than the report's
EVALUATE = (
    "evaluate", "wordpress", "--scale", "0.3", "--profile-blocks", "24000",
    "--eval-blocks", "300000", "--warmup", "6000", "--shard-insns", "100000",
    "--no-cache",
)
#: set-ups per run; setup_s is their median
SETUPS = 3
#: the set-up of a workload with no cache to fill: the import every CLI
#: run pays
IMPORT_PROBE = (sys.executable, "-c", "import repro.cli")


@dataclass(frozen=True)
class Workload:
    argv: Tuple[str, ...]
    jobs: int
    #: "empty": each sample gets a fresh cache directory; "filled": a
    #: fresh copy of one filled by cold runs in set-up; None: no cache
    cache: Optional[str]
    #: span-name prefixes that must fire in the traced run
    expect: Tuple[str, ...] = ()
    #: span-name prefixes that must not fire in the traced run
    forbid: Tuple[str, ...] = ()

    @property
    def is_report(self) -> bool:
        return self.argv[0] == "report"

    @property
    def cpus(self) -> List[int]:
        """The CPUs its commands run on: one per pool worker."""
        return CPUS[: self.jobs]


WORKLOADS: Dict[str, Workload] = {
    "report-cold": Workload(
        REPORT + ("--jobs", "2"), 2, "empty", expect=("sim.run_plan_batch",)
    ),
    "report-warm": Workload(
        REPORT + ("--jobs", "2"), 2, "filled",
        expect=("analysis.report", "io.load_stats"), forbid=("sim.",),
    ),
    "evaluate-stream": Workload(EVALUATE, 1, None, expect=("sim.run_sharded",)),
}


@dataclass
class Sample:
    host_s: float
    #: the host's speed during the run (see ``bench/hostspeed.py``)
    speed: float
    rss_mib: float
    ok: bool
    digest: str = ""
    simulated: Optional[Dict[str, float]] = None

    @property
    def wall_s(self) -> float:
        """Wall time on the reference host."""
        return self.host_s * self.speed


# -- running one command ------------------------------------------------------


def run_command(
    cmd: Sequence[str], work: Path, tag: str, cpus: Sequence[int] = CPUS
) -> Tuple[float, float, float, int, Path]:
    """Run *cmd* to completion on *cpus*: ``(wall s on the host, host
    speed, peak RSS MiB, exit code, stdout file)``.  The peak RSS comes
    from ``wait4`` and so covers the pool workers the command reaps."""
    stdout_path = work / f"{tag}.stdout"
    stderr_path = work / f"{tag}.stderr"
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        # the command inherits the CPUs of the thread that starts it
        os.sched_setaffinity(0, cpus)
        started = time.perf_counter()
        try:
            # its own process group, so that an interrupted run can stop
            # the command's pool workers too
            proc = subprocess.Popen(
                list(cmd), cwd=ROOT, env=ENV, stdout=stdout, stderr=stderr,
                start_new_session=True,
            )
        finally:
            os.sched_setaffinity(0, CPUS)
        with hostspeed.Gauge(cpus) as gauge:
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        print(f"{' '.join(cmd)}\nexited {proc.returncode}:\n{tail}", file=sys.stderr)
    return wall, gauge.speed, usage.ru_maxrss / 1024, proc.returncode, stdout_path


def _table(lines: List[str], start: int) -> List[Dict[str, str]]:
    """The rows of the first rendered table at or after line *start*."""
    rule = next(
        i for i in range(start, len(lines))
        if lines[i].strip() and set(lines[i].strip()) <= {"-", " "}
    )
    header = lines[rule - 1].split()
    rows = []
    for line in lines[rule + 1:]:
        if not line.strip() or line.startswith("```"):
            break
        rows.append(dict(zip(header, line.split())))
    return rows


def simulated_metrics(workload: Workload, text: str) -> Dict[str, float]:
    """I-SPY's simulated speedup and %-of-ideal: the means of Fig. 10's
    columns over the nine apps, or the ``ispy`` row of ``evaluate``."""
    lines = text.splitlines()
    if workload.is_report:
        start = next(i for i, line in enumerate(lines) if line.startswith("## Fig. 10"))
        rows = _table(lines, start)
        return {
            "ispy_speedup": statistics.fmean(float(r["ispy_speedup"]) for r in rows),
            "ispy_pct_of_ideal": statistics.fmean(
                float(r["ispy_pct_of_ideal"]) for r in rows
            ),
        }
    row = next(r for r in _table(lines, 0) if r["variant"] == "ispy")
    return {
        "ispy_speedup": float(row["speedup"]),
        "ispy_pct_of_ideal": float(row["pct_of_ideal"]),
    }


def result_text(workload: Workload, stdout_path: Path, report_path: Path) -> str:
    """The output the golden digest covers: the report without its
    run-time line, or the ``evaluate`` command's standard output."""
    if not workload.is_report:
        return stdout_path.read_text()
    lines = report_path.read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("_Generated in"))


def run_sample(
    name: str,
    work: Path,
    tag: str,
    golden: Dict[str, str],
    prefix: Sequence[str] = (sys.executable, "-m", "repro"),
    cache: Optional[Path] = None,
) -> Sample:
    """One run of *name*'s command, checked against its golden digest."""
    workload = WORKLOADS[name]
    argv = list(workload.argv)
    report_path = work / f"{tag}.md"
    if workload.is_report:
        argv += ["-o", str(report_path), "--cache", str(cache)]
    wall, speed, rss, code, stdout_path = run_command(
        [*prefix, *argv], work, tag, workload.cpus
    )
    sample = Sample(wall, speed, rss, ok=False)
    if code != 0:
        return sample
    text = result_text(workload, stdout_path, report_path)
    sample.digest = hashlib.sha256(text.encode()).hexdigest()
    if sample.digest != golden[name]:
        print(f"{name}: output digest {sample.digest} != golden {golden[name]}",
              file=sys.stderr)
        return sample
    sample.ok = True
    sample.simulated = simulated_metrics(workload, text)
    return sample


# -- one workload -----------------------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Samples with their median, quartiles and count."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "samples": values,
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def _dir_mib(path: Optional[Path]) -> float:
    if path is None or not path.exists():
        return 0.0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def measure(name: str, seconds: float, trace: bool, work: Path, golden: Dict[str, str]) -> dict:
    """Set up, then sample *name* for *seconds*; returns the result
    document (see the module docstring)."""
    workload = WORKLOADS[name]
    attempted = failed = 0
    setup: List[float] = []
    fill = None
    if workload.cache == "filled":
        # set-up is the cold run that fills the cache; the last one stays
        fill = work / "fill"
        for i in range(SETUPS):
            shutil.rmtree(fill, ignore_errors=True)
            filled = run_sample(name, work, f"fill{i}", golden, cache=fill)
            setup.append(filled.wall_s)
            attempted += 1
            failed += not filled.ok

    def probe() -> None:
        # the host slows in phases of a few seconds, which back-to-back
        # probes fall into together; one before each sample spreads them
        if len(setup) < SETUPS:
            wall, speed, *_ = run_command(
                IMPORT_PROBE, work, f"probe{len(setup)}", workload.cpus
            )
            setup.append(wall * speed)

    def fresh_cache(tag: str) -> Optional[Path]:
        if workload.cache is None:
            return None
        cache = work / f"cache-{tag}"
        if fill is not None:
            shutil.copytree(fill, cache)
        return cache

    samples: List[Sample] = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        probe()
        tag = f"s{len(samples)}"
        cache = fresh_cache(tag)
        samples.append(run_sample(name, work, tag, golden, cache=cache))
        if cache is not None:
            shutil.rmtree(cache)
    while len(setup) < SETUPS:
        probe()
    attempted += len(samples)
    failed += sum(not s.ok for s in samples)
    good = [s for s in samples if s.ok] or samples

    doc: dict = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "setup": summary(setup),
        "wall": summary([s.wall_s for s in good]),
        "host_wall": summary([s.host_s for s in good]),
        "speed": summary([s.speed for s in good]),
        "peak_rss": summary([s.rss_mib for s in good]),
        "digest": good[0].digest,
        "simulated": good[0].simulated,
    }
    metrics = {
        "wall_s": doc["wall"]["median"],
        "setup_s": doc["setup"]["median"],
        "peak_rss_mib": doc["peak_rss"]["median"],
    }
    if trace:
        metrics, ok = traced_metrics(name, work, golden, fresh_cache("traced"), metrics["wall_s"])
        attempted += 1
        failed += not ok
    doc.update(
        correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics
    )
    return doc


def traced_metrics(
    name: str, work: Path, golden: Dict[str, str], cache: Optional[Path], untraced_wall_s: float
) -> Tuple[Dict[str, float], bool]:
    """Run *name* once through ``bench/layers.py``: its per-layer
    metrics, and whether its output and layers were as expected."""
    workload = WORKLOADS[name]
    spans_dir = work / "spans"
    spans_dir.mkdir()
    prefix = (sys.executable, str(BENCH / "layers.py"), str(spans_dir))
    sample = run_sample(name, work, "traced", golden, prefix=prefix, cache=cache)
    spans = layers.load_spans(spans_dir)
    fired = {span[0] for span in spans}
    missing = [
        expected for expected in workload.expect
        if not any(n == expected or n.startswith(expected + ".") for n in fired)
    ]
    forbidden = sorted(
        n for n in fired if any(n.startswith(prefix) for prefix in workload.forbid)
    )
    if missing or forbidden:
        print(f"{name}: layers missing {missing}, unexpected {forbidden}", file=sys.stderr)
    # layer times are host seconds: the untraced wall goes back to host
    # seconds at the traced run's speed
    metrics = layers.layer_metrics(
        spans, sample.host_s, untraced_wall_s / sample.speed, workload.jobs,
        _dir_mib(cache),
    )
    return metrics, sample.ok and not missing and not forbidden


# -- command line -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH / "golden.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)

    # a terminated run unwinds, so that it stops the command it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = BENCH / ".work" / str(os.getpid())
    docs = []
    try:
        for name in workloads:
            (work / name).mkdir(parents=True)
            doc = measure(name, seconds, bool(args.trace), work / name, golden)
            doc["seed"] = args.seed
            docs.append(doc)
            print(f"{name}: {doc['wall']['n']} samples, "
                  f"{'correct' if doc['correct'] else 'INCORRECT'}")
            for metric in names:
                print(f"  {metric:44s} {doc['metrics'][metric]:14.6g} {units[metric]}")
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                suffix = ".traced" if args.trace else ""
                target = args.out / f"{name}.seed{args.seed}{suffix}.json"
                target.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prefix = len(docs) > 1
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {
            (f"{d['workload']}/{m}" if prefix else m): {
                "value": d["metrics"][m], "unit": units[m],
            }
            for d in docs for m in names
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

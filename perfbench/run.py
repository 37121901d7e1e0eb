"""qlimit benchmark: user-facing CLI commands, run in-process and checked.

    python3 perfbench/run.py --workload day-magnus2 --seed 1 --seconds 25 --trace 0

One client runs one job at a time (a closed loop): a job is one
``qlimit`` command through ``qlimit.cli.main(argv)``, writing into a fresh
directory under ``.perfbench_out``. Every output is checked; a job that
exits non-zero, raises, or fails its check counts as failed. Package caches
are emptied before each job, as each CLI invocation starts a fresh process;
the import that process pays is measured separately as ``setup_s``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced runs of each job and prints the per-layer
metrics; the spans go to ``.perfbench_out/traces``. Every metric is
printed by name with its unit, then the environment, then one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import env

env.pin_blas_threads()

#: Fresh interpreters timed per run for ``setup_s`` (after one untimed
#: import that writes the bytecode cache).
SETUP_RUNS = 9


@dataclass
class JobResult:
    seconds: float
    steps: int
    error: str | None = None
    info: dict = field(default_factory=dict)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import qlimit.cli``."""
    cmd = [sys.executable, "-c", "import qlimit.cli"]
    child_env = dict(os.environ, PYTHONPATH=str(env.SRC))
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=env.ROOT, env=child_env, check=True,
                       capture_output=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def p90(times: list[float]) -> float:
    """90th percentile of the job times, interpolated between samples.

    On the shared host a run's job times switch between a fast and a slow
    mode; the median falls between them and moves with the share of time
    spent in each, while the 90th percentile stays in the slow mode.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


class Runner:
    """Runs jobs through the CLI in this process and checks their outputs."""

    def __init__(self, workdir: Path):
        import jobs
        from qlimit import cli

        self.jobs, self.cli = jobs, cli
        self.workdir = workdir
        self.reference = jobs.load_reference()
        self.steps_per_job: dict[tuple, int] = {}
        # lru caches of the package, emptied before every job
        self.caches = [obj.cache_clear
                       for name, mod in list(sys.modules.items())
                       if name == "qlimit" or name.startswith("qlimit.")
                       for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))]

    def run(self, job, tracer=None) -> JobResult:
        jobs = self.jobs
        wd = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            argv = jobs.command(job, wd)
            for clear in self.caches:
                clear()
            out = io.StringIO()
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if tracer is not None:
                    tracer.begin_job()
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 - a crashing job is a failed job
                    code, error = None, f"uncaught {type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
                if tracer is not None:
                    files = [p for p in wd.rglob("*") if p.is_file() and p.name != "run.json"]
                    tracer.end_job({"cli.files_written": len(files),
                                    "cli.bytes_written": sum(p.stat().st_size for p in files)})
            if error is None and code != 0:
                last = out.getvalue().strip().splitlines()[-1:] or [""]
                error = f"exit code {code}: {last[0]}"
            info = {}
            if error is None:
                try:
                    info = jobs.check_output(job, wd, out.getvalue(), self.reference)
                except jobs.OutputError as exc:
                    error = str(exc)
                except Exception as exc:  # noqa: BLE001 - malformed output is a failed check
                    error = f"output check raised {type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        steps = job.steps if job.steps is not None else self.steps_per_job.get(job.argv, 0)
        return JobResult(seconds, 0 if error else steps, error, info)

    def probe_steps(self, job, tracer) -> JobResult:
        """Run a job traced once to count the steps it takes (untimed warm-up)."""
        result = self.run(job, tracer)
        if job.steps is None:
            self.steps_per_job[job.argv] = int(tracer.per_job[-1]["propagator.steps"])
            result.steps = 0 if result.error else self.steps_per_job[job.argv]
        return result


def workloads():
    import jobs

    return {
        "day-strang": lambda seed: itertools.repeat(jobs.day_job("strang")),
        "day-magnus2": lambda seed: itertools.repeat(jobs.day_job("magnus2")),
        "check": lambda seed: itertools.repeat(jobs.CHECK_JOB),
        "sweep": jobs.sweep_jobs,
    }


def end_to_end(results: list[JobResult], setup_s: float) -> tuple[dict, list[str]]:
    times = [r.seconds for r in results]
    busy = sum(times)
    metrics = {
        "setup_s": setup_s,
        "job_s_p90": p90(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # reported, not gated: they follow the host's fast/slow mode (see p90)
    notes = [f"job_s_p50 {statistics.median(times):.6g} s",
             f"steps_per_s {sum(r.steps for r in results) / busy:.6g} 1/s",
             f"jobs_per_s {len(results) / busy:.6g} 1/s"]
    return metrics, notes


def per_layer(tracer, untraced: list[JobResult], traced: list[JobResult]) -> dict:
    per_job = tracer.per_job
    keys = set().union(*per_job)
    metrics = {k: statistics.fmean(j.get(k, 0.0) for j in per_job) for k in keys}
    metrics["propagator.norm_drift"] = max(j["propagator.norm_drift"] for j in per_job)
    traced_p50 = statistics.median(r.seconds for r in traced)
    metrics["trace.job_s_p50"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(r.seconds for r in untraced)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        env.use_source_tree()
        spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer

    streams = workloads()
    if args.workload not in streams:
        parser.error(f"--workload must be one of {sorted(streams)}")
    stream = streams[args.workload](args.seed)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    jobs_dir = env.ROOT / ".perfbench_out"
    jobs_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=jobs_dir, prefix="run-"))
    try:
        runner = Runner(workdir)
        tracer = Tracer()
        setup_s = None if args.trace else measure_setup()
        warm = runner.probe_steps(next(stream), tracer)
        tracer.per_job.clear()
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            job = next(stream)
            if not args.trace:
                untraced.append(runner.run(job))
                continue
            # each job runs untraced and traced, alternating which goes first
            order = (tracer, None) if len(traced) % 2 else (None, tracer)
            for t in order:
                (untraced if t is None else traced).append(runner.run(job, t))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [warm] + untraced + traced
    failures = [r.error for r in every if r.error]
    notes = [f"{len(untraced)} untraced + {len(traced)} traced jobs after 1 warm-up job"]
    if args.trace:
        computed = per_layer(tracer, untraced, traced)
        trace_path = jobs_dir / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        notes.append(f"{len(tracer.spans)} spans written to {trace_path.relative_to(env.ROOT)}")
    else:
        computed, more = end_to_end(untraced, setup_s)
        notes += more
    errs = [r.info["prob_err"] for r in every if "prob_err" in r.info]
    if errs:
        notes.append(f"prob_err_max {max(errs):.10g} (max |P - P_ref| over the fig2 snapshots)")
    notes.append(f"fail_ratio {len(failures) / len(every):g} ({len(failures)}/{len(every)})")

    metrics = {}
    for m in declared:
        # a layer that a workload never enters reads as zero
        value = float(computed.get(m["name"], 0.0)) if args.trace else float(computed[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:.6g} {m['unit']}")
    for note in notes:
        print(f"# {note}")
    for failure in failures[:10]:
        print(f"# FAILED: {failure}")
    print("env " + json.dumps(env.describe(), sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(every),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

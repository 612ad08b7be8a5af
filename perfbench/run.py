"""Benchmark of the ``dilations`` verifier, driven through its CLI in-process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 34 --trace 0

Run from the repository root (any directory holding ``src/dilations``
and this directory works; nothing needs installing).  Workloads are
``certify``, ``semigroup`` and ``approx`` (see ``jobs.py`` and the README
next to this file).

One closed-loop client: each CLI job starts only after the previous one
has finished and its report has been parsed and checked.  Jobs run in
whole passes over the workload's seeded job list, as many as fit best in
``--seconds``, so every run measures the same mix.  A job's time runs from the
call into ``dilations.cli.main`` until its report is written and parsed.
Time metrics are in reference seconds: wall seconds scaled by the host's
speed during the run, measured with a fixed kernel run between jobs
(``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures half
the time untraced and half with every traced layer function wrapped, and
prints per-layer metrics, each per traced job; the spans are written to
``.perfbench_run/spans-<workload>.json``.  The last stdout line is one
JSON object with keys ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_run"

# One BLAS thread (never more than nproc): the loop is single-threaded, and
# cpu_per_job_s would otherwise hide wall-time gains bought with threads.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# Spans that must see calls on a workload; zero calls means the workload
# no longer exercises what it was chosen for.
REQUIRED = {
    "certify": ("dilation.torus_sup", "dilation.vn_check", "dilation.vn_search",
                "dilation.egervary_dilation", "dilation.power_dilation_verify"),
    "semigroup": ("interpolation.eval_discretized", "interpolation.multilinear_compress",
                  "structure.preservation_suite", "torus.bscr_check"),
    "approx": ("interpolation.approx_error_sweep", "linalg.matrix_exp"),
}

# Spans a workload must never call: each workload bypasses the layers the
# other workloads were chosen to exercise.
BYPASSED = {
    "certify": ("interpolation.eval_discretized", "linalg.matrix_exp"),
    "semigroup": ("dilation.torus_sup", "linalg.matrix_exp"),
    "approx": ("dilation.torus_sup", "interpolation.eval_discretized"),
}

LAYERS = ("cli", "linalg", "torus", "interpolation", "structure", "dilation")

# (span, per-job statistic, unit) reported from the traced phase.
SPAN_METRICS = (
    ("dilation.torus_sup", "calls", "count"),
    ("dilation.torus_sup", "self_s", "s"),
    ("dilation.torus_sup", "lattice_points", "count"),
    ("dilation.vn_check", "calls", "count"),
    ("dilation.eval_poly", "self_s", "s"),
    ("dilation.vn_search", "self_s", "s"),
    ("dilation.power_dilation_verify", "calls", "count"),
    ("dilation.power_dilation_verify", "self_s", "s"),
    ("dilation.egervary_dilation", "self_s", "s"),
    ("interpolation.ContractionTuple", "calls", "count"),
    ("interpolation.ContractionTuple", "self_s", "s"),
    ("interpolation.eval_discretized", "calls", "count"),
    ("interpolation.eval_discretized", "self_s", "s"),
    ("interpolation.eval_discretized", "dense_entries", "count"),
    ("interpolation.compress_discretized", "self_s", "s"),
    ("interpolation.multilinear_compress", "self_s", "s"),
    ("structure.structure_report", "calls", "count"),
    ("structure.structure_report", "self_s", "s"),
    ("structure.preservation_suite", "self_s", "s"),
    ("linalg.op_norm", "calls", "count"),
    ("linalg.op_norm", "self_s", "s"),
    ("linalg.op_norm", "entries", "count"),
    ("linalg.matrix_to_json", "self_s", "s"),
    ("linalg.matrix_from_json", "self_s", "s"),
    ("linalg.matrix_exp", "calls", "count"),
    ("linalg.matrix_exp", "self_s", "s"),
    ("interpolation.scaled_blend", "calls", "count"),
    ("interpolation.scaled_blend", "self_s", "s"),
    ("interpolation.approx_error_sweep", "self_s", "s"),
    ("torus.bscr_check", "calls", "count"),
    ("torus.bscr_check", "self_s", "s"),
    ("cli", "self_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "semigroup", "approx"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def prepare_environment():
    """Pin BLAS threads and the library's defaults before numpy is imported."""
    if not (SRC / "dilations" / "__init__.py").is_file():
        raise SystemExit(f"error: no dilations sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("DILATIONS_TOL", "DILATIONS_MAX_ENTRIES"):
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment_record(np) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout; None where git or the repository is absent."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def import_seconds() -> float:
    """Cost of ``import dilations.cli`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import dilations.cli; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_job(cli, job):
    """Run one CLI job; return (seconds, problems, report bytes)."""
    job.out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        try:
            cli.main(job.argv + ["--out", str(job.out)], standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        with open(job.out) as handle:
            report = json.load(handle)
    except Exception as exc:  # any failure of the job counts against error share
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"], 0
    elapsed = time.perf_counter() - start
    try:
        problems = job.check(report, code)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"malformed report: {type(exc).__name__}: {exc}"]
    return elapsed, problems, job.out.stat().st_size


class Phase:
    """Closed-loop passes over the job list, with their timings.

    After each job the host-speed kernel runs for a share of the job's
    time (outside the job's timing), and the phase's times are scaled by
    the speed it saw.  Time metrics use each job's mean over passes: the
    host switches between a fast and a slow state for seconds at a time,
    and a median over a few passes jumps to whichever state held most of
    them.
    """

    def __init__(self, cli, jobs, order, seconds, speed, tracer=None):
        self.speed = speed
        self.wall = defaultdict(list)
        self.cpu = defaultdict(list)
        self.failures = []
        self.bytes_written = 0
        self.jobs = 0
        self.failed = 0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for k in order:
                span = tracer.begin_job(self.jobs) if tracer else None
                cpu = time.process_time()
                elapsed, problems, size = run_job(cli, jobs[k])
                self.cpu[k].append(time.process_time() - cpu)
                if tracer:
                    tracer.end_job(span)
                self.jobs += 1
                self.wall[k].append(elapsed)
                self.speed.sample(elapsed)
                self.bytes_written += size
                self.failures += [f"{jobs[k].label}: {p}" for p in problems]
                self.failed += bool(problems)
            # Stop when another pass would end nearer to ``seconds`` than this one.
            now = time.perf_counter()
            if now - start + (now - pass_start) / 2 >= seconds:
                break
        self.seconds = time.perf_counter() - start
        self.passes = self.jobs // len(order)
        self.scale = self.speed.scale()

    def typical(self):
        """Each job's mean reference seconds over passes, sorted."""
        return sorted(statistics.fmean(v) * self.scale for v in self.wall.values())

    def quantile(self, q):
        """Quantile over the job list of each job's mean time."""
        times = self.typical()
        pos = q * (len(times) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(times) - 1)
        return times[lo] + (pos - lo) * (times[hi] - times[lo])

    def jobs_per_s(self):
        """Correct jobs per reference second spent in jobs."""
        busy = sum(map(sum, self.wall.values())) * self.scale
        return (self.jobs - self.failed) / busy

    def cpu_per_job(self):
        """Process CPU seconds per job, scaled like the wall times."""
        return sum(map(sum, self.cpu.values())) * self.scale / self.jobs


def setup(cli, jobs_mod, workload, seed, run_dir, speed):
    """Import, input generation and one warm-up job per kind, repeated.

    Returns (jobs, median set-up reference seconds, warm-up jobs run,
    warm-up jobs failed, problems).
    """
    samples, problems, warm_jobs, warm_failed = [], [], 0, 0
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        jobs = jobs_mod.build(workload, seed, run_dir)
        first_of_kind = {}
        for job in jobs:
            first_of_kind.setdefault(job.kind, job)
        for job in first_of_kind.values():
            _, found, _ = run_job(cli, job)
            warm_jobs += 1
            warm_failed += bool(found)
            problems += [f"warm-up {job.label}: {p}" for p in found]
        samples.append(imported + time.perf_counter() - start)
        speed.sample(samples[-1])
    setup_s = statistics.median(samples) * speed.scale()
    return jobs, setup_s, warm_jobs, warm_failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase, setup_s, attempted, failed):
    return {
        "job_s.p50": metric(phase.quantile(0.5), "s"),
        "job_s.p90": metric(phase.quantile(0.9), "s"),
        "jobs_per_s": metric(phase.jobs_per_s(), "1/s"),
        "cpu_per_job_s": metric(phase.cpu_per_job(), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "setup_s": metric(setup_s, "s"),
        "ok_frac": metric((attempted - failed) / attempted, "frac"),
    }


def per_layer(tracer, traced, untraced, workload):
    calls, self_s = tracer.self_times()
    missing = [n for n in REQUIRED[workload] if calls.get(n, 0) == 0]
    if missing:
        raise RuntimeError(f"traced run made no calls to {', '.join(missing)}")
    stray = [n for n in BYPASSED[workload] if calls.get(n, 0) > 0]
    if stray:
        raise RuntimeError(f"{workload} must not call {', '.join(stray)}")
    n = traced.jobs
    stats = {
        name: {"calls": calls[name] / n, "self_s": self_s[name] * traced.scale / n,
               **{k: v / n for k, v in tracer.counts[name].items()}}
        for name in calls
    }
    out = {
        f"{name}.{stat}": metric(stats[name].get(stat, 0.0), unit)
        for name, stat, unit in SPAN_METRICS
    }
    vn_calls = calls["dilation.vn_check"]
    decided = tracer.counts["dilation.vn_check"].get("decided", 0.0)
    out["dilation.vn_check.decided_frac"] = metric(
        decided / vn_calls if vn_calls else 0.0, "frac"
    )
    out["cli.bytes_written"] = metric(traced.bytes_written / n, "B")
    total = sum(self_s.values())
    for layer in LAYERS:
        share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"layer.{layer}.self_frac"] = metric(share / total, "frac")
    out["trace.job_s"] = metric(total * traced.scale / n, "s")
    out["trace.overhead_frac"] = metric(
        traced.quantile(0.5) / untraced.quantile(0.5) - 1.0, "frac"
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()

    import numpy as np

    from dilations import cli

    import jobs as jobs_mod
    from hostspeed import HostSpeed
    from tracer import Tracer

    env = environment_record(np)
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, setup_s, warm_jobs, warm_failed, problems = setup(
            cli, jobs_mod, args.workload, args.seed, run_dir, HostSpeed()
        )
        order = [int(k) for k in np.random.default_rng(0).permutation(len(jobs))]
        if args.trace:
            untraced = Phase(cli, jobs, order, args.seconds / 2, HostSpeed())
            tracer = Tracer()
            tracer.install()
            try:
                phase = Phase(cli, jobs, order, args.seconds / 2, HostSpeed(), tracer)
            finally:
                tracer.uninstall()
            phases = (untraced, phase)
        else:
            phase = Phase(cli, jobs, order, args.seconds, HostSpeed())
            phases = (phase,)
        attempted = warm_jobs + sum(p.jobs for p in phases)
        failed = warm_failed + sum(p.failed for p in phases)
        if args.trace:
            metrics = per_layer(tracer, phase, untraced, args.workload)
            tracer.write(
                OUT_DIR / f"spans-{args.workload}.json",
                {"workload": args.workload, "seed": args.seed, "env": env,
                 "jobs": {i: j.label for i, j in enumerate(jobs)}, "order": order},
            )
        else:
            metrics = end_to_end(phase, setup_s, attempted, failed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in problems + [f for p in phases for f in p.failures]:
        print(f"FAIL {line}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {len(jobs)} jobs per pass, "
          f"{phase.passes} passes in {phase.seconds:.2f} s")
    print(f"host reference kernel {phase.speed.mean_pass_s():.6f} s mean over "
          f"{len(phase.speed.passes)} passes; wall times scaled by {phase.scale:.4f}")
    # error_frac is ok_frac's complement; it is 0 on a correct run, so the
    # result line carries ok_frac, which a bound can be taken relative to.
    print(f"error_frac {failed / attempted:.6g} frac")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

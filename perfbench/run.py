"""Benchmark driver: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from its ``src``
directory.  A closed loop with one client: the next job starts only after
the previous one has finished, in this one process, with no threads.

``--trace 0`` times a seeded batch of jobs sized to take about S seconds
and prints the end-to-end metrics.  ``--trace 1`` runs a batch sized for
S/2 seconds twice, first untraced and then with every public function of
the package's eight modules wrapped in spans, and prints the per-layer
metrics plus the tracing overhead.  Timings are reported in seconds at
the reference machine's speed (see speed.py); the measured wall times are
printed beside them.  Every answer is checked against an oracle after the
timed loop; the last line of standard output is one JSON object, and the
exit code is 1 when any job failed.
"""

import time

_T0 = time.perf_counter()          # process start, as far as set-up time goes

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 4                  # extra set-ups in child processes
CHILD_TIMEOUT_S = 120


def import_package():
    """Import brnr from this checkout's src, never from anywhere else."""
    if not (SRC / "brnr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'brnr'}")
    sys.path.insert(0, str(SRC))
    import brnr
    if Path(brnr.__file__).resolve().parent != (SRC / "brnr").resolve():
        sys.exit(f"perfbench: imported brnr from {brnr.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": numba_version, "nproc": os.cpu_count(),
            "machine": platform.machine()}


@dataclass
class Result:
    wall_s: float                  # measured
    ref_s: float                   # at the reference speed
    answer: object
    error: "str | None"


def run_jobs(jobs, tracer=None) -> list[Result]:
    """Run jobs back to back, sampling the machine's speed around and during each."""
    raw = []
    with speed.Sampler() as sampler:
        sampler.sample()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                answer, error = job.call(), None
            except Exception as err:   # a failed job is counted, the loop goes on
                answer, error = None, "".join(traceback.format_exception_only(err)).strip()
            raw.append((t0, time.perf_counter(), answer, error))
            sampler.sample()
    return [Result(*sampler.job_seconds(t0, t1), answer, error)
            for t0, t1, answer, error in raw]


def check_results(jobs, results) -> list[str]:
    """Untimed: one message per failed job (error raised or wrong answer)."""
    failures = []
    for job, r in zip(jobs, results):
        error = r.error
        if error is None:
            try:
                error = job.check(r.answer)
            except Exception as err:
                error = f"check raised {type(err).__name__}: {err}"
        if error is not None:
            failures.append(f"{job.label}: {error}")
    return failures


def tail(latencies):
    """(percentile, value): the highest whole percentile with >= 10 samples beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = math.floor(100 * (n - 10) / n)
    return p, xs[max(0, math.ceil(p * n / 100) - 1)]


def child_setup_times(args) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes doing the same set-up."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, jobs, setup_s):
    results = run_jobs(jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + child_setup_times(args)
    failures = check_results(jobs, results)
    ref = [r.ref_s for r in results]
    wall = [r.wall_s for r in results]
    n = len(jobs)
    pct, tail_s = tail(ref)
    metrics = {
        "jobs_per_s": metric(n / sum(ref), "1/s"),
        "job_s.p50": metric(statistics.median(ref), "s"),
        "job_s.tail": metric(tail_s, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    notes = {
        "jobs_per_s": f"wall {n / sum(wall):.6g}",
        "job_s.p50": f"wall {statistics.median(wall):.6g}",
        "job_s.tail": f"p{pct} of {n} samples; wall {tail(wall)[1]:.6g}",
        "setup_s": f"median of {len(setups)} set-ups",
        "error_rate": f"{len(failures) / n} ({len(failures)} of {n} jobs)",
    }
    return metrics, notes, n, failures


def traced_run(args, jobs):
    import spans
    plain = run_jobs(jobs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    failures = check_results(jobs, plain) + check_results(jobs, traced)
    n = len(jobs)
    job_scale = [r.ref_s / r.wall_s for r in traced]
    metrics = {f"{layer}.self_s": metric(s, "s")
               for layer, s in tracer.self_times(job_scale).items()}
    for name, value in tracer.counter_metrics().items():
        metrics[name] = metric(value, "ratio" if name.endswith("_ratio") else "count")
    plain_s = sum(r.ref_s for r in plain)
    traced_s = sum(r.ref_s for r in traced)
    metrics["trace.untraced_jobs_per_s"] = metric(n / plain_s, "1/s")
    metrics["trace.traced_jobs_per_s"] = metric(n / traced_s, "1/s")
    metrics["trace.slowdown"] = metric(traced_s / plain_s, "ratio")
    metrics["trace.spans"] = metric(len(tracer.spans), "count")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    notes = {"spans": f"written to {path.relative_to(ROOT)}",
             "error_rate": f"{len(failures) / (2 * n)} ({len(failures)} of {2 * n} jobs)"}
    return metrics, notes, 2 * n, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(oracles.Oracles())
    seconds = args.seconds / 2 if args.trace else args.seconds
    jobs = wl.batch(args.seed, wl.rounds(seconds), ctx)
    warm = wl.warmup(ctx)
    warm_failures = check_results(warm, run_jobs(warm))
    if warm_failures:
        sys.exit("perfbench: warm-up failed: " + "; ".join(warm_failures))
    setup_s = (time.perf_counter() - _T0) * speed.settled_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        metrics, notes, attempted, failures = traced_run(args, jobs)
    else:
        metrics, notes, attempted, failures = timed_run(args, jobs, setup_s)
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs per pass")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    for name in ("error_rate", "spans"):
        if name in notes:
            print(f"{name} = {notes[name]}")
    print("environment: " + ", ".join(f"{k} {v if v is not None else 'absent'}"
                                      for k, v in env.items()))
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**result, "notes": notes, "environment": env}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

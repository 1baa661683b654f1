"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks that each workload runs at its smallest size (one round) in both
modes, that the printed metric names are exactly the ones BENCHMARK.json
declares, that an oracle flags a deliberately wrong expected value, and
that the benchmark fails without printing a result when the package
source is missing.  Not collected by pytest: it runs the benchmark, which
takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def check_metric_names(spec):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            proc = run("--workload", w["name"], "--seed", "0", "--seconds", "1",
                       "--trace", trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (w["name"], trace, printed, declared)
            print(f"ok: {w['name']} --trace {trace}: {len(printed)} metrics")


def check_oracle_flags_wrong_value():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import oracles
    import run as bench
    import workloads

    class WrongB0(oracles.Oracles):
        def b0_expected(self, gtype):
            return (2,)                        # every group here has B_0 = 0

    class WrongPoints(oracles.Oracles):
        def point_count(self, gtype, G, place):
            return super().point_count(gtype, G, place) + 1

    for name, oracle in (("bogomolov-scan", WrongB0()), ("local-eval", WrongPoints())):
        wl = workloads.WORKLOADS[name]
        jobs = wl.batch(0, 1, workloads.Context(oracle))[:2]
        results = bench.run_jobs(jobs)
        failures = bench.check_results(jobs, results)
        assert len(failures) == len(jobs), failures
        print(f"ok: {name} checks flag a wrong expected value ({failures[0]})")


def check_fails_without_source(spec):
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("--workload", spec["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok: exits {proc.returncode} without a result when src/ is missing")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracle_flags_wrong_value()
    check_fails_without_source(spec)
    check_metric_names(spec)
    print("smoke test passed")


if __name__ == "__main__":
    main()

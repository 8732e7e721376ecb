"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload untraced and traced at minimal length (``--seconds
1``: one pass, or one untraced and one traced pass) and checks that

- every metric named in BENCHMARK.json is emitted with its unit,
- no operation fails on any workload (failed_frac is 0),
- the degree workloads make no projected flow step,
- trace-5-5 runs the degree search once per invocation,

and that the benchmark, copied without the program's sources, exits
with an error and prints no result.  Takes about two minutes; exits 1
on any failed check.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seconds", "1",
         "--seed", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workloads(spec, failures):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            before = len(failures)
            line = _run(workload, trace)
            metrics = line["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                wrong = sorted(n for n in got if expected[trace].get(n) != got[n])
                failures.append(f"{label}: missing {missing}, wrong unit or extra {wrong}")
            if not line["correct"] or line["failed"]:
                failures.append(f"{label}: failed_frac "
                                f"{line['failed'] / line['attempted']:.3f}, expected 0")
            if trace:
                steps = metrics["flow.projected_step.calls"]["value"]
                searches = metrics["degree.find_zeros.calls"]["value"]
                if workload != "trace-5-5" and steps != 0:
                    failures.append(f"{label}: {steps} projected steps, expected 0")
                if workload == "trace-5-5" and searches != 1:
                    failures.append(f"{label}: {searches} find_zeros calls, expected 1")
            print(f"{'ok' if len(failures) == before else 'FAIL':<5}{label}")


def check_without_sources(failures):
    bare = os.path.join(ROOT, ".bench_work", f"smoke-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                               "--workload", "verify-paper", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("without the program's sources the benchmark did not fail")
    else:
        print("ok   fails without the program's sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    check_without_sources(failures)
    check_workloads(spec, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

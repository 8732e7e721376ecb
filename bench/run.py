"""manideg benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in child processes with the BLAS and
OpenMP thread counts pinned to 1.  With ``--trace 0`` the run measures
the end-to-end metrics (set-up in fresh interpreters, then passes for
``--seconds``); with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
appends the run, stamped with its environment, to a JSON-lines file
that ``bench/compare.py`` reads.

Exit status: 0 after a completed run (failed operations are counted,
not fatal), 2 when the program's sources are missing, 3 when a child
process fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import scan

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("verify-paper", "trace-5-5", "degree-scan")
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0


class ChildError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _child(args, deadline):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args[0]} exceeded the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def git_sha():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def write_scan_inputs(work, seed):
    folder = os.path.join(work, "scan")
    os.makedirs(folder)
    manifest = []
    for problem in scan.generate(seed):
        path = os.path.join(folder, problem["name"] + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(problem.pop("text"))
        manifest.append({**problem, "path": path})
    with open(os.path.join(folder, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def run_workload(workload, seed, seconds, trace, work):
    """Measure one workload; returns (result line, details)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if workload == "degree-scan":
        write_scan_inputs(work, seed)
    setup = []
    if not trace:
        # the first interpreter also writes bytecode caches; it is not timed
        _child(["setup", ROOT, work, workload, seed], deadline)
        setup = [_child(["setup", ROOT, work, workload, seed], deadline)
                 for _ in range(SETUP_PROBES)]
    run = _child(["measure", ROOT, work, workload, seed, seconds, int(trace)], deadline)
    if trace:
        metrics = dict(run["layers"])
    else:
        answers = run["answers"]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "pass_s": statistics.median(run["passes"]),
            "answer_s.p50": percentile(answers, 0.5),
            "answer_s.p90": percentile(answers, 0.9),
            "pairs_per_s": statistics.median(run["pairs_per_s"]),
            "zero_recall": statistics.median(run["zero_recall"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    units = _units("per_layer" if trace else "end_to_end")
    line = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    details = {
        "env": {
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": run["numpy"], "manideg": run["manideg"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "seed": seed,
        },
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup_samples": setup, "pass_samples": run["passes"],
        "raw_pass_samples": run["raw_passes"], "reference_samples": run["reference_s"],
        "answer_samples": len(run["answers"]),
        "runtime_warnings": run["runtime_warnings"], "errors": run["errors"],
    }
    if trace:
        details["traced_pass_samples"] = run["traced_passes"]
    return line, details


def _units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def report(line, details, out):
    """Human-readable lines for one workload."""
    d = details
    out.write(f"# {d['workload']}: seed {d['seed']}, {d['seconds']:g} s, trace {d['trace']}, "
              f"{len(d['pass_samples'])} untraced passes\n")
    out.write(f"# env {json.dumps(d['env'], sort_keys=True)}\n")
    attempted, failed = line["attempted"], line["failed"]
    out.write(f"# failed_frac {failed / attempted:.4f} fraction "
              f"({failed} of {attempted} operations)\n")
    if d["runtime_warnings"]:
        out.write(f"# {d['runtime_warnings']} runtime warnings counted, not printed\n")
    for error in d["errors"][:5]:
        out.write(f"# failed: {error}\n")
    if not d["trace"]:
        out.write(f"# setup_s: median of {len(d['setup_samples'])} fresh interpreters; "
                  f"answer_s: {d['answer_samples']} answers\n")
        out.write(f"# raw wall time: pass median {statistics.median(d['raw_pass_samples']):.4g} s; "
                  f"reference loop median {1000 * statistics.median(d['reference_samples']):.3g} ms "
                  f"over {len(d['reference_samples'])} samples\n")
    metrics = line["metrics"]
    for name in sorted(metrics, key=lambda n: (not n.endswith("self_s"), n)):
        m = metrics[name]
        out.write(f"{d['workload']:>12} {name:<40} {m['value']:>14.6g} {m['unit']}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "manideg", "__init__.py")):
        sys.stderr.write(f"error: no manideg sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    lines = {}
    try:
        for name in names:
            os.makedirs(work)
            try:
                line, details = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            report(line, details, sys.stdout)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({**details, "result": line}) + "\n")
            lines[name] = line
    except ChildError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    finally:
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}/{k}": v for w, l in lines.items()
                        for k, v in l["metrics"].items()},
        }
    sys.stdout.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two benchmark result files.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds runs appended by ``bench/run.py --out``.  For each
workload and each metric named in BENCHMARK.json (end-to-end metrics
from untraced runs, per-layer metrics from traced runs) it prints both
medians with their quartiles and the change of AFTER against BEFORE,
signed so that a positive change is worse.  An end-to-end metric whose
change exceeds its bound is marked "worse"; when either side's spread
(quartile distance over median) exceeds the bound, it is "unresolved".
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {"runs", "attempted", "failed", metric: [values]}}."""
    groups = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            if not raw.strip():
                continue
            record = json.loads(raw)
            group = groups[(record["workload"], record["trace"])]
            result = record["result"]
            group["runs"].append(record["seed"])
            group["attempted"].append(result["attempted"])
            group["failed"].append(result["failed"])
            for name, metric in result["metrics"].items():
                group[name].append(metric["value"])
    return groups


def summary(values):
    """(median, q1, q3) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def compare(before, after, spec, out):
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    out.write(f"{'workload':<13}{'metric':<40}{'before [q1, q3]':>34}"
              f"{'after [q1, q3]':>34}{'change':>9}{'bound':>7}  verdict\n")
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        workload, trace = key
        if a is None or b is None:
            out.write(f"{workload:<13}(trace {trace}) only in one file\n")
            continue
        left = f"{sum(a['failed'])} of {sum(a['attempted'])}"
        right = f"{sum(b['failed'])} of {sum(b['attempted'])}"
        out.write(f"{workload:<13}{'failed operations':<40}{left:>34}{right:>34}\n")
        for metric in metrics[trace]:
            name = metric["name"]
            if not a.get(name) or not b.get(name):
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(a[name]), summary(b[name])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (mb - ma) / abs(ma) if ma else 0.0
            bound = metric.get("bound")
            if bound is None:
                verdict, bound_text = "-", ""
            elif max(spread(a[name]), spread(b[name])) > bound:
                verdict, bound_text = "unresolved", f"{bound:.0%}"
            else:
                verdict = "worse" if change > bound else "ok"
                bound_text = f"{bound:.0%}"
            left = f"{ma:.5g} [{a1:.4g}, {a3:.4g}]"
            right = f"{mb:.5g} [{b1:.4g}, {b3:.4g}]"
            out.write(f"{workload:<13}{name:<40}{left:>34}{right:>34}"
                      f"{change:>+9.1%}{bound_text:>7}  {verdict}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    compare(load(argv[0]), load(argv[1]), spec, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: one set-up probe or one measured run.

    child.py setup   ROOT WORK WORKLOAD SEED
    child.py measure ROOT WORK WORKLOAD SEED SECONDS TRACE

``setup`` times a fresh interpreter importing manideg and loading,
parsing and building the workload's problems; ``measure`` runs passes
for SECONDS and, with TRACE 1, alternates untraced and traced passes.
Either prints one JSON object as its last line.  The parent starts the
child with the BLAS and OpenMP thread counts pinned to 1.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


def _import_program(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import manideg

    if os.path.dirname(os.path.dirname(os.path.abspath(manideg.__file__))) != src:
        raise SystemExit(f"manideg was imported from {manideg.__file__}, not {src}")
    return manideg


def setup_probe(root, work, workload, seed):
    _import_program(root)
    import workloads

    workloads.WORKLOADS[workload](seed, work).setup()
    raw_s = time.perf_counter() - T0
    import calibration

    reference_s = calibration.reference_time(reps=5)  # the first loop is cold
    return {"setup_s": raw_s * calibration.REFERENCE_S / reference_s,
            "raw_setup_s": raw_s, "reference_s": reference_s}


def _count_runtime_warnings(sink):
    """Count RuntimeWarnings instead of printing them; pass others through."""
    show = warnings.showwarning

    def showwarning(message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            sink()
        else:
            show(message, category, *args, **kwargs)

    warnings.simplefilter("always", RuntimeWarning)
    warnings.showwarning = showwarning


def measure(root, work, workload, seed, seconds, trace):
    manideg = _import_program(root)
    import numpy
    import calibration
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload](seed, work)
    warning_count = [0]

    def on_warning():
        warning_count[0] += 1
        if tracer is not None:
            tracer.runtime_warning()

    tracer = tracing.Tracer() if trace else None
    _count_runtime_warnings(on_warning)

    if tracer is not None:
        tracer.install()
        t0 = time.perf_counter()
        wl.setup()
        traced_setup_s = time.perf_counter() - t0
        setup_snapshot = tracer.snapshot()
        tracer.uninstall()
    else:
        wl.setup()

    speed = calibration.Speed()
    speed.sample()
    passes, raw_passes, answers, pairs_per_s, recall = [], [], [], [], []
    traced_passes, traced_raw = [], []
    attempted = failed = 0
    errors = []
    walls = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) > len(traced_passes)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        # sampling inside a traced pass would land in the layers' spans
        ops = wl.run_pass(None if traced else speed)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        speed.sample()
        walls.append(time.perf_counter() - t0)
        calibrated = [speed.calibrate(op) for op in ops]
        raw_pass_s = sum(op.seconds for op in ops)
        pass_s = sum(seconds for seconds, _ in calibrated)
        attempted += len(ops)
        for op in ops:
            if not op.ok:
                failed += 1
                if len(errors) < 10:
                    errors.append(op.error)
        if traced:
            traced_passes.append(pass_s)
            traced_raw.append(raw_pass_s)
        else:
            passes.append(pass_s)
            raw_passes.append(raw_pass_s)
            pairs_per_s.append(sum(op.pairs for op in ops) / pass_s)
            recall.append(sum(op.zeros_found for op in ops)
                          / max(1, sum(op.zeros_true for op in ops)))
            answers.extend(a for _, op_answers in calibrated for a in op_answers)
        elapsed = time.perf_counter() - start
        done = passes and (traced_passes or not trace)
        if done and elapsed + statistics.median(walls) > seconds:
            break

    result = {
        "passes": passes,
        "raw_passes": raw_passes,
        "reference_s": speed.references,
        "answers": answers,
        "pairs_per_s": pairs_per_s,
        "zero_recall": recall,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "runtime_warnings": warning_count[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "manideg": manideg.__version__,
    }
    if trace:
        # the layer times are raw, like the traced pass they add up to
        traced_pass_s = statistics.mean(traced_raw)
        flat = tracing.per_invocation(setup_snapshot, tracer.snapshot(), len(traced_passes))
        layers = tracing.layer_metrics(flat, traced_setup_s + traced_pass_s)
        layers["trace.setup_s"] = traced_setup_s
        layers["trace.pass_s"] = traced_pass_s
        layers["trace.overhead_frac"] = (statistics.median(traced_passes)
                                         / statistics.median(passes) - 1.0)
        result["traced_passes"] = traced_passes
        result["layers"] = layers
    return result


def main(argv):
    mode, root, work, workload, seed = argv[:5]
    if mode == "setup":
        out = setup_probe(root, work, workload, int(seed))
    else:
        out = measure(root, work, workload, int(seed), float(argv[5]), argv[6] == "1")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

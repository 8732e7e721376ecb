"""The benchmark's workloads: set-up, one pass of operations, output checks.

A pass is a closed loop with one caller: each operation starts when the
previous one has returned.  Every operation's output is checked, and an
exception or a failed check is counted as a failed operation; the pass
goes on.  The program is called through module attributes (``cli.main``,
``manifold.partial2_sign``, ...), so the traced run's rebinding sees
every call.
"""

import contextlib
import csv
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass

import numpy as np

import manideg.cli as cli
import manideg.degree as degree
import manideg.manifold as manifold
import manideg.problems as problems

import tracing

ZERO_TOL = 1e-6


@dataclass
class Op:
    """Outcome of one operation.  Times are ``time.perf_counter`` values."""

    window: tuple         # (start, end)
    seconds: float        # wall time, less any speed sampling inside it
    ok: bool
    answers: list         # (start, end) of the wait for each answer received
    pairs: int = 0        # verified solution pairs the operation produced
    zeros_true: int = 0   # zeros the operation's degree search should find
    zeros_found: int = 0  # of those, the ones it found
    error: str = ""


def _single(window, ok, **fields):
    """An operation that gives one answer at its end."""
    return Op(window, window[1] - window[0], ok, [window], **fields)


def _call(fn):
    """(value, (start, end), error) of ``fn()``; an exception becomes the error."""
    t0 = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # the loop must go on; the failure is counted
        return None, (t0, time.perf_counter()), f"{type(exc).__name__}: {exc}"
    return value, (t0, time.perf_counter()), ""


def _between(speed, calls):
    """Run the operations in order, sampling the machine's speed between
    them when a sample is due (``speed`` None: no sampling)."""
    ops = []
    for call in calls:
        ops.append(call())
        if speed is not None:
            speed.sample_if_due()
    return ops


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().strip()


class VerifyPaper:
    """The degree pipeline over the six bundled problems, as ``verify-paper``
    runs it, checked against ``REFERENCE_DEGREES``.  The seed fixes the
    order of the problems."""

    name = "verify-paper"

    def __init__(self, seed, work_dir):
        self.order = sorted(problems.REGISTRY)
        random.Random(seed).shuffle(self.order)

    def setup(self):
        for name in self.order:
            problem = cli.load_problem(name)
            problem.build_constraint()
            problem.build_phi1()

    def run_pass(self, speed):
        return _between(speed, [lambda name=name: self._op(name) for name in self.order])

    def _op(self, name):
        def pipeline():
            problem = cli.load_problem(name)
            constraint = problem.build_constraint()
            sign = manifold.partial2_sign(constraint)
            field = manifold.reduced_map(problem.build_phi1(), constraint)
            return sign, degree.degree_sign_sum(field, problem.domain())

        value, window, error = _call(pipeline)
        if error:
            return _single(window, False, zeros_true=1, error=f"{name}: {error}")
        sign, result = value
        want = problems.REFERENCE_DEGREES[name]
        wrong = []
        if result.degree != want.ambient_degree:
            wrong.append(f"degree {result.degree} != {want.ambient_degree}")
        if sign != want.constraint_sign:
            wrong.append(f"sign {sign} != {want.constraint_sign}")
        if sign * result.degree != want.manifold_degree:
            wrong.append(f"manifold degree {sign * result.degree}")
        if len(result.zeros) != 1:
            wrong.append(f"{len(result.zeros)} zeros")
        elif np.linalg.norm(result.zeros[0].location - np.array(want.zero)) > 1e-8:
            wrong.append(f"zero at {result.zeros[0].location}")
        if wrong:
            return _single(window, False, zeros_true=1, error=f"{name}: " + "; ".join(wrong))
        return _single(window, True, pairs=1, zeros_true=1, zeros_found=1)


class Trace55:
    """``manideg trace example-5-5`` with the CLI defaults, checked against
    the bounds of the acceptance test for the forced branch.  The seed
    changes nothing: the workload is the bundled problem.

    The answers are the branch pairs: the first comes at the first
    accepted continuation step after the command starts, each later one
    at the next accepted step, as seen at the return of
    ``continuation.correct``."""

    name = "trace-5-5"
    problem = "example-5-5"

    def __init__(self, seed, work_dir):
        self.csv_path = os.path.join(work_dir, "trace-5-5.csv")

    def setup(self):
        problem = cli.load_problem(self.problem)
        problem.build_dae()
        problem.build_seed_map()

    def run_pass(self, speed):
        """One trace.  With ``speed``, the machine's speed is also sampled
        between branch pairs, and the sampling time is left out of the
        operation's and the answers' times."""
        stamps, paused = [], [0.0]

        def accepted(pair):
            stamps.append(time.perf_counter())
            paused.append(speed.sample_if_due() if speed is not None else 0.0)

        probe = tracing.Tracer(spans=[
            ("continuation.correct", "manideg.continuation", ("correct",))])
        probe.install(after={"continuation.correct": accepted})
        try:
            value, window, error = _call(
                lambda: _run_cli(["trace", self.problem, "--out", self.csv_path]))
        finally:
            probe.uninstall()
        seconds = window[1] - window[0] - sum(paused)
        # each wait starts after the previous pair, and after any sampling
        starts = [window[0]] + [t + pause for t, pause in zip(stamps, paused[1:])]
        answers = list(zip(starts, stamps))
        if not error:
            try:
                error = self._check(*value)
            except (OSError, ValueError, KeyError) as exc:
                error = f"malformed output: {type(exc).__name__}: {exc}"
        if error:
            return [Op(window, seconds, False, answers, zeros_true=1,
                       error=f"{self.problem}: {error}")]
        # the check puts the branch's first pair on the seed zero
        return [Op(window, seconds, True, answers, pairs=len(self.rows),
                   zeros_true=1, zeros_found=1)]

    def _check(self, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr}"
        match = re.match(r"(\d+) solution pairs \((\w+)\)", stdout)
        if not match:
            return f"unexpected output {stdout!r}"
        termination = match.group(2)
        with open(self.csv_path, encoding="utf-8") as fh:
            self.rows = rows = [{key: float(v) for key, v in row.items()}
                                for row in csv.DictReader(fh)]
        if termination not in ("lambda_max", "left_domain"):
            return f"termination {termination}"
        if len(rows) != int(match.group(1)) or len(rows) < 50:
            return f"{len(rows)} pairs"
        first, last = rows[0], rows[-1]
        zero = problems.REFERENCE_DEGREES[self.problem].zero
        seed = [first["x1"], first["x2"], first["y"]]
        if np.linalg.norm(np.subtract(seed, zero)) > 1e-8:
            return f"branch starts at {seed}"
        if first["lambda"] != 0.0 or first["amplitude"] > 1e-8:
            return "first pair is not the trivial pair at lambda 0"
        for i, row in enumerate(rows):
            if row["residual"] > 1e-6 or row["drift"] > 1e-8:
                return f"pair {i}: residual {row['residual']:.3e}, drift {row['drift']:.3e}"
            if row["lambda"] >= 0.1 and row["amplitude"] <= 1e-4:
                return f"pair {i}: amplitude {row['amplitude']:.3e}"
        if last["lambda"] < 0.5:
            return f"branch ends at lambda {last['lambda']}"
        return ""


class DegreeScan:
    """Generated problem files run through ``manideg degree`` (and, in 2-D,
    ``--method winding``), checked against their closed-form degrees and
    zero sets.

    A winding answer must equal the closed-form degree.  A sign-sum answer
    must report only true zeros, each once and with its true local index,
    and a degree equal to the sum of those indices; then it is the
    closed-form degree exactly when no zero was missed.  Zeros the default
    Newton grid misses (the documented missed-zero defect) are not a
    failed operation: the operation's ``zeros_true`` and ``zeros_found``
    feed the ``zero_recall`` metric instead.  The pairs of a sign-sum
    operation are its located zeros."""

    name = "degree-scan"

    def __init__(self, seed, work_dir):
        with open(os.path.join(work_dir, "scan", "manifest.json"), encoding="utf-8") as fh:
            self.cases = json.load(fh)

    def setup(self):
        for case in self.cases:
            cli.load_problem(case["path"]).build_phi1()

    def run_pass(self, speed):
        calls = []
        for case in self.cases:
            calls.append(lambda case=case: self._op(case, ["degree", case["path"]]))
            if case["dim"] == 2:
                calls.append(lambda case=case: self._op(
                    case, ["degree", case["path"], "--method", "winding"]))
        return _between(speed, calls)

    def _op(self, case, argv):
        value, window, error = _call(lambda: _run_cli(argv))
        winding = "winding" in argv
        label = f"{case['name']} {'--method winding' if winding else '--method sign-sum'}"
        expect = 0 if winding else len(case["zeros"])
        if not error:
            try:
                error, found = self._check(case, winding, *value)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"malformed output: {type(exc).__name__}: {exc}"
        if error:
            return _single(window, False, zeros_true=expect, error=f"{label}: {error}")
        return _single(window, True, pairs=found, zeros_true=expect, zeros_found=found)

    @staticmethod
    def _check(case, winding, code, stdout, stderr):
        """(error or "", zeros found) of one command's output."""
        if code != 0:
            return f"exit {code}: {stderr}", 0
        record = json.loads(stdout)
        if record["partial2_sign"] != 1:
            return f"partial2_sign {record['partial2_sign']}", 0
        if record["manifold_degree"] != record["degree"]:
            return f"manifold degree {record['manifold_degree']}", 0
        if winding:
            if record["degree"] != case["degree"]:
                return f"degree {record['degree']} != {case['degree']}", 0
            return "", 0
        true = np.array(case["zeros"], dtype=float).reshape(-1, case["dim"])
        matched = set()
        for zero in record["zeros"]:
            dist = np.linalg.norm(true - np.array(zero["location"]), axis=1)
            hit = int(np.argmin(dist)) if len(true) else -1
            if hit < 0 or dist[hit] > ZERO_TOL or hit in matched:
                return f"spurious zero at {zero['location']}", 0
            if zero["index"] != case["indices"][hit]:
                return f"zero at {zero['location']}: index {zero['index']}", 0
            matched.add(hit)
        if record["degree"] != sum(case["indices"][hit] for hit in matched):
            return f"degree {record['degree']} is not the sum of its zeros' indices", 0
        return "", len(matched)


WORKLOADS = {w.name: w for w in (VerifyPaper, Trace55, DegreeScan)}

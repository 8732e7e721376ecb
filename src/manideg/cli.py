"""Command-line front end.

Three subcommands:

``manideg degree PROBLEM``
    Degree of the problem's seed map over its box (sign-sum by
    default, ``--method winding`` for the planar cross-check), printed
    as a JSON record with deterministic formatting.

``manideg trace PROBLEM``
    Follow the branch of forced periodic pairs rooted at the seed-map
    zero, writing one CSV row per solution pair.

``manideg verify-paper``
    Recompute the degrees of the six bundled reference problems and
    compare against their known values; exit 1 on any mismatch.

``PROBLEM`` is a problem-file path or the name of a bundled problem.
Exit codes: 2 malformed problem or option value, an unwritable
``--out`` path or an expression nested too deeply, 3 constraint
regularity failure, 4 inadmissible boundary, 5 numeric failure.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .continuation import DEFAULT_TRACE_STEPS_PER_PERIOD, trace_branch
from .degree import DegreeResult, boundary_min, degree_winding_2d, find_zeros
from .errors import (
    AdmissibilityError,
    NumericError,
    ProblemError,
    ProblemFormatError,
    RegularityError,
)
from .manifold import ManifoldDegreeResult, manifold_degree, partial2_sign, reduced_map
from .problems import (
    REFERENCE_DEGREES, REGISTRY, ZERO_SEARCH_OPTIONS, _domain, _parse_box, parse_problem,
)

__all__ = ["main", "run", "load_problem", "verify_reference_problems"]

_EXIT_BY_ERROR = (
    (ProblemError, 2),
    (RegularityError, 3),
    (AdmissibilityError, 4),
    (NumericError, 5),
)


# --- deterministic JSON ----------------------------------------------------

def _json(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{key}": {_json(value[key], indent + 1)}'
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{pad}  {_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}" if math.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot serialise {type(value)!r}")


def _print_json(record):
    sys.stdout.write(_json(record) + "\n")


# --- problem loading --------------------------------------------------------

def load_problem(source):
    """Problem from a file path or the bundled registry.

    A regular file comes before the bundled problem of its name; anything
    else by such a name (a directory, say) does not shadow it.
    """
    if source in REGISTRY and not os.path.isfile(source):
        return REGISTRY[source]
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ProblemFormatError(f"cannot read problem file {source!r}: {exc}") from None
        return parse_problem(text)
    known = ", ".join(sorted(REGISTRY))
    raise ProblemFormatError(
        f"{source!r} is neither a readable file nor a bundled problem ({known})"
    )


def _parse_box_option(text, dim):
    ranges = _parse_box(text.replace(":", " "))
    if len(ranges) != dim:
        raise ProblemFormatError(f"--box has {len(ranges)} ranges, problem needs {dim}")
    return _domain(ranges)


def _check_count(flag, value):
    if value is not None and value < 1:
        raise ProblemFormatError(f"{flag} must be at least 1, got {value}")


def _check_trace_options(args):
    if not (math.isfinite(args.ds) and args.ds > 0.0):
        raise ProblemFormatError(f"--ds must be a positive finite step, got {args.ds}")
    if not (math.isfinite(args.lambda_max) and args.lambda_max >= 0.0):
        raise ProblemFormatError(
            f"--lambda-max must be finite and non-negative, got {args.lambda_max}")
    _check_count("--steps-per-period", args.steps_per_period)
    _check_count("--max-steps", args.max_steps)
    _check_count("--quadrature-nodes", args.quadrature_nodes)
    if args.seed_index < 0:
        raise ProblemFormatError(f"--seed-index must be non-negative, got {args.seed_index}")


# --- subcommands -------------------------------------------------------------

def _cmd_degree(args):
    _check_count("--quadrature-nodes", args.quadrature_nodes)
    problem = load_problem(args.problem)
    constraint = problem.build_constraint()
    phi1 = problem.build_phi1(args.quadrature_nodes)
    box = (_parse_box_option(args.box, constraint.dim)
           if args.box else problem.domain())
    options = problem.solver_options()
    if args.method == "winding":
        if constraint.dim != 2:
            raise ProblemFormatError(
                "--method winding applies to planar problems only"
            )
        sign = partial2_sign(constraint, box=box,
                             sample_density=options.get("sample_density"))
        field = reduced_map(phi1, constraint)
        degree = degree_winding_2d(field, box)
        result = ManifoldDegreeResult(
            sign * degree,
            DegreeResult(degree, [], "winding",
                         boundary_min(field, box, options.get("boundary_samples"))),
            sign,
        )
    else:
        result = manifold_degree(phi1, constraint, box, **options)
    ambient = result.ambient
    record = {
        "problem": problem.name,
        "method": ambient.method,
        "degree": ambient.degree,
        "manifold_degree": result.degree,
        "partial2_sign": result.constraint_sign,
        "boundary_min": ambient.boundary_min,
        "zeros": [
            {
                "location": list(z.location),
                "residual": z.residual,
                "jacobian_det": z.jacobian_det,
                "index": z.index,
            }
            for z in ambient.zeros
        ],
        "warnings": list(ambient.warnings),
    }
    _print_json(record)
    return 0


def _cmd_trace(args):
    _check_trace_options(args)
    problem = load_problem(args.problem)
    dae = problem.build_dae()
    seed_map = problem.build_seed_map(args.quadrature_nodes)
    seeds = [z for z in find_zeros(seed_map, problem.domain(),
                                   **problem.solver_options(ZERO_SEARCH_OPTIONS))
             if not z.degenerate]
    if not seeds:
        raise NumericError("no nondegenerate seed-map zero inside the box")
    try:
        seed = seeds[args.seed_index]
    except IndexError:
        raise ProblemFormatError(
            f"--seed-index {args.seed_index} is out of range for "
            f"{len(seeds)} seed-map zero(s)"
        ) from None
    steps = args.steps_per_period
    if steps is None:
        steps = problem.option("steps_per_period", DEFAULT_TRACE_STEPS_PER_PERIOD)
    branch = trace_branch(dae, seed, ds=args.ds, lambda_max=args.lambda_max,
                          max_steps=args.max_steps, steps_per_period=steps)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_branch_csv(branch, problem.variables, fh)
        except OSError as exc:
            raise ProblemFormatError(f"cannot write {args.out!r}: {exc}") from None
        sys.stdout.write(
            f"{len(branch.points)} solution pairs ({branch.termination}) "
            f"-> {args.out}\n"
        )
    else:
        _write_branch_csv(branch, problem.variables, sys.stdout)
    return 0


def _write_branch_csv(branch, variables, out):
    header = ["index", "lambda", *variables, "amplitude", "residual", "drift"]
    out.write(",".join(header) + "\n")
    for i, pair in enumerate(branch.points):
        cells = [str(i), f"{pair.lam:.17g}"]
        cells += [f"{v:.17g}" for v in (*pair.x0, *pair.y0)]
        cells += [f"{pair.amplitude:.17g}", f"{pair.residual:.17g}",
                  f"{pair.drift:.17g}"]
        out.write(",".join(cells) + "\n")


def verify_reference_problems(json_mode=False):
    """Recompute every bundled problem against ``REFERENCE_DEGREES``.

    Writes a table, or with ``json_mode`` one JSON record, to stdout and
    returns the process exit code: 0 when every problem passes.
    """
    rows = []
    for name in sorted(REGISTRY):
        problem = REGISTRY[name]
        want = REFERENCE_DEGREES[name]
        constraint = problem.build_constraint()
        result = manifold_degree(problem.build_phi1(), constraint,
                                 **problem.solver_options())
        ambient = result.ambient
        zero_err = float("nan")
        if len(ambient.zeros) == 1:
            zero_err = float(np.linalg.norm(
                ambient.zeros[0].location - np.array(want.zero)))
        ok = (
            ambient.degree == want.ambient_degree
            and result.constraint_sign == want.constraint_sign
            and result.degree == want.manifold_degree
            and len(ambient.zeros) == 1
            and zero_err <= 1e-8
        )
        rows.append({
            "problem": name,
            "ambient_degree": ambient.degree,
            "constraint_sign": result.constraint_sign,
            "manifold_degree": result.degree,
            "expected_ambient": want.ambient_degree,
            "expected_sign": want.constraint_sign,
            "expected_manifold": want.manifold_degree,
            "zero_error": zero_err,
            "ok": ok,
        })
    passed = sum(r["ok"] for r in rows)
    if json_mode:
        _print_json({"results": rows, "passed": passed, "total": len(rows)})
    else:
        sys.stdout.write(
            f"{'problem':<14}{'ambient':>8}{'sign':>6}{'manifold':>10}"
            f"{'expected':>10}{'zero-err':>12}  status\n"
        )
        for r in rows:
            status = "pass" if r["ok"] else "FAIL"
            sys.stdout.write(
                f"{r['problem']:<14}{r['ambient_degree']:>8}{r['constraint_sign']:>6}"
                f"{r['manifold_degree']:>10}{r['expected_manifold']:>10}"
                f"{r['zero_error']:>12.2e}  {status}\n"
            )
        sys.stdout.write(f"{passed}/{len(rows)} reference problems verified\n")
    return 0 if passed == len(rows) else 1


def _cmd_verify(args):
    return verify_reference_problems(json_mode=args.json)


# --- entry points -------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="manideg",
        description="Degree computations for tangent fields on implicit "
                    "manifolds and continuation of forced periodic orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_degree = sub.add_parser("degree", help="degree of a problem's seed map")
    p_degree.add_argument("problem", help="problem file or bundled name")
    p_degree.add_argument("--method", choices=("sign-sum", "winding"),
                          default="sign-sum")
    p_degree.add_argument("--box", help="override region, --box=lo:hi,lo:hi,... (with '=', "
                               "since a range may start with '-')")
    p_degree.add_argument("--quadrature-nodes", type=int, default=None)
    p_degree.set_defaults(func=_cmd_degree)

    p_trace = sub.add_parser("trace", help="trace a branch of forced periodic pairs")
    p_trace.add_argument("problem", help="problem file or bundled name")
    p_trace.add_argument("--ds", type=float, default=0.02,
                         help="pseudo-arclength step (default 0.02)")
    p_trace.add_argument("--lambda-max", type=float, default=1.0)
    p_trace.add_argument("--max-steps", type=int, default=400)
    p_trace.add_argument("--steps-per-period", type=int, default=None)
    p_trace.add_argument("--seed-index", type=int, default=0,
                         help="which seed-map zero to continue (default first)")
    p_trace.add_argument("--quadrature-nodes", type=int, default=None)
    p_trace.add_argument("--out", help="CSV output path (default stdout)")
    p_trace.set_defaults(func=_cmd_trace)

    p_verify = sub.add_parser(
        "verify-paper",
        help="recompute the bundled reference degrees and compare",
    )
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable verdicts")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_BY_ERROR) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for cls, code in _EXIT_BY_ERROR if isinstance(exc, cls))
    except RecursionError:
        # parsing, compiling and evaluating an expression each walk its tree recursively
        sys.stderr.write("error: an expression nests too deeply to parse, compile or evaluate\n")
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()

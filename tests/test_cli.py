"""Problem files, the batch front end, and its exit-code contract.

Exit codes under test: 0 success, 1 verification mismatch, 2 malformed
problem, 3 regularity failure, 4 inadmissible boundary, 5 numeric
failure.
"""

import csv
import dataclasses
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from manideg import REGISTRY, AmbientMap, Problem, cli, parse_problem
from manideg.cli import load_problem, main, verify_reference_problems
from manideg.errors import ProblemError, ProblemFormatError
from manideg.problems import REFERENCE_DEGREES, ReferenceDegrees

SPRING_TEXT = """\
# damped oscillator on a cubic graph
name = osc
k = 2
s = 1
vars = x1, x2, y
g = y^3 + y - x1^5 - x1
gamma = x2
gamma = -y - 0.5*x2
sigma = 0
sigma = cos(t)
period = 6.283185307179586
box = -2 2, -2 2, -2 2
steps_per_period = 128
"""


# --- problem files -----------------------------------------------------------

def test_parse_problem_fields():
    prob = parse_problem(SPRING_TEXT)
    assert prob.name == "osc"
    assert (prob.k, prob.s) == (2, 1)
    assert prob.variables == ("x1", "x2", "y")
    assert prob.g == ("y^3 + y - x1^5 - x1",)
    assert prob.gamma == ("x2", "-y - 0.5*x2")
    assert prob.sigma == ("0", "cos(t)")
    assert prob.period == pytest.approx(6.283185307179586)
    assert prob.box == ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))
    assert prob.option("steps_per_period") == 128


def test_problem_builds_its_constraint_once():
    prob = parse_problem(SPRING_TEXT)
    assert prob.build_constraint() is prob.build_constraint() is prob.build_dae().constraint


@pytest.mark.parametrize("nodes", [0, -2])
def test_build_phi1_rejects_quadrature_nodes_below_one(nodes):
    # example-5-7 has no gamma, so its phi1 is the averaged forcing
    problem = REGISTRY["example-5-7"]
    with pytest.raises(ValueError, match="quadrature_nodes"):
        problem.build_phi1(nodes)
    with pytest.raises(ValueError, match="quadrature_nodes"):
        problem.build_seed_map(nodes)


@pytest.mark.parametrize("mutation", [
    lambda t: t.replace("name = osc\n", ""),              # missing required key
    lambda t: t.replace("k = 2", "k = two"),              # non-integer k
    lambda t: t.replace("box = -2 2, -2 2, -2 2", "box = -2, 2"),
    lambda t: t.replace("box = -2 2, -2 2, -2 2", "box = 2 -2, -2 2, -2 2"),
    lambda t: t + "name = again\n",                       # duplicate key
    lambda t: t + "mystery = 7\n",                        # unknown key
    lambda t: t + "grid_density = many\n",                # bad option value
    lambda t: t.replace("period = 6.283185307179586", "period = soon"),
    lambda t: t + "just a line\n",                        # no key/value shape
    lambda t: t.replace("g = y^3 + y - x1^5 - x1", "g ="),
    lambda t: t.replace("gamma = x2", "gamma = x2 +"),    # eager expression check
    lambda t: t.replace("steps_per_period = 128", "steps_per_period = 0"),
    lambda t: t.replace("gamma = x2", "gamma = 1e999*x2"),  # literal overflows
    lambda t: t + "newton_tol = -1\n",
    lambda t: t + "newton_tol = nan\n",
    lambda t: t + "dedup_radius = inf\n",
    lambda t: t + "dedup_radius = -1\n",
    lambda t: t.replace("box = -2 2, -2 2, -2 2", "box = -inf 2, -2 2, -2 2"),
    lambda t: t.replace("box = -2 2, -2 2, -2 2", "box = -2 2, -2 inf, -2 2"),
    lambda t: t.replace("period = 6.283185307179586", "period = inf"),
    # (mutation, the message it must produce): the shape checks of Problem
    (lambda t: t.replace("k = 2", "k = 0"), "k and s must be positive"),
    (lambda t: t + "g = y - x1\n", "2 constraint lines, expected 1"),
    (lambda t: t + "gamma = x1\n", "3 gamma lines, expected 2"),
    (lambda t: t.replace("box = -2 2, -2 2, -2 2", "box = -2 2, -2 2"),
     "2 box ranges for 3 variables"),
    (lambda t: t.replace("period = 6.283185307179586\n", ""),
     "a forcing term needs a positive period"),
    (lambda t: t.replace("vars = x1, x2, y", "vars = x1, x2"), "2 variables for k \\+ s = 3"),
    (lambda t: t.replace("vars = x1, x2, y", "vars = x1, t, y"),
     "'t' is reserved for time"),
    # a repeated option, like a repeated name, is refused instead of overriding the first
    (lambda t: t + "grid_density = 4\ngrid_density = 9\n",
     "line 15: duplicate key 'grid_density'"),
    # the boundary and constraint sampling densities are no longer problem-file keys
    (lambda t: t + "boundary_samples = 4\n", "line 14: unknown key 'boundary_samples'"),
    (lambda t: t + "sample_density = 4\n", "line 14: unknown key 'sample_density'"),
])
def test_malformed_problem_text_rejected(mutation):
    # expression-level failures surface as their own ProblemError subclass
    mutation, message = mutation if isinstance(mutation, tuple) else (mutation, None)
    with pytest.raises(ProblemError, match=message):
        parse_problem(mutation(SPRING_TEXT))


@pytest.mark.parametrize("changes", [
    {"box": ((-math.inf, 2.0), (-2.0, 2.0), (-2.0, 2.0))},
    {"box": ((-2.0, 2.0), (-2.0, math.nan), (-2.0, 2.0))},
    {"period": math.inf},
], ids=["box-inf", "box-nan", "period-inf"])
def test_problem_bounds_and_period_must_be_finite(changes):
    with pytest.raises(ProblemFormatError, match="finite"):
        dataclasses.replace(REGISTRY["example-5-5"], **changes)


@pytest.mark.parametrize("box", [((2.0, -2.0), (-2.0, 2.0)), ((-2.0, 2.0), (1.0, 1.0))],
                         ids=["reversed", "empty"])
def test_problem_box_ranges_must_be_ordered(box):
    with pytest.raises(ProblemFormatError, match="lower < upper"):
        dataclasses.replace(REGISTRY["example-4-1"], box=box)


def test_problem_comments_and_blank_lines_ignored():
    prob = parse_problem("\n\n" + SPRING_TEXT.replace("k = 2", "k = 2   # two"))
    assert prob.k == 2


def test_load_problem_from_registry_and_file(tmp_path):
    assert load_problem("example-5-5") is REGISTRY["example-5-5"]
    path = tmp_path / "osc.problem"
    path.write_text(SPRING_TEXT, encoding="utf-8")
    assert load_problem(str(path)).name == "osc"
    with pytest.raises(ProblemFormatError):
        load_problem("no-such-problem")


# --- degree subcommand ---------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    # a reused parser keeps no state from the previous command line
    assert run_cli(capsys, "degree", "example-4-1", "--method", "winding")[0] == 0
    code, out, _ = run_cli(capsys, "degree", "example-4-1")
    assert code == 0 and json.loads(out)["method"] == "sign-sum"


def test_degree_record(capsys):
    code, out, err = run_cli(capsys, "degree", "example-4-1")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["problem"] == "example-4-1"
    assert record["method"] == "sign-sum"
    assert record["degree"] == -1
    assert record["partial2_sign"] == -1
    assert record["manifold_degree"] == 1
    assert record["boundary_min"] > 0.0
    assert len(record["zeros"]) == 1
    zero = record["zeros"][0]
    assert abs(zero["location"][0]) <= 1e-8 and abs(zero["location"][1]) <= 1e-8
    assert zero["index"] == -1


def test_degree_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "degree", "example-4-1")
    _, second, _ = run_cli(capsys, "degree", "example-4-1")
    assert first == second


def test_degree_winding_method_agrees(capsys):
    code, out, _ = run_cli(capsys, "degree", "example-4-1", "--method", "winding")
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "winding"
    assert record["degree"] == -1
    assert record["manifold_degree"] == 1


def test_degree_methods_sample_the_same_boundary(capsys, tmp_path):
    # the winding record takes its margin from the sign-sum's boundary samples
    path = tmp_path / "parabola.problem"
    path.write_text("name = parabola\nk = 1\ns = 1\nvars = x, y\ng = y - x^2\n"
                    "gamma = x - 0.3\nbox = -2 2, -1 5\n",
                    encoding="utf-8")
    sign_sum, winding = (json.loads(run_cli(capsys, "degree", str(path), "--method", m)[1])
                         for m in ("sign-sum", "winding"))
    assert sign_sum["boundary_min"] == winding["boundary_min"] == 1.0296360024097659
    assert sign_sum["degree"] == winding["degree"]


@pytest.mark.parametrize("name", ["example-4-1", "example-5-3"])
def test_degree_winding_evaluates_the_boundary_samples_once(capsys, monkeypatch, name):
    # the record's margin and the walk's first pass come from one batch
    batches = []
    batch = AmbientMap.batch
    monkeypatch.setattr(AmbientMap, "batch",
                        lambda self, points, jacobian=False: batches.append(
                            (np.array(points), jacobian)) or batch(self, points, jacobian))
    assert run_cli(capsys, "degree", name, "--method", "winding")[0] == 0
    boundary = REGISTRY[name].domain().boundary_grid(64)  # 256 rows, each corner twice
    seen = np.concatenate([points for points, jacobian in batches if not jacobian])
    for point in boundary:
        assert (seen == point).all(axis=1).sum() == (boundary == point).all(axis=1).sum()


def test_degree_counts_a_zero_whose_field_values_exceed_1e154(capsys, tmp_path):
    # |F| squared overflows on the whole boundary and at every Newton start here
    path = tmp_path / "big.problem"
    path.write_text("name = big\nk = 1\ns = 1\nvars = x, y\ng = y - x\n"
                    "gamma = x^3 - 1e308*x\nbox = -2 2, -2 2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "degree", str(path))
    record = json.loads(out)
    assert code == 0
    assert (record["degree"], record["manifold_degree"]) == (-1, -1)
    assert record["boundary_min"] == 3.1746031746031631e+306
    [zero] = record["zeros"]
    assert np.allclose(zero["location"], 0.0) and zero["jacobian_det"] == pytest.approx(-1e308)


def test_degree_winding_refusal_names_the_span_it_could_not_resolve(capsys, tmp_path):
    # on y = +-2 the first component changes sign within about 1e-308 of x = 0,
    # far below the 2^-47 of a segment that 48 passes bisect down to
    path = tmp_path / "big.problem"
    path.write_text("name = big\nk = 1\ns = 1\nvars = x, y\ng = y - x\n"
                    "gamma = x^3 - 1e308*x\nbox = -2 2, -2 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "degree", str(path), "--method", "winding")
    assert (code, out) == (5, "")
    assert err.startswith("error: boundary angle increments stay above pi/2 after ")
    assert "pass 48;" in err and "has length 4.5e-16" in err


def test_degree_winding_rejects_higher_dimensions(capsys):
    code, _, err = run_cli(capsys, "degree", "example-4-2", "--method", "winding")
    assert code == 2
    assert "planar" in err


def test_degree_winding_checks_planarity_first(capsys, tmp_path):
    # det d_y g = 2y changes sign in this 3-D box; the winding method must
    # refuse the dimension before it samples the constraint
    path = tmp_path / "flip.problem"
    path.write_text("name = flip\nk = 2\ns = 1\nvars = x1, x2, y\ng = y^2 - x1\n"
                    "gamma = x1\ngamma = x2\nbox = -1 1, -1 1, -1 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "degree", str(path), "--method", "winding")
    assert code == 2 and "planar" in err


def test_degree_box_override_excludes_zero(capsys):
    code, out, _ = run_cli(capsys, "degree", "example-4-1",
                           "--box", "0.5:2,0.5:2")
    assert code == 0
    record = json.loads(out)
    assert record["degree"] == 0
    assert record["zeros"] == []


def test_degree_from_problem_file(capsys, tmp_path):
    path = tmp_path / "osc.problem"
    path.write_text(SPRING_TEXT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "degree", str(path))
    assert code == 0
    assert json.loads(out)["manifold_degree"] == 1


def test_degree_record_escapes_a_control_character_in_the_name(capsys, tmp_path):
    path = tmp_path / "tab.problem"
    path.write_text(SPRING_TEXT.replace("name = osc", "name = tab\there"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "degree", str(path))
    assert code == 0 and json.loads(out)["problem"] == "tab\there"


def test_json_refuses_a_value_it_cannot_write():
    with pytest.raises(TypeError, match="cannot serialise"):
        cli._json(object())


def test_bundled_problem_is_not_shadowed_by_a_directory(capsys, tmp_path, monkeypatch):
    # a directory named like a bundled problem leaves the bundled problem in place; a
    # regular file of that name is read instead
    want = run_cli(capsys, "degree", "example-4-1")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "example-4-1").mkdir()
    assert run_cli(capsys, "degree", "example-4-1") == want
    (tmp_path / "example-5-5").write_text(SPRING_TEXT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "degree", "example-5-5")
    assert code == 0 and json.loads(out)["problem"] == "osc"


# --- exit codes ------------------------------------------------------------------

@pytest.mark.parametrize("argv,needle", [
    (("degree", "missing"), "bundled"),
    (("degree", "example-4-1", "--box", "a:1,-1:1"), "bound"),     # non-numeric
    (("degree", "example-4-1", "--box", "1:-1,-1:1"), "lower < upper"),  # reversed
    (("degree", "example-4-1", "--box", "0:1"), "ranges"),         # too few ranges
    (("trace", "example-5-5", "--seed-index", "3"), "seed-index"),
    (("trace", "example-5-5", "--steps-per-period", "-4"), "--steps-per-period"),
    (("trace", "example-5-5", "--steps-per-period", "0"), "--steps-per-period"),
    (("trace", "example-5-5", "--ds", "0"), "--ds"),
    (("trace", "example-5-5", "--ds", "-1"), "--ds"),
    (("trace", "example-5-5", "--ds", "nan"), "--ds"),
    (("trace", "example-5-5", "--lambda-max", "nan"), "--lambda-max"),
    (("trace", "example-5-5", "--lambda-max", "-0.5"), "--lambda-max"),
    (("trace", "example-5-5", "--seed-index", "-1"), "--seed-index"),
    (("trace", "example-5-5", "--max-steps", "0"), "--max-steps"),
    (("trace", "example-5-5", "--quadrature-nodes", "0"), "--quadrature-nodes"),
    (("degree", "example-5-7", "--quadrature-nodes", "0"), "--quadrature-nodes"),
    (("degree", "example-4-1", "--box=-inf:1,-1:1"), "finite"),
    # a square of the diameter overflows; an upper - lower overflows
    (("degree", "example-4-1", "--box=-1e200:1e200,-1:1"), "diameter"),
    (("degree", "example-4-1", "--box=-1e308:1e308,-1:1"), "diameter"),
], ids=["unknown-problem", "box-bound", "box-reversed", "box-arity", "seed-index",
        "steps-negative", "steps-zero", "ds-zero", "ds-negative", "ds-nan",
        "lambda-max-nan", "lambda-max-negative", "seed-index-negative",
        "max-steps-zero", "quadrature-nodes-zero", "degree-quadrature-nodes-zero",
        "box-infinite", "box-square-overflow", "box-width-overflow"])
def test_exit_2_for_bad_input(capsys, argv, needle):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and needle in err


@pytest.mark.parametrize("old,new,needle", [
    ("gamma = x2", "gamma = 1e999*x2", "1e999"),
    ("steps_per_period = 128", "newton_tol = -1", "newton_tol"),
    ("box = -2 2, -2 2, -2 2", "box = -inf 2, -2 2, -2 2", "finite"),
    ("box = -2 2, -2 2, -2 2", "box = -1e200 1e200, -2 2, -2 2", "diameter"),
    ("period = 6.283185307179586", "period = inf", "finite"),
], ids=["overflowing-literal", "newton-tol-negative", "box-infinite", "box-square-overflow",
        "period-infinite"])
def test_exit_2_for_bad_problem_file(capsys, tmp_path, old, new, needle):
    path = tmp_path / "osc.problem"
    path.write_text(SPRING_TEXT.replace(old, new), encoding="utf-8")
    code, _, err = run_cli(capsys, "degree", str(path))
    assert code == 2 and needle in err


def test_degree_runs_on_a_box_whose_newton_fence_would_overflow(capsys):
    # find_zeros abandons starts past a fence three box widths across, whose
    # diameter may overflow where the box's does not
    code, out, _ = run_cli(capsys, "degree", "example-4-1", "--box=-3e153:3e153,-1:1")
    assert code == 0 and json.loads(out)["problem"] == "example-4-1"


NO_PARTS_TEXT = "".join(line for line in SPRING_TEXT.splitlines(keepends=True)
                        if not line.startswith(("gamma", "sigma")))
WRONG_PERIOD_TEXT = SPRING_TEXT.replace("cos(t)", "sin(t)").replace(
    "period = 6.283185307179586", "period = 1")


@pytest.mark.parametrize("command", ["degree", "trace"])
@pytest.mark.parametrize("text,needle", [
    (NO_PARTS_TEXT, "needs gamma, sigma or both"),
    (WRONG_PERIOD_TEXT, "not 1.0-periodic"),
], ids=["no-gamma-or-sigma", "sigma-not-periodic"])
def test_exit_2_for_a_system_the_field_rejects(capsys, tmp_path, command, text, needle):
    path = tmp_path / "osc.problem"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2 and needle in err


def _raise_permission_error(*args, **kwargs):
    raise PermissionError("permission denied")


@pytest.mark.parametrize("case", ["directory", "not-utf8", "unreadable"])
def test_exit_2_for_unreadable_problem_path(capsys, tmp_path, monkeypatch, case):
    path = tmp_path / "osc.problem"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    else:
        path.write_text(SPRING_TEXT, encoding="utf-8")
        monkeypatch.setattr(cli, "open", _raise_permission_error, raising=False)
    code, _, err = run_cli(capsys, "degree", str(path))
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
def test_exit_2_for_unwritable_trace_out_path(capsys, tmp_path, case):
    path = tmp_path / "no-such-dir" / "b.csv" if case == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "trace", "example-5-5", "--lambda-max", "0.02",
                             "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {str(path)!r}: ")


def test_unwritable_trace_out_path_is_refused_before_the_trace(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "trace_branch", lambda *args, **kw: pytest.fail("traced"))
    path = tmp_path / "no-such-dir" / "b.csv"
    code, out, err = run_cli(capsys, "trace", "example-5-5", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {str(path)!r}: ")
    assert not path.parent.exists()


@pytest.mark.parametrize("gamma", [
    " + ".join(["x"] * 3000),
    "(" * 1000 + "x" + ")" * 1000,
    "-" * 2000 + "x",
], ids=["long-sum", "nested-parentheses", "minus-signs"])
def test_exit_2_for_an_expression_nested_too_deeply(capsys, tmp_path, gamma):
    path = tmp_path / "deep.problem"
    path.write_text(f"name = deep\nk = 1\ns = 1\nvars = x, y\ng = y - x\ngamma = {gamma}\n"
                    "box = -2 2, -2 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "degree", str(path))
    assert (code, out) == (2, "")
    assert err == "error: an expression nests too deeply to parse, compile or evaluate\n"


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_run(capsys, tmp_path):
    # every `manideg ...` line of README's command-line block, on a bundled
    # problem instead of the placeholder file and writing into tmp_path
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(ln, comments=True) for ln in block.splitlines()
             if ln.startswith("manideg ")]
    assert len(lines) >= 3
    for words in lines:
        argv = ["example-4-1" if w == "myproblem.txt" else w for w in words[1:]]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (words, err)


def test_readme_quick_start_values_hold():
    # README's library quick start runs, and the values its comments state hold
    text = README.read_text(encoding="utf-8")
    quick = text.split("## Library quick start", 1)[1]
    quick = quick.split("```python", 1)[1].split("```", 1)[0]
    commented = {m[1]: int(m[2]) for m in re.finditer(r"^(\S[^#\n]*?)\s+# (-?\d+)\b", quick, re.M)}
    assert commented == {"res.degree": 1, "res.constraint_sign": -1, "res.ambient.degree": -1}
    namespace = {}
    exec(quick, namespace)
    for expression, value in commented.items():
        assert eval(expression, namespace) == value, expression


def test_exit_3_for_sign_flipping_constraint(capsys, tmp_path):
    text = (
        "name = folded\nk = 1\ns = 1\nvars = x, y\n"
        "g = y^2 - 1 - x^2\ngamma = x\nbox = -2 2, -2 2\n"
    )
    path = tmp_path / "folded.problem"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "degree", str(path))
    assert code == 3 and "sign" in err


def test_exit_4_for_boundary_zero(capsys):
    # the reduced-map zero at the origin lands on the overridden corner
    code, _, err = run_cli(capsys, "degree", "example-4-1", "--box", "0:2,0:2")
    assert code == 4 and "boundary" in err


def test_exit_5_for_trace_without_forcing(capsys):
    code, _, err = run_cli(capsys, "trace", "example-4-1")
    assert code == 5 and "period" in err


def test_exit_5_for_trace_without_a_seed_zero(capsys, tmp_path):
    # example-5-3's g and sigma on a box that holds no zero of the averaged forcing
    path = tmp_path / "no-seed.problem"
    path.write_text("name = no-seed\nk = 1\ns = 1\nvars = x, y\ng = y^3 + y - x^2\n"
                    "sigma = x + y + sin(t)\nperiod = 6.283185307179586\nbox = 1 2, 1 2\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "trace", str(path))
    assert (code, out) == (5, "")
    assert err == "error: no nondegenerate seed-map zero inside the box\n"


# --- trace subcommand --------------------------------------------------------------

def test_trace_writes_branch_csv(capsys, tmp_path):
    path = tmp_path / "branch.csv"
    code, out, _ = run_cli(capsys, "trace", "example-5-5",
                           "--ds", "0.05", "--lambda-max", "0.1",
                           "--steps-per-period", "128", "--out", str(path))
    assert code == 0
    assert "solution pairs (lambda_max)" in out
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["index", "lambda", "x1", "x2", "y",
                       "amplitude", "residual", "drift"]
    assert len(rows) >= 3
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(len(rows) - 1)]
    assert float(rows[1][1]) == 0.0
    assert float(rows[-1][1]) >= 0.1
    assert all(float(r[6]) <= 1e-6 for r in rows[1:])  # residual column


def test_trace_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "trace", "example-5-5",
                           "--ds", "0.05", "--lambda-max", "0.0",
                           "--steps-per-period", "128")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,lambda,")
    assert len(lines) == 2


def test_trace_ends_cleanly_when_a_stage_overflows(capsys, tmp_path):
    # exp(800*x1) overflows math.exp once the branch carries x1 past 0.89: the
    # shot fails as a domain error, so the branch ends at a corrector failure
    # instead of escaping as a bare OverflowError
    text = SPRING_TEXT.replace("g = y^3 + y - x1^5 - x1", "g = y - x1").replace(
        "gamma = -y - 0.5*x2", "gamma = -4*x1 - 0.1*x2 + 1e-300*exp(800*x1)")
    problem = tmp_path / "overflow.txt"
    problem.write_text(text.replace("steps_per_period = 128\n", ""))
    path = tmp_path / "branch.csv"
    code, out, err = run_cli(capsys, "trace", str(problem), "--lambda-max", "5",
                             "--ds", "0.2", "--max-steps", "60", "--out", str(path))
    assert code == 0 and err == ""
    assert "solution pairs (corrector_failure)" in out
    rows = list(csv.reader(path.read_text().splitlines()))
    assert 2 < len(rows) < 62 and float(rows[-1][2]) > 0.8


# Each golden branch is the CSV of one command, run from the repository root:
#   PYTHONPATH=src python -m manideg.cli trace example-5-5 --lambda-max 0.4 \
#       --out tests/golden_trace_example_5_5.csv
#   PYTHONPATH=src python -m manideg.cli trace example-5-5 \
#       --out tests/golden_trace_example_5_5_full.csv
#   PYTHONPATH=src python -m manideg.cli trace example-5-7 --lambda-max 0.1 \
#       --out tests/golden_trace_example_5_7.csv
#   PYTHONPATH=src python -m manideg.cli trace example-5-7 --lambda-max 0.3 \
#       --out tests/golden_trace_example_5_7_to_0_3.csv
#   PYTHONPATH=src python -m manideg.cli trace example-5-3 \
#       --out tests/golden_trace_example_5_3.csv


def assert_trace_matches_golden(capsys, tmp_path, golden, *argv):
    # the CSV of `trace *argv` as committed in ``golden``: the header and the index
    # column exactly, the floats to a relative 1e-12 (values at roundoff level,
    # residuals and drifts, to 1e-14 absolutely)
    path = tmp_path / "branch.csv"
    code, out, _ = run_cli(capsys, "trace", *argv, "--out", str(path))
    assert code == 0
    got = list(csv.reader(path.read_text().splitlines()))
    want = list(csv.reader(pathlib.Path(__file__).with_name(golden).read_text().splitlines()))
    assert got[0] == want[0] and len(got) == len(want)
    for row, golden_row in zip(got[1:], want[1:]):
        assert row[0] == golden_row[0]
        assert [float(v) for v in row[1:]] == pytest.approx(
            [float(v) for v in golden_row[1:]], rel=1e-12, abs=1e-14)
    return out


def test_trace_matches_golden_branch(capsys, tmp_path):
    assert_trace_matches_golden(capsys, tmp_path, "golden_trace_example_5_5.csv",
                                "example-5-5", "--lambda-max", "0.4")


def test_default_trace_matches_golden_branch_to_its_end(capsys, tmp_path):
    # the whole default branch: its left_domain end and the shots that halve steps
    out = assert_trace_matches_golden(capsys, tmp_path, "golden_trace_example_5_5_full.csv",
                                      "example-5-5")
    assert "98 solution pairs (left_domain)" in out


@pytest.mark.parametrize("golden, lambda_max", [
    ("golden_trace_example_5_7.csv", "0.1"), ("golden_trace_example_5_7_to_0_3.csv", "0.3")],
    ids=["lambda-0.1", "lambda-0.3"])
def test_two_constraint_trace_matches_golden_branch(capsys, tmp_path, golden, lambda_max):
    # s = 2: each step's completion, slave matrix and y-Newton solve 2 x 2 systems; the
    # longer branch has 17 pairs and ends at its lambda_max
    out = assert_trace_matches_golden(capsys, tmp_path, golden, "example-5-7",
                                      "--lambda-max", lambda_max)
    assert "(lambda_max)" in out


def test_sigma_only_trace_matches_golden_branch(capsys, tmp_path):
    # the paper's Example 5.3, k = 1: a sigma-only branch to its lambda_max
    out = assert_trace_matches_golden(capsys, tmp_path, "golden_trace_example_5_3.csv",
                                      "example-5-3")
    assert "76 solution pairs (lambda_max)" in out


# --- verify-paper -------------------------------------------------------------------

def test_verify_paper_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert "6/6 reference problems verified" in out
    assert out.count("pass") == 6 and "FAIL" not in out


def test_verify_paper_json(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["passed"] == 6 and record["total"] == 6
    assert all(r["ok"] for r in record["results"])


def test_verify_json_writes_non_finite_as_null(capsys, monkeypatch):
    # two seed-map zeros: the zero error is NaN and the check fails
    two_zeros = Problem(name="example-4-1", k=1, s=1, variables=("x", "y"), g=("y",),
                        gamma=("x^2 - 1",), box=((-2.0, 2.0), (-2.0, 2.0)))
    monkeypatch.setattr(cli, "REGISTRY", {"example-4-1": two_zeros})
    code, out, _ = run_cli(capsys, "verify-paper", "--json")
    assert code == 1
    record = json.loads(out)
    assert record["passed"] == 0 and record["results"][0]["zero_error"] is None


def test_verify_flags_wrong_expectations(capsys, monkeypatch):
    # negative control: flip one expected value and demand a failure
    flipped = dict(REFERENCE_DEGREES)
    want = flipped["example-5-5"]
    flipped["example-5-5"] = ReferenceDegrees(
        -want.ambient_degree, want.constraint_sign,
        -want.manifold_degree, want.zero)
    monkeypatch.setattr(cli, "REFERENCE_DEGREES", flipped)
    code = verify_reference_problems()
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "5/6" in text


# --- the console-script target as a process -------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_process(cwd, *argv):
    # ``python -m manideg.cli`` runs cli.run(), which exits with main()'s code
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "manideg.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_process_exits_0_after_verify_paper(tmp_path):
    done = run_process(tmp_path, "verify-paper")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "6/6 reference problems verified"


def test_process_exits_2_for_a_missing_problem_file(tmp_path):
    done = run_process(tmp_path, "degree", str(tmp_path / "missing.problem"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert any(line.startswith("error:") for line in done.stderr.splitlines()), done.stderr

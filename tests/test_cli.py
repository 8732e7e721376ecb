"""Problem files, the batch front end, and its exit-code contract.

Exit codes under test: 0 success, 1 verification mismatch, 2 malformed
problem, 3 regularity failure, 4 inadmissible boundary, 5 numeric
failure.
"""

import csv
import io
import json

import pytest

from manideg import REGISTRY, format_problem, parse_problem
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


def test_format_parse_round_trip():
    prob = parse_problem(SPRING_TEXT)
    assert parse_problem(format_problem(prob)) == prob


def test_registry_problems_round_trip():
    for prob in REGISTRY.values():
        assert parse_problem(format_problem(prob)) == prob


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
])
def test_malformed_problem_text_rejected(mutation):
    # expression-level failures surface as their own ProblemError subclass
    with pytest.raises(ProblemError):
        parse_problem(mutation(SPRING_TEXT))


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


def test_degree_winding_rejects_higher_dimensions(capsys):
    code, _, err = run_cli(capsys, "degree", "example-4-2", "--method", "winding")
    assert code == 2
    assert "planar" in err


def test_degree_box_override_excludes_zero(capsys):
    code, out, _ = run_cli(capsys, "degree", "example-4-1",
                           "--box", "0.5:2,0.5:2")
    assert code == 0
    record = json.loads(out)
    assert record["degree"] == 0
    assert record["zeros"] == []


def test_degree_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "record.json"
    _, out, _ = run_cli(capsys, "degree", "example-5-5", "--out", str(path))
    assert path.read_text(encoding="utf-8") == out


def test_degree_from_problem_file(capsys, tmp_path):
    path = tmp_path / "osc.problem"
    path.write_text(SPRING_TEXT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "degree", str(path))
    assert code == 0
    assert json.loads(out)["manifold_degree"] == 1


# --- exit codes ------------------------------------------------------------------

@pytest.mark.parametrize("argv,needle", [
    (("degree", "missing"), "bundled"),
    (("degree", "example-4-1", "--box", "a:1,-1:1"), "bound"),     # non-numeric
    (("degree", "example-4-1", "--box", "1:-1,-1:1"), "empty"),    # reversed
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
], ids=["unknown-problem", "box-bound", "box-reversed", "box-arity", "seed-index",
        "steps-negative", "steps-zero", "ds-zero", "ds-negative", "ds-nan",
        "lambda-max-nan", "lambda-max-negative", "seed-index-negative",
        "max-steps-zero", "quadrature-nodes-zero", "degree-quadrature-nodes-zero"])
def test_exit_2_for_bad_input(capsys, argv, needle):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and needle in err


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


# --- trace subcommand --------------------------------------------------------------

def test_trace_writes_branch_csv(capsys, tmp_path):
    path = tmp_path / "branch.csv"
    code, out, _ = run_cli(capsys, "trace", "example-5-5",
                           "--ds", "0.05", "--lambda-max", "0.1",
                           "--steps-per-period", "128", "--out", str(path))
    assert code == 0
    assert "solution pairs (lambda_max)" in out
    rows = list(csv.reader(path.open()))
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


def test_verify_flags_wrong_expectations():
    # negative control: flip one expected value and demand a failure
    flipped = dict(REFERENCE_DEGREES)
    want = flipped["example-5-5"]
    flipped["example-5-5"] = ReferenceDegrees(
        -want.ambient_degree, want.constraint_sign,
        -want.manifold_degree, want.zero)
    buf = io.StringIO()
    code = verify_reference_problems(expected=flipped, out=buf)
    assert code == 1
    text = buf.getvalue()
    assert "FAIL" in text and "5/6" in text

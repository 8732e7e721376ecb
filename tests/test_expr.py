"""Grammar, printing, evaluation and differentiation of scalar expressions.

Derived expectations (finite-difference gradients, round-trip identity)
are computed in-test from independent code paths; literal values were
checked by hand before freezing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manideg import expr
from manideg.errors import (
    DomainEvalError,
    ExpressionSyntaxError,
    UndeclaredVariableError,
)

XYZ = ("x", "y", "z")


def ev(source, **values):
    names = tuple(values)
    return expr.compile_value(expr.parse(source, names), names)(*map(float, values.values()))


def grad(source, **values):
    names = tuple(values)
    return expr.compile_gradient(expr.parse(source, names), names)(
        *map(float, values.values()))[1:]


# --- parsing structure ----------------------------------------------------

def test_precedence_product_over_sum():
    ast = expr.parse("x + y*z", XYZ)
    assert ast == expr.Bin("+", expr.Var("x"), expr.Bin("*", expr.Var("y"), expr.Var("z")))


def test_subtraction_is_left_associative():
    ast = expr.parse("x - y - z", XYZ)
    assert ast == expr.Bin("-", expr.Bin("-", expr.Var("x"), expr.Var("y")), expr.Var("z"))


def test_unary_minus_binds_looser_than_power():
    # -x^2 means -(x^2)
    assert expr.parse("-x^2", XYZ) == expr.Neg(expr.Pow(expr.Var("x"), 2))
    assert expr.parse("(-x)^2", XYZ) == expr.Pow(expr.Neg(expr.Var("x")), 2)


def test_power_requires_integer_exponent():
    assert expr.parse("x^3", XYZ) == expr.Pow(expr.Var("x"), 3)
    assert expr.parse("x^(-2)", XYZ) == expr.Pow(expr.Var("x"), -2)
    assert expr.parse("x^-2", XYZ) == expr.Pow(expr.Var("x"), -2)
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("x^1.5", XYZ)
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("x^y", XYZ)


def test_chained_power_groups_left():
    ast = expr.parse("x^2^3", XYZ)
    assert ast == expr.Pow(expr.Pow(expr.Var("x"), 2), 3)


def test_function_call_parses():
    ast = expr.parse("sin(cos(x))", XYZ)
    assert ast == expr.Call("sin", expr.Call("cos", expr.Var("x")))


def test_variables_in_collects_names():
    ast = expr.parse("x*sin(t) + y", ("x", "y", "t"))
    assert expr.variables_in(ast) == {"x", "y", "t"}


# --- error reporting ------------------------------------------------------

def test_syntax_error_carries_byte_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("x1 + * y1", ("x1", "y1"))
    assert err.value.offset == 5
    # a literal that overflows to inf, which generated code cannot spell
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("x1 + 1e999*y1", ("x1", "y1"))
    assert err.value.offset == 5


def test_undeclared_variable_offset():
    with pytest.raises(UndeclaredVariableError) as err:
        expr.parse("x + quux", XYZ)
    assert err.value.offset == 4
    assert isinstance(err.value, ExpressionSyntaxError)
    assert str(err.value) == "undeclared variable 'quux' (byte offset 4)"


def test_compiling_over_fewer_variables_names_the_unbound_ones():
    with pytest.raises(UndeclaredVariableError, match=r"unbound variables \['y'\]"):
        expr.compile_value(expr.parse("x + y", ("x", "y")), ("x",))


def test_unexpected_character_reports_byte_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("x + ∂y", XYZ)
    assert err.value.offset == len("x + ".encode("utf-8"))


def test_trailing_input_rejected():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("x 2", XYZ)


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("sin(x", XYZ)


def test_empty_input_rejected():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("", XYZ)


def test_bad_declarations_rejected():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("x", ("x", "x"))
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("x", ("2x",))
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("x", ("sin",))


# --- printing and round-trip ----------------------------------------------

PRINT_CASES = [
    ("x + y*z", "x + y * z"),
    ("(x + y)*z", "(x + y) * z"),
    ("x - (y - z)", "x - (y - z)"),
    ("x/y/z", "x / y / z"),
    ("x/(y/z)", "x / (y / z)"),
    ("-x^2", "-x^2"),
    ("(-x)^2", "(-x)^2"),
    ("x^(-2)", "x^(-2)"),
    ("x^2^3", "(x^2)^3"),
    ("-(x + y)", "-(x + y)"),
    ("abs(x)*sqrt(y)", "abs(x) * sqrt(y)"),
]


@pytest.mark.parametrize("source,printed", PRINT_CASES)
def test_canonical_printing(source, printed):
    assert expr.to_source(expr.parse(source, XYZ)) == printed


@pytest.mark.parametrize("source,_", PRINT_CASES)
def test_print_parse_round_trip(source, _):
    ast = expr.parse(source, XYZ)
    assert expr.parse(expr.to_source(ast), XYZ) == ast


def ast_strategy():
    leaf = st.one_of(
        st.sampled_from([expr.Var(n) for n in XYZ]),
        st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(expr.Num),
    )

    def extend(children):
        return st.one_of(
            children.map(expr.Neg),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: expr.Bin(t[0], t[1], t[2])
            ),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
                lambda t: expr.Pow(t[0], t[1])
            ),
            st.tuples(st.sampled_from(sorted(expr.FUNCTIONS)), children).map(
                lambda t: expr.Call(t[0], t[1])
            ),
        )

    return st.recursive(leaf, extend, max_leaves=25)


@settings(max_examples=200, derandomize=True)
@given(ast_strategy())
def test_round_trip_is_identity_on_random_trees(ast):
    assert expr.parse(expr.to_source(ast), XYZ) == ast


# --- evaluation -----------------------------------------------------------

def test_evaluation_examples():
    assert ev("x^2 + 3*y", x=2.0, y=1.0) == 7.0
    assert ev("-2^2", x=0.0) == -4.0
    assert ev("2^(-2)", x=0.0) == 0.25
    assert ev("abs(-3.5)", x=0.0) == 3.5
    assert ev("exp(log(5))", x=0.0) == pytest.approx(5.0, rel=1e-15)
    assert ev("x/y", x=1.0, y=8.0) == 0.125


def test_time_symbol_evaluates_like_any_variable():
    assert ev("sin(t)", t=math.pi / 2) == pytest.approx(1.0, rel=1e-15)


def test_domain_violations_raise():
    with pytest.raises(DomainEvalError):
        ev("log(x)", x=-1.0)
    with pytest.raises(DomainEvalError):
        ev("log(x)", x=0.0)
    with pytest.raises(DomainEvalError):
        ev("sqrt(x)", x=-1.0)
    with pytest.raises(DomainEvalError):
        ev("1/x", x=0.0)
    with pytest.raises(DomainEvalError):
        ev("x^(-1)", x=0.0)


def test_abs_gradient_undefined_at_zero():
    with pytest.raises(DomainEvalError):
        grad("abs(x)", x=0.0)


def test_evaluation_is_deterministic():
    ast = expr.parse("sin(x)*exp(y) - x/z^3", XYZ)
    a = expr.compile_value(ast, XYZ)(0.7, -0.3, 1.9)
    b = expr.compile_value(ast, XYZ)(0.7, -0.3, 1.9)
    assert a == b and repr(a) == repr(b)


# --- differentiation ------------------------------------------------------

GRAD_SOURCES = [
    "x^2*y + z",
    "sin(x*y) - cos(z)",
    "exp(x - y^2)",
    "x/(1 + y^2)",
    "x/(1 + x^2)",  # numerator and denominator depend on the same seed
    "(x + y)/(x - z + 3)",
    "sqrt(1 + x^2)*log(2 + z)",
    "abs(x - 2)*y",
    "x^(-2) + y^3",
]


def central_difference(ast, names, point, h=1e-5):
    f = expr.compile_value(ast, names)
    out = []
    for j in range(len(names)):
        hi, lo = list(point), list(point)
        hi[j] += h
        lo[j] -= h
        out.append((f(*hi) - f(*lo)) / (2 * h))
    return np.array(out)


@pytest.mark.parametrize("source", GRAD_SOURCES)
def test_gradient_matches_central_differences(source):
    rng = np.random.default_rng(20240517)
    ast = expr.parse(source, XYZ)
    for _ in range(20):
        point = rng.uniform(0.3, 1.7, size=3)
        jet = expr.compile_gradient(ast, XYZ)(*point)[1:]
        ref = central_difference(ast, XYZ, point)
        assert np.allclose(jet, ref, atol=1e-6 * (1.0 + np.abs(ref).max()))


def test_hand_checked_derivatives():
    assert grad("abs(x)", x=-2.0) == (-1.0,)
    assert grad("log(x)", x=2.0) == (0.5,)
    assert grad("sqrt(x)", x=4.0) == (0.25,)
    assert grad("x/y", x=3.0, y=2.0) == (0.5, -0.75)


def test_seeded_gradient_skips_other_partials():
    ast = expr.parse("x*y + z^2", XYZ)
    f = expr.compile_gradient(ast, XYZ, seeds=("y",))
    value, dy = f(2.0, 3.0, 4.0)
    assert value == 22.0 and dy == 2.0


def test_compile_rejects_repeated_variables_and_stray_seeds():
    # unchecked, a repeated variable read its last value (x + 10*y at x, y, x = 1, 2, 3
    # was 23.0) and a repeated seed left its first slot zero ((21.0, 0.0, 1.0) for x, x)
    ast = expr.parse("x + 10*y", ("x", "y"))
    for compiled in (expr.compile_value, expr.compile_gradient):
        with pytest.raises(ExpressionSyntaxError, match="duplicate variable"):
            compiled(ast, ("x", "y", "x"))
    for seeds in (("x", "x"), ("x", "z")):
        with pytest.raises(ExpressionSyntaxError, match="not distinct variables"):
            expr.compile_gradient(ast, ("x", "y"), seeds=seeds)
    assert expr.compile_gradient(ast, ("x", "y"), seeds=("y", "x"))(1.0, 2.0) == (21.0, 10.0, 1.0)


def test_tuple_of_trees_compiles_to_one_function():
    asts = tuple(expr.parse(src, XYZ) for src in GRAD_SOURCES)
    values = expr.compile_value(asts, XYZ)
    jet = expr.compile_gradient(asts, XYZ, seeds=("x", "z"))
    point = (0.7, 1.3, 0.4)
    assert values(*point) == tuple(expr.compile_value(a, XYZ)(*point) for a in asts)
    assert jet(*point) == tuple(
        v for a in asts for v in expr.compile_gradient(a, XYZ, seeds=("x", "z"))(*point))
    assert expr.compile_value(asts[:1], XYZ)(*point) == (values(*point)[0],)


def test_vector_backend_matches_scalar():
    ast = expr.parse("sin(x)*y + x^3", ("x", "y"))
    fs = expr.compile_value(ast, ("x", "y"))
    fv = expr.compile_value(ast, ("x", "y"), backend="vector")
    xs = np.linspace(-1.0, 2.0, 11)
    ys = np.linspace(0.5, 1.5, 11)
    vec = fv(xs, ys)
    ref = np.array([fs(float(a), float(b)) for a, b in zip(xs, ys)])
    assert np.array_equal(vec, ref)


def test_vector_backend_gradients_match_scalar():
    ast = expr.parse("exp(x)/(1 + y^2)", ("x", "y"))
    gs = expr.compile_gradient(ast, ("x", "y"))
    gv = expr.compile_gradient(ast, ("x", "y"), backend="vector")
    xs = np.linspace(-0.5, 0.5, 7)
    ys = np.linspace(-1.0, 1.0, 7)
    vec = gv(xs, ys)
    for i, (a, b) in enumerate(zip(xs, ys)):
        ref = gs(float(a), float(b))
        for out_v, out_s in zip(vec, ref):
            assert out_v[i] == out_s
    # the backends round differently (numpy's x ** 3 against Python's), so elsewhere the
    # gradients agree to a few ulps; the vector one holds a NaN exactly where the scalar
    # one raises: x^(-2) at x = 0 and abs(x - 2) at x = 2
    xs = np.linspace(-1.0, 3.0, 9)
    ys = np.linspace(-1.5, 1.5, 9)
    for text, raising in (("x^(-2) + y^3", [2]), ("abs(x - 2)*y", [6])):
        ast = expr.parse(text, ("x", "y"))
        gs = expr.compile_gradient(ast, ("x", "y"))
        vec = np.array(expr.compile_gradient(ast, ("x", "y"), backend="vector")(xs, ys))
        assert np.isnan(vec).any(axis=0).nonzero()[0].tolist() == raising
        for i, point in enumerate(zip(xs.tolist(), ys.tolist())):
            if i in raising:
                with pytest.raises(DomainEvalError):
                    gs(*point)
            else:
                ref = np.array(gs(*point))
                assert (np.abs(vec[:, i] - ref) <= 4.0 * np.spacing(np.abs(ref))).all()


def test_compilation_is_cached():
    ast = expr.parse("x + y", ("x", "y"))
    assert expr.compile_value(ast, ("x", "y")) is expr.compile_value(ast, ("x", "y"))

"""Projected Runge-Kutta integration on constraint level sets.

The diagonal graph g = y - x with first component y makes the
completed flow x' = x, whose exact solution e^t anchors the accuracy
and order checks.
"""

import ast
import dataclasses
import gc
import math
import pathlib
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from manideg import (
    AmbientMap,
    DomainBox,
    DomainEscapeError,
    DomainEvalError,
    ForcedField,
    ImplicitConstraint,
    IntegrationError,
    REGISTRY,
    RegularityError,
    RootFindingError,
    ZeroRecord,
    average_wind,
    complete_velocity,
    correct,
    find_zeros,
    flow_map,
    implicit_solve_y,
    parse_problem,
    projected_step,
    reduced_map,
    shooting_residual,
    trace_branch,
)
from manideg import expr, manifold


def exponential_flow():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-4.0, 4.0, 2))
    gamma = AmbientMap.from_expressions(("y",), ("x", "y"))
    return ForcedField(con, gamma=gamma)


def spring_field():
    return REGISTRY["example-5-5"].build_dae()


def on_spring_manifold(x1, x2):
    dae = REGISTRY["example-5-5"].build_dae()
    y = implicit_solve_y(dae.constraint, np.array([x1, x2]))
    return np.concatenate([[x1, x2], y])


# --- single step -------------------------------------------------------------

def test_projected_step_accuracy_and_drift():
    field = exponential_flow()
    state = projected_step(field, np.array([1.0, 1.0]), 0.0, 0.01)
    assert state[0] == pytest.approx(math.exp(0.01), abs=1e-11)
    assert abs(state[1] - state[0]) <= 1e-12


def test_projected_step_raises_its_failed_projection_instead_of_halving():
    # a unit step from this example-5-5 state leaves the box in its projection; flow_map
    # would halve that step, projected_step raises the projection's error
    field, start = spring_field(), [1.0, 1.5, 1.0]
    with pytest.raises(DomainEscapeError, match="outside the domain box"):
        projected_step(field, start, 0.0, 1.0)
    assert np.all(np.isfinite(projected_step(field, start, 0.0, 0.01)))


def test_dp5_order_from_step_halving():
    # a 5th-order scheme divides the error by about 2^5 = 32 per halving: measured 31.0
    # (2.13e-11 at 32 steps, 6.87e-13 at 64); a 4th-order one would give about 16
    field = exponential_flow()
    start = np.array([1.0, 1.0])
    errs = []
    for n in (32, 64):
        res = flow_map(field, start, 0.0, 1.0, n_steps=n)
        errs.append(abs(res.final_state[0] - math.e))
    ratio = errs[0] / errs[1]
    assert 25.0 <= ratio <= 38.0


def test_tableau_is_dormand_prince_5():
    # each row of A sums to its stage time, the weights integrate t^q exactly for q <= 4,
    # and b A c = 1/6; b_1 = 0 is the entry a shot leaves out.  Every entry is a pair
    # (n, d) in lowest terms, as the names of the shots' products assume
    for q in (*manifold._C, *sum(manifold._A, ()), *manifold._B):
        assert q[1] > 0 and math.gcd(*q) == 1, q
    c, b = ([Fraction(*q) for q in row] for row in (manifold._C, manifold._B))
    a = [[Fraction(*q) for q in row] for row in manifold._A]
    assert len(c) == len(a) == len(b) == 6 and b[1] == 0
    assert [sum(row) for row in a] == c
    assert [sum(bi * ci ** q for bi, ci in zip(b, c)) for q in range(5)] == [
        Fraction(1, q + 1) for q in range(5)]
    assert sum(bi * sum(q * cj for q, cj in zip(row, c)) for bi, row in zip(b, a)) == Fraction(1, 6)


def test_fine_flow_reaches_reference_accuracy():
    field = exponential_flow()
    res = flow_map(field, np.array([1.0, 1.0]), 0.0, 1.0, n_steps=4096)
    assert res.final_state[0] == pytest.approx(math.e, abs=1e-12)
    assert res.max_drift <= 1e-12


# --- flow_map plumbing ---------------------------------------------------------

def test_flow_rejects_off_manifold_start():
    field = exponential_flow()
    with pytest.raises(ValueError):
        flow_map(field, np.array([1.0, 1.5]), 0.0, 1.0)


def test_flow_zero_span_returns_start():
    field = exponential_flow()
    res = flow_map(field, np.array([1.0, 1.0]), 2.0, 2.0)
    assert res.steps == 0
    assert np.array_equal(res.final_state, [1.0, 1.0])
    assert res.times.tolist() == [2.0]


def test_flow_recording_shapes():
    field = exponential_flow()
    res = flow_map(field, np.array([1.0, 1.0]), 0.0, 1.0, n_steps=10)
    assert res.steps == 10
    assert res.times.shape == (11,)
    assert res.states.shape == (11, 2)
    assert res.drifts.shape == (11,)
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("options, needle", [
    ({"n_steps": 0}, "n_steps"),
    ({"n_steps": -3}, "n_steps"),
    ({"n_steps": 2.5}, "n_steps"),
], ids=["zero-steps", "negative-steps", "fractional-steps"])
def test_flow_rejects_bad_step_counts(options, needle):
    field = exponential_flow()
    with pytest.raises(ValueError, match=needle):
        flow_map(field, np.array([1.0, 1.0]), 0.0, 1.0, **options)


@pytest.mark.parametrize("value", [True, "8", 8.0], ids=["bool", "string", "float"])
def test_step_and_node_counts_must_be_integers(value):
    # True used to run 1 step or average over 1 node, "8" to fail inside a comparison
    # without naming the count, and 8.0 to run 8 steps; a shot's count is named as its
    # caller passed it, not as the flow's n_steps
    dae, problem = REGISTRY["example-5-5"].build_dae(), REGISTRY["example-5-7"]
    field, start = spring_field(), on_spring_manifold(0.1, 0.0)
    seed = ZeroRecord(np.zeros(3), 0.0, 1.0, 1)
    held = (np.zeros(3), np.eye(3)[-1], 0.0)
    for name, call in (
            ("n_steps", lambda: flow_map(field, start, 0.0, 1.0, n_steps=value)),
            ("steps_per_period",
             lambda: shooting_residual(dae, start[:2], 0.0, steps_per_period=value)),
            ("steps_per_period",
             lambda: correct(dae, np.zeros(2), 0.0, held, steps_per_period=value)),
            ("steps_per_period", lambda: trace_branch(dae, seed, steps_per_period=value)),
            ("quadrature_nodes", lambda: average_wind(dae, value)),
            ("quadrature_nodes", lambda: problem.build_seed_map(value))):
        message = f"{name} must be an integer of at least 1, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_shooting_rejects_zero_steps_per_period():
    dae = REGISTRY["example-5-5"].build_dae()
    with pytest.raises(ValueError):
        shooting_residual(dae, np.zeros(2), 0.0, steps_per_period=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_is_rejected_up_front(value):
    # not 20 step halvings ending in a time step underflow, nor a math domain error or a
    # stalled Newton from the generated step: a non-finite lam, time or step is named
    dae = REGISTRY["example-5-5"].build_dae()
    field, start = spring_field(), on_spring_manifold(0.1, 0.0)
    for name, shoot in (
            ("lam", lambda: flow_map(field, start, 0.0, 1.0, value, n_steps=4)),
            ("lam", lambda: flow_map(field, start, 0.0, 1.0, value, sensitivity=True)),
            ("lam", lambda: projected_step(field, start, 0.0, 0.1, value)),
            ("lam", lambda: shooting_residual(dae, start[:2], value)),
            ("lam", lambda: shooting_residual(dae, start[:2], value, jacobian=True)),
            ("t0", lambda: flow_map(field, start, value, 1.0, 0.3, n_steps=4)),
            ("t1", lambda: flow_map(field, start, 0.0, value, 0.3, n_steps=4)),
            ("t", lambda: projected_step(field, start, value, 0.1, 0.3)),
            ("dt", lambda: projected_step(field, start, 0.0, value, 0.3))):
        with pytest.raises(IntegrationError, match=f"{name} must be finite, got {value!r}"):
            shoot()


def test_flow_backwards_in_time():
    field = exponential_flow()
    res = flow_map(field, np.array([1.0, 1.0]), 1.0, 0.0, n_steps=512)
    assert res.final_state[0] == pytest.approx(1.0 / math.e, abs=1e-12)


def test_flow_semigroup_property():
    field = spring_field()
    start = on_spring_manifold(0.1, 0.0)
    period = REGISTRY["example-5-5"].period
    lam = 0.2
    half = period / 2.0
    first = flow_map(field, start, 0.0, half, lam, n_steps=2048)
    second = flow_map(field, first.final_state, half, period, lam, n_steps=2048)
    direct = flow_map(field, start, 0.0, period, lam, n_steps=4096)
    assert np.allclose(second.final_state, direct.final_state, atol=1e-12)


# Final state and sensitivities of one 64-step period of example-5-5 from
# (0.5, -0.25, y) at lam = 0.3, as computed when the step code was last
# changed; the arithmetic of a step is meant to stay bit for bit the same.
PINNED_START = [0.5, -0.25, 0.44382504501286757]
PINNED_FINAL = [0.08336900074719149, 0.46659926225797976, 0.0828052564594389]
PINNED_SENSITIVITY = [
    [0.10793776939645221, -0.13666377734530633, -0.21936577792662001],
    [0.12862807834185475, 0.23749906279858363, 1.6270079192966727],
]


def test_spring_period_is_pinned_bit_for_bit():
    field = spring_field()
    period = REGISTRY["example-5-5"].period
    plain = flow_map(field, np.array(PINNED_START), 0.0, period, 0.3, n_steps=64)
    sens = flow_map(field, np.array(PINNED_START), 0.0, period, 0.3, n_steps=64,
                    sensitivity=True)
    assert plain.final_state.tolist() == PINNED_FINAL
    assert sens.final_state.tolist() == PINNED_FINAL
    assert sens.sensitivity.tolist() == PINNED_SENSITIVITY


# The same for one 64-step period of example-5-7 from (1, 0.5, y) at lam = 0.3:
# two constraint equations, so the completion, the slaved matrix and the
# y-Newton steps solve 2 x 2 systems by the generated elimination.
PINNED_START_5_7 = [1.0, 0.5, 1.1180339887498942, 0.4636476090008056]
PINNED_FINAL_5_7 = [2.125075473224258, 2.1062051518646485, 2.9919969767097845,
                    0.780938474256364]
PINNED_SENSITIVITY_5_7 = [
    [1.2486160786454599, 1.2645989576352241, 5.400958145053206],
    [3.013796608891579, 4.346617259478133, 13.655094973880717],
]
# W of the same steps with numpy's LAPACK solving those systems, as the step code did
# before it generated its eliminations (the oracle stages and y-solves of
# test_lockstep.py with lapack=True)
LAPACK_SENSITIVITY_5_7 = [
    [1.24861607864546, 1.2645989576352237, 5.400958145053205],
    [3.0137966088915795, 4.346617259478133, 13.655094973880718],
]


def test_two_constraint_period_is_pinned_bit_for_bit():
    field = REGISTRY["example-5-7"].build_dae()
    start = np.array(PINNED_START_5_7)
    plain = flow_map(field, start, 0.0, field.period, 0.3, n_steps=64)
    sens = flow_map(field, start, 0.0, field.period, 0.3, n_steps=64, sensitivity=True)
    assert plain.final_state.tolist() == PINNED_FINAL_5_7
    assert sens.final_state.tolist() == PINNED_FINAL_5_7
    assert sens.sensitivity.tolist() == PINNED_SENSITIVITY_5_7
    lapack = np.array(LAPACK_SENSITIVITY_5_7)
    assert np.all(np.abs(sens.sensitivity - lapack) <= 2 * np.spacing(np.abs(lapack)))


def callable_spring_field():
    # example-5-5 from numpy callables: every part goes through AmbientMap's
    # adapter from array output to plain floats
    dae = REGISTRY["example-5-5"].build_dae()

    def g(p):
        return np.array([p[2] ** 3 + p[2] - p[0] ** 5 - p[0]])

    def g_jac(p):
        return np.array([[-5.0 * p[0] ** 4 - 1.0, 0.0, 3.0 * p[2] ** 2 + 1.0]])

    def gamma(p):
        return np.array([p[1], -p[2] - 0.5 * p[1]])

    def gamma_jac(p):
        return np.array([[0.0, 1.0, 0.0], [0.0, -0.5, -1.0]])

    def sigma(p, t):
        return np.array([0.0, math.cos(t)])

    def sigma_jac(p, t):
        return np.zeros((2, 3))

    con = ImplicitConstraint(2, 1, AmbientMap.from_callable(3, 1, g, g_jac),
                             dae.constraint.domain)
    return ForcedField(con, AmbientMap.from_callable(3, 2, gamma, gamma_jac),
                       AmbientMap.from_callable(3, 2, sigma, sigma_jac,
                                                time_dependent=True))


def duffing_field():
    # a Duffing oscillator on the cubic graph y = x1 + x1^3
    names = ("x1", "x2", "y")
    con = ImplicitConstraint.from_expressions(
        2, 1, ("y - x1 - x1^3",), names, DomainBox.from_bounds([(-2, 2), (-3, 3), (-12, 12)]))
    return ForcedField(con, AmbientMap.from_expressions(("x2", "-0.5*y - 0.1*x2"), names),
                       AmbientMap.from_expressions(("0", "cos(t)"), names))


def swapped_field():
    # x1' = x2 + lam * cos(t), x2' = x1 on the cubic graph y = x1 + x1^3: the velocity's
    # k1 is the coordinate a0 itself and the second row of A is (1, 0), so a shot must
    # not read them after the next stage point assigns a0, or the next Z its first row
    names = ("x1", "x2", "y")
    con = ImplicitConstraint.from_expressions(
        2, 1, ("y - x1 - x1^3",), names, DomainBox.from_bounds([(-2, 2), (-3, 3), (-12, 12)]))
    return ForcedField(con, AmbientMap.from_expressions(("x2", "x1"), names),
                       AmbientMap.from_expressions(("cos(t)", "0"), names))


def unslaved_field():
    # x1' = x2, x2' = -x1 + lam * cos(t) on y^3 + y = x1: p does not depend on y, so the
    # slave row d_x g / -d_y g of each stage is dead in a shot, a division by a non-literal
    names = ("x1", "x2", "y")
    con = ImplicitConstraint.from_expressions(
        2, 1, ("y^3 + y - x1",), names, DomainBox.from_bounds([(-2, 2), (-3, 3), (-2, 2)]))
    return ForcedField(con, AmbientMap.from_expressions(("x2", "-x1"), names),
                       AmbientMap.from_expressions(("0", "cos(t)"), names))


def named_field(name):
    # a bundled problem's field, or one of the test fields above by its short name
    tests = {"callable": callable_spring_field, "duffing": duffing_field,
             "swapped": swapped_field, "unslaved": unslaved_field}
    if name in tests:
        return tests[name]()
    return REGISTRY[name].build_dae()


def test_callable_backed_field_flows_like_expression_field():
    period = REGISTRY["example-5-5"].period
    start = np.array(PINNED_START)
    runs = [flow_map(field, start, 0.0, period, 0.3, n_steps=64, sensitivity=True)
            for field in (spring_field(), callable_spring_field())]
    assert np.max(np.abs(runs[0].states - runs[1].states)) <= 1e-12
    assert np.max(np.abs(runs[0].sensitivity - runs[1].sensitivity)) <= 1e-12


# --- the generated step code ---------------------------------------------------

def test_forcing_only_field_keeps_signed_zeros_at_zero_lambda():
    # lam * cos(t) at lam = 0 is +0.0; the first component (lam times the literal 0) and
    # the completion (-d_x g . psi_1 / d_y g, whose terms are lam * 0 or have the
    # structural zero d_x2 g) are structural zeros, written as +0.0
    spring = spring_field()
    field = ForcedField(spring.constraint, sigma=spring.sigma)
    v = field.velocity(0.0, np.array(PINNED_START), 0.0)
    assert v.tolist() == [0.0, 0.0, 0.0]
    assert np.signbit(v).tolist() == [False, False, False]
    assert np.signbit(field.linearize(0.0, np.array(PINNED_START), 0.0)[0]).tolist() == [
        False, False, False]
    res = flow_map(field, np.array(PINNED_START), 0.0, 1.0, 0.0, n_steps=4)
    assert res.final_state.tolist() == PINNED_START


def test_forcing_is_not_evaluated_at_zero_lambda():
    spring = spring_field()
    sigma = AmbientMap.from_expressions(("0", "log(x1 - 5)"), ("x1", "x2", "y"))
    field = ForcedField(spring.constraint, spring.gamma, sigma)
    start = np.array(PINNED_START)
    assert np.array_equal(field.velocity(0.0, start, 0.0),
                          spring_field().velocity(0.0, start, 0.0))
    flow_map(field, start, 0.0, 1.0, 0.0, n_steps=4)
    with pytest.raises(DomainEvalError):
        field.velocity(0.0, start, 0.3)
    with pytest.raises(DomainEvalError):
        flow_map(field, start, 0.0, 1.0, 0.3, n_steps=4)


def generated_shots(field):
    # {name: whether it integrates W} of the shots _source generates for ``field``: the
    # functions of the steps i, ..., n - 1, a W shot's first line unpacking W; one of each
    c = field.constraint
    shots = {name: source.splitlines()[1].endswith(" = w")
             for name, source in manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma)
             if source.startswith(f"def {name}(i, n, ")}
    assert sorted(shots.values()) == [False, True], shots
    return shots


def count_step_attempts(monkeypatch, field):
    # the steps the field's generated shots try, each failed one included: a shot of
    # steps i, ..., n - 1 that stops at step j tried j - i + 1 of them
    attempts = []
    for mode in generated_shots(field):
        def counted(i, n, *args, shot=field._code[mode]):
            end = shot(i, n, *args)
            attempts.append(end[0] - i + (end[3] is not None))
            return end
        monkeypatch.setitem(field._code, mode, counted)
    return attempts


@pytest.mark.parametrize("sensitivity", [False, True])
def test_overflowing_stage_is_a_domain_error_and_not_halved(monkeypatch, sensitivity):
    # math.exp(800 * x1) overflows at x1 = 1 in every stage, whatever the step size
    names = ("x1", "x2", "y")
    con = ImplicitConstraint.from_expressions(
        2, 1, ("y - x1",), names, DomainBox.cube(-2.0, 2.0, 3))
    gamma = AmbientMap.from_expressions(("x2", "-4*x1 + 1e-300*exp(800*x1)"), names)
    field = ForcedField(con, gamma, AmbientMap.from_expressions(("0", "cos(t)"), names))
    attempts = count_step_attempts(monkeypatch, field)
    with pytest.raises(DomainEvalError, match="near t = 0.*math range error"):
        flow_map(field, np.array([1.0, 0.0, 1.0]), 0.0, 1.0, 0.3, n_steps=4,
                 sensitivity=sensitivity)
    assert attempts == [1]


def test_projected_step_raises_flow_maps_domain_error_for_an_overflowing_stage():
    # the field above: one step raises what a one-step flow_map raises, not the stage's
    # bare OverflowError
    names = ("x1", "x2", "y")
    con = ImplicitConstraint.from_expressions(
        2, 1, ("y - x1",), names, DomainBox.cube(-2.0, 2.0, 3))
    gamma = AmbientMap.from_expressions(("x2", "-4*x1 + 1e-300*exp(800*x1)"), names)
    field = ForcedField(con, gamma, AmbientMap.from_expressions(("0", "cos(t)"), names))
    messages = []
    for step in (lambda: projected_step(field, [1.0, 0.0, 1.0], 0.0, 0.25, 0.3),
                 lambda: flow_map(field, np.array([1.0, 0.0, 1.0]), 0.0, 0.25, 0.3, n_steps=1)):
        with pytest.raises(DomainEvalError, match="near t = 0: math range error") as info:
            step()
        assert isinstance(info.value.__cause__, OverflowError)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_zero_pivot_raises_regularity_error():
    # g = y^2 - x has d_y g = 2y = 0 at the origin; g = 0*y - x has the literal d_y g 0.0,
    # whose zero checks stay where those of a non-zero literal are left out
    for g in ("y^2 - x", "0*y - x"):
        con = ImplicitConstraint.from_expressions(
            1, 1, (g,), ("x", "y"), DomainBox.cube(-2.0, 2.0, 2))
        field = ForcedField(con, gamma=AmbientMap.from_expressions(("1",), ("x", "y")))
        for evaluate in (field.velocity, field.linearize):
            with pytest.raises(RegularityError, match="singular"):
                evaluate(0.0, np.zeros(2))
        with pytest.raises(RegularityError, match="singular"):
            complete_velocity(con, np.zeros(2), np.ones(1))
    with pytest.raises(RootFindingError, match="singular d_y g"):
        implicit_solve_y(con, [0.5])
    # s = 2: g = (y1^2 - x, y2 - x) has d_y g = [[2 y1, 0], [0, 1]], singular at y1 = 0,
    # where no row below can be swapped up
    con = ImplicitConstraint.from_expressions(
        1, 2, ("y1^2 - x", "y2 - x"), ("x", "y1", "y2"), DomainBox.cube(-2.0, 2.0, 3))
    field = ForcedField(con, gamma=AmbientMap.from_expressions(("1",), ("x", "y1", "y2")))
    message = re.escape(f"d_y g is singular at {np.zeros(3)}")
    for evaluate in (field.velocity, field.linearize):
        with pytest.raises(RegularityError, match=message):
            evaluate(0.0, np.zeros(3))
    with pytest.raises(RegularityError, match=message):
        complete_velocity(con, np.zeros(3), np.ones(1))
    with pytest.raises(RootFindingError, match="singular d_y g"):
        implicit_solve_y(con, [0.5])


def test_two_equation_solves_with_a_row_swap_match_the_closed_form():
    # g = (y2 - x, y1 - x * y2), whose d_y g = [[0, 1], [1, -x]] needs its rows swapped:
    # y = (x^2, x), psi_y2 = psi_1, psi_y1 = (x + y2) psi_1 and the slave matrix
    # S = -(d_y g)^-1 d_x g = (x + y2, 1), which A = d_y1 p S of p = y1 reads.  The
    # points are dyadic, so every closed form is exact in floats
    names = ("x", "y1", "y2")
    con = ImplicitConstraint.from_expressions(
        1, 2, ("y2 - x", "y1 - x*y2"), names, DomainBox.cube(-2.0, 2.0, 3))
    field = ForcedField(con, AmbientMap.from_expressions(("y1",), names))
    for x, y1, y2, psi1 in ((0.5, 0.25, 0.5, 2.0), (0.5, 0.375, -0.75, 2.0),
                            (-1.25, 1.5, 0.25, -0.5)):
        assert complete_velocity(con, [x, y1, y2], [psi1]).tolist() == [
            psi1, (x + y2) * psi1, psi1]
        velocity, a, d = field.linearize(0.0, [x, y1, y2])
        assert velocity.tolist() == [y1, (x + y2) * y1, y1]
        assert a.tolist() == [[x + y2]] and d.tolist() == [0.0]
    for x in (0.5, -0.75, 1.25):
        assert implicit_solve_y(con, [x]).tolist() == [x * x, x]


def test_misshapen_points_are_rejected_by_name():
    # a point of the wrong size is refused by name: complete_velocity must not read a fifth
    # coordinate as psi_1, nor the other functions pass it to the generated code, whose
    # TypeError would name that code's parameters
    dae = REGISTRY["example-5-7"].build_dae()
    field, con, point = named_field("example-5-7"), dae.constraint, PINNED_START_5_7
    with pytest.raises(ValueError, match=r"point must hold 4 coordinates, got shape \(5,\)"):
        complete_velocity(con, point + [1.0], [2.0])
    with pytest.raises(ValueError, match=r"psi1_value must hold 2 coordinates, got shape \(1,\)"):
        complete_velocity(con, point, [2.0])
    for evaluate in (con.residual, *(lambda p, f=f: f(0.0, p) for f in (
            field.velocity, field.linearize))):
        for bad in (point[:3], point + [1.0], [point]):
            with pytest.raises(ValueError, match=r"point must hold 4 coordinates, got shape"):
                evaluate(bad)
        evaluate(point)  # and the right size passes


def test_shooting_compiles_the_step_code_once(monkeypatch):
    # a trace shoots the field it is given: that field's step code is bound once for the
    # whole trace, not once per shot (the constraint's own code is bound on its own)
    dae = dataclasses.replace(REGISTRY["example-5-5"]).build_dae()
    seed = find_zeros(reduced_map(dae.gamma, dae.constraint), dae.constraint.domain)[0]
    fields, generated = [], manifold._generated
    monkeypatch.setattr(manifold, "_generated",
                        lambda constraint, *field: fields.append(field) or
                        generated(constraint, *field))
    branch = trace_branch(dae, seed, lambda_max=0.1, steps_per_period=16)
    assert len(branch.points) > 2
    assert [field for field in fields if field] == [(dae.gamma, dae.sigma)]


def test_step_code_cache_keeps_no_field_alive():
    # the cache holds compiled code only: the callable parts a field's functions are
    # bound to (as g, gamma and sigma) go with the field
    field = callable_spring_field()
    flow_map(field, np.array(PINNED_START), 0.0, 1.0, 0.3, n_steps=4)
    field.constraint.residual(PINNED_START)
    refs = [weakref.ref(obj) for obj in (field, field.constraint, field.constraint.gmap,
                                         field.gamma, field.sigma)]
    del field
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("name", [*sorted(REGISTRY), "callable", "duffing", "swapped"])
def test_generated_step_code_parses_as_python_3_10(name):
    # the package supports Python 3.10, whose grammar a newer interpreter's
    # compile of the generated code would not enforce
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass", feature_version=(3, 10))
    field = named_field(name)
    c = field.constraint
    sources = [*manifold._source(c.k, c.s, c.gmap),
               *manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma)]
    names = {"residual", "solve_y", "tangent", "velocity", "linearize", *generated_shots(field)}
    assert {n for n, _ in sources} == names
    for _, source in sources:
        ast.parse(source, feature_version=(3, 10))
        # one float path for every s: numpy formats the RegularityError message only
        assert not any(call in source for call in ("np.linalg", "np.array(", "errstate"))


def test_source_files_parse_as_python_3_10():
    # the same grammar check for the package, its tests, demos and benchmark
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [path for folder in ("src/manideg", "tests", "demos", "bench")
             for path in sorted((root / folder).glob("*.py"))]
    assert len(paths) >= 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("name", [*sorted(REGISTRY), "callable", "duffing", "swapped"])
def test_newton_jet_assigns_nothing_it_does_not_read(name):
    # the d_y g evaluation of each y-Newton step keeps only the lines d_y g needs: the
    # value of g there was just computed by the residual lines
    field = named_field(name)
    c = field.constraint
    sources = dict([*manifold._source(c.k, c.s, c.gmap),
                    *manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma)])
    for fn_name in ("solve_y", *generated_shots(field)):
        fn = ast.parse(sources[fn_name]).body[0]
        newton = next(node for node in ast.walk(fn)  # not the loop over a shot's steps
                      if isinstance(node, ast.For) and node.target.id == "_")
        jet = [st.targets[0].id for st in newton.body
               if isinstance(st, ast.Assign) and isinstance(st.targets[0], ast.Name)
               and st.targets[0].id.startswith("v")]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        # a literal d_y g needs no line at all: example-4-2's is -1.0, the cubic graphs' 1.0
        assert (jet or name in ("example-4-2", "duffing", "swapped")) and set(jet) <= read, (
            fn_name, sorted(set(jet) - read))


MAY_RAISE = re.compile(r"\*\*|/|\w\(")  # a power, a division (_div too) or a call
LOCAL = re.compile(r"\b(t|lam|[a-z]\d+(?:_\d+)*)\b")  # a parameter or a line's name


@pytest.mark.parametrize("name", [*sorted(REGISTRY), "callable", "duffing", "swapped", "unslaved"])
def test_generated_functions_assign_nothing_they_do_not_read(name):
    # in every generated function, the standalone stages and the tuple assignments of the
    # eliminations' row swaps included, a name nothing reads is assigned only by a line
    # that may raise
    field = named_field(name)
    c = field.constraint
    for fn_name, source in [*manifold._source(c.k, c.s, c.gmap),
                            *manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma)]:
        fn = ast.parse(source).body[0]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead = [ast.unparse(st) for st in ast.walk(fn) if isinstance(st, ast.Assign)
                and any(isinstance(node, ast.Name) and node.id not in read
                        for target in st.targets for node in ast.walk(target))
                and not MAY_RAISE.search(ast.unparse(st.value))]
        assert not dead, (fn_name, dead)


def renamed_alike(lines, others):
    # whether ``others`` are ``lines`` with their locals renamed one to one, line by line
    names = {}
    for line, other in zip(lines, others, strict=True):
        parts, renamed = LOCAL.split(line), LOCAL.split(other)
        if len(parts) != len(renamed) or parts[::2] != renamed[::2]:
            return False
        for x, y in zip(parts[1::2], renamed[1::2]):
            if names.setdefault(x, y) != y:
                return False
    return len(set(names.values())) == len(names)


@pytest.mark.parametrize("name", [*sorted(REGISTRY), "callable", "duffing", "unslaved"])
def test_inlined_stages_keep_every_line_that_may_raise(name):
    # a shot's steps emit one stage per row of the tableau from the body of velocity (the
    # plain shot) or linearize (the W shot), pruned of the lines nothing reads that cannot
    # raise: every power, division and call stays, in the order of the standalone function,
    # so a stage raises where the standalone function raises, and no line that cannot raise
    # is left unread.  A stage names its own locals (its point ai_0, ..., the start state
    # u0, ... and t for the first) and reads its outputs in place, so each stage's lines
    # are the standalone's under one renaming of locals
    field = named_field(name)
    c, stages = field.constraint, len(manifold._C)
    sources = dict(manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma))
    for shot, lin in generated_shots(field).items():
        standalone = sources["linearize" if lin else "velocity"].splitlines()[1:-1]
        raising = [ln.strip() for ln in standalone if MAY_RAISE.search(ln)]
        lines = sources[shot].splitlines()
        start = lines.index("        for i in range(i, n):") + 1
        end = next(i for i, ln in enumerate(lines) if re.fullmatch(r"\s*a\d+ = .*", ln))
        inlined = [ln.strip() for ln in lines[start:end] if MAY_RAISE.search(ln)]
        assert raising and len(inlined) == stages * len(raising), shot
        for i in range(stages):
            stage = inlined[i * len(raising):(i + 1) * len(raising)]
            assert renamed_alike(raising, stage), (shot, i, raising, stage)
        fn = ast.parse(sources[shot]).body[0]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead = [ast.unparse(st) for st in ast.walk(fn)
                if isinstance(st, ast.Assign) and len(st.targets) == 1
                and isinstance(st.targets[0], ast.Name) and st.targets[0].id not in read
                and not MAY_RAISE.search(ast.unparse(st.value))]
        assert not dead, (shot, dead)


def test_renamed_alike_needs_one_renaming_both_ways():
    assert renamed_alike(["v1 = a0 ** 2", "v2 = v1 / a3"], ["v9 = u0 ** 2", "v8 = v9 / t"])
    assert not renamed_alike(["v1 = a0 ** 2", "v2 = v1 / a3"], ["v9 = u0 ** 2", "v8 = u0 / t"])
    assert not renamed_alike(["v1 = a0 ** 2", "v2 = a1 / a3"], ["v9 = u0 ** 2", "v8 = u0 / t"])
    assert not renamed_alike(["v1 = a0 ** 2"], ["v9 = u0 ** 3"])
    assert not renamed_alike(["v1 = math.sin(a0)"], ["v1 = math.cos(a0)"])


@pytest.mark.parametrize("name", [*sorted(REGISTRY), "callable", "duffing", "swapped", "unslaved"])
def test_shot_steps_copy_no_name_into_another(name):
    # a stage output that is already a name (a point coordinate, a line of the body or
    # the start state) is read in place by the later stages: a top-level line of a
    # shot's step loop copies one bare name into another only to take the step's new
    # state, u0 = a0, ..., or to copy a W entry
    field = named_field(name)
    c = field.constraint
    sources = dict(manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma))
    for shot in generated_shots(field):
        loop = next(node for node in ast.walk(ast.parse(sources[shot]))
                    if isinstance(node, ast.For) and node.target.id == "i")
        copies = [(st.targets[0].id, st.value.id) for st in loop.body
                  if isinstance(st, ast.Assign) and isinstance(st.targets[0], ast.Name)
                  and isinstance(st.value, ast.Name)]
        state = [(f"u{j}", f"a{j}") for j in range(c.dim)]
        assert [copy for copy in copies if copy not in state
                and not re.fullmatch(r"w\d+_\d+", copy[1])] == [], (shot, copies)
        assert [copy for copy in copies if copy in state] == state, shot


def _overflow(fn, *args):  # the message of the OverflowError fn(*args) raises, or None
    try:
        fn(*args)
    except OverflowError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_overflow_test_of_an_unread_power_raises_where_the_power_raises(m):
    # a power u ** m whose value nothing reads is kept as the statement
    # if not lo <= u <= hi: u ** m, which raises exactly where the power raises
    em = expr._Emitter(("u",), (), "scalar")
    em.bind(("u",), (), ("u",))
    em.emit(expr.parse(f"u^{m}", ("u",)))
    (test,) = manifold._pruned(em.lines, ())
    assert test.target is None and f"u ** {m}" in expr._text(test.value)
    ns = {}
    exec(expr._printed("guarded", "u", [test], "u"), ns)
    lo, hi, _ = expr._finite_powers(m)
    values = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
              -math.inf, math.inf, math.nan, 0.0, -0.0, 1.5, -1e300, 1e300]
    raised = 0
    for u in values:
        want = _overflow(lambda u: u ** m, u)
        assert _overflow(ns["guarded"], u) == want, u
        raised += want is not None
    assert raised == 4  # past either bound, and +-1e300


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_shots_assign_no_power_that_nothing_reads(name):
    # in dp5 and dp5w a power is a chain of products, pruned of the lines nothing reads
    # (test_inlined_stages_keep_every_line_that_may_raise finds no unread line), after its
    # overflow test if not lo <= u <= hi: u ** m: no line assigns a power, and ** appears
    # in those statements only.  example-5-5 tests y for y^3 and x1 for x1^5 in each of the
    # six stages of a step, at the stage's point, and at the projected point in the
    # projection's first residual, in its halving loop's residual and in its jet
    field = REGISTRY[name].build_dae()
    c = field.constraint
    sources = dict(manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma))
    overflow_test = re.compile(r"if not \(-[\d.e+]+\) <= (\w+) <= [\d.e+]+: \1 \*\* \d+")
    for shot in generated_shots(field):
        tests = [ln.strip() for ln in sources[shot].splitlines() if "**" in ln]
        assert all(map(overflow_test.fullmatch, tests)), (shot, tests)
        if name == "example-5-5":
            assert sorted(t.rsplit(": ", 1)[1] for t in tests) == sorted(
                [f"{x}{j} ** {m}" for x in ("u", *(f"a{i}_" for i in range(1, 6)))
                 for j, m in ((2, 3), (0, 5))] + ["a2 ** 3", "a0 ** 5"] * 3), (shot, tests)


# --- drift control -------------------------------------------------------------

def test_drift_stays_at_projection_tolerance():
    field = spring_field()
    start = on_spring_manifold(0.1, 0.0)
    period = REGISTRY["example-5-5"].period
    res = flow_map(field, start, 0.0, period, 0.2, n_steps=1024)
    assert res.max_drift <= 1e-10
    # and the motion is genuinely nontrivial
    assert np.max(np.abs(res.states[:, 0] - start[0])) > 1e-3


def test_integration_error_when_leaving_solvable_region():
    # x = y^2 folds at y = 0: flowing x below zero strands the y-solve
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y^2 - x",), ("x", "y"), DomainBox.cube(-2.0, 2.0, 2))
    gamma = AmbientMap.from_expressions(("0 - 1",), ("x", "y"))
    field = ForcedField(con, gamma=gamma)
    with pytest.raises(IntegrationError):
        flow_map(field, np.array([1.0, 1.0]), 0.0, 2.0, n_steps=64)


def test_halving_shot_of_the_spring_trace_is_pinned(monkeypatch):
    # One of the 18 shots of `manideg trace example-5-5` that raise IntegrationError,
    # the only place where that trace halves steps: its message and its step attempts.
    dae = REGISTRY["example-5-5"].build_dae()
    attempts = count_step_attempts(monkeypatch, dae)
    with pytest.raises(IntegrationError) as info:
        shooting_residual(dae, [0.48724479855823655, 1.4017599051030145], 0.8081745901327939,
                          y_guess=[0.41974476918373504], jacobian=True)
    assert str(info.value) == ("time step underflow near t = 1.10754; "
                               "the trajectory left the domain box")
    assert sum(attempts) == 37


# --- period map ------------------------------------------------------------------

def test_period_map_fixes_equilibrium():
    field = spring_field()
    period = REGISTRY["example-5-5"].period
    out = flow_map(field, np.zeros(3), 0.0, period, n_steps=256).final_state
    assert np.linalg.norm(out) <= 1e-14


def test_period_map_contracts_at_zero_forcing():
    # the damped unforced oscillator spirals in
    field = spring_field()
    period = REGISTRY["example-5-5"].period
    start = on_spring_manifold(0.4, 0.0)
    out = flow_map(field, start, 0.0, period, n_steps=1024).final_state
    assert np.linalg.norm(out[:2]) < np.linalg.norm(start[:2])

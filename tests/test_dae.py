"""Semi-explicit systems as forced fields, averaged forcing, and the two seed maps.

Averaging oracles are closed-form: the uniform-node mean over a period
annihilates sin and cos exactly and halves cos^2, so sigma = x + y +
sin(t) averages to x + y and (y2 + cos t, y1 - 2 cos^2 t) averages to
(y2, y1 - 1).
"""

import dataclasses

import numpy as np
import pytest

import manideg.problems as problems

from manideg import (
    AmbientMap,
    DomainBox,
    ForcedField,
    ImplicitConstraint,
    NumericError,
    ProblemFormatError,
    REGISTRY,
    average_wind,
    complete_velocity,
    implicit_solve_y,
    reduced_map,
    shooting_residual,
)
from manideg.dae import _averaged_map, _sampled_map
from manideg.expr import Var

TWO_PI = 6.283185307179586

BOX2 = DomainBox.cube(-2.0, 2.0, 2)


def cubic_constraint():
    return ImplicitConstraint.from_expressions(
        1, 1, ("y^3 + y - x^2",), ("x", "y"), BOX2)


def forced_cubic():
    sigma = AmbientMap.from_expressions(("x + y + sin(t)",), ("x", "y"))
    return ForcedField(cubic_constraint(), sigma=sigma, period=TWO_PI)


# --- construction ------------------------------------------------------------

def test_needs_gamma_or_sigma():
    with pytest.raises(ValueError, match="needs gamma, sigma or both"):
        ForcedField(cubic_constraint())


def test_rejects_misshapen_gamma():
    gamma = AmbientMap.from_expressions(("x", "y"), ("x", "y"))  # 2 outputs, k = 1
    with pytest.raises(ValueError, match="first component map"):
        ForcedField(cubic_constraint(), gamma=gamma)


def test_rejects_time_dependent_gamma():
    # a flow may follow a time-dependent gamma, but it seeds no branch
    gamma = AmbientMap.from_expressions(("x + sin(t)",), ("x", "y"))
    field = ForcedField(cubic_constraint(), gamma=gamma)
    with pytest.raises(ValueError, match="time-independent"):
        reduced_map(field.gamma, field.constraint)


def test_forcing_needs_period():
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    unperiodic = ForcedField(cubic_constraint(), sigma=sigma)  # a flow needs no period
    assert unperiodic.period is None
    with pytest.raises(ProblemFormatError, match="period"):
        average_wind(unperiodic)
    with pytest.raises(NumericError, match="period"):
        shooting_residual(unperiodic, [0.5], 0.1, steps_per_period=4)
    for period in (-1.0, 0.0):
        with pytest.raises(ValueError, match="positive"):
            ForcedField(cubic_constraint(), sigma=sigma, period=period)
    # a period must be finite, also where no forcing uses it
    gamma = AmbientMap.from_expressions(("x",), ("x", "y"))
    for parts in ({"sigma": sigma}, {"gamma": gamma}):
        with pytest.raises(ValueError, match="finite"):
            ForcedField(cubic_constraint(), period=np.inf, **parts)


def test_rejects_wrong_period():
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    with pytest.raises(ProblemFormatError, match="periodic"):
        ForcedField(cubic_constraint(), sigma=sigma, period=1.0)


def test_accepts_true_period_and_multiples():
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    for period in (TWO_PI, 2 * TWO_PI):
        assert ForcedField(cubic_constraint(), sigma=sigma, period=period).period == period


def test_periodicity_probes_skip_a_time_free_sigma_and_points_outside_its_domain():
    # a time-free sigma is periodic whatever the period: no probe evaluates it
    calls = []

    def first(p):
        calls.append(p)
        return np.array([p[0]])

    ForcedField(cubic_constraint(), sigma=AmbientMap.from_callable(2, 1, first), period=1.0)
    assert calls == []
    # log(x) is undefined at the centre of [-1, 1]^2 and at one more probe; the probe that
    # is left still refuses a wrong period
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y^3 + y - x^2",), ("x", "y"), DomainBox.cube(-1.0, 1.0, 2))
    sigma = AmbientMap.from_expressions(("log(x) + cos(t)",), ("x", "y"))
    assert ForcedField(con, sigma=sigma, period=TWO_PI).period == TWO_PI
    with pytest.raises(ProblemFormatError, match="periodic"):
        ForcedField(con, sigma=sigma, period=1.0)


# --- tangent fields ----------------------------------------------------------

def test_missing_parts_raise():
    forced = forced_cubic()  # sigma only
    with pytest.raises(ValueError, match="needs gamma, sigma or both"):
        ForcedField(forced.constraint, gamma=forced.gamma)
    gamma = AmbientMap.from_expressions(("x",), ("x", "y"))
    autonomous = ForcedField(cubic_constraint(), gamma=gamma)
    with pytest.raises(ValueError, match="needs gamma, sigma or both"):
        ForcedField(autonomous.constraint, sigma=autonomous.sigma)
    with pytest.raises(ProblemFormatError):
        average_wind(autonomous)


def test_forcing_tangent_is_tangent_along_level_set():
    h = forced_cubic()
    p = np.array([1.0, 0.6823278038280193])  # on the level set
    for t in (0.0, 1.3, 5.1):
        assert np.linalg.norm(h.constraint.gmap.jacobian(p) @ h.velocity(t, p, 1.0)) <= 1e-12


# --- averaging ---------------------------------------------------------------

def test_average_wind_cubic_forcing():
    dae = forced_cubic()
    sigma_bar = average_wind(dae)
    rng = np.random.default_rng(515)
    for _ in range(20):
        p = rng.uniform(-1.9, 1.9, size=2)
        assert sigma_bar(p)[0] == pytest.approx(p[0] + p[1], abs=1e-12)
    assert np.allclose(sigma_bar.jacobian(np.array([0.3, -0.4])), [[1.0, 1.0]], atol=1e-12)
    assert not sigma_bar.time_dependent


def test_average_wind_polar_forcing():
    dae = REGISTRY["example-5-7"].build_dae()
    sigma_bar = average_wind(dae)
    rng = np.random.default_rng(99)
    for _ in range(20):
        p = np.concatenate([
            rng.uniform(-2.0, 2.0, size=2),
            [rng.uniform(0.3, 2.5), rng.uniform(-1.5, 1.5)],
        ])
        got = sigma_bar(p)
        assert got[0] == pytest.approx(p[3], abs=1e-12)
        assert got[1] == pytest.approx(p[2] - 1.0, abs=1e-12)


def test_quadrature_exactness_threshold():
    # x*cos(t)^2 has trig degree two: four nodes integrate it exactly,
    # two nodes alias cos(2t) to one
    sigma = AmbientMap.from_expressions(("x*cos(t)^2",), ("x", "y"))
    dae = ForcedField(cubic_constraint(), sigma=sigma, period=TWO_PI)
    exact = average_wind(dae, quadrature_nodes=4)
    coarse = average_wind(dae, quadrature_nodes=2)
    p = np.array([1.2, 0.4])
    assert exact(p)[0] == pytest.approx(0.6, abs=1e-14)
    assert coarse(p)[0] == pytest.approx(1.2, abs=1e-14)


@pytest.mark.parametrize("nodes", [0, -2, 2.5])
def test_average_wind_rejects_quadrature_nodes_below_one(nodes):
    # a division by the node count, or an empty node axis, must not surface, and
    # neither may a count that is not an integer, which would average over fewer
    with pytest.raises(ValueError, match="quadrature_nodes"):
        average_wind(forced_cubic(), nodes)


def test_averaging_callable_backend_matches_expression_backend():
    con = cubic_constraint()
    sigma_expr = AmbientMap.from_expressions(("x + y + sin(t)",), ("x", "y"))

    def raw(point, t=0.0):
        return np.array([point[0] + point[1] + np.sin(t)])

    sigma_call = AmbientMap.from_callable(2, 1, raw, time_dependent=True)
    bar_expr = average_wind(ForcedField(con, sigma=sigma_expr, period=TWO_PI))
    bar_call = average_wind(ForcedField(con, sigma=sigma_call, period=TWO_PI))
    for p in (np.array([0.0, 0.0]), np.array([1.1, -0.7])):
        assert bar_call(p)[0] == pytest.approx(bar_expr(p)[0], abs=1e-12)
        assert np.allclose(bar_call.jacobian(p), bar_expr.jacobian(p), atol=1e-6)


def test_averaging_commutes_with_completion():
    # completing the averaged forcing equals averaging the completed field
    h = forced_cubic()
    w = ForcedField(h.constraint, gamma=average_wind(h))
    p = np.array([1.0, 0.6823278038280193])
    ts = TWO_PI * np.arange(64) / 64
    mean_completed = np.mean([h.velocity(t, p, 1.0) for t in ts], axis=0)
    assert np.allclose(w.velocity(0.0, p), mean_completed, atol=1e-12)


# --- the term-by-term average against the sampled one --------------------------
#
# The reference is _sampled_map: sigma sampled at every (point, node) pair and meaned
# along the node axis.  The term-by-term average sums in another order, so it may differ
# by rounding; a forcing it cannot separate must be sampled bit for bit.

def _registry_forcing(name):
    problem = REGISTRY[name]
    return problem.build_dae().sigma, problem.period, 64, problem.domain().grid(6)


SEPARABLE = {
    "example-5-3": lambda: _registry_forcing("example-5-3"),
    "example-5-7": lambda: _registry_forcing("example-5-7"),
    # test_fields' averaged map; sqrt masks the rows with x < 0
    "sqrt-and-products": lambda: (
        AmbientMap.from_expressions(("sqrt(x) + y*cos(t)", "x*y + sin(t)^2"), ("x", "y")),
        TWO_PI, 16, BOX2.grid(9)),
    "cos-squared-2-nodes": lambda: (
        AmbientMap.from_expressions(("x*cos(t)^2",), ("x", "y")), TWO_PI, 2, BOX2.grid(9)),
    "cos-squared-4-nodes": lambda: (
        AmbientMap.from_expressions(("x*cos(t)^2",), ("x", "y")), TWO_PI, 4, BOX2.grid(9)),
    "negated-sum": lambda: (  # separated under its Neg
        AmbientMap.from_expressions(("-(x*cos(t)^2 + y)",), ("x", "y")), TWO_PI, 4,
        BOX2.grid(9)),
}


@pytest.mark.parametrize("name", sorted(SEPARABLE))
def test_term_by_term_average_matches_the_sampled_one(name):
    sigma, period, nodes, points = SEPARABLE[name]()
    got_map = _averaged_map(sigma, period, nodes)
    assert got_map.asts is not None and not got_map.time_dependent
    for jacobian in (False, True):
        got, got_valid = got_map.batch(points, jacobian)
        want, want_valid = _sampled_map(sigma, period, nodes).batch(points, jacobian)
        assert np.array_equal(got_valid, want_valid)
        # a few ulps of the value, or of 1 where the terms cancel to about 0
        ulp = np.spacing(np.maximum(np.abs(want), 1.0))
        assert (np.abs(got - want) <= 4.0 * ulp)[want_valid].all()


def test_term_by_term_average_is_built_from_node_means():
    # example-5-7's (y2 + cos t, y1 - 2 cos^2 t): each time-only part is a literal
    sigma_bar = average_wind(REGISTRY["example-5-7"].build_dae())
    assert sigma_bar.variables == ("x1", "x2", "y1", "y2")
    (first, mean_cos), (second, mean_cos2) = [(b.left, b.right) for b in sigma_bar.asts]
    assert (first, second) == (Var("y2"), Var("y1"))
    assert abs(mean_cos.value) <= 1e-16 and mean_cos2.value == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("name", ["example-5-3", "example-5-7"])
def test_build_phi1_keeps_each_node_counts_average(monkeypatch, name):
    problem = dataclasses.replace(REGISTRY[name])  # a fresh instance, with no average kept
    dae, calls = problem.build_dae(), []
    monkeypatch.setattr(problems, "average_wind",
                        lambda *args: calls.append(args[1]) or average_wind(*args))
    first = problem.build_phi1()
    assert problem.build_phi1() is first and problem.build_phi1(64) is first
    coarse = problem.build_phi1(3)
    assert problem.build_phi1(3) is coarse and calls == [64, 3]
    with pytest.raises(ValueError, match="quadrature_nodes"):
        problem.build_phi1(0)
    points = problem.domain().grid(4)
    for kept, nodes in ((first, 64), (coarse, 3)):
        for jacobian in (False, True):
            got = kept.batch(points, jacobian)
            want = average_wind(dae, nodes).batch(points, jacobian)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _forcing_callable():
    def raw(point, t=0.0):
        return np.array([point[0] + point[1] + np.sin(t)])
    return AmbientMap.from_callable(2, 1, raw, time_dependent=True)


SAMPLED = {
    "callable": _forcing_callable,
    "t-and-state-in-a-call": lambda: AmbientMap.from_expressions(("sin(x + t)",), ("x", "y")),
    "two-timed-factors": lambda: AmbientMap.from_expressions(("cos(t)*x*cos(t)",), ("x", "y")),
    "timed-divisor": lambda: AmbientMap.from_expressions(("y + x/(2 + sin(t))",), ("x", "y")),
    "t-and-state-in-a-power": lambda: AmbientMap.from_expressions(("(x + t)^2",), ("x", "y")),
    # time-only parts that are not finite at a node: 1/sin(t) and log(1 + cos(t)) at the
    # node 0 and pi, exp(800*cos(t)) overflowing at 0, so only the rows with x = 0 are NaN
    "non-finite-node-part": lambda: AmbientMap.from_expressions(
        ("x + 1/sin(t) + y*log(1 + cos(t))",), ("x", "y")),
    "overflowing-node-part": lambda: AmbientMap.from_expressions(
        ("x*exp(800*cos(t)) + y",), ("x", "y")),
}


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_a_forcing_that_does_not_separate_is_sampled(name):
    sigma = SAMPLED[name]()
    points = BOX2.grid(5)  # x = 0 on a fifth of the rows
    got_map = _averaged_map(sigma, TWO_PI, 16)
    assert got_map.asts is None
    for jacobian in (False, True):
        got, got_valid = got_map.batch(points, jacobian)
        want, want_valid = _sampled_map(sigma, TWO_PI, 16).batch(points, jacobian)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got_valid, want_valid)
    if name == "overflowing-node-part":
        assert np.array_equal(~got_valid, points[:, 0] == 0.0)


# --- seed maps ---------------------------------------------------------------

def test_seed_map_F_concatenates_gamma_and_g():
    # the seed map F = (gamma, g), which build_seed_map picks when there is a gamma
    prob = REGISTRY["example-5-5"]
    dae = prob.build_dae()
    F = prob.build_seed_map()
    p = np.array([0.5, -0.25, 0.125])
    assert np.allclose(F(p), np.concatenate([dae.gamma(p), dae.constraint.gmap(p)]))
    assert F(np.zeros(3)) == pytest.approx(np.zeros(3))
    assert np.array_equal(F(p), reduced_map(dae.gamma, dae.constraint)(p))


def test_seed_map_Phi_uses_averaged_forcing():
    # the seed map Phi = (Sigma, g), which build_seed_map picks without a gamma:
    # example-5-3 is forced_cubic's system
    dae = forced_cubic()
    p = np.array([0.7, -0.2])
    expected = np.array([0.7 - 0.2, (-0.2) ** 3 - 0.2 - 0.49])
    for phi in (reduced_map(average_wind(dae), dae.constraint),
                REGISTRY["example-5-3"].build_seed_map()):
        assert np.allclose(phi(p), expected, atol=1e-12)


# --- the forced field ----------------------------------------------------------

def test_forced_field_combines_parts():
    prob = REGISTRY["example-5-5"]
    field = prob.build_dae()
    p = np.array([0.3, -0.1, 0.05])
    t, lam = 0.9, 0.35
    expected = field.gamma(p) + lam * field.sigma(p, t)
    v = field.velocity(t, p, lam)
    assert np.allclose(v[:2], expected)
    assert np.allclose(field.velocity(t, p, 0.0)[:2], field.gamma(p))
    assert np.linalg.norm(field.constraint.gmap.jacobian(p) @ v) <= 1e-12


def test_forced_field_without_gamma_scales_sigma():
    field = forced_cubic()
    p = np.array([0.4, 0.1])
    assert np.allclose(field.velocity(1.0, p, 0.5)[:1], 0.5 * field.sigma(p, 1.0))
    assert np.allclose(field.velocity(1.0, p, 0.0), [0.0, 0.0])


@pytest.mark.parametrize("name, x", [("example-5-5", (0.4, -0.7)),
                                     ("example-5-7", (1.0, 0.3))])
def test_velocity_is_the_completion_of_the_first_components(name, x):
    field = REGISTRY[name].build_dae()
    c = field.constraint
    point = np.concatenate([x, implicit_solve_y(c, np.array(x))])
    for t, lam in ((0.0, 0.0), (1.3, 0.25), (4.0, -0.6)):
        v = field.velocity(t, point, lam)
        expected = complete_velocity(c, point, v[:c.k])
        assert np.array_equal(v, expected)
        assert np.array_equal(field.linearize(t, point, lam)[0], expected)


@pytest.mark.parametrize("name,parts", [
    ("example-5-5", "both"), ("example-5-5", "gamma"), ("example-5-7", "sigma"),
])
def test_linearize_is_the_slaved_x_dynamics(name, parts):
    # A and dp/dlam are the derivatives of (x, lam) -> p(t, x, y(x), lam),
    # y slaved to x through the constraint; the velocity is velocity()'s
    dae = REGISTRY[name].build_dae()
    con, k = dae.constraint, dae.constraint.k
    field = ForcedField(con, None if parts == "sigma" else dae.gamma,
                        None if parts == "gamma" else dae.sigma)
    x = np.array([1.1, 0.4]) if name == "example-5-7" else np.array([0.3, -0.2])
    y = implicit_solve_y(con, x)
    t, lam = 0.9, 0.35
    v, a, dp_dlam = field.linearize(t, np.concatenate([x, y]), lam)
    assert np.array_equal(v, field.velocity(t, np.concatenate([x, y]), lam))

    def slaved(xv, lv):
        return field.velocity(t, np.concatenate([xv, implicit_solve_y(con, xv, y)]), lv)[:k]

    h = 1e-6
    cols = [(slaved(x + h * e, lam) - slaved(x - h * e, lam)) / (2.0 * h)
            for e in np.eye(k)]
    assert np.allclose(a, np.column_stack(cols), atol=1e-7)
    expected = (slaved(x, lam + h) - slaved(x, lam - h)) / (2.0 * h)
    assert np.allclose(dp_dlam, expected, atol=1e-7)

"""Semi-explicit systems, averaged forcing, and the two seed maps.

Averaging oracles are closed-form: the uniform-node mean over a period
annihilates sin and cos exactly and halves cos^2, so sigma = x + y +
sin(t) averages to x + y and (y2 + cos t, y1 - 2 cos^2 t) averages to
(y2, y1 - 1).
"""

import numpy as np
import pytest

from manideg import (
    AmbientMap,
    DomainBox,
    ForcedField,
    ImplicitConstraint,
    ProblemFormatError,
    REGISTRY,
    SemiExplicitDae,
    average_wind,
    build_autonomous_tangent,
    build_forcing_tangent,
    implicit_solve_y,
    seed_map_F,
    seed_map_Phi,
    tangency_residual,
)

TWO_PI = 6.283185307179586

BOX2 = DomainBox.cube(-2.0, 2.0, 2)


def cubic_constraint():
    return ImplicitConstraint.from_expressions(
        1, 1, ("y^3 + y - x^2",), ("x", "y"), BOX2)


def forced_cubic():
    sigma = AmbientMap.from_expressions(("x + y + sin(t)",), ("x", "y"))
    return SemiExplicitDae(cubic_constraint(), sigma=sigma, period=TWO_PI)


# --- construction ------------------------------------------------------------

def test_needs_gamma_or_sigma():
    with pytest.raises(ProblemFormatError):
        SemiExplicitDae(cubic_constraint())


def test_rejects_misshapen_gamma():
    gamma = AmbientMap.from_expressions(("x", "y"), ("x", "y"))  # 2 outputs, k = 1
    with pytest.raises(ProblemFormatError):
        SemiExplicitDae(cubic_constraint(), gamma=gamma)


def test_rejects_time_dependent_gamma():
    gamma = AmbientMap.from_expressions(("x + sin(t)",), ("x", "y"))
    with pytest.raises(ProblemFormatError):
        SemiExplicitDae(cubic_constraint(), gamma=gamma)


def test_forcing_needs_period():
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    with pytest.raises(ProblemFormatError):
        SemiExplicitDae(cubic_constraint(), sigma=sigma)
    with pytest.raises(ProblemFormatError):
        SemiExplicitDae(cubic_constraint(), sigma=sigma, period=-1.0)


def test_rejects_wrong_period():
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    with pytest.raises(ProblemFormatError):
        SemiExplicitDae(cubic_constraint(), sigma=sigma, period=1.0)


def test_accepts_true_period_and_multiples():
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    SemiExplicitDae(cubic_constraint(), sigma=sigma, period=TWO_PI)
    SemiExplicitDae(cubic_constraint(), sigma=sigma, period=2 * TWO_PI)


def test_k_and_s_shortcuts():
    dae = forced_cubic()
    assert dae.k == 1 and dae.s == 1


# --- tangent fields ----------------------------------------------------------

def test_missing_parts_raise():
    dae = forced_cubic()
    with pytest.raises(ProblemFormatError):
        build_autonomous_tangent(dae)
    gamma = AmbientMap.from_expressions(("x",), ("x", "y"))
    autonomous = SemiExplicitDae(cubic_constraint(), gamma=gamma)
    with pytest.raises(ProblemFormatError):
        build_forcing_tangent(autonomous)
    with pytest.raises(ProblemFormatError):
        average_wind(autonomous)


def test_forcing_tangent_is_tangent_along_level_set():
    dae = forced_cubic()
    h = build_forcing_tangent(dae)
    p = np.array([1.0, 0.6823278038280193])  # on the level set
    for t in (0.0, 1.3, 5.1):
        assert tangency_residual(h, p, t) <= 1e-12


# --- averaging ---------------------------------------------------------------

def test_average_wind_cubic_forcing():
    dae = forced_cubic()
    sigma_bar, w = average_wind(dae)
    rng = np.random.default_rng(515)
    for _ in range(20):
        p = rng.uniform(-1.9, 1.9, size=2)
        assert sigma_bar(p)[0] == pytest.approx(p[0] + p[1], abs=1e-12)
    assert np.allclose(sigma_bar.jacobian(np.array([0.3, -0.4])), [[1.0, 1.0]], atol=1e-12)
    assert not sigma_bar.time_dependent
    assert w.constraint is dae.constraint


def test_average_wind_polar_forcing():
    dae = REGISTRY["example-5-7"].build_dae()
    sigma_bar, _ = average_wind(dae)
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
    dae = SemiExplicitDae(cubic_constraint(), sigma=sigma, period=TWO_PI)
    exact, _ = average_wind(dae, quadrature_nodes=4)
    coarse, _ = average_wind(dae, quadrature_nodes=2)
    p = np.array([1.2, 0.4])
    assert exact(p)[0] == pytest.approx(0.6, abs=1e-14)
    assert coarse(p)[0] == pytest.approx(1.2, abs=1e-14)


def test_averaging_callable_backend_matches_expression_backend():
    con = cubic_constraint()
    sigma_expr = AmbientMap.from_expressions(("x + y + sin(t)",), ("x", "y"))

    def raw(point, t=0.0):
        return np.array([point[0] + point[1] + np.sin(t)])

    sigma_call = AmbientMap.from_callable(2, 1, raw, time_dependent=True)
    bar_expr, _ = average_wind(SemiExplicitDae(con, sigma=sigma_expr, period=TWO_PI))
    bar_call, _ = average_wind(SemiExplicitDae(con, sigma=sigma_call, period=TWO_PI))
    for p in (np.array([0.0, 0.0]), np.array([1.1, -0.7])):
        assert bar_call(p)[0] == pytest.approx(bar_expr(p)[0], abs=1e-12)
        assert np.allclose(bar_call.jacobian(p), bar_expr.jacobian(p), atol=1e-6)


def test_averaging_commutes_with_completion():
    # completing the averaged forcing equals averaging the completed field
    dae = forced_cubic()
    sigma_bar, w = average_wind(dae)
    h = build_forcing_tangent(dae)
    p = np.array([1.0, 0.6823278038280193])
    ts = TWO_PI * np.arange(64) / 64
    mean_completed = np.mean([h.eval(t, p) for t in ts], axis=0)
    assert np.allclose(w.eval(0.0, p), mean_completed, atol=1e-12)


# --- seed maps ---------------------------------------------------------------

def test_seed_map_F_concatenates_gamma_and_g():
    prob = REGISTRY["example-5-5"]
    dae = prob.build_dae()
    F = seed_map_F(dae)
    p = np.array([0.5, -0.25, 0.125])
    assert np.allclose(F(p), np.concatenate([dae.gamma(p), dae.constraint.g(p)]))
    assert F(np.zeros(3)) == pytest.approx(np.zeros(3))


def test_seed_map_Phi_uses_averaged_forcing():
    dae = forced_cubic()
    Phi = seed_map_Phi(dae)
    p = np.array([0.7, -0.2])
    expected = np.array([0.7 - 0.2, (-0.2) ** 3 - 0.2 - 0.49])
    assert np.allclose(Phi(p), expected, atol=1e-12)


def test_seed_map_F_requires_gamma():
    with pytest.raises(ProblemFormatError):
        seed_map_F(forced_cubic())


# --- the forced field ----------------------------------------------------------

def test_forced_field_combines_parts():
    prob = REGISTRY["example-5-5"]
    dae = prob.build_dae()
    field = ForcedField(dae.constraint, dae.gamma, dae.sigma)
    p = np.array([0.3, -0.1, 0.05])
    t, lam = 0.9, 0.35
    expected = dae.gamma(p) + lam * dae.sigma(p, t)
    assert np.allclose(field.first(t, p, lam), expected)
    assert np.allclose(field.first(t, p, 0.0), dae.gamma(p))
    v = field.velocity(t, p, lam)
    assert np.allclose(v[: dae.k], expected)
    assert np.linalg.norm(dae.constraint.jacobian(p) @ v) <= 1e-12


def test_forced_field_without_gamma_scales_sigma():
    dae = forced_cubic()
    field = ForcedField(dae.constraint, dae.gamma, dae.sigma)
    p = np.array([0.4, 0.1])
    assert np.allclose(field.first(1.0, p, 0.5), 0.5 * dae.sigma(p, 1.0))
    assert np.allclose(field.first(1.0, p, 0.0), [0.0])
    assert np.allclose(field.eval(1.0, p)[: 1], field.first(1.0, p, 1.0))


@pytest.mark.parametrize("name,parts", [
    ("example-5-5", "both"), ("example-5-5", "gamma"), ("example-5-7", "sigma"),
])
def test_linearize_is_the_slaved_x_dynamics(name, parts):
    # A and dp/dlam are the derivatives of (x, lam) -> p(t, x, y(x), lam),
    # y slaved to x through the constraint; the velocity is velocity()'s
    dae = REGISTRY[name].build_dae()
    con, k = dae.constraint, dae.k
    field = ForcedField(con, None if parts == "sigma" else dae.gamma,
                        None if parts == "gamma" else dae.sigma)
    x = np.array([1.1, 0.4]) if name == "example-5-7" else np.array([0.3, -0.2])
    y = implicit_solve_y(con, x)
    t, lam = 0.9, 0.35
    v, a, dp_dlam = field.linearize(t, np.concatenate([x, y]), lam)
    assert np.array_equal(v, field.velocity(t, np.concatenate([x, y]), lam))

    def slaved(xv, lv):
        return field.first(t, np.concatenate([xv, implicit_solve_y(con, xv, y)]), lv)

    h = 1e-6
    cols = [(slaved(x + h * e, lam) - slaved(x - h * e, lam)) / (2.0 * h)
            for e in np.eye(k)]
    assert np.allclose(a, np.column_stack(cols), atol=1e-7)
    expected = (slaved(x, lam + h) - slaved(x, lam - h)) / (2.0 * h)
    assert np.allclose(dp_dlam, expected, atol=1e-7)

"""Implicit level sets: completion, reduction, and degree on M = g^-1(0).

Hand-computed oracles:
  * cubic-graph constraint y^3 + y = x^2: completion second slot is
    2*x*s/(3*y^2 + 1); at x = 1 the y-solve root is 0.6823278038280193
    (frozen from a bisection run, reproduced in-test).
  * reduced map of (x*(y^2+1), x^3 - y^3 - 3*y) at the origin has
    determinant split (-3, -3, 1).
  * the two-branch constraint y^2 = 1 + x^2 with first component x has
    per-branch contributions (+1)*(+1) and (-1)*(-1), total degree 2.
"""

import warnings

import numpy as np
import pytest

from manideg import (
    AdmissibilityError,
    REGISTRY,
    AmbientMap,
    DomainBox,
    DomainEscapeError,
    ImplicitConstraint,
    RegularityError,
    RootFindingError,
    complete_velocity,
    implicit_solve_y,
    manifold_degree,
    multi_region_degree,
    partial2_sign,
    reduced_map,
    schur_determinant_split,
    tangent_completion,
    tangency_residual,
)
from manideg.fields import finite_difference_jacobian
from manideg.problems import REFERENCE_DEGREES

BOX2 = DomainBox.cube(-2.0, 2.0, 2)


def cubic_graph():
    # one differential and one algebraic coordinate, globally regular
    return ImplicitConstraint.from_expressions(
        1, 1, ("y^3 + y - x^2",), ("x", "y"), BOX2)


def two_branch():
    # y^2 = 1 + x^2 has two components with opposite d_y g signs
    return ImplicitConstraint.from_expressions(
        1, 1, ("y^2 - 1 - x^2",), ("x", "y"), BOX2)


def helix_like():
    return ImplicitConstraint.from_expressions(
        1, 2,
        ("exp(y1)*cos(y2) - x", "exp(y1)*sin(y2) + x - 1"),
        ("x", "y1", "y2"),
        DomainBox.cube(-3.0, 3.0, 3))


def bisect_root(f, lo, hi, n=200):
    flo = f(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


# --- construction -----------------------------------------------------------

def test_constraint_rejects_time_dependence():
    gmap = AmbientMap.from_expressions(("y - sin(t)",), ("x", "y"))
    with pytest.raises(ValueError):
        ImplicitConstraint(1, 1, gmap, BOX2)


def test_constraint_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        ImplicitConstraint.from_expressions(1, 2, ("y - x",), ("x", "y"), BOX2)
    with pytest.raises(ValueError):
        ImplicitConstraint.from_expressions(
            1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-1.0, 1.0, 3))


def test_constraint_blocks_and_slices():
    con = cubic_graph()
    p = np.array([1.0, 2.0])
    assert con.dim == 2
    assert con.g(p)[0] == pytest.approx(9.0)
    assert con.partial1(p)[0, 0] == pytest.approx(-2.0)
    assert con.partial2(p)[0, 0] == pytest.approx(13.0)
    assert con.det_partial2(p) == pytest.approx(13.0)
    assert con.residual(p) == pytest.approx(9.0)
    assert con.y_slice() == ((-2.0, 2.0),)


# --- regularity sign ---------------------------------------------------------

def test_partial2_sign_constant_positive():
    assert partial2_sign(cubic_graph()) == 1


def test_partial2_sign_constant_negative():
    con = ImplicitConstraint.from_expressions(1, 1, ("-y - x^2",), ("x", "y"), BOX2)
    assert partial2_sign(con) == -1


def test_partial2_sign_rejects_sign_change():
    with pytest.raises(RegularityError):
        partial2_sign(two_branch())


def test_partial2_sign_rejects_singular_sample():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y^3 - x",), ("x", "y"), DomainBox.cube(-1.0, 1.0, 2))
    with pytest.raises(RegularityError):
        partial2_sign(con, sample_density=17)  # odd density samples y = 0


def test_partial2_sign_warns_when_margin_is_thin():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("0.0000001*y - x",), ("x", "y"), BOX2)
    with pytest.warns(RuntimeWarning):
        assert partial2_sign(con) == 1


# --- completion --------------------------------------------------------------

def test_completion_on_diagonal_graph():
    con = ImplicitConstraint.from_expressions(1, 1, ("y - x",), ("x", "y"), BOX2)
    v = complete_velocity(con, np.array([0.3, 0.3]), np.array([2.0]))
    assert np.allclose(v, [2.0, 2.0])


def test_completion_matches_hand_formula_on_cubic_graph():
    con = cubic_graph()
    rng = np.random.default_rng(41)
    for _ in range(10):
        x, y = rng.uniform(-1.5, 1.5, size=2)
        s = rng.uniform(-2.0, 2.0)
        v = complete_velocity(con, np.array([x, y]), np.array([s]))
        assert v[0] == pytest.approx(s)
        assert v[1] == pytest.approx(2.0 * x * s / (3.0 * y * y + 1.0), rel=1e-12)


def test_completion_output_is_tangent():
    con = helix_like()
    field = tangent_completion(
        AmbientMap.from_expressions(("y2",), ("x", "y1", "y2")), con)
    p = np.array([1.0, 0.0, 0.0])  # a point of g^-1(0)
    assert con.residual(p) <= 1e-12
    assert tangency_residual(field, p) <= 1e-14


def test_completion_rejects_singular_pivot():
    con = two_branch()
    with pytest.raises(RegularityError):
        complete_velocity(con, np.array([0.0, 0.0]), np.array([1.0]))


def test_tangent_field_shape_validation():
    con = cubic_graph()
    wide = AmbientMap.from_expressions(("x", "y"), ("x", "y"))
    with pytest.raises(ValueError):
        tangent_completion(wide, con)


def test_tangent_field_velocity_ignores_lambda():
    con = cubic_graph()
    field = tangent_completion(AmbientMap.from_expressions(("x",), ("x", "y")), con)
    p = np.array([0.5, 0.4])
    assert np.array_equal(field.velocity(0.0, p, lam=0.7), field.eval(0.0, p))


# --- reduced map -------------------------------------------------------------

def test_reduced_map_concatenates_components():
    con = cubic_graph()
    phi1 = AmbientMap.from_expressions(("x*(y^2 + 1)",), ("x", "y"))
    field = reduced_map(phi1, con)
    p = np.array([0.5, -1.0])
    assert np.allclose(field(p), [0.5 * 2.0, -1.0 - 1.0 - 0.25])
    fd = finite_difference_jacobian(lambda q: field(q), p)
    assert np.allclose(field.jacobian(p), fd, atol=1e-7)


def test_reduced_map_rejects_time_dependent_first_component():
    con = cubic_graph()
    phi1 = AmbientMap.from_expressions(("x + sin(t)",), ("x", "y"))
    with pytest.raises(ValueError):
        reduced_map(phi1, con)


# --- y-solve -----------------------------------------------------------------

def test_implicit_solve_y_against_bisection():
    con = cubic_graph()
    root = bisect_root(lambda y: y ** 3 + y - 1.0, 0.0, 1.0)
    assert root == pytest.approx(0.6823278038280193, abs=1e-14)
    y = implicit_solve_y(con, np.array([1.0]))
    assert y[0] == pytest.approx(root, abs=1e-12)


def test_implicit_solve_y_uses_guess():
    con = helix_like()
    y = implicit_solve_y(con, np.array([0.9]), y_guess=(0.0, 0.1))
    p = np.concatenate([[0.9], y])
    assert con.residual(p) <= 1e-12


def test_implicit_solve_y_rejects_root_outside_domain():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y - x",), ("x", "y"),
        DomainBox.from_bounds([(-2.0, 2.0), (1.0, 2.0)]))
    with pytest.raises(RootFindingError):
        implicit_solve_y(con, np.array([0.0]), y_guess=(1.5,))


def test_implicit_solve_y_escape_on_last_iteration():
    # the one Newton step lands on y = 3, outside the box, as the loop ends
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-1.0, 1.0, 2))
    with pytest.raises(DomainEscapeError):
        implicit_solve_y(con, np.array([3.0]), y_guess=[0.0], max_iter=1)


def test_implicit_solve_y_iteration_cap():
    con = cubic_graph()
    with pytest.raises(RootFindingError):
        implicit_solve_y(con, np.array([1.0]), y_guess=(-2.0,), max_iter=2)


# --- determinant split -------------------------------------------------------

def test_schur_split_hand_value_at_origin():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("x^3 - y^3 - 3*y",), ("x", "y"), BOX2)
    phi1 = AmbientMap.from_expressions(("x*(y^2 + 1)",), ("x", "y"))
    full, d2g, schur = schur_determinant_split(phi1, con, (0.0, 0.0))
    assert (full, d2g, schur) == pytest.approx((-3.0, -3.0, 1.0))


@pytest.mark.parametrize("make,phi_sources,names", [
    (cubic_graph, ("x*(y^2 + 1)",), ("x", "y")),
    (helix_like, ("y2",), ("x", "y1", "y2")),
])
def test_schur_identity_at_random_points(make, phi_sources, names):
    con = make()
    phi1 = AmbientMap.from_expressions(phi_sources, names)
    rng = np.random.default_rng(2357)
    for _ in range(50):
        p = rng.uniform(-1.2, 1.2, size=con.dim)
        full, d2g, schur = schur_determinant_split(phi1, con, p)
        assert abs(full - d2g * schur) <= 1e-8 * (1.0 + abs(full))


# --- degree on the level set -------------------------------------------------

def test_manifold_degree_cubic_line():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("x^3 - y^3 - 3*y",), ("x", "y"), BOX2)
    phi1 = AmbientMap.from_expressions(("x*(y^2 + 1)",), ("x", "y"))
    res = manifold_degree(phi1, con)
    assert res.degree == 1
    assert res.constraint_sign == -1
    assert res.ambient.degree == -1


def test_manifold_degree_helix_chart():
    con = helix_like()
    phi1 = AmbientMap.from_expressions(("y2",), ("x", "y1", "y2"))
    res = manifold_degree(phi1, con)
    assert res.degree == -1
    assert res.constraint_sign == 1
    assert len(res.ambient.zeros) == 1
    assert np.allclose(res.ambient.zeros[0].location, [1.0, 0.0, 0.0], atol=1e-8)


def test_manifold_degree_without_numpy_warnings():
    # Newton starts on exp(y1) overflow; that must count as a failed start,
    # not surface as a RuntimeWarning
    prob = REGISTRY["example-5-2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = manifold_degree(prob.build_phi1(), prob.build_constraint())
    assert res.degree == REFERENCE_DEGREES["example-5-2"].manifold_degree


def test_newton_starts_are_fenced_near_the_box():
    # starts that exp(y1) sends towards overflow are abandoned once an
    # iterate leaves the box widened by one box width on each side, so no
    # Jacobian is evaluated beyond that fence
    from manideg import find_zeros

    prob = REGISTRY["example-5-2"]
    field = reduced_map(prob.build_phi1(), prob.build_constraint())
    box = prob.domain()
    points = []
    jacobian = field.jacobian

    def recording(point, t=0.0):
        points.append(np.array(point, dtype=float))
        return jacobian(point, t)

    field.jacobian = recording
    zeros = find_zeros(field, box)
    lower, upper = np.array(box.lower), np.array(box.upper)
    width = upper - lower
    assert points
    outside = [p for p in points
               if np.any(p < lower - width) or np.any(p > upper + width)]
    assert not outside, outside[0]
    assert len(zeros) == 1
    assert np.allclose(zeros[0].location, REFERENCE_DEGREES["example-5-2"].zero,
                       atol=1e-8)


def test_manifold_degree_graph_equals_direct_degree():
    # for a graph constraint the reduction must reproduce the plain
    # one-dimensional degree of x -> phi1(x, p(x))
    from manideg import FieldHandle, degree_sign_sum

    con = ImplicitConstraint.from_expressions(1, 1, ("y - x^3",), ("x", "y"), BOX2)
    phi1 = AmbientMap.from_expressions(("x^3 - x",), ("x", "y"))
    res = manifold_degree(phi1, con)
    direct = degree_sign_sum(
        FieldHandle.from_expressions(("x^3 - x",), ("x",)),
        DomainBox.cube(-2.0, 2.0, 1))
    assert res.degree == direct.degree == 1


def test_manifold_degree_single_box_refuses_sign_flip():
    phi1 = AmbientMap.from_expressions(("x",), ("x", "y"))
    with pytest.raises(RegularityError):
        manifold_degree(phi1, two_branch())


def test_multi_region_handles_opposite_branch_signs():
    phi1 = AmbientMap.from_expressions(("x",), ("x", "y"))
    upper = DomainBox.from_bounds([(-0.5, 0.5), (0.5, 1.8)])
    lower = DomainBox.from_bounds([(-0.5, 0.5), (-1.8, -0.5)])
    assert multi_region_degree(phi1, two_branch(), [upper, lower]) == 2


def test_multi_region_rejects_overlap():
    phi1 = AmbientMap.from_expressions(("x",), ("x", "y"))
    a = DomainBox.from_bounds([(-0.5, 0.5), (0.0, 1.8)])
    b = DomainBox.from_bounds([(-0.5, 0.5), (1.0, 1.9)])
    with pytest.raises(ValueError):
        multi_region_degree(phi1, two_branch(), [a, b])


def test_multi_region_rejects_stray_zero():
    phi1 = AmbientMap.from_expressions(("x",), ("x", "y"))
    upper = DomainBox.from_bounds([(-0.5, 0.5), (0.5, 1.8)])
    with pytest.raises(AdmissibilityError):
        multi_region_degree(phi1, two_branch(), [upper])


def test_multi_region_needs_boxes():
    phi1 = AmbientMap.from_expressions(("x",), ("x", "y"))
    with pytest.raises(ValueError):
        multi_region_degree(phi1, two_branch(), [])

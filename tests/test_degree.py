"""Degree by zero-enumeration sign-sum and the 2-D winding oracle.

Expected integers come from hand calculations on polynomial fields
(boundary sign changes in 1-D, holomorphic zero counts in 2-D) plus a
brute-force winding integral implemented independently below.
"""

import math

import numpy as np
import pytest

from manideg import (
    AdmissibilityError,
    DegenerateZeroError,
    DomainBox,
    FieldHandle,
    NumericError,
    boundary_min,
    degree_sign_sum,
    degree_winding_2d,
    find_zeros,
)

SQUARE = DomainBox.cube(-1.5, 1.5, 2)


def handle(sources, variables):
    return FieldHandle.from_expressions(sources, variables)


def brute_winding(field, box, n=20000):
    # independent oracle: single dense pass, wrapped angle increments
    ts = np.linspace(0.0, 4.0, n, endpoint=False)
    (x0, x1), (y0, y1) = box.bounds
    total = 0.0
    prev = None
    pts = []
    for t in ts:
        side, s = int(t), t - int(t)
        if side == 0:
            pts.append((x0 + s * (x1 - x0), y0))
        elif side == 1:
            pts.append((x1, y0 + s * (y1 - y0)))
        elif side == 2:
            pts.append((x1 - s * (x1 - x0), y1))
        else:
            pts.append((x0, y1 - s * (y1 - y0)))
    pts.append(pts[0])
    for p in pts:
        v = field(np.array(p))
        ang = math.atan2(v[1], v[0])
        if prev is not None:
            d = ang - prev
            while d > math.pi:
                d -= 2 * math.pi
            while d < -math.pi:
                d += 2 * math.pi
            total += d
        prev = ang
    return round(total / (2 * math.pi))


# --- DomainBox ------------------------------------------------------------

def test_box_validation():
    with pytest.raises(ValueError):
        DomainBox((0.0,), (0.0,))
    with pytest.raises(ValueError):
        DomainBox((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        DomainBox((), ())
    for lower, upper in (((math.nan, 0.0), (1.0, 1.0)), ((0.0, 0.0), (math.inf, 1.0))):
        with pytest.raises(ValueError, match="finite"):
            DomainBox(lower, upper)
    for lower, upper in (((-1e200, 0.0), (1e200, 1.0)), ((-1e308, 0.0), (1e308, 1.0))):
        with pytest.raises(ValueError, match="diameter"):
            DomainBox(lower, upper)


def test_box_geometry():
    box = DomainBox.from_bounds([(-2.0, 2.0), (0.0, 1.0)])
    assert box.dim == 2
    assert box.bounds == ((-2.0, 2.0), (0.0, 1.0))
    assert np.array_equal(box.center, [0.0, 0.5])
    assert box.diameter == pytest.approx(math.sqrt(17.0))
    assert box.contains([2.0, 1.0])
    assert not box.contains([2.1, 0.5])


def test_box_overlap():
    a = DomainBox.cube(0.0, 1.0, 2)
    b = DomainBox.from_bounds([(0.9, 2.0), (0.5, 2.0)])
    c = DomainBox.from_bounds([(1.0, 2.0), (0.0, 1.0)])  # shares only a face
    assert a.overlaps(b)
    assert not a.overlaps(c)


def test_boundary_grid_covers_faces():
    box = DomainBox.cube(-1.0, 1.0, 2)
    pts = box.boundary_grid(9)
    on_edge = np.isclose(np.abs(pts), 1.0).any(axis=1)
    assert on_edge.all()
    assert len(pts) == 4 * 9


# --- zero finding ----------------------------------------------------------

def test_find_zeros_cubic_line():
    # x(x-1)(x+1): three simple zeros, indices -1 at 0 and +1 at the pair
    field = handle(("x^3 - x",), ("x",))
    zeros = find_zeros(field, DomainBox.cube(-2.0, 2.0, 1))
    assert [round(z.location[0], 6) for z in zeros] == [-1.0, 0.0, 1.0]
    assert [z.index for z in zeros] == [1, -1, 1]
    assert all(z.residual <= 1e-10 for z in zeros)
    assert all(not z.degenerate for z in zeros)


def test_find_zeros_deduplicates_starts():
    field = handle(("x", "y"), ("x", "y"))
    zeros = find_zeros(field, SQUARE)
    assert len(zeros) == 1
    assert np.allclose(zeros[0].location, [0.0, 0.0], atol=1e-10)


def test_zero_record_index_matches_determinant_sign():
    field = handle(("x^3 - x", "y"), ("x", "y"))
    for z in find_zeros(field, SQUARE):
        assert z.index == (1 if z.jacobian_det > 0 else -1)


def test_local_index():
    ident = handle(("x", "y"), ("x", "y"))
    flip = handle(("-x", "y"), ("x", "y"))
    assert [z.index for z in find_zeros(ident, SQUARE)] == [1]
    assert [z.index for z in find_zeros(flip, SQUARE)] == [-1]


def test_local_index_rejects_singular_jacobian():
    # a zero whose |det| is below DEGENERATE_TOL has no index: marked, and refused by the sign-sum
    squared = handle(("x^2",), ("x",))
    [zero] = find_zeros(squared, DomainBox.cube(-1.0, 1.0, 1))
    assert zero.degenerate and zero.index == 0
    with pytest.raises(DegenerateZeroError):
        degree_sign_sum(squared, DomainBox.cube(-1.0, 1.0, 1))


def test_boundary_min_identity():
    field = handle(("x", "y"), ("x", "y"))
    box = DomainBox.cube(-1.0, 1.0, 2)
    # odd sample count hits the face centers where |F| = 1 exactly
    assert boundary_min(field, box, samples_per_face=65) == 1.0


# --- sign-sum degree --------------------------------------------------------

def test_degree_identity_field():
    res = degree_sign_sum(handle(("x", "y"), ("x", "y")), SQUARE)
    assert res.degree == 1
    assert res.method == "sign-sum"
    assert len(res.zeros) == 1
    assert res.boundary_min > 1.0


def test_degree_antipodal_parity():
    for m in range(1, 5):
        names = tuple(f"x{i}" for i in range(m))
        antipode = handle(tuple(f"-{n}" for n in names), names)
        assert degree_sign_sum(antipode, DomainBox.cube(-1.0, 1.0, m)).degree == (-1) ** m


def test_degree_planar_rotation():
    rot = handle(("-y", "x"), ("x", "y"))
    assert degree_sign_sum(rot, SQUARE).degree == 1


def test_degree_cubic_sum_of_indices():
    field = handle(("x^3 - x", "y"), ("x", "y"))
    res = degree_sign_sum(field, SQUARE)
    assert res.degree == 1
    assert sorted(z.index for z in res.zeros) == [-1, 1, 1]


def test_degree_empty_box_is_zero():
    shifted = handle(("x - 5", "y - 5"), ("x", "y"))
    res = degree_sign_sum(shifted, SQUARE)
    assert res.degree == 0
    assert res.zeros == []
    assert any("no zeros" in w for w in res.warnings)


def test_degree_rejects_boundary_zero():
    # zero pinned at a corner, which boundary sampling always hits
    field = handle(("x", "y + 1"), ("x", "y"))
    box = DomainBox.from_bounds([(0.0, 1.0), (-1.0, 1.0)])
    with pytest.raises(AdmissibilityError):
        degree_sign_sum(field, box)


def test_degree_rejects_degenerate_zero():
    squared = handle(("x^2",), ("x",))
    with pytest.raises(DegenerateZeroError):
        degree_sign_sum(squared, DomainBox.cube(-1.0, 1.0, 1))


# --- degree axioms (unit instances; the property suite runs in acceptance) --

def test_additivity_over_disjoint_subboxes():
    field = handle(("x^3 - x", "y"), ("x", "y"))
    whole = degree_sign_sum(field, SQUARE).degree
    parts = [
        DomainBox.from_bounds([(-1.5, -0.5), (-1.5, 1.5)]),
        DomainBox.from_bounds([(-0.5, 0.5), (-1.5, 1.5)]),
        DomainBox.from_bounds([(0.5, 1.5), (-1.5, 1.5)]),
    ]
    assert sum(degree_sign_sum(field, b).degree for b in parts) == whole


def test_excision_box_shrink():
    field = handle(("x^3 - x", "y"), ("x", "y"))
    big = degree_sign_sum(field, SQUARE).degree
    small = degree_sign_sum(field, DomainBox.cube(-1.2, 1.2, 2)).degree
    assert small == big


def test_perturbation_stability():
    field = handle(("x^3 - x", "y"), ("x", "y"))
    base = degree_sign_sum(field, SQUARE)
    eps = 0.5 * base.boundary_min
    bumped = handle((f"x^3 - x + {eps!r}", f"y - {eps!r}"), ("x", "y"))
    assert degree_sign_sum(bumped, SQUARE).degree == base.degree


# --- winding oracle ----------------------------------------------------------

def test_winding_matches_sign_sum_on_simple_fields():
    for sources in [("x", "y"), ("-y", "x"), ("x^3 - x", "y"), ("-x", "-y")]:
        field = handle(sources, ("x", "y"))
        assert degree_winding_2d(field, SQUARE) == degree_sign_sum(field, SQUARE).degree


def test_winding_complex_squaring_is_two():
    # (x+iy)^2 has one double zero; sign-sum cannot see it, winding can
    squaring = handle(("x^2 - y^2", "2*x*y"), ("x", "y"))
    assert degree_winding_2d(squaring, SQUARE) == 2
    assert brute_winding(squaring, SQUARE) == 2
    with pytest.raises(DegenerateZeroError):
        degree_sign_sum(squaring, SQUARE)


def test_winding_split_double_zero_agrees_with_sign_sum():
    # z^2 - 0.25: the double zero splits into two simple ones
    field = handle(("x^2 - y^2 - 0.25", "2*x*y"), ("x", "y"))
    assert degree_sign_sum(field, SQUARE).degree == 2
    assert degree_winding_2d(field, SQUARE) == 2


def test_winding_zero_outside_box():
    field = handle(("x - 5", "y"), ("x", "y"))
    assert degree_winding_2d(field, SQUARE) == 0


def test_winding_agrees_with_brute_oracle():
    rng = np.random.default_rng(977)
    for _ in range(5):
        a, b, c = (round(float(v), 3) for v in rng.uniform(-1.0, 1.0, size=3))
        sources = (f"x^3 - x + ({a!r})*y", f"y + ({b!r})*x + ({c!r})")
        field = handle(sources, ("x", "y"))
        try:
            expected = brute_winding(field, SQUARE)
        except ValueError:
            continue
        assert degree_winding_2d(field, SQUARE) == expected


def test_winding_rejects_boundary_zero():
    # zero pinned at the parameter-origin corner of the walk
    field = handle(("x + 1.5", "y + 1.5"), ("x", "y"))
    with pytest.raises(AdmissibilityError):
        degree_winding_2d(field, SQUARE)


def test_winding_requires_plane_field():
    line = handle(("x",), ("x",))
    with pytest.raises(ValueError):
        degree_winding_2d(line, DomainBox.cube(-1.0, 1.0, 1))


@pytest.mark.parametrize("newton_tol, dedup_radius", [
    (-1.0, None), (0.0, None), (math.nan, None), (math.inf, None),
    (1e-10, -1.0), (1e-10, math.nan), (1e-10, math.inf)])
def test_find_zeros_rejects_bad_tolerances(newton_tol, dedup_radius):
    # the only zero, (-5, 0), lies outside the box: a search that took a
    # negative radius would find nothing to merge instead of looping
    field = handle(("x + 5", "y"), ("x", "y"))
    with pytest.raises(ValueError):
        find_zeros(field, SQUARE, newton_tol=newton_tol, dedup_radius=dedup_radius)

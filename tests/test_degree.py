"""Degree by zero-enumeration sign-sum and the 2-D winding oracle.

Expected integers come from hand calculations on polynomial fields
(boundary sign changes in 1-D, holomorphic zero counts in 2-D) plus a
brute-force winding integral implemented independently below.
"""

import math
import re

import numpy as np
import pytest

from manideg import (
    AdmissibilityError,
    AmbientMap,
    DegenerateZeroError,
    DomainBox,
    DomainEvalError,
    NumericError,
    boundary_min,
    degree_sign_sum,
    degree_winding_2d,
    find_zeros,
)
from manideg import degree
from test_lockstep import _pin_cases

SQUARE = DomainBox.cube(-1.5, 1.5, 2)


def handle(sources, variables):
    return AmbientMap.from_expressions(sources, variables)


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
    # a point of the wrong size is refused, not read up to the shorter length
    for point in ([0.5], [0.5, 0.5, 99.0]):
        with pytest.raises(ValueError, match="2 coordinates"):
            DomainBox.cube(0.0, 1.0, 2).contains(point)


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


def test_polish_out_of_steps_keeps_its_last_iterate():
    # Newton on x^5 shrinks x by 4/5 a step, so polishing the converged start spends all
    # its steps; the iterate it keeps is a degenerate zero, which the degree refuses
    field = handle(("x^5", "y"), ("x", "y"))
    box = DomainBox.cube(-1.0, 1.0, 2)
    [zero] = find_zeros(field, box)
    assert zero.degenerate and abs(zero.location[0]) < 1e-7 and zero.location[1] == 0.0
    with pytest.raises(DegenerateZeroError):
        degree_sign_sum(field, box)


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


def reference_winding(field, box):
    """The winding's old walk, kept as its reference: 256 samples of a
    counterclockwise path parametrised over [0, 4), each refinement pass
    evaluating every sample again."""
    (x0, x1), (y0, y1) = box.bounds

    def path(ts):
        pts = np.empty((ts.size, 2))
        edge = np.floor(ts).astype(int)
        frac = ts - edge
        b = edge == 0
        pts[b, 0], pts[b, 1] = x0 + frac[b] * (x1 - x0), y0
        b = edge == 1
        pts[b, 0], pts[b, 1] = x1, y0 + frac[b] * (y1 - y0)
        b = edge == 2
        pts[b, 0], pts[b, 1] = x1 - frac[b] * (x1 - x0), y1
        b = edge == 3
        pts[b, 0], pts[b, 1] = x0, y1 - frac[b] * (y1 - y0)
        return pts

    ts = np.linspace(0.0, 4.0, 256, endpoint=False)
    for _ in range(degree._WINDING_MAX_PASSES):
        vals, valid = field.batch(path(ts))
        if not valid.all():
            raise DomainEvalError("the field is undefined at a boundary sample")
        if np.hypot(vals[:, 0], vals[:, 1]).min() <= degree._WINDING_ZERO_TOL:
            raise AdmissibilityError("the field vanishes on the boundary")
        angles = np.arctan2(vals[:, 1], vals[:, 0])
        diffs = np.diff(angles, append=angles[0])
        diffs -= 2.0 * np.pi * np.round(diffs / (2.0 * np.pi))
        too_big = np.abs(diffs) > 0.5 * np.pi
        if not too_big.any():
            winding = float(diffs.sum()) / (2.0 * np.pi)
            if abs(winding - round(winding)) > 0.25:
                raise NumericError("the winding is not close to an integer")
            return int(round(winding))
        nxt = np.roll(ts, -1).copy()
        nxt[-1] += 4.0
        ts = np.sort(np.concatenate([ts, (ts[too_big] + nxt[too_big]) / 2.0]))
        if ts.size > degree._WINDING_MAX_POINTS:
            break
    raise NumericError("the angle increments stay above pi/2")


QUINTIC = ("x^5 - 10*x^3*y^2 + 5*x*y^4", "5*x^4*y - 10*x^2*y^3 + y^5")  # Re z^5, Im z^5
# sin(20 x) crosses zero 25 times along y = -2 and along y = 2: the walk must refine
REFINING = ("sin(20*x)*cos(3*y) + 0.1", "cos(20*y) - 0.2*x")


def _winding_cases():
    for sources in [("x", "y"), ("-y", "x"), ("x^3 - x", "y"), ("-x", "-y"),
                    ("x^2 - y^2", "2*x*y"), ("x^2 - y^2 - 0.25", "2*x*y"), ("x - 5", "y"),
                    ("x + 1.5", "y + 1.5")]:
        yield ", ".join(sources), handle(sources, ("x", "y")), SQUARE
    rng = np.random.default_rng(977)  # the fields of test_winding_agrees_with_brute_oracle
    for _ in range(5):
        a, b, c = (round(float(v), 3) for v in rng.uniform(-1.0, 1.0, size=3))
        sources = (f"x^3 - x + ({a!r})*y", f"y + ({b!r})*x + ({c!r})")
        yield ", ".join(sources), handle(sources, ("x", "y")), SQUARE
    yield "Re z^5, Im z^5", handle(QUINTIC, ("x", "y")), DomainBox.cube(-1.0, 1.0, 2)
    yield "refining", handle(REFINING, ("x", "y")), DomainBox.cube(-2.0, 2.0, 2)
    # the seed maps of example-4-1 and 5-3, sin(9x), sin(9y) and the 2-D scan-like fields
    for name, field, box in _pin_cases():
        if box.dim == 2:
            yield name, field, box


@pytest.mark.parametrize("name, field, box", list(_winding_cases()),
                         ids=[name for name, _, _ in _winding_cases()])
def test_winding_matches_its_old_walk(name, field, box):
    try:
        want = reference_winding(field, box)
    except (AdmissibilityError, NumericError, DomainEvalError) as exc:
        with pytest.raises(type(exc)):
            degree_winding_2d(field, box)
    else:
        assert degree_winding_2d(field, box) == want


@pytest.mark.parametrize("sources, box, want", [
    (QUINTIC, DomainBox.cube(-1.0, 1.0, 2), 5),
    (("sin(9*x)", "sin(9*y)"), DomainBox.cube(-2.0, 2.0, 2), 1),
    (REFINING, DomainBox.cube(-2.0, 2.0, 2), 0),
], ids=["quintic", "sin(9x), sin(9y)", "refining"])
def test_winding_closed_forms(sources, box, want):
    assert degree_winding_2d(handle(sources, ("x", "y")), box) == want


def test_winding_refuses_increments_that_stay_above_a_quarter_turn(monkeypatch):
    # one pass cannot settle the refining field's boundary walk
    monkeypatch.setattr(degree, "_WINDING_MAX_PASSES", 1)
    with pytest.raises(NumericError, match="boundary angle increments stay above pi/2 after "
                                           "refinement"):
        degree_winding_2d(handle(REFINING, ("x", "y")), DomainBox.cube(-2.0, 2.0, 2))


def test_boundary_min_rejects_a_sample_outside_the_field_domain():
    field = handle(("log(x)", "y"), ("x", "y"))
    with pytest.raises(DomainEvalError,
                       match=re.escape("the field is undefined at the sample [-1. -1.]")):
        boundary_min(field, DomainBox.cube(-1.0, 1.0, 2))


def test_winding_starts_from_the_margin_samples_and_evaluates_only_new_points(monkeypatch):
    # the old walk sampled its own path and evaluated every sample again on each
    # pass: 1,774 rows over 6 batches on the refining field
    batches = []
    batch = AmbientMap.batch
    monkeypatch.setattr(AmbientMap, "batch",
                        lambda self, points, *args, **kw: batches.append(np.array(points))
                        or batch(self, points, *args, **kw))
    field, box = handle(REFINING, ("x", "y")), DomainBox.cube(-2.0, 2.0, 2)
    boundary_min(field, box)
    [margin] = batches
    batches.clear()
    assert degree_winding_2d(field, box) == 0
    assert sorted(map(tuple, batches[0])) == sorted(map(tuple, margin))
    assert len(batches) > 1 and sum(map(len, batches)) < 1774


@pytest.mark.parametrize("entry", [find_zeros, boundary_min, degree_sign_sum, degree_winding_2d])
@pytest.mark.parametrize("sources, box, message", [
    (("x", "y"), DomainBox.cube(-1.0, 1.0, 3), "3-D box, got a 2->2 map"),
    (("x", "y", "x*y"), SQUARE, "2-D box, got a 2->3 map"),
    (("x", "y + t"), SQUARE, "2-D box, got a time-dependent 2->2 map"),
], ids=["box-too-large", "not-square", "time-dependent"])
def test_degree_routines_reject_misshapen_fields(entry, sources, box, message):
    # each names the map's shape and the box's dimension instead of failing inside
    with pytest.raises(ValueError, match=message):
        entry(handle(sources, ("x", "y")), box)


@pytest.mark.parametrize("newton_tol, dedup_radius", [
    (-1.0, None), (0.0, None), (math.nan, None), (math.inf, None),
    (1e-10, -1.0), (1e-10, math.nan), (1e-10, math.inf)])
def test_find_zeros_rejects_bad_tolerances(newton_tol, dedup_radius):
    # the only zero, (-5, 0), lies outside the box: a search that took a
    # negative radius would find nothing to merge instead of looping
    field = handle(("x + 5", "y"), ("x", "y"))
    with pytest.raises(ValueError):
        find_zeros(field, SQUARE, newton_tol=newton_tol, dedup_radius=dedup_radius)


COUNTS = [(find_zeros, "grid_density"), (boundary_min, "samples_per_face"),
          (degree_sign_sum, "boundary_samples")]


@pytest.mark.parametrize("entry, name", COUNTS, ids=[name for _, name in COUNTS])
@pytest.mark.parametrize("value", [2.9, 8.0, "8", math.inf, math.nan, True],
                         ids=["fraction", "float", "string", "inf", "nan", "bool"])
def test_counts_must_be_integers(entry, name, value):
    # a fractional count used to run truncated without a word, a string to pass,
    # inf and nan to fail without naming the count, and True to count as 2
    field = handle(("x - 0.3", "y + 0.2"), ("x", "y"))
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        entry(field, SQUARE, **{name: value})


@pytest.mark.parametrize("entry, name", COUNTS, ids=[name for _, name in COUNTS])
def test_counts_below_two_count_as_two(entry, name):
    field = handle(("x - 0.3", "y + 0.2"), ("x", "y"))
    want = repr(entry(field, SQUARE, **{name: 2}))
    for value in (np.int64(1), 0, -3):
        assert repr(entry(field, SQUARE, **{name: value})) == want

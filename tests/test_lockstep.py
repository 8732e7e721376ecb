"""The lock-step multi-start Newton against the per-start search it replaced.

``oracle_zeros`` below is that per-start search: ``damped_newton`` from
each grid node in turn on per-point evaluations, a per-point polish, box
containment and dedup in grid order.  ``find_zeros`` runs every start at
once on batched evaluations, so it must find the same zero set with the
same indices.  A per-point call is a batch of one, so both searches
evaluate the maps on the same vector backend; a location may still move
in the last bits where a stacked linear solve or row norm rounds unlike
its per-point form.
"""

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from manideg import AmbientMap, DomainBox, FieldHandle, find_zeros
from manideg import cli, dae as dae_module, degree
from manideg.degree import _default_density, damped_newton
from manideg.errors import DomainEvalError, RootFindingError
from manideg.manifold import ImplicitConstraint, reduced_map
from manideg.problems import REGISTRY

EVAL_ERRORS = (DomainEvalError, OverflowError, ZeroDivisionError, FloatingPointError)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_degree_records.json")


# --- the per-start oracle ------------------------------------------------------

def _oracle_polish(field, x, fx, max_extra=60):
    for _ in range(max_extra):
        try:
            step = np.linalg.solve(np.asarray(field.jacobian(x), dtype=float), -fx)
        except (np.linalg.LinAlgError, *EVAL_ERRORS):
            return x
        if not np.all(np.isfinite(step)):
            return x
        if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(x)):
            return x
        xn = x + step
        try:
            fn = np.asarray(field(xn), dtype=float)
        except EVAL_ERRORS:
            return x
        if np.linalg.norm(fn) > max(4.0 * np.linalg.norm(fx), 1e-13):
            return x
        x, fx = xn, fn
    return x


def _oracle_newton(field, start, tol, max_iter, fence):
    def residual(x):
        return np.asarray(field(x), dtype=float)

    def newton_step(x, fx):
        if not fence.contains(x):
            raise RootFindingError("left the fence")
        step = np.linalg.solve(np.asarray(field.jacobian(x), dtype=float), -fx)
        if not np.all(np.isfinite(step)):
            raise RootFindingError("non-finite step")
        return step

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x, fx = damped_newton(residual, newton_step, np.array(start, dtype=float),
                                  tol, max_iter)
    except (RootFindingError, np.linalg.LinAlgError, *EVAL_ERRORS):
        return None
    if not fence.contains(x):
        return None
    return _oracle_polish(field, x, fx)


def oracle_zeros(field, box, grid_density=None, tol=1e-10, max_iter=60):
    """(location, index) of each zero, sorted, as the per-start search found them."""
    density = max(2, int(grid_density or _default_density(box.dim)))
    radius = 1e-6 * box.diameter
    width = np.subtract(box.upper, box.lower)
    fence = DomainBox.from_bounds(zip(box.lower - width, box.upper + width))
    accepted = []
    for start in box.grid(density):
        x = _oracle_newton(field, start, tol, max_iter, fence)
        if x is None or not box.contains(x):
            continue
        if all(np.linalg.norm(seen - x) > radius for seen in accepted):
            accepted.append(x)
    return [(x, 1 if np.linalg.det(field.jacobian(x)) > 0 else -1)
            for x in sorted(accepted, key=tuple)]


def assert_same_point(got, want):
    # within 4 ulp; a coordinate at roundoff level (an exact zero found
    # as 1e-17, say) within 1e-15
    slack = np.where(np.abs(want) < 1e-12, 1e-15, 4 * np.spacing(np.abs(want)))
    assert np.all(np.abs(got - want) <= slack), (got, want)


def assert_same_zeros(field, box, grid_density=None):
    want = oracle_zeros(field, box, grid_density)
    got = find_zeros(field, box, grid_density=grid_density)
    assert len(got) == len(want)
    for z, (location, index) in zip(got, want):
        assert z.index == index
        assert_same_point(z.location, location)
    return got


def scan_like(k, sines, constraint):
    # sine first components over a constraint cubic in y, as in the
    # benchmark's generated problems; the box is [-2, 2]^(k+1)
    names = ("x", "y") if k == 1 else ("x1", "x2", "y")
    box = DomainBox.cube(-2.0, 2.0, k + 1)
    con = ImplicitConstraint.from_expressions(k, 1, (constraint,), names, box)
    phi1 = AmbientMap.from_expressions(
        tuple(f"sin({a!r}*{x} - {b!r})" for x, (a, b) in zip(names, sines)), names)
    return reduced_map(phi1, con), box


# --- oracle equivalence ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_bundled_problems_match_the_per_start_search(name):
    problem = REGISTRY[name]
    field = reduced_map(problem.build_phi1(), problem.build_constraint())
    assert len(assert_same_zeros(field, problem.domain())) == 1


def test_missed_zero_defect_is_unchanged():
    # 121 true zeros; the default 16 x 16 grid finds 109 of them either way
    field = FieldHandle.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y"))
    assert len(assert_same_zeros(field, DomainBox.cube(-2.0, 2.0, 2))) == 109


@pytest.mark.parametrize("count, b, c, e", [
    (5, 0.7, 1.3, 0.4), (13, 2.1, 0.6, 0.9), (17, 1.2, 1.9, 0.1)])
def test_sine_cubic_problems_match_the_per_start_search(count, b, c, e):
    field, box = scan_like(1, [(math.pi * count / 4, b)], f"y^3 + y - {c!r}*x + {e!r}*x^2")
    assert len(assert_same_zeros(field, box)) > 0


@pytest.mark.parametrize("counts", [(3, 3), (6, 7)])
def test_sine_cubic_problems_in_3d_match_the_per_start_search(counts):
    sines = [(math.pi * counts[0] / 4, 0.9), (math.pi * counts[1] / 4, 2.3)]
    field, box = scan_like(2, sines, "y^3 + y - 1.1*x1 - 0.7*x2 + 0.3*x1*x2")
    assert len(assert_same_zeros(field, box)) > 0


def test_every_start_ends_where_its_per_start_run_ends():
    # stronger than equal zero sets: each start converges (or is abandoned)
    # exactly as its own per-start run does, at the same point
    cases = [
        (FieldHandle.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y")),
         DomainBox.cube(-2.0, 2.0, 2)),
        (FieldHandle.from_expressions(("x^3 - 2*x + 2 + y", "y^3 - x"), ("x", "y")),
         DomainBox.cube(-3.0, 3.0, 2)),
    ]
    for name in ("example-5-2", "example-5-7"):
        problem = REGISTRY[name]
        cases.append((reduced_map(problem.build_phi1(), problem.build_constraint()),
                      problem.domain()))
    for field, box in cases:
        starts = box.grid(_default_density(box.dim))
        width = np.subtract(box.upper, box.lower)
        fence = DomainBox.from_bounds(zip(box.lower - width, box.upper + width))
        want = [_oracle_newton(field, s, 1e-10, 60, fence) for s in starts]
        with np.errstate(over="ignore", invalid="ignore"):
            x, fx, converged = degree._lockstep_newton(field, starts.copy(), 1e-10, 60, fence)
            polished = degree._polish(field, x[converged], fx[converged])
        assert converged.tolist() == [w is not None for w in want]
        for got, location in zip(polished, [w for w in want if w is not None]):
            assert_same_point(got, location)


# --- per-start isolation -----------------------------------------------------------

def test_starts_outside_the_domain_are_dropped_quietly():
    # log is undefined for x <= -1, sqrt for y < -1.5 and the division on
    # the grid line x = -2: part of the start grid cannot be evaluated
    field = FieldHandle.from_expressions(
        ("log(x + 1) + y / (x + 2)", "sqrt(y + 1.5) - sqrt(1.5) + x"), ("x", "y"))
    box = DomainBox.cube(-2.0, 2.0, 2)
    values, valid = field.batch(box.grid(16))
    assert 0 < valid.sum() < len(valid)
    assert np.isnan(values[~valid]).any(axis=1).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeros = assert_same_zeros(field, box)
    assert any(np.allclose(z.location, 0.0, atol=1e-12) for z in zeros)


def test_singular_jacobian_at_one_start_keeps_the_others():
    # J = [[2x, 2y], [1, -c]] is exactly singular at the grid node (0, 0)
    # only, which fails the stacked solve of that iteration
    c = 1.4142135623730951
    field = FieldHandle.from_expressions(("x^2 + y^2 - 1", f"x - {c!r}*y"), ("x", "y"))
    box = DomainBox.cube(-2.0, 2.0, 2)
    jac, valid = field.batch(box.grid(5), jacobian=True)
    assert valid.all() and np.sum(np.linalg.det(jac) == 0.0) == 1
    zeros = assert_same_zeros(field, box, grid_density=5)
    y = 1.0 / math.sqrt(1.0 + c * c)
    assert np.allclose([z.location for z in zeros], [[-c * y, -y], [c * y, y]])


def test_callable_field_finds_the_zeros_of_its_expression_form():
    sources = ("sin(3*x) - y", "x^2 + y^2 - 1")
    expression = FieldHandle.from_expressions(sources, ("x", "y"))
    callable_ = FieldHandle.from_callable(
        2, lambda p: np.array([np.sin(3 * p[0]) - p[1], p[0] ** 2 + p[1] ** 2 - 1]),
        jac=lambda p: np.array([[3 * np.cos(3 * p[0]), -1.0], [2 * p[0], 2 * p[1]]]))
    box = DomainBox.cube(-1.5, 1.5, 2)
    want = find_zeros(expression, box)
    got = assert_same_zeros(callable_, box)
    assert len(got) == len(want) == 6
    for a, b in zip(got, want):
        assert a.index == b.index
        assert np.allclose(a.location, b.location, atol=1e-12)


def test_blocked_and_unblocked_averages_agree_bit_for_bit(monkeypatch):
    problem = REGISTRY["example-5-7"]
    dae = problem.build_dae()
    points = problem.domain().grid(6)  # 1,296 points, six blocks by default
    maps = {}
    for label, block in (("default", dae_module._AVERAGE_BLOCK_VALUES),
                         ("unblocked", 10 ** 9), ("small", 7 * 64)):
        monkeypatch.setattr(dae_module, "_AVERAGE_BLOCK_VALUES", block)
        maps[label] = dae_module.average_wind(dae, 64)[0]
    want = {}
    for jacobian in (False, True):
        want[jacobian], valid = maps["unblocked"].batch(points, jacobian)
        assert valid.all()
        for label in ("default", "small"):
            got, _ = maps[label].batch(points, jacobian)
            assert np.array_equal(got, want[jacobian]), label


# --- golden degree records -----------------------------------------------------------

EXACT_KEYS = {"degree", "manifold_degree", "partial2_sign", "index", "method",
              "problem", "warnings"}


def _assert_record_matches(got, want, key=""):
    if key in EXACT_KEYS:
        assert got == want, key
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), key
        for k in want:
            _assert_record_matches(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want), key  # zero counts, coordinates
        for g, w in zip(got, want):
            _assert_record_matches(g, w, key)
    else:
        # floats to a relative 1e-13; values at roundoff level (residuals,
        # coordinates of exact zeros) to 1e-14 absolutely
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14), key


with open(GOLDEN, encoding="utf-8") as _fh:
    GOLDEN_RECORDS = json.load(_fh)


@pytest.mark.parametrize("command", sorted(GOLDEN_RECORDS))
def test_degree_record_matches_golden(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    _assert_record_matches(json.loads(out.getvalue()), GOLDEN_RECORDS[command])

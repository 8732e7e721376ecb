"""The lock-step multi-start Newton against the per-start search it replaced.

``oracle_zeros`` below is that per-start search: ``damped_newton`` from
each grid node in turn on per-point evaluations, a per-point polish, box
containment and dedup in grid order.  ``find_zeros`` runs every start at
once on batched evaluations, so it must find the same zero set with the
same indices.  A per-point call is a batch of one, so both searches
evaluate the maps on the same vector backend; a location may still move
in the last bits where a stacked linear solve or row norm rounds unlike
its per-point form.

``oracle_lockstep_newton`` is the lock-step search as it was with one
batch per step-halving level; ``degree._lockstep_newton``, which tries the
levels a chunk per batch, must end every start bit for bit where it does.

``reference_zeros`` is ``find_zeros`` as it was when every converged start
was polished before the box filter and dedup; ``find_zeros``, which polishes
one start per group of duplicates, must give the same records exactly.

``oracle_solve_y`` is the y-projection built on the same ``damped_newton``,
as it ran before the projection became generated code; the generated
y-solve and projected step must match it bit for bit.  With several
constraint equations its Newton steps solve by ``oracle_elimination``,
Gaussian elimination with partial pivoting in plain loops; numpy's LAPACK
solves, which the step code called before, remain a second reference that
the generated code must stay near.

``oracle_shot`` is ``flow_map`` as it was with one call per projected step
(``oracle_step``) and the halving recursion around each; a shot, which runs
its steps in one generated call, must match it bit for bit.

``oracle_stage`` is a field's velocity and linearisation by the arithmetic of
the step code as it was generated before literal and structural-zero
arithmetic was folded out of it: every partial a tree has, however constant,
is computed (1.0 * x, 0.5 * 1.0, ...), and an absent one is the literal 0.0
that the sums and products then meet (u + lam * 0.0, 0.0 / pivot, ...), and
with several constraint equations the completion and slave matrix solve by
``oracle_elimination``.  The folded stages and steps must equal it as floats,
bit for bit wherever a value is not zero, and raise the same errors.
"""

import ast
import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from manideg import AmbientMap, DomainBox, find_zeros, flow_map, implicit_solve_y
from manideg import cli, dae as dae_module, degree, expr, flow, manifold
from manideg.degree import _default_density
from manideg.continuation import DEFAULT_TRACE_STEPS_PER_PERIOD
from manideg.errors import (
    DomainEscapeError, DomainEvalError, IntegrationError, ManidegError, NumericError,
    RegularityError, RootFindingError,
)
from manideg.manifold import Y_SOLVE_TOL, ForcedField, ImplicitConstraint, reduced_map
from manideg.problems import REGISTRY
from test_expr import _chain
from test_flow import callable_spring_field, duffing_field, generated_shots, named_field

EVAL_ERRORS = (DomainEvalError, OverflowError, ZeroDivisionError, FloatingPointError)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_degree_records.json")


# --- the per-start oracle ------------------------------------------------------

def damped_newton(residual, newton_step, x, tol, max_iter, norm=np.linalg.norm):
    """Residual-halving Newton iteration from ``x``.

    ``residual(x)`` is the vector driven to zero and ``newton_step(x, fx)``
    the full Newton step at ``x``, which is always the point of the latest
    ``residual`` call; ``norm`` measures the residual (``abs`` for a
    scalar unknown).  A step is halved, up to 20 times,
    until the residual norm decreases; an evaluation error while halving
    counts as an infinite residual, and so does a norm that overflows.
    Returns ``(x, residual(x))`` once the norm is at most ``tol``, checked
    before each of the ``max_iter`` steps and after the last.  Callers
    iterating on numpy arrays run it with over/invalid warnings off.

    Raises :class:`RootFindingError` on a step no halving improves or a
    residual still above ``tol`` at the cap; errors from ``newton_step``
    propagate.
    """
    fx = residual(x)
    r = norm(fx)
    for _ in range(max_iter):
        if r <= tol:
            return x, fx
        step = newton_step(x, fx)
        scale = 1.0
        for _ in range(20):
            xn = x + scale * step
            try:
                fn = residual(xn)
                rn = norm(fn)
            except EVAL_ERRORS:
                rn = np.inf
            if rn < r:
                break
            scale *= 0.5
        else:
            raise RootFindingError(f"Newton stalled at residual {r:.3e}")
        x, fx, r = xn, fn, rn
    if r <= tol:
        return x, fx
    raise RootFindingError(
        f"Newton did not reach tolerance {tol:.1e} "
        f"(residual {r:.3e} after {max_iter} iterations)"
    )


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
    field = AmbientMap.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y"))
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
        (AmbientMap.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y")),
         DomainBox.cube(-2.0, 2.0, 2)),
        (AmbientMap.from_expressions(("x^3 - 2*x + 2 + y", "y^3 - x"), ("x", "y")),
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
            polished, _ = degree._polish(field, x[converged], fx[converged])
        assert converged.tolist() == [w is not None for w in want]
        for got, location in zip(polished, [w for w in want if w is not None]):
            assert_same_point(got, location)


# --- per-start isolation -----------------------------------------------------------

def partly_undefined_field():
    # log is undefined for x <= -1, sqrt for y < -1.5 and the division on
    # the grid line x = -2: part of the 16 x 16 start grid on [-2, 2]^2
    # cannot be evaluated
    return AmbientMap.from_expressions(
        ("log(x + 1) + y / (x + 2)", "sqrt(y + 1.5) - sqrt(1.5) + x"), ("x", "y"))


SINGULAR_C = 1.4142135623730951


def singular_at_the_center_field():
    # J = [[2x, 2y], [1, -c]] is exactly singular at the node (0, 0) of the
    # 5 x 5 start grid on [-2, 2]^2 only, which fails the stacked solve
    return AmbientMap.from_expressions(("x^2 + y^2 - 1", f"x - {SINGULAR_C!r}*y"), ("x", "y"))


def test_starts_outside_the_domain_are_dropped_quietly():
    field = partly_undefined_field()
    box = DomainBox.cube(-2.0, 2.0, 2)
    values, valid = field.batch(box.grid(16))
    assert 0 < valid.sum() < len(valid)
    assert np.isnan(values[~valid]).any(axis=1).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeros = assert_same_zeros(field, box)
    assert any(np.allclose(z.location, 0.0, atol=1e-12) for z in zeros)


def test_singular_jacobian_at_one_start_keeps_the_others():
    c = SINGULAR_C
    field = singular_at_the_center_field()
    box = DomainBox.cube(-2.0, 2.0, 2)
    jac, valid = field.batch(box.grid(5), jacobian=True)
    assert valid.all() and np.sum(np.linalg.det(jac) == 0.0) == 1
    zeros = assert_same_zeros(field, box, grid_density=5)
    y = 1.0 / math.sqrt(1.0 + c * c)
    assert np.allclose([z.location for z in zeros], [[-c * y, -y], [c * y, y]])


def test_callable_field_finds_the_zeros_of_its_expression_form():
    sources = ("sin(3*x) - y", "x^2 + y^2 - 1")
    expression = AmbientMap.from_expressions(sources, ("x", "y"))
    callable_ = AmbientMap.from_callable(
        2, 2, lambda p: np.array([np.sin(3 * p[0]) - p[1], p[0] ** 2 + p[1] ** 2 - 1]),
        jac=lambda p: np.array([[3 * np.cos(3 * p[0]), -1.0], [2 * p[0], 2 * p[1]]]))
    box = DomainBox.cube(-1.5, 1.5, 2)
    want = find_zeros(expression, box)
    got = assert_same_zeros(callable_, box)
    assert len(got) == len(want) == 6
    for a, b in zip(got, want):
        assert a.index == b.index
        assert np.allclose(a.location, b.location, atol=1e-12)


def test_blocked_and_unblocked_averages_agree_bit_for_bit(monkeypatch):
    # example-5-7's forcing with t and y2 inside one cosine, which the term-by-term
    # average cannot separate, so the average is sampled
    problem = REGISTRY["example-5-7"]
    sigma = AmbientMap.from_expressions(("y2 + cos(t + y2)", "y1 - 2*cos(t)^2"),
                                        problem.variables)
    dae = ForcedField(problem.build_constraint(), sigma=sigma, period=problem.period)
    points = problem.domain().grid(6)  # 1,296 points, six blocks by default
    maps = {}
    for label, block in (("default", dae_module._AVERAGE_BLOCK_VALUES),
                         ("unblocked", 10 ** 9), ("small", 7 * 64)):
        monkeypatch.setattr(dae_module, "_AVERAGE_BLOCK_VALUES", block)
        maps[label] = dae_module.average_wind(dae, 64)
        assert maps[label].asts is None  # the sampled map, not an expression map
    want = {}
    for jacobian in (False, True):
        want[jacobian], valid = maps["unblocked"].batch(points, jacobian)
        assert valid.all()
        for label in ("default", "small"):
            got, _ = maps[label].batch(points, jacobian)
            assert np.array_equal(got, want[jacobian]), label


# --- halvings a chunk of levels per batch against one level per batch --------------------

def oracle_lockstep_newton(field, x, tol, max_iter, fence, levels=None):
    """``degree._lockstep_newton`` as it was with one batch per halving
    level; ``levels`` collects each improving level taken, and -1 per stall."""
    fx, valid = field.batch(x)
    r = degree._residual_norms(fx, valid)
    live = np.isfinite(r)
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(max_iter):
        done = live & (r <= tol)
        converged |= done
        live &= ~done & degree._inside(fence, x)
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        steps = degree._newton_steps(field, x[rows], fx[rows])
        finite = np.isfinite(steps).all(axis=1)
        live[rows[~finite]] = False
        rows, steps = rows[finite], steps[finite]
        scale = 1.0
        for level in range(20):
            if not rows.size:
                break
            xn = x[rows] + scale * steps
            fn, valid = field.batch(xn)
            rn = degree._residual_norms(fn, valid)
            better = rn < r[rows]
            took = rows[better]
            x[took], fx[took], r[took] = xn[better], fn[better], rn[better]
            rows, steps = rows[~better], steps[~better]
            scale *= 0.5
            if levels is not None:
                levels.extend([level] * len(took))
        live[rows] = False
        if levels is not None:
            levels.extend([-1] * len(rows))
    else:
        converged |= live & (r <= tol)
    return x, fx, converged & degree._inside(fence, x)


def _mirror_field(m):
    # F = x^2 + 1 with a Jacobian 2^(m-1) times too small: from x = 1 the step
    # is -2^m, so halving level m - 1 lands on -1, where |F| ties with 2
    def jac(p):
        x = float(p[0])
        return np.array([[(x * x + 1.0) / (2.0 ** m * x)]])
    return AmbientMap.from_callable(1, 1, lambda p: np.array([p[0] ** 2 + 1.0]), jac=jac)


def _lockstep_cases():
    # (name, field, starts, fence), the starts and fence as find_zeros sets them
    # up, apart from the fields without zeros, which start at x = 1
    cases = []
    for name in ("example-4-1", "example-5-2", "example-5-7"):
        problem = REGISTRY[name]
        cases.append((name, reduced_map(problem.build_phi1(), problem.build_constraint()),
                      problem.domain(), None))
    square = DomainBox.cube(-2.0, 2.0, 2)
    cases.append(("sin(9x), sin(9y)",
                  AmbientMap.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y")), square, None))
    # a cubic whose starts far out need many halvings, evaluated point by point
    cases.append(("callable", AmbientMap.from_callable(
        2, 2, lambda p: np.array([p[0] ** 3 - 2 * p[0] + 2 + p[1], p[1] ** 3 - p[0]])),
        DomainBox.cube(-3.0, 3.0, 2), None))
    # starts that never evaluate, and a start whose step is not finite
    cases.append(("partly undefined", partly_undefined_field(), square, 16))
    cases.append(("singular at the center", singular_at_the_center_field(), square, 5))
    for name, field, box, density in cases:
        width = np.subtract(box.upper, box.lower)
        fence = DomainBox.from_bounds(zip(box.lower - width, box.upper + width))
        yield name, field, box.grid(density or _default_density(box.dim)), fence
    for m in (1, 2, 6):  # ties at the full step, in the first chunk and in the second
        yield f"mirror {m}", _mirror_field(m), np.array([[1.0], [3.0]]), DomainBox.cube(-4, 4, 1)


@pytest.mark.parametrize("few_live", [None, 0, 10 ** 9],
                         ids=["default", "never one batch", "one batch after every deep"])
def test_chunked_halvings_match_one_level_per_batch_bit_for_bit(monkeypatch, few_live):
    # _FEW_LIVE = 0 keeps the full step and the two chunks in every iteration;
    # 10**9 tries all 20 scales in one batch after every iteration that ran
    # halvings 4-19, however many starts are live
    if few_live is not None:
        monkeypatch.setattr(degree, "_FEW_LIVE", few_live)
    levels = []
    for name, field, starts, fence in _lockstep_cases():
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracle_lockstep_newton(field, starts.copy(), 1e-10, degree.NEWTON_MAX_ITER,
                                          fence, levels)
            got = degree._lockstep_newton(field, starts.copy(), 1e-10, degree.NEWTON_MAX_ITER,
                                          fence)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    # every chunk is exercised: levels taken in each of them, and stalls
    levels = np.array(levels)
    assert all(np.any((levels >= lo) & (levels <= hi))
               for lo, hi in ((0, 0), (1, 3), (4, 19), (-1, -1)))


def test_chunked_halvings_cut_the_batch_calls(monkeypatch):
    # example-4-1's starts take many halvings: one batch per level made 424 calls,
    # the full step and two chunks per iteration 109, and one batch of all 20
    # scales for its tail of a few deeply halving starts makes 71
    problem = REGISTRY["example-4-1"]
    field = reduced_map(problem.build_phi1(), problem.build_constraint())
    calls = []
    batch = type(field).batch
    monkeypatch.setattr(type(field), "batch",
                        lambda self, *args, **kw: calls.append(args) or batch(self, *args, **kw))
    assert len(find_zeros(field, problem.domain())) == 1
    assert len(calls) <= 75


def test_few_deep_live_starts_try_every_scale_in_one_batch(monkeypatch):
    # example-4-1 ends in a tail of a few starts that halve deep in every
    # iteration: a Jacobian batch of k rows is followed by one batch of 20 k rows
    problem = REGISTRY["example-4-1"]
    field = reduced_map(problem.build_phi1(), problem.build_constraint())
    sizes = []
    batch = type(field).batch
    monkeypatch.setattr(type(field), "batch",
                        lambda self, points, jacobian=False:
                        sizes.append((len(points), jacobian)) or batch(self, points, jacobian))
    find_zeros(field, problem.domain())
    assert any(jac and not next_jac and n == 20 * k <= 20 * degree._FEW_LIVE
               for (k, jac), (n, next_jac) in zip(sizes, sizes[1:]))


def test_zero_search_evaluates_no_empty_batch(monkeypatch):
    # the polish stops before a batch of zero rows once every start has left it,
    # and a search that finds no zero samples none
    cases = [(reduced_map(p.build_phi1(), p.build_constraint()), p.domain())
             for p in REGISTRY.values()]
    square = DomainBox.cube(-2.0, 2.0, 2)
    cases.append((AmbientMap.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y")), square))
    cases.append((AmbientMap.from_expressions(("x^2 + 1", "y"), ("x", "y")), square))
    sizes = []
    batch = AmbientMap.batch
    monkeypatch.setattr(AmbientMap, "batch",
                        lambda self, points, *args, **kw: sizes.append(len(points))
                        or batch(self, points, *args, **kw))
    for field, box in cases:
        find_zeros(field, box)
    assert len(sizes) > 300 and min(sizes) > 0


# --- one polish per group of converged starts against a polish of every start ---------

def reference_zeros(field, box):
    """(location, residual, jacobian_det, index, degenerate) of each zero, as
    ``find_zeros`` found them by polishing every converged start before the box
    filter and dedup, and sampling the values and Jacobians at the zeros."""
    width = np.subtract(box.upper, box.lower)
    fence = degree._Fence(box.lower - width, box.upper + width)
    with np.errstate(over="ignore", invalid="ignore"):
        x, fx, converged = degree._lockstep_newton(
            field, box.grid(_default_density(box.dim)), 1e-10, degree.NEWTON_MAX_ITER, fence)
        x, _ = degree._polish(field, x[converged], fx[converged])
    rest, accepted = x[degree._inside(box, x)], []
    while len(rest):
        accepted.append(rest[0])
        rest = rest[degree._norms(rest - rest[0]) > 1e-6 * box.diameter]
    if not accepted:
        return []
    zeros = np.array(sorted(accepted, key=tuple))
    values, _ = field.batch(zeros)
    jac, _ = field.batch(zeros, jacobian=True)
    records = []
    for z, residual, det in zip(zeros, degree._norms(values).tolist(),
                                np.linalg.det(jac).tolist()):
        degenerate = abs(det) < degree.DEGENERATE_TOL
        records.append((z.tolist(), residual, det,
                        0 if degenerate else (1 if det > 0 else -1), degenerate))
    return records


def _pin_cases():
    for name in sorted(REGISTRY):
        problem = REGISTRY[name]
        yield name, reduced_map(problem.build_phi1(), problem.build_constraint()), \
            problem.domain()
    yield ("sin(9x), sin(9y)", AmbientMap.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y")),
           DomainBox.cube(-2.0, 2.0, 2))
    for count, b, c, e in ((5, 0.7, 1.3, 0.4), (13, 2.1, 0.6, 0.9), (17, 1.2, 1.9, 0.1)):
        yield (f"scan-like {count}",
               *scan_like(1, [(math.pi * count / 4, b)], f"y^3 + y - {c!r}*x + {e!r}*x^2"))
    for counts in ((3, 3), (6, 7)):
        sines = [(math.pi * counts[0] / 4, 0.9), (math.pi * counts[1] / 4, 2.3)]
        yield (f"scan-like {counts}",
               *scan_like(2, sines, "y^3 + y - 1.1*x1 - 0.7*x2 + 0.3*x1*x2"))
    # a double zero, zeros a fraction of the radius apart and zeros a few radii apart
    for sources in (("x^2", "y"), ("x^2 - 1e-14", "y"), ("x^2 - 1e-11", "y"),
                    ("x^3 - 1e-12*x", "y"), ("x^2 - 4e-12", "y^2 - 4e-12")):
        yield (", ".join(sources), AmbientMap.from_expressions(sources, ("x", "y")),
               DomainBox.cube(-1.0, 1.0, 2))
    # zeros on the box faces, which converged starts reach from either side
    yield ("x^3 - x, y^2 - 1", AmbientMap.from_expressions(("x^3 - x", "y^2 - 1"), ("x", "y")),
           DomainBox.cube(-1.0, 1.0, 2))
    yield ("sin(3x), sin(3y)", AmbientMap.from_expressions(("sin(3*x)", "sin(3*y)"), ("x", "y")),
           DomainBox.cube(-math.pi / 3, math.pi / 3, 2))


@pytest.mark.parametrize("name, field, box", list(_pin_cases()),
                         ids=[name for name, _, _ in _pin_cases()])
def test_one_polish_per_group_finds_what_polishing_every_start_finds(name, field, box):
    got = [(z.location.tolist(), z.residual, z.jacobian_det, z.index, z.degenerate)
           for z in find_zeros(field, box)]
    assert got == reference_zeros(field, box)


def test_polish_evaluates_one_start_per_group(monkeypatch):
    # polishing every converged start took 3,805 Jacobian and 582 value rows over
    # the six bundled searches, most of them at duplicates of one zero
    rows, polishing = {False: 0, True: 0}, []
    batch, polish = AmbientMap.batch, degree._polish

    def counted_batch(self, points, jacobian=False):
        if polishing:
            rows[jacobian] += len(points)
        return batch(self, points, jacobian)

    def counted_polish(*args, **kw):
        polishing.append(True)
        try:
            return polish(*args, **kw)
        finally:
            polishing.pop()

    monkeypatch.setattr(AmbientMap, "batch", counted_batch)
    monkeypatch.setattr(degree, "_polish", counted_polish)
    zeros = 0
    for problem in REGISTRY.values():
        field = reduced_map(problem.build_phi1(), problem.build_constraint())
        zeros += len(find_zeros(field, problem.domain()))
    assert zeros == 6
    assert 0 < rows[True] <= 4 * zeros and rows[False] <= 2 * zeros


# --- the y-projection against the same loop -------------------------------------------

def _oracle_g(constraint):
    # g and its y-partials d g_i / d y_j (row by row) at a point, as the y-Newton
    # step took them: the scalar expression backend on g's trees, or a callable's flat
    gm, k, n, s = constraint.gmap, constraint.k, constraint.dim, constraint.s
    if gm.asts is None:
        def d_y(p):
            jet = gm.flat(p, 0.0, True)
            return [jet[i * (n + 1) + 1 + j] for i in range(s) for j in range(k, n)]
        return gm.flat, d_y
    value = expr.compile_value(gm.asts, gm.variables)
    jet = expr.compile_gradient(gm.asts, gm.variables, gm.variables[k:])
    return (lambda p: value(*p),
            lambda p: [d for i, d in enumerate(jet(*p)) if i % (s + 1)])


def oracle_elimination(m, b, error):
    """x with m x = b for the float lists m (by rows) and b: Gaussian elimination with
    partial pivoting in plain loops.  Each row below the diagonal is swapped with the
    pivot row where its entry in the pivot column is larger in magnitude, and a zero
    pivot raises ``error``."""
    s = len(m)
    rows = [[*row, v] for row, v in zip(m, b)]
    for j in range(s):
        for i in range(j + 1, s):
            if abs(rows[i][j]) > abs(rows[j][j]):
                rows[i], rows[j] = rows[j], rows[i]
        if rows[j][j] == 0.0:
            raise error
        for i in range(j + 1, s):
            factor = rows[i][j] / rows[j][j]
            for c in range(j + 1, s + 1):
                rows[i][c] -= factor * rows[j][c]
    x = [0.0] * s
    for i in reversed(range(s)):
        total = rows[i][s]
        for c in range(i + 1, s):
            total -= rows[i][c] * x[c]
        x[i] = total / rows[i][i]
    return x


def oracle_solve_y(constraint, x, y, max_iter=50, lapack=False):
    """(y, |g|) of the y-solve at the float lists ``x`` and ``y``: ``damped_newton``,
    then the domain box with the escape margin.  For s > 1 the steps solve by
    ``oracle_elimination`` and |g| is ``math.hypot``'s, or with ``lapack`` numpy's
    solve and norm, as the generated code computed them before."""
    value, d_y = _oracle_g(constraint)
    s = constraint.s
    singular = f"singular d_y g during y-solve at x = {x}"
    if s == 1:
        def newton_step(yv, gv):
            d = d_y(x + [yv])[0]
            if d == 0.0:
                raise RootFindingError(singular)
            return -gv / d

        yv, gv = damped_newton(lambda yv: value(x + [yv])[0], newton_step, y[0],
                               Y_SOLVE_TOL, max_iter, norm=abs)
        y, drift = [yv], abs(gv)
    elif lapack:
        def newton_step(yv, gv):
            try:
                return np.linalg.solve(np.array(d_y(x + yv.tolist())).reshape(s, s), -gv)
            except np.linalg.LinAlgError:
                raise RootFindingError(singular) from None

        with np.errstate(over="ignore", invalid="ignore"):
            yv, gv = damped_newton(lambda yv: np.array(value(x + yv.tolist())), newton_step,
                                   np.array(y), Y_SOLVE_TOL, max_iter)
            drift = float(np.linalg.norm(gv))
        y = yv.tolist()
    else:
        def newton_step(yv, gv):
            m = np.array(d_y(x + yv.tolist())).reshape(s, s).tolist()
            return np.array(oracle_elimination(m, [-v for v in gv], RootFindingError(singular)))

        with np.errstate(over="ignore", invalid="ignore"):  # the arrays' y + scale * step
            yv, gv = damped_newton(lambda yv: value(x + yv.tolist()), newton_step, np.array(y),
                                   Y_SOLVE_TOL, max_iter, norm=lambda g: math.hypot(*g))
        y, drift = yv.tolist(), math.hypot(*gv)
    box, margin = constraint.domain, constraint.escape_margin
    if not all(lo - margin <= v <= hi + margin for v, lo, hi in zip(x + y, box.lower, box.upper)):
        raise DomainEscapeError(f"y-solve at x = {x} converged to {y}, outside the domain box")
    return y, drift


def _outcome(solve, *args):
    # the result, or the class and message of the error raised
    try:
        return solve(*args)
    except (RootFindingError, *EVAL_ERRORS) as exc:
        return type(exc), str(exc)


def _random_points(box, count, seed, widen=1.0):
    # uniform in ``box`` scaled by ``widen`` about its centre, as float lists
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box.lower), np.array(box.upper)
    mid, half = (lo + hi) / 2.0, widen * (hi - lo) / 2.0
    return rng.uniform(mid - half, mid + half, size=(count, box.dim)).tolist()


def assert_solve_y_matches_oracle(constraint, count, seed, max_iter):
    k = constraint.k
    solve = constraint._code["solve_y"]
    kinds = set()
    for p in _random_points(constraint.domain, count, seed, widen=1.5):
        x, y = p[:k], p[k:]
        want = _outcome(oracle_solve_y, constraint, x, y, max_iter)
        assert _outcome(solve, max_iter, *x, *y) == want, (x, y)
        kinds.add(want[0] if isinstance(want[0], type) else "solved")
    return kinds


@pytest.mark.parametrize("max_iter", [50, 1, 2])
def test_spring_solve_y_matches_the_oracle(max_iter):
    constraint = REGISTRY["example-5-5"].build_constraint()
    kinds = assert_solve_y_matches_oracle(constraint, 2000, 11, max_iter)
    # a cap of one or two steps cuts every iteration from these guesses
    assert ({"solved", DomainEscapeError} if max_iter == 50 else {RootFindingError}) <= kinds


@pytest.mark.parametrize("g", ["y^2 - x", "exp(4*y) - x", "log(y) - x"])
def test_failing_solve_y_matches_the_oracle(g):
    # no root for x < 0 (a stall or a zero d_y g), overflow and log of y <= 0 while
    # halving (an infinite |g|), and a start where g does not evaluate
    constraint = ImplicitConstraint.from_expressions(
        1, 1, (g,), ("x", "y"), DomainBox.cube(-2.0, 2.0, 2))
    kinds = set()
    for max_iter in (50, 1, 2):
        kinds |= assert_solve_y_matches_oracle(constraint, 500, 15, max_iter)
    assert {"solved", RootFindingError} <= kinds


def test_callable_solve_y_matches_the_oracle():
    constraint = callable_spring_field().constraint
    assert constraint.gmap.asts is None
    for max_iter in (50, 1, 2):
        assert_solve_y_matches_oracle(constraint, 300, 12, max_iter)


@pytest.mark.parametrize("name", ["example-5-7", "example-5-2"])
def test_two_equation_solve_y_matches_the_oracle(name):
    constraint = REGISTRY[name].build_constraint()
    kinds = set()
    for max_iter in (50, 1, 2):
        kinds |= assert_solve_y_matches_oracle(constraint, 500, 13, max_iter)
    assert {"solved", DomainEscapeError, RootFindingError} <= kinds


def test_tied_pivot_entries_keep_the_upper_row():
    # |d g1 / d y1| = |d g2 / d y1| = |x| at every point: partial pivoting swaps a row up
    # only where its entry is strictly larger, and the two row orders round differently
    constraint = ImplicitConstraint.from_expressions(
        1, 2, ("x*y1 + 2*y2 - 1", "y2 - x*y1 - 0.5"), ("x", "y1", "y2"),
        DomainBox.cube(-2.0, 2.0, 3))
    assert "solved" in assert_solve_y_matches_oracle(constraint, 300, 18, 50)


def test_three_equation_solves_match_the_oracle():
    # s = 3, where a pivot is found by comparing the pivot row with two rows in turn: the
    # y-solve, and the velocity and linearisation of a field, bit for bit
    names = ("x", "y1", "y2", "y3")
    constraint = ImplicitConstraint.from_expressions(
        1, 3, ("0.2*y1 + y2*y3 - x", "sin(y1) + y2 - y3 - x", "y1*y2 + y3^2 - 1"), names,
        DomainBox.cube(-2.0, 2.0, 4))
    kinds = set()
    for max_iter in (50, 2):
        kinds |= assert_solve_y_matches_oracle(constraint, 300, 19, max_iter)
    assert {"solved", RootFindingError} <= kinds
    field, kinds = ForcedField(constraint, AmbientMap.from_expressions(("y1 - y3*x",), names),
                               AmbientMap.from_expressions(("cos(t)",), names)), set()
    for i, p in enumerate(_random_points(constraint.domain, 60, 19)):
        for linearize in (False, True):
            code = field._code["linearize" if linearize else "velocity"]
            kinds.add(assert_matches_unfolded(_result(code, *p, 0.3 * i, 0.7),
                                              _result(oracle_stage, field, p, 0.3 * i, 0.7,
                                                      linearize)))
    assert "value" in kinds, kinds


def _near(got, want, ulps):
    # the floats ``got`` within ``ulps`` of the largest magnitude in ``want``
    got, want = np.array(got, dtype=float).ravel(), np.array(want, dtype=float).ravel()
    return np.max(np.abs(got - want), initial=0.0) <= ulps * np.spacing(np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["example-5-7", "example-5-2"])
def test_two_equation_solves_stay_near_lapack(name):
    # numpy's LAPACK solves and norm, which the s > 1 step code called before, as a second
    # reference: the same error class, and the values near, by bounds about twice those
    # measured on these points: y 9 ulp of its largest entry on example-5-2 (0 on
    # example-5-7), |g| 6.2e-16 apart (2.8 ulp of 1.0), the velocity 2 and A 11 ulp of
    # their largest entries
    field = named_field(name)
    c, k, kinds = field.constraint, field.constraint.k, set()
    for max_iter in (50, 1, 2):
        for p in _random_points(c.domain, 500, 13, widen=1.5):
            got = _outcome(c._code["solve_y"], max_iter, *p)
            want = _outcome(lambda *args: oracle_solve_y(*args, lapack=True),
                            c, p[:k], p[k:], max_iter)
            kinds.add(want[0] if isinstance(want[0], type) else "solved")
            if isinstance(want[0], type) or isinstance(got[0], type):
                assert got[0] is want[0]
                continue
            assert _near(got[0], want[0], 16) and abs(got[1] - want[1]) <= 4 * np.spacing(1.0)
    assert {"solved", DomainEscapeError, RootFindingError} <= kinds
    for i, p in enumerate(_random_points(c.domain, 40, 17, widen=1.2)):
        for lam in (0.0, 0.3, -0.7):
            for linearize, ulps in ((False, [4]), (True, [4, 16, 0])):
                args = (p, 0.3 + 0.5 * i, lam, linearize)
                got = _result(field._code["linearize" if linearize else "velocity"],
                              *p, *args[1:3])
                want = _result(oracle_stage, field, *args, lapack=True)
                if isinstance(want[0], type) or isinstance(got[0], type):
                    assert got[0] is want[0]
                    continue
                parts = zip(got, want) if linearize else [(got, want)]
                assert all(_near(g, w, u) for (g, w), u in zip(parts, ulps)), (p, lam)


def test_solve_y_escape_margin_matches_the_oracle():
    # y = x solves g exactly; a point within the escape margin outside the box is kept
    constraint = ImplicitConstraint.from_expressions(
        1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-1.0, 1.0, 2))
    margin, solve = constraint.escape_margin, constraint._code["solve_y"]
    kinds = []
    for x in (1.0 + margin / 2, -1.0 - margin / 2, 1.0 + 2 * margin, -1.0 - 2 * margin):
        want = _outcome(oracle_solve_y, constraint, [x], [0.0])
        assert _outcome(solve, 50, x, 0.0) == want
        kinds.append(want[0] if isinstance(want[0], type) else "solved")
    assert kinds == ["solved", "solved", DomainEscapeError, DomainEscapeError]


def _product(q):
    """The product dt * n / d for an entry q = (n, d) of ``manifold``'s tableau, as a
    function of dt that computes it as a shot binds it: dt divided by the integer d / n
    when n is 1 or -1, or dt times the float nearest n / d; None for a zero entry, whose
    terms a shot leaves out."""
    n, d = q
    if n == 0:
        return None
    if abs(n) == 1:
        return lambda dt, divisor=float(n * d): dt / divisor
    return lambda dt, factor=n / d: dt * factor


# the tableau (c, A, b) of the shots as products with dt
TIMES = [_product(c) for c in manifold._C]
ROWS = [[_product(q) for q in row] for row in manifold._A]
WEIGHTS = [_product(b) for b in manifold._B]


def tableau_sum(start, products, values, dt):
    # start + (dt * q0) * values[0] + (dt * q1) * values[1] + ... left to right, for the
    # ``products`` of a row of the tableau, the term of a zero entry left out
    for product, v in zip(products, values):
        if product is not None:
            start = start + product(dt) * v
    return start


def _stage_m(a, z, d):
    # M = A Z + [0 | d], each entry of A Z summed left to right on floats
    k = len(z)
    m = [[a[r][0] * z[0][j] for j in range(k + 1)] for r in range(k)]
    for r, j in ((r, j) for r in range(k) for j in range(k + 1)):
        for q in range(1, k):
            m[r][j] += a[r][q] * z[q][j]
        if j == k:
            m[r][j] += d[r]
    return m


def oracle_step(field, t, dt, lam, w, *state, unfolded=False):
    """(state, W, |g|) after one projected step from the float list ``state``: the
    unprojected step of ``manifold``'s tableau (c, A, b) on floats, in the generated
    step's operation order, by the generated ``velocity`` at each stage point, then
    ``oracle_solve_y``.  Stage s is at time t + dt * c_s and the point state +
    (dt * a_s0) * k_0 + ..., the step is state + (dt * b_0) * k_0 + ...  Given W (k rows
    of k + 1 floats), the stages are ``linearize``'s instead, and W steps by
    W' = A W + [0 | dp/dlam] through M_s = A Z + [0 | dp/dlam] at Z = W +
    (dt * a_s0) * M_0 + ...  With ``unfolded`` the stages are ``oracle_stage``'s."""
    k = field.constraint.k
    stage = (lambda *args: oracle_stage(field, list(args[:-2]), *args[-2:], w is not None)
             ) if unfolded else field._code["velocity" if w is None else "linearize"]
    ks, ms = [], []
    for c, row in zip(TIMES, ROWS):
        point = [tableau_sum(x, row, [v[j] for v in ks], dt) for j, x in enumerate(state)]
        tc = t if c is None else t + c(dt)
        if w is None:
            ks.append(stage(*point, tc, lam))
            continue
        velocity, a, d = stage(*point, tc, lam)
        ks.append(velocity)
        z = [[tableau_sum(wj, row, [m[r][j] for m in ms], dt) for j, wj in enumerate(wr)]
             for r, wr in enumerate(w)]
        ms.append(_stage_m(a, z, d))
    raw = [tableau_sum(x, WEIGHTS, [v[j] for v in ks], dt) for j, x in enumerate(state)]
    y, drift = oracle_solve_y(field.constraint, raw[:k], raw[k:])
    if w is not None:
        w = [[tableau_sum(wj, WEIGHTS, [m[r][j] for m in ms], dt) for j, wj in enumerate(wr)]
             for r, wr in enumerate(w)]
    return raw[:k] + y, w, drift


def _oracle_plain_step(field, state, t, dt, lam):
    # the plain oracle step: (state, |g|)
    state, _, drift = oracle_step(field, t, dt, lam, None, *state)
    return state, drift


def _one_step(shot):
    # a generated shot run for one step, as (t, dt, lam, W, *state) -> (state, W, |g|),
    # the signature the single-step code had: a failed step raises its error
    def step(t, dt, lam, w, *state):
        drifts = []
        _, state, w, failure = shot(0, 1, t, dt, lam, w, [], drifts, *state)
        if failure is not None:
            raise failure
        return state, w, drifts[0]
    return step


@pytest.mark.parametrize("name", ["example-5-5", "example-5-7", "callable"])
def test_projected_step_matches_the_oracle(name):
    if name == "callable":
        field = callable_spring_field()
    else:
        field = REGISTRY[name].build_dae()
    constraint, kinds, shots = field.constraint, set(), generated_shots(field)
    for i, p in enumerate(_random_points(constraint.domain, 300, 14)):
        try:
            y = constraint._code["solve_y"](50, *p)[0]
        except RootFindingError:
            continue
        state, dt = p[:constraint.k] + y, (0.05, 0.4, 1.5)[i % 3]
        want = _outcome(_oracle_plain_step, field, state, 0.3, dt, 0.7)
        for code, lin in shots.items():
            w = np.eye(constraint.k, constraint.k + 1) if lin else None
            got = _outcome(_one_step(field._code[code]), 0.3, dt, 0.7, w, *state)
            assert (got if isinstance(got[0], type) else (got[0], got[2])) == want
        kinds.add(want[0] if isinstance(want[0], type) else "stepped")
    assert "stepped" in kinds and len(kinds) > 1, kinds


# --- the sensitivities of a step against float and numpy arithmetic --------------------

def oracle_w_step(field, state, t, dt, lam, w, matmul=None):
    """W after one step of the tableau from ``state``: A and dp/dlam from the public
    ``linearize`` at each stage point, W' = A W + [0 | dp/dlam] with each entry of A Z
    summed left to right on floats, or by ``matmul`` (numpy's A.dot(Z), as W was
    stepped before)."""
    ks, ms = [], []
    for c, row in zip(TIMES, ROWS):
        point = [tableau_sum(x, row, [v[j] for v in ks], dt) for j, x in enumerate(state)]
        z = [[tableau_sum(wj, row, [m[r][j] for m in ms], dt) for j, wj in enumerate(wr)]
             for r, wr in enumerate(w)]
        tc = t if c is None else t + c(dt)
        velocity, a, d = (v.tolist() for v in field.linearize(tc, np.array(point), lam))
        ks.append(velocity)
        if matmul:
            m = matmul(np.array(a), np.array(z))
            m[:, -1] += d
            ms.append(m.tolist())
        else:
            ms.append(_stage_m(a, z, d))
    return [[tableau_sum(wj, WEIGHTS, [m[r][j] for m in ms], dt) for j, wj in enumerate(wr)]
            for r, wr in enumerate(w)]


@pytest.mark.parametrize("name", ["example-5-5", "example-5-7", "callable", "duffing"])
def test_stepped_sensitivities_match_float_and_numpy_arithmetic(name):
    if name in ("callable", "duffing"):
        field = callable_spring_field() if name == "callable" else duffing_field()
    else:
        field = REGISTRY[name].build_dae()
    constraint, k = field.constraint, field.constraint.k
    rng, steps = np.random.default_rng(16), 0
    shot = next(shot for shot, lin in generated_shots(field).items() if lin)
    for i, p in enumerate(_random_points(constraint.domain, 200, 16)):
        w, dt = rng.normal(size=(k, k + 1)).tolist(), (0.05, 0.4)[i % 2]
        try:
            state = p[:k] + constraint._code["solve_y"](50, *p)[0]
            got = _one_step(field._code[shot])(0.3, dt, 0.7, tuple(map(tuple, w)), *state)[1]
        except (RootFindingError, *EVAL_ERRORS):
            continue
        assert [list(row) for row in got] == oracle_w_step(field, state, 0.3, dt, 0.7, w)
        # numpy may fuse multiply-adds: 4 ulp of the entry or, where the step cancels
        # most of it, of the entry before the step (measured: 4 on duffing, whose stage
        # sums meet tableau entries up to 11.6 in size, 1 on example-5-7)
        blas = np.array(oracle_w_step(field, state, 0.3, dt, 0.7, w, np.dot))
        ulp = np.spacing(np.maximum(np.abs(blas), np.abs(w)))
        assert np.all(np.abs(np.array(got) - blas) <= 4 * ulp)
        steps += 1
    assert steps >= 50, steps


# --- a shot against one step per call -------------------------------------------------

def oracle_shot(field, xi0, t0, t1, lam, n_steps, sensitivity):
    """(states, drifts, W) of ``flow_map`` as it ran one ``oracle_step`` per call: a
    step whose projection fails is tried again as two half steps, each halved in
    turn, down to 20 levels; an overflow in a stage is a domain error."""
    def advance(state, w, t, dt, depth=0):
        try:
            return oracle_step(field, t, dt, lam, w, *state)
        except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
            raise DomainEvalError(
                f"the field does not evaluate to finite numbers near t = {t:.6g}: {exc}") from exc
        except RootFindingError as exc:
            if depth >= 20:
                reason = ("the trajectory left the domain box"
                          if isinstance(exc, DomainEscapeError)
                          else "the flow leaves the region where the constraint is solvable")
                raise IntegrationError(f"time step underflow near t = {t:.6g}; {reason}") from exc
            half = dt / 2.0
            mid, w, _ = advance(state, w, t, half, depth + 1)
            return advance(mid, w, t + half, half, depth + 1)

    k, dt = field.constraint.k, float(t1 - t0) / n_steps
    state, w = list(xi0), np.eye(k, k + 1).tolist() if sensitivity else None
    states, drifts = [state], [field.constraint.residual(np.array(state))]
    for i in range(n_steps):
        state, w, drift = advance(state, w, t0 + i * dt, dt)
        states.append(state)
        drifts.append(drift)
    return states, drifts, w


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_shot_matches_oracle(field, xi0, period, lam, n_steps):
    # both kinds of shot: states, drifts and W bit for bit, or the same error
    outcomes = []
    for sensitivity in (False, True):
        try:
            res = flow_map(field, np.array(xi0), 0.0, period, lam, n_steps=n_steps,
                           sensitivity=sensitivity)
        except NumericError as exc:
            with pytest.raises(type(exc)) as want:
                oracle_shot(field, xi0, 0.0, period, lam, n_steps, sensitivity)
            assert str(want.value) == str(exc)
            outcomes.append(type(exc))
            continue
        states, drifts, w = oracle_shot(field, xi0, 0.0, period, lam, n_steps, sensitivity)
        assert res.states.shape == (n_steps + 1, len(xi0))
        assert _bits(res.states) == _bits(states)
        assert _bits(res.drifts) == _bits(drifts)
        assert (res.sensitivity is None) == (w is None)
        assert w is None or _bits(res.sensitivity) == _bits(w)
        outcomes.append("done")
    assert outcomes[0] == outcomes[1], outcomes
    return outcomes[0]


SHOT_STARTS = {  # a start on the level set, the period and the steps of a shot
    "example-5-5": ([0.5, -0.25, 0.44382504501286757], REGISTRY["example-5-5"].period, 64),
    "example-5-7": ([1.0, 0.5, 1.1180339887498942, 0.4636476090008056],
                    REGISTRY["example-5-7"].period, 64),
    "callable": ([0.5, -0.25, 0.44382504501286757], REGISTRY["example-5-5"].period, 64),
    "duffing": ([0.5, -0.25, 0.625], 2 * math.pi, 64),
}


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(SHOT_STARTS))
def test_shot_matches_one_step_per_call(name, lam):
    xi0, period, n_steps = SHOT_STARTS[name]
    assert assert_shot_matches_oracle(named_field(name), xi0, period, lam, n_steps) == "done"


@pytest.mark.parametrize("x1, x2, halved", [(0.9, 1.5, [1, 2, 3]), (0.5, 2.0, [0, 1, 2, 3])])
def test_shot_that_halves_mid_period_matches_one_step_per_call(monkeypatch, x1, x2, halved):
    # four steps of the Duffing field over a period: the projection of each step in
    # ``halved`` leaves the domain box, the halves do not, and the shot finishes
    field, calls = duffing_field(), []
    advance = flow._advance
    monkeypatch.setattr(flow, "_advance", lambda *args: calls.append(args) or advance(*args))
    xi0, period = [x1, x2, x1 + x1 ** 3], 2 * math.pi
    assert assert_shot_matches_oracle(field, xi0, period, 0.5, 4) == "done"
    assert [args[3] for args in calls] == [i * period / 4 for i in halved] * 2
    assert all(isinstance(args[6], DomainEscapeError) for args in calls)


def test_escaping_shot_matches_one_step_per_call():
    # the shot of `test_halving_shot_of_the_spring_trace_is_pinned`
    dae = REGISTRY["example-5-5"].build_dae()
    x0 = [0.48724479855823655, 1.4017599051030145]
    xi0 = x0 + implicit_solve_y(dae.constraint, np.array(x0), [0.41974476918373504]).tolist()
    assert assert_shot_matches_oracle(named_field("example-5-5"), xi0, dae.period,
                                      0.8081745901327939,
                                      DEFAULT_TRACE_STEPS_PER_PERIOD) == IntegrationError


# --- the folded stages against the unfolded arithmetic --------------------------------

def _oracle_dual(node, env, seeds):
    """(value, {seed slot: partial}) of the tree ``node`` at the floats ``env`` (by name),
    differentiated by the names ``seeds`` maps to slots: the operations the unfolded
    code did, in its order, with every partial that is present computed."""
    match node:
        case expr.Num(v):
            return v, {}
        case expr.Var(name):
            return env[name], ({seeds[name]: 1.0} if name in seeds else {})
        case expr.Neg(arg):
            v, d = _oracle_dual(arg, env, seeds)
            return -v, {j: -dj for j, dj in d.items()}
        case expr.Pow(base, n):
            vb, db = _oracle_dual(base, env, seeds)
            if n in (0, 1):
                return (1.0, {}) if n == 0 else (vb, db)
            if n < 0:
                v = expr._ipow(vb, n)
            else:  # the product chain, which raises where the unfolded vb ** n raised
                vb ** n
                v = _chain(vb, n)
            if not db:
                return v, {}
            factor = float(n) * (expr._ipow(vb, n - 1) if n < 0 else _chain(vb, n - 1))
            return v, {j: factor * dj for j, dj in db.items()}
        case expr.Bin(op, left, right):
            (vl, dl), (vr, dr) = _oracle_dual(left, env, seeds), _oracle_dual(right, env, seeds)
            v = (expr._div(vl, vr) if op == "/" else vl + vr if op == "+"
                 else vl - vr if op == "-" else vl * vr)
            d = {}
            for j in sorted(dl.keys() | dr.keys()):
                a, b = dl.get(j), dr.get(j)
                if op == "+":
                    d[j] = b if a is None else a if b is None else a + b
                elif op == "-":
                    d[j] = a if b is None else -b if a is None else a - b
                elif op == "*":
                    d[j] = vl * b if a is None else a * vr if b is None else a * vr + vl * b
                else:
                    d[j] = ((-v) * b / vr if a is None else a / vr if b is None
                            else (a - v * b) / vr)
            return v, d
        case expr.Call(func, arg):
            vu, du = _oracle_dual(arg, env, seeds)
            v = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": expr._log,
                 "sqrt": expr._sqrt, "abs": abs}[func](vu)
            if not du:
                return v, {}
            if func in ("sin", "cos"):
                c = math.cos(vu) if func == "sin" else -math.sin(vu)
                return v, {j: c * dj for j, dj in du.items()}
            twice = 2.0 * v
            rule = {"exp": lambda dj: v * dj, "log": lambda dj: dj / vu,
                    "sqrt": lambda dj: expr._div(dj, twice),
                    "abs": lambda dj: expr._dabs(vu, dj)}[func]
            return v, {j: rule(dj) for j, dj in du.items()}


def _oracle_rows(part, point, t, seeds):
    # per component of ``part`` at the float list ``point`` and time t: its value and
    # partials by the coordinates ``seeds``, an absent partial 0.0; a callable's flat
    n = len(point)
    if part.asts is None:
        jet = part.flat(point, t, bool(seeds))
        return [[jet[i * (n + 1) + j if seeds else i] for j in (0, *(1 + q for q in seeds))]
                for i in range(part.n_out)]
    env = dict(zip(part.variables + ("t",), [*point, t]))
    slots = {part.variables[q]: j for j, q in enumerate(seeds)}
    rows = [_oracle_dual(tree, env, slots) for tree in part.asts]
    return [[v, *(d.get(j, 0.0) for j in range(len(seeds)))] for v, d in rows]


def oracle_stage(field, point, t, lam, linearize=False, lapack=False):
    """The velocity at the float list ``point`` and time t, or with ``linearize`` the
    (velocity, A, dp/dlam) of ``ForcedField.linearize``, by the unfolded arithmetic:
    p = gamma + lam * sigma (sigma only where lam != 0.0 unless its partials are asked
    for), the completion by d_x g . psi_1 left to right, A = d_x p + d_y p * slave.  For
    s > 1 the completion and slave solve by ``oracle_elimination``, or with ``lapack`` by
    numpy's solve and matrix products, as the generated code computed them before."""
    c, gamma, sigma = field.constraint, field.gamma, field.sigma
    k, s, n = c.k, c.s, c.k + c.s
    seeds = range(n) if linearize else ()
    forcing = sigma and (linearize or gamma is None) and _oracle_rows(sigma, point, t, seeds)
    if gamma is None:
        p = [[lam * b for b in row] for row in forcing]
    else:
        p = _oracle_rows(gamma, point, t, seeds)
        if sigma is not None and lam != 0.0:
            forcing = forcing or _oracle_rows(sigma, point, t, seeds)
            p = [[u + lam * v for u, v in zip(*rows)] for rows in zip(p, forcing)]
    gjet, first = _oracle_rows(c.gmap, point, 0.0, range(n)), [r[0] for r in p]
    singular = f"d_y g is singular at {np.asarray(point)}"
    if s == 1:
        d = gjet[0]
        if d[k + 1] == 0.0:
            raise RegularityError(singular)
        rhs = d[1] * first[0]
        for u, v in zip(d[2:k + 1], first[1:]):
            rhs += u * v
        velocity = [*first, -rhs / d[k + 1]]
    elif lapack:
        jac = np.array(sum(gjet, [])).reshape(s, n + 1)[:, 1:]
        try:
            psi2 = np.linalg.solve(jac[:, k:], -(jac[:, :k] @ np.array(first))).tolist()
        except np.linalg.LinAlgError:
            raise RegularityError(singular) from None
        velocity = [*first, *psi2]
    else:
        d_y, rhs = [row[k + 1:] for row in gjet], []
        for row in gjet:
            rhs.append(row[1] * first[0])
            for u, v in zip(row[2:k + 1], first[1:]):
                rhs[-1] += u * v
        velocity = [*first, *oracle_elimination(d_y, [-v for v in rhs],
                                                RegularityError(singular))]
    if not linearize:
        return velocity
    if s == 1:
        pivot = -gjet[0][k + 1]
        slave = [d / pivot for d in gjet[0][1:k + 1]]
        a = [[r[1 + j] + r[1 + k] * sj for j, sj in enumerate(slave)] for r in p]
    elif lapack:
        dp = np.array(sum(p, [])).reshape(k, n + 1)[:, 1:]
        a = (dp[:, :k] + dp[:, k:] @ np.linalg.solve(jac[:, k:], -jac[:, :k])).tolist()
    else:  # the columns of S = -(d_y g)^-1 d_x g, and A = d_x p + d_y p S left to right
        slave = [oracle_elimination(d_y, [-row[1 + q] for row in gjet], RegularityError(singular))
                 for q in range(k)]
        a = [[r[1 + q] for q in range(k)] for r in p]
        for r, row in zip(p, a):
            for q, column in enumerate(slave):
                for u, v in zip(r[1 + k:], column):
                    row[q] += u * v
    return velocity, a, [r[0] for r in forcing] if forcing else [0.0] * k


def _flat(value):
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flat(v)]
    return [] if value is None else [value]


def _result(fn, *args, **kwargs):
    # the result, or the class and message of the error raised
    try:
        return fn(*args, **kwargs)
    except (ManidegError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches_unfolded(got, want):
    # the same error, or floats equal and bit for bit where not zero: dropping a
    # structural zero may flip the sign of a zero result
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return want[0]
    got, want = (np.array(_flat(v), dtype=float) for v in (got, want))
    assert got.shape == want.shape
    nan = np.isnan(got) & np.isnan(want)
    assert np.all((got == want) | nan), (got, want)
    assert np.all((got == 0.0) | nan | (got.view(np.int64) == want.view(np.int64))), (got, want)
    return "value"


UNFOLDED_FIELDS = [*sorted(REGISTRY), "callable", "duffing", "swapped"]


@pytest.mark.parametrize("name", UNFOLDED_FIELDS)
def test_folded_stages_and_steps_match_the_unfolded_arithmetic(name):
    field = named_field(name)
    c, k = field.constraint, field.constraint.k
    rng, kinds, shots = np.random.default_rng(17), set(), generated_shots(field)
    for i, p in enumerate(_random_points(c.domain, 40, 17, widen=1.2)):
        t, dt = 0.3 + 0.5 * i, (0.05, 0.4, 1.5)[i % 3]
        w = rng.normal(size=(k, k + 1)).tolist()
        try:  # a start on the level set where the y-solve finds one
            state = p[:k] + c._code["solve_y"](50, *p)[0]
        except RootFindingError:
            state = p
        for lam in (0.0, 0.3, -0.7):
            for linearize in (False, True):
                code = field._code["linearize" if linearize else "velocity"]
                kinds.add(assert_matches_unfolded(_result(code, *p, t, lam),
                                                  _result(oracle_stage, field, p, t, lam,
                                                          linearize)))
            for shot, lin in shots.items():
                sensitivity = w if lin else None
                got = _result(_one_step(field._code[shot]), t, dt, lam,
                              sensitivity and tuple(map(tuple, sensitivity)), *state)
                want = _result(oracle_step, field, t, dt, lam, sensitivity, *state,
                               unfolded=True)
                kinds.add(assert_matches_unfolded(got, want))
    assert "value" in kinds, kinds


def _literal(node):
    # the float a literal operand of generated code denotes, a negated one too, else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, float) else None


@pytest.mark.parametrize("name", UNFOLDED_FIELDS)
def test_generated_code_does_no_arithmetic_with_unit_or_zero_literals(name):
    # no product with a literal 1.0 or 0.0, no sum with a literal 0.0, no division by a
    # literal 1.0 or -1.0, and no check whether a non-zero literal is 0.0 is left
    field = named_field(name)
    c = field.constraint
    for fn, source in [*manifold._source(c.k, c.s, c.gmap),
                       *manifold._source(c.k, c.s, c.gmap, field.gamma, field.sigma)]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
                sides = {_literal(node.test.left), *map(_literal, node.test.comparators)}
                assert not (0.0 in sides and sides - {0.0, None}), (fn, ast.unparse(node.test))
            if isinstance(node, ast.BinOp):
                operands, op = {_literal(node.left), _literal(node.right)}, node.op
                assert not (isinstance(op, ast.Div) and _literal(node.right) in (1.0, -1.0)), (
                    fn, ast.unparse(node))
            elif isinstance(node, ast.AugAssign):
                operands, op = {_literal(node.value)}, node.op
            else:
                continue
            assert not (isinstance(op, ast.Mult) and operands & {0.0, 1.0}
                        or isinstance(op, ast.Add) and 0.0 in operands), (fn, ast.unparse(node))


@pytest.mark.parametrize("source", [
    "x + 0", "0 + x", "x - 0", "0 - x", "x * 0", "0 * x", "-0 * x", "x * 1", "1 * x",
    "-(-1) * x", "2 * 3 + x", "0.1 + 0.2 - x", "1e300 * 1e300 * x", "x / 1", "x + 1 / 0",
    "(-2)^2 * x", "x^0 + x^1", "0.5 * y * x", "sin(0) * x", "-(x * y) * 1"])
def test_folded_expression_code_keeps_every_bit(source):
    # the emitter folds only x * 1.0, 1.0 * x and literal arithmetic, which is exact: the
    # values and partials keep their bits at signed zeros, infinities and nan, and a
    # division is never folded, so 1 / 0 still raises
    tree, slots = expr.parse(source, ("x", "y")), {"x": 0, "y": 1}
    code = expr.compile_gradient(tree, ("x", "y"))
    for x in (-0.0, 0.0, 1.5, -2.5, math.inf, -math.inf, math.nan):
        def unfolded():
            v, d = _oracle_dual(tree, {"x": x, "y": 0.75}, slots)
            return v, d.get(0, 0.0), d.get(1, 0.0)
        got, want = _result(code, x, 0.75), _result(unfolded)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert _bits(got) == _bits(want), (x, got, want)


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

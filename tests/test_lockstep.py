"""The lock-step multi-start Newton against the per-start search it replaced.

``oracle_zeros`` below is that per-start search: ``damped_newton`` from
each grid node in turn on per-point evaluations, a per-point polish, box
containment and dedup in grid order.  ``find_zeros`` runs every start at
once on batched evaluations, so it must find the same zero set with the
same indices.  A per-point call is a batch of one, so both searches
evaluate the maps on the same vector backend; a location may still move
in the last bits where a stacked linear solve or row norm rounds unlike
its per-point form.

``oracle_solve_y`` is the y-projection built on the same ``damped_newton``,
as it ran before the projection became generated code; the generated
y-solve and projected step must match it bit for bit.
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
from manideg import cli, dae as dae_module, degree, expr
from manideg.degree import _default_density
from manideg.errors import DomainEscapeError, DomainEvalError, RootFindingError
from manideg.manifold import Y_SOLVE_TOL, ForcedField, ImplicitConstraint, reduced_map
from manideg.problems import REGISTRY
from test_flow import callable_spring_field

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


def oracle_solve_y(constraint, x, y, max_iter=50):
    """(y, |g|) of the y-solve at the float lists ``x`` and ``y``: ``damped_newton``,
    then the domain box with the escape margin."""
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
    else:
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
    if not constraint.domain.contains(x + y, margin=constraint.escape_margin):
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


def _oracle_rk4_step(field, state, t, dt, lam):
    # the unprojected RK4 step on floats, in the generated step's operation order,
    # then the oracle's projection: (state, |g|)
    h, sixth, k = dt / 2.0, dt / 6.0, field.constraint.k
    stages = [field._code["velocity"](*state, t, lam)]
    for c, tc in ((h, t + h), (h, t + h), (dt, t + dt)):
        stages.append(field._code["velocity"](*(a + c * v for a, v in zip(state, stages[-1])),
                                              tc, lam))
    raw = [a + sixth * (k0 + 2.0 * k1 + 2.0 * k2 + k3)
           for a, k0, k1, k2, k3 in zip(state, *stages)]
    y, drift = oracle_solve_y(field.constraint, raw[:k], raw[k:])
    return raw[:k] + y, drift


@pytest.mark.parametrize("name", ["example-5-5", "example-5-7", "callable"])
def test_projected_step_matches_the_oracle(name):
    if name == "callable":
        field = callable_spring_field()
    else:
        dae = REGISTRY[name].build_dae()
        field = ForcedField(dae.constraint, dae.gamma, dae.sigma)
    constraint, kinds = field.constraint, set()
    for i, p in enumerate(_random_points(constraint.domain, 300, 14)):
        try:
            y = constraint._code["solve_y"](50, *p)[0]
        except RootFindingError:
            continue
        state, dt = p[:constraint.k] + y, (0.05, 0.4, 1.5)[i % 3]
        want = _outcome(_oracle_rk4_step, field, state, 0.3, dt, 0.7)
        for code, w in (("rk4", None), ("rk4w", np.eye(constraint.k, constraint.k + 1))):
            got = _outcome(field._code[code], 0.3, dt, 0.7, w, *state)
            assert (got if isinstance(got[0], type) else (got[0], got[2])) == want
        kinds.add(want[0] if isinstance(want[0], type) else "stepped")
    assert "stepped" in kinds and len(kinds) > 1, kinds


# --- the sensitivities of a step against float and numpy arithmetic --------------------

def duffing_field():
    # a Duffing oscillator on the cubic graph y = x1 + x1^3
    names = ("x1", "x2", "y")
    con = ImplicitConstraint.from_expressions(
        2, 1, ("y - x1 - x1^3",), names, DomainBox.from_bounds([(-2, 2), (-3, 3), (-12, 12)]))
    return ForcedField(con, AmbientMap.from_expressions(("x2", "-0.5*y - 0.1*x2"), names),
                       AmbientMap.from_expressions(("0", "cos(t)"), names))


def oracle_w_step(field, state, t, dt, lam, w, matmul=None):
    """W after one RK4 step from ``state``: A and dp/dlam from the public ``linearize`` at
    each stage point, W' = A W + [0 | dp/dlam] with each entry of A Z summed left to right
    on floats, or by ``matmul`` (numpy's A.dot(Z), as W was stepped before)."""
    h, sixth, k = dt / 2.0, dt / 6.0, len(w)
    ms, point, z = [], state, w
    for i, (c, tc) in enumerate(((0.0, t), (h, t + h), (h, t + h), (dt, t + dt))):
        if i:
            point = [x + c * v for x, v in zip(state, velocity)]
            z = [[wj + c * mj for wj, mj in zip(wr, mr)] for wr, mr in zip(w, ms[-1])]
        velocity, a, d = (v.tolist() for v in field.linearize(tc, np.array(point), lam))
        if matmul:
            m = matmul(np.array(a), np.array(z))
            m[:, -1] += d
            ms.append(m.tolist())
            continue
        m = [[a[r][0] * z[0][j] for j in range(k + 1)] for r in range(k)]
        for r, j in ((r, j) for r in range(k) for j in range(k + 1)):
            for q in range(1, k):
                m[r][j] += a[r][q] * z[q][j]
            if j == k:
                m[r][j] += d[r]
        ms.append(m)
    return [[wj + sixth * (m0 + 2.0 * m1 + 2.0 * m2 + m3) for wj, m0, m1, m2, m3 in zip(*rows)]
            for rows in zip(w, *ms)]


@pytest.mark.parametrize("name", ["example-5-5", "example-5-7", "callable", "duffing"])
def test_stepped_sensitivities_match_float_and_numpy_arithmetic(name):
    if name in ("callable", "duffing"):
        field = callable_spring_field() if name == "callable" else duffing_field()
    else:
        dae = REGISTRY[name].build_dae()
        field = ForcedField(dae.constraint, dae.gamma, dae.sigma)
    constraint, k = field.constraint, field.constraint.k
    rng, steps = np.random.default_rng(16), 0
    for i, p in enumerate(_random_points(constraint.domain, 200, 16)):
        w, dt = rng.normal(size=(k, k + 1)).tolist(), (0.05, 0.4)[i % 2]
        try:
            state = p[:k] + constraint._code["solve_y"](50, *p)[0]
            got = field._code["rk4w"](0.3, dt, 0.7, tuple(map(tuple, w)), *state)[1]
        except (RootFindingError, *EVAL_ERRORS):
            continue
        assert [list(row) for row in got] == oracle_w_step(field, state, 0.3, dt, 0.7, w)
        # numpy may fuse multiply-adds: 2 ulp of the entry or, where the step cancels
        # most of it, of the entry before the step
        blas = np.array(oracle_w_step(field, state, 0.3, dt, 0.7, w, np.dot))
        ulp = np.spacing(np.maximum(np.abs(blas), np.abs(w)))
        assert np.all(np.abs(np.array(got) - blas) <= 2 * ulp)
        steps += 1
    assert steps >= 50, steps


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

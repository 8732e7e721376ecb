"""End-to-end acceptance checks.

Thirteen checks cover the bundled reference problems, the independent
degree oracles, the determinant factorisation, the degree axioms, flow
quality, branch continuation, and the verification subcommand.  Each
prints one PASS/FAIL line with its runtime; checks with a time budget
enforce it.  The lines appear live under ``pytest -s`` and are echoed
in the run summary either way (see conftest).
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from manideg import (
    AmbientMap,
    DomainBox,
    ForcedField,
    ImplicitConstraint,
    REGISTRY,
    average_wind,
    boundary_min,
    degree_sign_sum,
    degree_winding_2d,
    find_zeros,
    flow_map,
    implicit_solve_y,
    manifold_degree,
    reduced_map,
    schur_determinant_split,
    trace_branch,
)
from manideg.cli import main as cli_main, verify_reference_problems
from manideg.problems import REFERENCE_DEGREES, ReferenceDegrees

LINES = []


@contextlib.contextmanager
def check(label, time_limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"FAIL  {label}  ({time.perf_counter() - t0:.2f} s)"
        LINES.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - t0
    budget = f", limit {time_limit:g} s" if time_limit else ""
    if time_limit is not None and elapsed >= time_limit:
        line = f"FAIL  {label}  ({elapsed:.2f} s{budget})"
        LINES.append(line)
        print(line)
        raise AssertionError(f"{label}: {elapsed:.2f} s exceeded the {time_limit:g} s budget")
    line = f"PASS  {label}  ({elapsed:.2f} s{budget})"
    LINES.append(line)
    print(line)


def reduction(name):
    prob = REGISTRY[name]
    return manifold_degree(prob.build_phi1(), prob.build_constraint())


# 1 ----------------------------------------------------------------------------

def test_cubic_line_reduction_degree():
    with check("cubic-line reduction degree", 1.0):
        res = reduction("example-4-1")
        assert res.degree == 1
        assert res.ambient.degree == -1
        assert res.constraint_sign == -1


# 2 ----------------------------------------------------------------------------

def test_parabola_cylinder_reduction_degree():
    with check("parabola-cylinder reduction degree", 2.0):
        res = reduction("example-4-2")
        assert res.degree == 1
        assert len(res.ambient.zeros) == 1
        zero = res.ambient.zeros[0].location
        assert np.linalg.norm(zero - np.array([0.0, -1.0, 0.0])) <= 1e-8


# 3 ----------------------------------------------------------------------------

def test_helix_chart_degree():
    with check("helix chart degree", 2.0):
        res = reduction("example-5-2")
        assert res.ambient.degree == -1
        assert res.constraint_sign == 1
        assert res.degree == -1
        assert len(res.ambient.zeros) == 1
        zero = res.ambient.zeros[0].location
        assert np.linalg.norm(zero - np.array([1.0, 0.0, 0.0])) <= 1e-8


# 4 ----------------------------------------------------------------------------

def test_averaged_cubic_forcing_degree():
    with check("averaged cubic forcing degree", 1.0):
        prob = REGISTRY["example-5-3"]
        dae = prob.build_dae()
        sigma_bar = average_wind(dae)
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = rng.uniform(-1.9, 1.9, size=2)
            assert abs(sigma_bar(p)[0] - (p[0] + p[1])) <= 1e-12
        res = reduction("example-5-3")
        assert res.ambient.degree == 1
        assert res.degree == 1


# 5 ----------------------------------------------------------------------------

def test_oscillator_seed_degree():
    with check("oscillator seed degree", 1.0):
        res = reduction("example-5-5")
        assert res.ambient.degree == 1
        assert res.degree == 1
        assert len(res.ambient.zeros) == 1
        assert np.linalg.norm(res.ambient.zeros[0].location) <= 1e-8


# 6 ----------------------------------------------------------------------------

def test_polar_chart_average_degree():
    with check("polar chart average degree", 2.0):
        res = reduction("example-5-7")
        assert res.ambient.degree == -1
        assert res.degree == -1
        assert len(res.ambient.zeros) == 1
        zero = res.ambient.zeros[0].location
        assert np.linalg.norm(zero - np.array([1.0, 0.0, 1.0, 0.0])) <= 1e-8


# 7 ----------------------------------------------------------------------------

def brute_winding(field, box, n=20000):
    ts = np.linspace(0.0, 4.0, n, endpoint=False)
    (x0, x1), (y0, y1) = box.bounds
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
    total, prev = 0.0, None
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


def test_winding_and_sign_sum_agree():
    with check("winding vs sign-sum agreement"):
        for name, prob in sorted(REGISTRY.items()):
            if len(prob.variables) != 2:
                continue
            field = prob.build_seed_map()
            box = prob.domain()
            assert degree_winding_2d(field, box) == degree_sign_sum(field, box).degree, name
        squaring = AmbientMap.from_expressions(("x^2 - y^2", "2*x*y"), ("x", "y"))
        square = DomainBox.cube(-1.5, 1.5, 2)
        assert brute_winding(squaring, square) == 2
        assert degree_winding_2d(squaring, square) == 2


# 8 ----------------------------------------------------------------------------

def test_determinant_factorisation():
    with check("determinant factorisation at random points"):
        rng = np.random.default_rng(88)
        for name, prob in sorted(REGISTRY.items()):
            con = prob.build_constraint()
            phi1 = prob.build_phi1()
            lo = np.array([b[0] for b in prob.box])
            hi = np.array([b[1] for b in prob.box])
            for _ in range(100):
                p = rng.uniform(lo, hi)
                full, d2g, schur = schur_determinant_split(phi1, con, p)
                assert abs(full - d2g * schur) <= 1e-8 * (1.0 + abs(full)), name


# 9 ----------------------------------------------------------------------------

def test_degree_axioms():
    with check("degree axioms (additivity, excision, stability, parity)"):
        field = AmbientMap.from_expressions(("x^3 - x", "y"), ("x", "y"))
        box = DomainBox.cube(-1.5, 1.5, 2)
        whole = degree_sign_sum(field, box).degree

        parts = [
            DomainBox.from_bounds([(-1.5, -0.4), (-1.5, 1.5)]),
            DomainBox.from_bounds([(-0.4, 0.6), (-1.5, 1.5)]),
            DomainBox.from_bounds([(0.6, 1.5), (-1.5, 1.5)]),
        ]
        assert sum(degree_sign_sum(field, b).degree for b in parts) == whole

        shrunk = DomainBox.from_bounds([(-1.2, 1.3), (-0.9, 1.1)])
        assert degree_sign_sum(field, shrunk).degree == whole

        bmin = boundary_min(field, box)
        shift = np.array([1.0, -1.0])
        shift *= 0.5 * bmin / np.linalg.norm(shift)
        bumped = AmbientMap.from_callable(
            2, 2, lambda p: field(p) - shift, jac=field.jacobian)
        assert degree_sign_sum(bumped, box).degree == whole

        for m in range(1, 5):
            names = tuple(f"x{i}" for i in range(m))
            antipode = AmbientMap.from_expressions(
                tuple(f"-{n}" for n in names), names)
            assert degree_sign_sum(antipode, DomainBox.cube(-1.0, 1.0, m)).degree == (-1) ** m


# 10 ---------------------------------------------------------------------------

def test_graph_chart_agreement():
    with check("graph-chart reduction agreement"):
        # scalar graph y = x^2 - 1 with a first component that mixes in y
        con = ImplicitConstraint.from_expressions(
            1, 1, ("y - x^2 + 1",), ("x", "y"),
            DomainBox.from_bounds([(-2.5, 2.5), (-2.0, 6.0)]))
        phi1 = AmbientMap.from_expressions(("y - x",), ("x", "y"))
        direct = AmbientMap.from_expressions(("x^2 - 1 - x",), ("x",))
        lhs = manifold_degree(phi1, con).degree
        rhs = degree_sign_sum(direct, DomainBox.cube(-2.5, 2.5, 1)).degree
        assert lhs == rhs == 0

        con2 = ImplicitConstraint.from_expressions(
            1, 1, ("y - x^3",), ("x", "y"), DomainBox.cube(-2.0, 2.0, 2))
        phi2 = AmbientMap.from_expressions(("x^3 - x",), ("x", "y"))
        direct2 = AmbientMap.from_expressions(("x^3 - x",), ("x",))
        assert (manifold_degree(phi2, con2).degree
                == degree_sign_sum(direct2, DomainBox.cube(-2.0, 2.0, 1)).degree == 1)

        # planar graph y = x1^2 + x2^2 with a y-dependent rotation
        con3 = ImplicitConstraint.from_expressions(
            2, 1, ("y - x1^2 - x2^2",), ("x1", "x2", "y"),
            DomainBox.from_bounds([(-2.0, 2.0), (-2.0, 2.0), (-0.5, 8.5)]))
        phi3 = AmbientMap.from_expressions(
            ("x2 + 0.1*y", "-x1"), ("x1", "x2", "y"))
        direct3 = AmbientMap.from_expressions(
            ("x2 + 0.1*(x1^2 + x2^2)", "-x1"), ("x1", "x2"))
        assert (manifold_degree(phi3, con3).degree
                == degree_sign_sum(direct3, DomainBox.cube(-2.0, 2.0, 2)).degree == 1)


# 11 ---------------------------------------------------------------------------

FLOW_STARTS = {
    # problem: (x0, y_guess, lam)  spans: one period, or 1.0 when autonomous
    "example-4-1": ((-0.001,), None, 0.0),
    "example-4-2": ((0.001, -1.0 + 1e-10), None, 0.0),
    "example-5-2": ((0.9,), (0.0, 0.1), 0.0),
    "example-5-3": ((0.0,), None, 0.1),
    "example-5-5": ((0.1, 0.0), None, 0.2),
    "example-5-7": ((1.0, 0.0), (1.0, 0.0), 0.1),
}


def test_flow_quality_on_reference_problems():
    with check("flow drift and tangency on every bundled problem"):
        for name, (x0, y_guess, lam) in sorted(FLOW_STARTS.items()):
            prob = REGISTRY[name]
            field = prob.build_dae()
            con = field.constraint
            y0 = implicit_solve_y(con, np.array(x0), y_guess=y_guess)
            xi0 = np.concatenate([np.array(x0, dtype=float), y0])
            span = prob.period if prob.period is not None else 1.0
            res = flow_map(field, xi0, 0.0, span, lam)
            assert res.max_drift <= 1e-8, name
            stride = max(1, res.steps // 16)
            for i in range(0, res.steps + 1, stride):
                p = res.states[i]
                v = field.velocity(res.times[i], p, lam)
                assert np.linalg.norm(con.gmap.jacobian(p) @ v) <= 1e-8, name


def test_dp5_order_window():
    # 5th order: the error ratio at 32/64 steps measures 31.0, about 2^5
    with check("integrator order on the linear graph flow"):
        con = ImplicitConstraint.from_expressions(
            1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-4.0, 4.0, 2))
        gamma = AmbientMap.from_expressions(("y",), ("x", "y"))
        field = ForcedField(con, gamma=gamma)
        errs = []
        for n in (32, 64):
            res = flow_map(field, np.array([1.0, 1.0]), 0.0, 1.0, n_steps=n)
            errs.append(abs(res.final_state[0] - math.e))
        assert 25.0 <= errs[0] / errs[1] <= 38.0


# 12 ---------------------------------------------------------------------------

def test_forced_branch_of_solution_pairs():
    with check("forced oscillator branch to full amplitude", 60.0):
        dae = REGISTRY["example-5-5"].build_dae()
        seeds = find_zeros(reduced_map(dae.gamma, dae.constraint), dae.constraint.domain)
        assert len(seeds) == 1
        branch = trace_branch(dae, seeds[0], ds=0.02, lambda_max=1.0)
        # the orbit's y-range reaches the chart box edge near lam 0.8,
        # so a left_domain stop is as legitimate as reaching lambda_max
        assert branch.termination in ("lambda_max", "left_domain")
        assert len(branch.points) >= 50
        first = branch.points[0]
        assert first.lam == 0.0
        assert first.amplitude <= 1e-8
        for pair in branch.points:
            assert pair.residual <= 1e-6
            assert pair.drift <= 1e-8
            if pair.lam >= 0.1:
                assert pair.amplitude > 1e-4
        assert branch.points[-1].lam >= 0.5


# 13 ---------------------------------------------------------------------------

def test_bundled_verification_subcommand():
    with check("bundled verification subcommand"):
        buf = io.StringIO()
        assert verify_reference_problems(out=buf) == 0
        text = buf.getvalue()
        assert "6/6 reference problems verified" in text
        assert cli_main(["verify-paper"]) == 0

        flipped = dict(REFERENCE_DEGREES)
        want = flipped["example-4-1"]
        flipped["example-4-1"] = ReferenceDegrees(
            -want.ambient_degree, want.constraint_sign,
            -want.manifold_degree, want.zero)
        neg = io.StringIO()
        assert verify_reference_problems(expected=flipped, out=neg) == 1
        assert "FAIL" in neg.getvalue()

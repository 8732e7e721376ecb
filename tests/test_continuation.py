"""Shooting and pseudo-arclength tracing of forced solution pairs.

The linear benchmark g = y - x, x' = lam*sin(t) is periodic from every
start (the forcing integrates to zero over a period), so its shooting
residual must vanish for all (x0, lam).  The damped oscillator problem
from the registry provides the genuinely nonlinear branch.
"""

import dataclasses

import numpy as np
import pytest

import manideg.continuation as continuation
from manideg import (
    AmbientMap,
    CorrectorError,
    DomainBox,
    ImplicitConstraint,
    NumericError,
    REGISTRY,
    SemiExplicitDae,
    ZeroRecord,
    correct,
    implicit_solve_y,
    seed_map_F,
    seed_points,
    shooting_residual,
    trace_branch,
)

TWO_PI = 6.283185307179586


def linear_forced():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-4.0, 4.0, 2))
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    return SemiExplicitDae(con, sigma=sigma, period=TWO_PI)


def spring():
    return REGISTRY["example-5-5"].build_dae()


def spring_seed():
    dae = spring()
    zeros = seed_points(seed_map_F(dae), dae.constraint.domain)
    assert len(zeros) == 1
    return dae, zeros[0]


# --- seeds ---------------------------------------------------------------------

def test_seed_points_finds_trivial_pair():
    dae, seed = spring_seed()
    assert np.allclose(seed.location, np.zeros(3), atol=1e-10)
    assert seed.index == 1


# --- shooting -------------------------------------------------------------------

def test_shooting_residual_vanishes_on_linear_problem():
    dae = linear_forced()
    for x0, lam in ((0.0, 0.3), (0.7, 0.3), (-1.2, 0.9), (0.4, 0.0)):
        r, _ = shooting_residual(dae, np.array([x0]), lam)
        assert abs(r[0]) <= 1e-8


def test_shooting_residual_detects_nonperiodic_start():
    dae = spring()
    r, _ = shooting_residual(dae, np.array([0.5, 0.3]), 0.0)
    assert np.linalg.norm(r) > 1e-3


def test_shooting_needs_period():
    dae = spring()
    autonomous = SemiExplicitDae(dae.constraint, gamma=dae.gamma)
    with pytest.raises(NumericError):
        shooting_residual(autonomous, np.zeros(2), 0.0)


def test_shooting_pair_comes_from_the_same_trajectory():
    dae = spring()
    r, pair = shooting_residual(dae, np.array([0.5, 0.3]), 0.2)
    assert pair.lam == 0.2
    assert np.array_equal(pair.x0, [0.5, 0.3])
    # the full-state residual bounds the x-part of the same shot
    assert pair.residual >= np.linalg.norm(r) > 1e-3
    assert pair.amplitude > 0.0 and pair.drift <= 1e-10


# --- corrector -------------------------------------------------------------------

def test_correct_accepts_exact_pair():
    dae = spring()
    pair = correct(dae, np.zeros(2), 0.0)
    assert pair.lam == 0.0
    assert pair.residual <= 1e-8
    assert pair.amplitude <= 1e-8
    assert pair.drift <= 1e-10


def test_correct_pulls_back_to_periodic_pair():
    dae = spring()
    pair = correct(dae, np.array([0.05, 0.02]), 0.0)
    assert np.linalg.norm(pair.x0) <= 1e-6
    assert pair.residual <= 1e-8


def test_correct_returns_the_pair_of_its_converged_shot():
    dae = spring()
    y_guess = np.zeros(1)
    pair = correct(dae, np.zeros(2), 0.2, y_guess=y_guess)
    assert np.linalg.norm(pair.x0) > 1e-3  # Newton moved off the prediction
    _, shot = shooting_residual(dae, pair.x0, pair.lam, y_guess=y_guess)
    for f in dataclasses.fields(pair):
        mine, theirs = getattr(pair, f.name), getattr(shot, f.name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs), f.name
        else:
            assert mine == theirs, f.name


def test_correct_fails_when_starved():
    dae = spring()
    with pytest.raises(CorrectorError):
        correct(dae, np.array([1.5, 1.5]), 0.0, max_iter=1)


# --- tracing ---------------------------------------------------------------------

def test_trace_integrates_one_period_per_shot(monkeypatch):
    counts = {"flow_map": 0, "shooting_residual": 0}

    def counting(name):
        inner = getattr(continuation, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(continuation, name, counting(name))
    dae, seed = spring_seed()
    branch = trace_branch(dae, seed, ds=0.05, lambda_max=0.1, steps_per_period=64)
    assert len(branch.points) >= 3
    assert counts["shooting_residual"] > len(branch.points)
    assert counts["flow_map"] == counts["shooting_residual"]


def test_trace_trivial_when_lambda_max_is_zero():
    dae, seed = spring_seed()
    branch = trace_branch(dae, seed, lambda_max=0.0)
    assert branch.termination == "lambda_max"
    assert len(branch.points) == 1
    assert branch.points[0].lam == 0.0
    assert branch.points[0].amplitude <= 1e-8


def test_trace_short_branch():
    dae, seed = spring_seed()
    branch = trace_branch(dae, seed, ds=0.05, lambda_max=0.15)
    assert branch.termination == "lambda_max"
    assert branch.points[-1].lam >= 0.15
    assert all(p.residual <= 1e-6 for p in branch.points)
    assert all(p.drift <= 1e-8 for p in branch.points)
    lams = [p.lam for p in branch.points]
    assert lams == sorted(lams)
    assert branch.points[-1].amplitude > branch.points[0].amplitude


def test_trace_is_deterministic():
    dae, seed = spring_seed()
    a = trace_branch(dae, seed, ds=0.05, lambda_max=0.1)
    b = trace_branch(dae, seed, ds=0.05, lambda_max=0.1)
    assert len(a.points) == len(b.points)
    for p, q in zip(a.points, b.points):
        assert p.lam == q.lam
        assert np.array_equal(p.x0, q.x0)
        assert np.array_equal(p.y0, q.y0)
        assert p.residual == q.residual


def test_trace_stops_at_max_steps():
    dae, seed = spring_seed()
    branch = trace_branch(dae, seed, ds=0.02, lambda_max=10.0, max_steps=3)
    assert branch.termination == "max_steps"
    assert len(branch.points) == 3


def test_trace_reports_domain_exit():
    dae, seed = spring_seed()
    tiny = DomainBox.cube(-0.005, 0.005, 3)
    branch = trace_branch(dae, seed, ds=0.05, lambda_max=5.0, domain_box=tiny)
    assert branch.termination == "left_domain"


def test_trace_rejects_nonperiodic_seed():
    dae = spring()
    x = np.array([0.5, 0.3])
    y = implicit_solve_y(dae.constraint, x)
    fake = ZeroRecord(np.concatenate([x, y]), 0.0, 1.0, 1)
    with pytest.raises(CorrectorError):
        trace_branch(dae, fake, lambda_max=0.1)


def test_trace_needs_period():
    dae, seed = spring_seed()
    autonomous = SemiExplicitDae(dae.constraint, gamma=dae.gamma)
    with pytest.raises(NumericError):
        trace_branch(autonomous, seed)

"""Shooting and pseudo-arclength tracing of forced solution pairs.

The linear benchmark g = y - x, x' = lam*sin(t) is periodic from every
start (the forcing integrates to zero over a period), so its shooting
residual must vanish for all (x0, lam).  The damped oscillator problem
from the registry provides the genuinely nonlinear branch.

The shooting sensitivities are checked against the linear graph flow
g = y - x1 - x2, x' = A x + lam (0, cos t) with A = [[a, b], [-b, a]]:
its monodromy is exp(A T) = e^(aT) R(bT) (R a rotation), and its
lam-column is (I - exp(A T)) q, where q = Re[(i I - A)^-1 (0, 1)] is
the 2 pi-periodic forced response at t = 0.
"""

import csv
import dataclasses
import gc
import math
import pathlib
import weakref

import numpy as np
import pytest

import manideg.continuation as continuation
import manideg.flow as flow
from manideg import (
    AmbientMap,
    CorrectorError,
    DomainBox,
    ForcedField,
    ImplicitConstraint,
    IntegrationError,
    NumericError,
    Problem,
    REGISTRY,
    RootFindingError,
    ZeroRecord,
    correct,
    find_zeros,
    flow_map,
    implicit_solve_y,
    reduced_map,
    shooting_residual,
    trace_branch,
)
from manideg.cli import main
from manideg.fields import _integer

TWO_PI = 6.283185307179586


def linear_forced():
    con = ImplicitConstraint.from_expressions(
        1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-4.0, 4.0, 2))
    sigma = AmbientMap.from_expressions(("sin(t)",), ("x", "y"))
    return ForcedField(con, sigma=sigma, period=TWO_PI)


def linear_graph(a=-0.1, b=0.7):
    con = ImplicitConstraint.from_expressions(
        2, 1, ("y - x1 - x2",), ("x1", "x2", "y"), DomainBox.cube(-4.0, 4.0, 3))
    gamma = AmbientMap.from_expressions(
        (f"{a}*x1 + {b}*x2", f"{-b}*x1 + {a}*x2"), ("x1", "x2", "y"), allow_time=False)
    sigma = AmbientMap.from_expressions(("0", "cos(t)"), ("x1", "x2", "y"))
    return ForcedField(con, gamma, sigma, period=TWO_PI)


def spring():
    return REGISTRY["example-5-5"].build_dae()


def spring_seed(dae=None):
    dae = dae or spring()
    zeros = find_zeros(reduced_map(dae.gamma, dae.constraint), dae.constraint.domain)
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
    forced = spring()
    autonomous = ForcedField(forced.constraint, gamma=forced.gamma)
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


# --- shooting sensitivities -------------------------------------------------------

def test_default_shot_meets_the_period_map_to_1e_8():
    # pair 94 of the default example-5-5 branch (lam 0.7995), the last whose orbit stays
    # inside the box when shot at 2,048 steps: a default-step shot's x(T) lies within
    # 1e-8 of that fine shot's (measured 3.0e-9; 256 RK4 steps were 4.8e-8 off)
    path = pathlib.Path(__file__).with_name("golden_trace_example_5_5_full.csv")
    row = list(csv.reader(path.read_text().splitlines()))[1 + 94]
    dae = REGISTRY["example-5-5"].build_dae()
    lam, x0, y0 = float(row[1]), [float(row[2]), float(row[3])], [float(row[4])]
    coarse, _ = shooting_residual(dae, x0, lam, y_guess=y0)
    fine, _ = shooting_residual(dae, x0, lam, steps_per_period=2048, y_guess=y0)
    assert np.max(np.abs(coarse - fine)) <= 1e-8


def test_sensitivities_match_closed_form_on_linear_graph_flow():
    a, b = -0.1, 0.7
    dae = linear_graph(a, b)
    _, _, jac = shooting_residual(dae, np.array([0.3, -0.2]), 0.4, jacobian=True)
    w = jac + np.eye(2, 3)
    c, s = np.cos(b * TWO_PI), np.sin(b * TWO_PI)
    monodromy = np.exp(a * TWO_PI) * np.array([[c, s], [-s, c]])
    q = np.linalg.solve(1j * np.eye(2) - np.array([[a, b], [-b, a]]), [0.0, 1.0]).real
    assert np.max(np.abs(w[:, :2] - monodromy)) <= 1e-8
    assert np.max(np.abs(w[:, 2] - (np.eye(2) - monodromy) @ q)) <= 1e-8


def test_sensitivities_match_finite_differences():
    dae = spring()
    z = np.array([0.5, 0.3, 0.2])
    r0, _, jac = shooting_residual(dae, z[:2], z[2], jacobian=True)
    assert np.linalg.norm(r0) > 1e-3  # not a periodic pair
    cols = []
    for j in range(3):
        h = 1e-6 * (1.0 + abs(z[j]))
        zp = z.copy()
        zp[j] += h
        cols.append((shooting_residual(dae, zp[:2], zp[2])[0] - r0) / h)
    fd = np.column_stack(cols)
    assert np.linalg.norm(jac - fd) <= 1e-5 * np.linalg.norm(fd)


def test_sensitivities_match_finite_differences_with_two_constraints():
    # example-5-7 has s = 2: the completion and the slave matrix take the
    # linear-solve branch; central differences of the shooting residual
    dae = REGISTRY["example-5-7"].build_dae()
    z = np.array([1.0, 0.3, 0.2])
    r0, _, jac = shooting_residual(dae, z[:2], z[2], jacobian=True)
    assert np.linalg.norm(r0) > 1e-3  # not a periodic pair
    cols = []
    for j in range(3):
        h = 1e-5 * (1.0 + abs(z[j]))
        step = np.zeros(3)
        step[j] = h
        hi, lo = z + step, z - step
        cols.append((shooting_residual(dae, hi[:2], hi[2])[0]
                     - shooting_residual(dae, lo[:2], lo[2])[0]) / (2.0 * h))
    fd = np.column_stack(cols)
    assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(fd)


def test_sensitivity_shot_matches_plain_shot_bit_for_bit():
    dae = spring()
    x0, lam = np.array([0.5, 0.3]), 0.2
    r, pair = shooting_residual(dae, x0, lam)
    r_s, pair_s, _ = shooting_residual(dae, x0, lam, jacobian=True)
    assert np.array_equal(r, r_s)
    for f in dataclasses.fields(pair):
        mine, theirs = getattr(pair, f.name), getattr(pair_s, f.name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs), f.name
        else:
            assert mine == theirs, f.name
    xi0 = np.concatenate([pair.x0, pair.y0])
    plain = flow_map(dae, xi0, 0.0, dae.period, lam, n_steps=64)
    sens = flow_map(dae, xi0, 0.0, dae.period, lam, n_steps=64, sensitivity=True)
    assert plain.sensitivity is None and sens.sensitivity.shape == (2, 3)
    for name in ("final_state", "times", "states", "drifts"):
        assert np.array_equal(getattr(plain, name), getattr(sens, name)), name
    assert plain.max_drift == sens.max_drift


# --- corrector -------------------------------------------------------------------

# --- the shot against a FlowResult ---------------------------------------------------

def reference_shooting_residual(dae, x0, lam, *, steps_per_period=64, y_guess=None,
                                jacobian=False):
    """``shooting_residual`` as it was built on the FlowResult of ``flow_map``."""
    if dae.period is None:
        raise NumericError("shooting needs a forcing period")
    _integer("steps_per_period", steps_per_period, 1)
    x0 = np.array(x0, dtype=float)
    y0 = implicit_solve_y(dae.constraint, x0, y_guess=y_guess)
    xi0 = np.concatenate([x0, y0])
    res = flow_map(dae, xi0, 0.0, dae.period, lam, n_steps=steps_per_period,
                   sensitivity=jacobian)
    mean = res.states.mean(axis=0)
    amplitude = float(np.max(np.linalg.norm(res.states - mean, axis=1)))
    residual = float(np.linalg.norm(res.final_state - xi0))
    pair = continuation.SolutionPair(float(lam), x0, y0, dae.period, residual, amplitude,
                                     res.max_drift)
    k = dae.constraint.k
    r = res.final_state[:k] - x0
    if not jacobian:
        return r, pair
    return r, pair, res.sensitivity - np.eye(k, k + 1)


def assert_shot_matches_reference(dae, x0, lam, **options):
    # r, every field of the pair and the Jacobian bit for bit, or the same error
    outcomes = []
    for shoot in (shooting_residual, reference_shooting_residual):
        try:
            outcomes.append(shoot(dae, x0, lam, **options))
        except (NumericError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    if isinstance(want[0], type):
        assert got == want
        return want[0]
    assert len(got) == len(want)
    for field in dataclasses.fields(continuation.SolutionPair):
        a, b = getattr(got[1], field.name), getattr(want[1], field.name)
        assert type(a) is type(b), field.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
    for a, b in zip((got[0], *got[2:]), (want[0], *want[2:])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return "done"


@pytest.mark.parametrize("name, centre", [
    ("example-5-3", [0.0]), ("example-5-5", [0.0, 0.0]), ("example-5-7", [1.0, 0.0])])
def test_shot_matches_the_flow_map_shot_bit_for_bit(name, centre):
    # starts around each problem's seed zero
    dae, rng = REGISTRY[name].build_dae(), np.random.default_rng(29)
    outcomes = []
    for lam in (0.0, 0.3, *rng.uniform(0.0, 1.5, 3)):
        x0 = centre + rng.uniform(-0.5, 0.5, len(centre))
        for jacobian in (False, True):
            outcomes.append(assert_shot_matches_reference(dae, x0, lam, jacobian=jacobian))
    assert outcomes.count("done") >= 4, outcomes  # the others leave the domain box


@pytest.mark.parametrize("name, x0, lam, steps", [
    ("example-5-5", [1.1751332113354716, 0.2554888196727241], 0.9426193303636627, 4),
    ("example-5-7", [0.18740540825118002, 0.49913077488087687], 0.6478243910083079, 8)])
def test_shot_that_halves_a_step_matches_the_flow_map_shot(monkeypatch, name, x0, lam, steps):
    halved, advance = [], flow._advance
    monkeypatch.setattr(flow, "_advance", lambda *args: halved.append(1) or advance(*args))
    dae = REGISTRY[name].build_dae()
    for jacobian in (False, True):
        assert assert_shot_matches_reference(dae, x0, lam, steps_per_period=steps,
                                             jacobian=jacobian) == "done"
    assert len(halved) == 4  # twice per kind of shot: once in each


@pytest.mark.parametrize("options, error", [
    # a shot of the default `trace example-5-5` whose halvings leave the domain box
    ({"x0": [0.48724479855823655, 1.4017599051030145], "lam": 0.8081745901327939,
      "y_guess": [0.41974476918373504], "jacobian": True}, IntegrationError),
    ({"x0": [0.1, 0.2], "lam": math.nan}, IntegrationError),
    ({"x0": [0.1, 0.2], "lam": math.inf, "jacobian": True}, IntegrationError),
    ({"x0": [0.1, 0.2], "lam": 0.3, "steps_per_period": 0}, ValueError),
    ({"x0": [9.0, 0.2], "lam": 0.3}, RootFindingError)])
def test_shot_that_fails_raises_as_the_flow_map_shot(options, error):
    options = dict(options)
    x0, lam = options.pop("x0"), options.pop("lam")
    assert assert_shot_matches_reference(spring(), x0, lam, **options) is error


def held(x0, lam):
    # the arclength condition that holds lam fixed: tangent e_lam, ds = 0
    return np.array([*x0, lam]), np.eye(len(x0) + 1)[-1], 0.0


def test_correct_accepts_exact_pair():
    dae = spring()
    pair = correct(dae, np.zeros(2), 0.0, arclength=held(np.zeros(2), 0.0))
    assert pair.lam == 0.0
    assert pair.residual <= 1e-8
    assert pair.amplitude <= 1e-8
    assert pair.drift <= 1e-10


def test_correct_pulls_back_to_periodic_pair():
    dae = spring()
    x0 = np.array([0.05, 0.02])
    pair = correct(dae, x0, 0.0, arclength=held(x0, 0.0))
    assert pair.lam == 0.0
    assert np.linalg.norm(pair.x0) <= 1e-6
    assert pair.residual <= 1e-8


def test_correct_returns_the_pair_of_its_converged_shot():
    dae = spring()
    y_guess = np.zeros(1)
    pair = correct(dae, np.zeros(2), 0.2, arclength=held(np.zeros(2), 0.2), y_guess=y_guess)
    assert np.linalg.norm(pair.x0) > 1e-3  # Newton moved off the prediction
    assert pair.lam == 0.2
    _, shot = shooting_residual(dae, pair.x0, pair.lam, y_guess=y_guess)
    for f in dataclasses.fields(pair):
        mine, theirs = getattr(pair, f.name), getattr(shot, f.name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs), f.name
        else:
            assert mine == theirs, f.name


def test_correct_refreshes_a_stale_jacobian_once(monkeypatch):
    shots = []  # (x0, with sensitivities) per shot
    inner = continuation.shooting_residual

    def skewed(dae, x0, lam, **options):
        out = inner(dae, x0, lam, **options)
        shots.append((np.array(x0), options.get("jacobian", False)))
        if options.get("jacobian") and sum(j for _, j in shots) == 1:
            # a 20x too steep first matrix makes the first Newton step stall
            return out[0], out[1], 20.0 * out[2]
        return out

    monkeypatch.setattr(continuation, "shooting_residual", skewed)
    x0 = np.array([0.3, 0.2])
    pair = correct(spring(), x0, 0.0, arclength=held(x0, 0.0), steps_per_period=64)
    assert np.linalg.norm(pair.x0) <= 1e-6
    flags = [j for _, j in shots]
    assert flags[0] and flags.count(True) == 2
    again = flags.index(True, 1)
    assert np.array_equal(shots[again][0], shots[again - 1][0])  # same z re-shot


def test_correct_fails_when_starved(monkeypatch):
    # from here ten Newton steps converge, one does not
    monkeypatch.setattr(continuation, "CORRECTOR_MAX_ITER", 1)
    x0 = np.array([0.3, 0.2])
    with pytest.raises(CorrectorError, match="stalled"):
        correct(spring(), x0, 0.0, arclength=held(x0, 0.0))


# --- tracing ---------------------------------------------------------------------

def test_trace_integrates_one_period_per_shot(monkeypatch):
    # _steps: the step loop of flow_map, which every shot runs once
    counts = {"_steps": 0, "shooting_residual": 0}

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
    assert counts["_steps"] == counts["shooting_residual"]


@pytest.mark.parametrize("problem, w_shots, plain_shots", [
    ("example-5-5", 115, 98), ("example-5-3", 75, 80)])
def test_trace_shoots_once_per_correction(monkeypatch, capsys, tmp_path, problem, w_shots,
                                         plain_shots):
    # the chord-length predictor lands close enough that most corrections take their
    # sensitivity shot and one plain shot; the secant predictor took 115 / 135 and
    # 75 / 193 shots on these branches
    shots = {True: 0, False: 0}
    inner = continuation.shooting_residual

    def counting(*args, **kwargs):
        shots[kwargs.get("jacobian", False)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(continuation, "shooting_residual", counting)
    assert main(["trace", problem, "--out", str(tmp_path / "branch.csv")]) == 0
    assert (shots[True], shots[False]) == (w_shots, plain_shots)


@pytest.mark.parametrize("n", [3, 4])
def test_predictor_extends_a_line_through_unevenly_spaced_pairs(n):
    # the tangent passed is not the line's: the polynomial makes the prediction
    direction = np.array([3.0, -1.0, 2.0]) / math.sqrt(14.0)
    origin = np.array([0.2, 0.1, 0.0])
    spacing = np.array([0.0, 0.013, 0.05, 0.061])[-n:]
    zs = origin + np.outer(spacing, direction)
    pred = continuation._predict(zs, np.eye(3)[-1], 0.02)
    assert pred == pytest.approx(origin + 0.081 * direction, rel=0, abs=1e-15)


@pytest.mark.parametrize("repeated", [1, 2], ids=["middle", "last"])
def test_predictor_falls_back_to_the_secant_on_a_repeated_pair(repeated):
    zs = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.02], [0.03, 0.01, 0.03], [0.04, 0.01, 0.05]])
    zs[repeated + 1] = zs[repeated]
    tangent = np.array([0.6, 0.0, 0.8])
    with np.errstate(all="raise"):
        pred = continuation._predict(zs, tangent, 0.02)
    assert np.array_equal(pred, zs[-1] + 0.02 * tangent)


def test_trace_follows_a_branch_around_two_folds():
    # a forced hardening Duffing oscillator on a graph manifold: from the trivial pair
    # its branch turns back at lam 0.2315 and forward again at 0.1141 before lam = 2
    duffing = Problem(name="duffing", k=2, s=1, variables=("x1", "x2", "y"),
                      g=("y - x1 - x1^3",), gamma=("x2", "-0.5*y - 0.1*x2"),
                      sigma=("0", "cos(t)"), period=TWO_PI,
                      box=((-4.0, 4.0), (-6.0, 6.0), (-80.0, 80.0)))
    (seed,) = find_zeros(duffing.build_seed_map(), duffing.domain())
    branch = trace_branch(duffing.build_dae(), seed, lambda_max=2.0)
    assert branch.termination == "lambda_max"
    lams = np.array([p.lam for p in branch.points])
    rises = np.diff(lams) > 0.0
    folds = lams[1:-1][rises[1:] != rises[:-1]]
    assert folds == pytest.approx([0.2315, 0.1141], abs=1e-3)
    assert all(p.residual <= continuation.CORRECTOR_TOL for p in branch.points)


def test_every_pair_of_the_default_5_7_branch_meets_the_tolerance_in_x():
    # CORRECTOR_TOL bounds the x-part of the shooting residual (with the arclength
    # row); a pair's residual, the CSV column, is the full-state |xi(T) - xi(0)|
    problem = REGISTRY["example-5-7"]
    dae = problem.build_dae()
    seed = next(z for z in find_zeros(problem.build_seed_map(), problem.domain())
                if not z.degenerate)
    branch = trace_branch(dae, seed)  # the CLI's defaults
    assert branch.termination == "left_domain" and len(branch.points) > 50
    for pair in branch.points:
        r, shot = shooting_residual(dae, pair.x0, pair.lam, y_guess=pair.y0)
        assert np.linalg.norm(r) <= continuation.CORRECTOR_TOL
        assert shot.residual == pair.residual >= np.linalg.norm(r)


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


@pytest.mark.parametrize("options, needle", [
    ({"ds": 0.0}, "ds must be a positive finite step"),
    ({"ds": -0.02}, "ds must be a positive finite step"),
    ({"ds": math.nan}, "ds must be a positive finite step"),
    ({"ds": math.inf}, "ds must be a positive finite step"),
    ({"lambda_max": math.nan}, "lambda_max must not be nan"),
    ({"max_steps": 0}, "max_steps must be an integer of at least 1"),
    ({"max_steps": -1}, "max_steps must be an integer of at least 1"),
    ({"max_steps": 2.5}, "max_steps must be an integer of at least 1"),
    ({"max_steps": True}, "max_steps must be an integer of at least 1"),
], ids=["zero-ds", "negative-ds", "nan-ds", "inf-ds", "nan-lambda-max",
        "zero-max-steps", "negative-max-steps", "fractional-max-steps", "bool-max-steps"])
def test_trace_rejects_a_step_or_bound_that_cannot_trace(options, needle):
    # ds = 0 would repeat the seed until max_steps, ds < 0 step to lam < 0 and end
    # left_domain, and lam never reaches a nan lambda_max; max_steps 0, -1 or True
    # would still return the seed, and 2.5 would return 3 pairs
    dae, seed = spring_seed()
    with pytest.raises(ValueError, match=needle):
        trace_branch(dae, seed, **options)


def test_trace_stops_at_max_steps():
    dae, seed = spring_seed()
    branch = trace_branch(dae, seed, ds=0.02, lambda_max=10.0, max_steps=3)
    assert branch.termination == "max_steps"
    assert len(branch.points) == 3


def test_trace_reports_domain_exit():
    # the spring on a box of +-0.2: every pair lies inside it, and the corrector of the
    # 15th fails because a y-solve converges outside it
    small = dataclasses.replace(REGISTRY["example-5-5"], box=((-0.2, 0.2),) * 3)
    dae, seed = spring_seed(small.build_dae())
    branch = trace_branch(dae, seed, lambda_max=5.0)
    assert branch.termination == "left_domain"
    assert len(branch.points) == 14
    assert all(dae.constraint.domain.contains([*p.x0, *p.y0]) for p in branch.points)


def test_branch_ended_by_a_failure_is_freed_without_the_cycle_collector(monkeypatch):
    # the corrector of every advance after the first gets no Newton step and fails; the
    # branch must not keep that error, whose traceback holds trace_branch's frame and
    # with it every pair, in a reference cycle
    real, calls = continuation.correct, []

    def starved(*args, **kwargs):
        calls.append(args)
        monkeypatch.setattr(continuation, "CORRECTOR_MAX_ITER", 10 if len(calls) == 1 else 0)
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "correct", starved)
    dae, seed = spring_seed()
    gc.disable()
    try:
        branch = trace_branch(dae, seed, ds=0.05, lambda_max=1.0, steps_per_period=64)
        assert branch.termination == "corrector_failure" and len(branch.points) == 2
        last = weakref.ref(branch.points[-1])
        del branch
        assert last() is None
    finally:
        gc.enable()


def test_trace_rejects_nonperiodic_seed():
    dae = spring()
    x = np.array([0.5, 0.3])
    y = implicit_solve_y(dae.constraint, x)
    fake = ZeroRecord(np.concatenate([x, y]), 0.0, 1.0, 1)
    with pytest.raises(CorrectorError):
        trace_branch(dae, fake, lambda_max=0.1)


def test_trace_needs_period():
    forced, seed = spring_seed()
    autonomous = ForcedField(forced.constraint, gamma=forced.gamma)
    with pytest.raises(NumericError):
        trace_branch(autonomous, seed)

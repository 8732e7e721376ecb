"""Continuation of forced periodic solution pairs from seed zeros.

A zero of a seed map (a trivial solution pair at lam = 0) is continued
in the forcing amplitude lam by shooting: a solution pair is a fixed
point of the period map in the x-coordinates, y being slaved to x
through the constraint.  The system is a
:class:`~manideg.manifold.ForcedField` with a period; every shot
integrates that field itself, so a trace binds its generated code once.
The tracer takes pseudo-arclength steps in (x0, lam), predicting each
pair by Lagrange extrapolation in chord length through the last four
pairs, and corrects by Newton.  The corrector's sensitivities
W = dx(T)/d(x0, lam) are exact up to the integration error: the shot at
the prediction integrates the variational equation W' = A W + [0 | sigma]
alongside its trajectory, with A = d_x p + d_y p * S, p = gamma + lam *
sigma and S = -(d_y g)^-1 d_x g the slope of y slaved to x, so only first
derivatives are needed (Allgower & Georg, "Introduction to Numerical
Continuation Methods"; Seydel, "Practical Bifurcation and Stability
Analysis").  Every shot integrates one period once, and the same
trajectory gives the shooting residual, the solution pair (residual,
amplitude, drift) and, when asked, the sensitivities, so the corrector
returns the pair of its converged shot.  Corrector failures halve the
step length a few times before the branch is abandoned.

Everything here is deterministic: rerunning a trace reproduces the
branch point for point.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CorrectorError, DomainEscapeError, NumericError
from .fields import _integer
from .flow import _check_finite, _steps
from .manifold import implicit_solve_y

__all__ = [
    "SolutionPair", "Branch", "shooting_residual",
    "correct", "trace_branch", "DEFAULT_TRACE_STEPS_PER_PERIOD",
]

DEFAULT_TRACE_STEPS_PER_PERIOD = 64
CORRECTOR_TOL = 1e-8  # norm of (x(T) - x(0), arclength row) at which the corrector stops
CORRECTOR_MAX_ITER = 10  # Newton steps per correction
ARCLENGTH_HALVINGS = 5  # step halvings per arclength advance


@dataclass
class SolutionPair:
    """A forcing amplitude and the periodic trajectory it sustains."""

    lam: float
    x0: np.ndarray
    y0: np.ndarray
    period: float
    # the full-state |xi(T) - xi(0)|, y included, as the CSV prints it; the corrector
    # bounds only the x-part with the arclength row, so this may exceed CORRECTOR_TOL
    residual: float
    # max deviation of the step-end states from their mean, which counts the start state
    # twice (xi(T) ~ xi(0)): off the one-period time mean by about (xi(0) - mean) / (n + 1)
    amplitude: float
    drift: float      # max |g| along the trajectory


@dataclass
class Branch:
    points: list
    seed: object
    termination: str  # 'lambda_max' | 'max_steps' | 'corrector_failure' | 'left_domain',
    # the last for two ends: a pair off the box or at lam < 0, or a failure that ran off it


def shooting_residual(dae, x0, lam, *, steps_per_period=DEFAULT_TRACE_STEPS_PER_PERIOD,
                      y_guess=None, jacobian=False):
    """Shoot one period from (x0, lam).

    Returns x(T) - x(0) and the :class:`SolutionPair` built from the
    same trajectory.  With ``jacobian`` a third item follows: the k x
    (k + 1) derivative of the residual with respect to (x0, lam),
    W - [I | 0], where W = dx(T)/d(x0, lam) is integrated by the
    variational equation alongside the same trajectory.

    The shot runs the steps of :func:`~manideg.flow.flow_map`, with its
    checks, and keeps of them only what the pair reads: the states for
    the amplitude, the largest drift and the end state, with no
    :class:`~manideg.flow.FlowResult`.
    """
    if dae.period is None:
        raise NumericError("shooting needs a forcing period")
    n_steps = _integer("steps_per_period", steps_per_period, 1)
    x0 = np.array(x0, dtype=float)  # the pair keeps it; callers may mutate theirs
    y0 = implicit_solve_y(dae.constraint, x0, y_guess=y_guess)
    xi0 = np.concatenate([x0, y0])
    _check_finite(lam=lam)
    state, w, states, drifts = _steps(dae, xi0, 0.0, dae.period, n_steps, lam, jacobian)
    states = np.array(states).reshape(n_steps + 1, xi0.size)
    end = np.array(state)
    mean = states.mean(axis=0)
    amplitude = float(np.max(np.linalg.norm(states - mean, axis=1)))
    residual = float(np.linalg.norm(end - xi0))
    pair = SolutionPair(float(lam), x0, y0, dae.period, residual, amplitude, max(drifts))
    k = dae.constraint.k
    r = end[:k] - x0
    if not jacobian:
        return r, pair
    return r, pair, np.array(w) - np.eye(k, k + 1)


def correct(dae, x0, lam, arclength, *,
            steps_per_period=DEFAULT_TRACE_STEPS_PER_PERIOD, y_guess=None):
    """Newton-correct a predicted solution pair, to a residual norm of ``CORRECTOR_TOL``.

    ``arclength`` is a tuple ``(z_prev, tangent, ds)`` over z = (x0, lam):
    the corrected pair also satisfies the arclength condition
    tangent . (z - z_prev) = ds.  With the tangent e_lam and ds = 0 that
    holds lam at the value of ``z_prev`` and corrects x0 alone.

    ``CORRECTOR_TOL`` bounds the norm of the x-part x(T) - x(0) of the
    shooting residual stacked with the arclength row.  The returned
    pair's ``residual``, which the trace CSV prints, is the full-state
    |xi(T) - xi(0)| with y included, and may exceed it.

    The Newton matrix is ``[W - [I | 0]; tangent]``, with W the exact
    shooting sensitivities that the shot at the prediction integrates
    alongside its trajectory.  It is kept frozen over the at most
    ``CORRECTOR_MAX_ITER`` Newton steps, each of which shoots one plain
    period; if a step stalls, the next iteration re-shoots the current z
    with sensitivities once to refresh it.
    """
    k = dae.constraint.k
    z = np.concatenate([np.asarray(x0, dtype=float), [float(lam)]])
    z_prev, tangent, ds = arclength

    def shoot(zv, jacobian=False):
        # (residual, pair of the shot, Newton matrix or None)
        r, pair, *jac = shooting_residual(dae, zv[:k], zv[k], y_guess=y_guess,
                                          steps_per_period=steps_per_period,
                                          jacobian=jacobian)
        r = np.append(r, tangent @ (zv - z_prev) - ds)
        return r, pair, np.vstack([jac[0], tangent]) if jac else None

    try:
        r, pair, jac = shoot(z, jacobian=True)  # pair: the shot at the current z
        refreshed = False
        for _ in range(CORRECTOR_MAX_ITER):
            if np.linalg.norm(r) <= CORRECTOR_TOL:
                return pair
            if jac is None:
                r, pair, jac = shoot(z, jacobian=True)
            try:
                delta = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                raise CorrectorError("singular shooting sensitivity matrix") from None
            z += delta
            r_new, pair, _ = shoot(z)
            if np.linalg.norm(r_new) > 0.9 * np.linalg.norm(r) and not refreshed:
                jac = None  # frozen sensitivities went stale; rebuild once
                refreshed = True
            r = r_new
        if np.linalg.norm(r) <= CORRECTOR_TOL:
            return pair
    except NumericError as exc:
        raise CorrectorError(f"corrector aborted: {exc}") from exc
    raise CorrectorError(
        f"corrector stalled at residual {np.linalg.norm(r):.3e} "
        f"(tolerance {CORRECTOR_TOL:.1e})"
    )


def _escaped_domain(exc):
    # walk the cause chain: a DomainEscapeError anywhere means the
    # branch ran off the chart box, not that the corrector broke down
    seen = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, DomainEscapeError):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


def _predict(zs, tangent, step):
    # Lagrange extrapolation through zs (oldest first) in cumulative chord length, step
    # past the last; the secant along tangent for under three pairs or a chord <= 1e-14
    chords = np.linalg.norm(np.diff(zs, axis=0), axis=1).tolist()  # floats beat numpy scalars
    if len(zs) < 3 or min(chords) <= 1e-14:
        return zs[-1] + step * tangent
    nodes = list(itertools.accumulate(chords, initial=0.0))
    at = nodes[-1] + step
    return [math.prod([(at - si) / (sj - si) for si in nodes if si != sj]) for sj in nodes] @ zs


def trace_branch(dae, seed, ds=0.02, lambda_max=1.0, max_steps=400, *,
                 steps_per_period=DEFAULT_TRACE_STEPS_PER_PERIOD):
    """Follow a branch of solution pairs from a seed zero at lam = 0.

    Each advance predicts z = (x0, lam) by extrapolating the Lagrange
    polynomial through the last (up to four) pairs in their cumulative
    chord length, one step past the last pair; the first step moves along
    e_lam and the second, or one with a chord of at most 1e-14, along the
    secant.  The corrected pair lies on the hyperplane
    tangent . (z - z_last) = step, tangent being the unit secant.

    Parameters
    ----------
    dae : ForcedField
        Forced system (sigma and period required).
    seed : ZeroRecord
        A zero of a seed map; its first k coordinates start the branch.
    ds : float
        Pseudo-arclength step in (x0, lam), positive and finite.  Halved
        on corrector failure, up to ``ARCLENGTH_HALVINGS`` times per
        advance; restored to the full length after every accepted point.
    lambda_max, max_steps :
        Stop once the amplitude parameter reaches lambda_max (not nan)
        or the branch holds max_steps points (an integer of at least 1).

    Returns
    -------
    Branch with the ordered points and its termination: ``lambda_max``,
    ``max_steps``, ``corrector_failure`` (every halving of an advance
    failed) or ``left_domain``, which names two ends: a last pair off the
    box or at lam < 0, and an advance whose last failure ran off the box.
    """
    if not (math.isfinite(ds) and ds > 0.0):
        raise ValueError(f"ds must be a positive finite step, got {ds!r}")
    if math.isnan(lambda_max):
        raise ValueError("lambda_max must not be nan")
    _integer("max_steps", max_steps, 1)
    k = dae.constraint.k
    _, pair = shooting_residual(dae, np.asarray(seed.location[:k], dtype=float), 0.0,
                                steps_per_period=steps_per_period,
                                y_guess=np.asarray(seed.location[k:], dtype=float))
    if pair.residual > 1e-6:
        raise CorrectorError(f"seed at {pair.x0} is not a periodic pair at lam = 0 "
                             f"(residual {pair.residual:.3e})")
    points = [pair]
    tangent = np.eye(k + 1)[k]  # first step: grow the forcing from zero
    while True:
        if pair.lam >= lambda_max:
            return Branch(points, seed, "lambda_max")
        if len(points) >= max_steps:
            return Branch(points, seed, "max_steps")
        if not dae.constraint.domain.contains([*pair.x0, *pair.y0]) or pair.lam < 0.0:
            return Branch(points, seed, "left_domain")
        zs = np.array([[*p.x0, p.lam] for p in points[-4:]])  # (x0, lam), oldest first
        if len(zs) > 1:
            secant = zs[-1] - zs[-2]
            norm = np.linalg.norm(secant)
            if norm > 1e-14:  # coincident points keep the old direction
                tangent = secant / norm
        escaped = False  # whether the last failure ran off the box; the error itself
        step = float(ds)  # would keep this frame, and every pair, in a reference cycle
        for _ in range(ARCLENGTH_HALVINGS + 1):
            pred = _predict(zs, tangent, step)
            try:
                pair = correct(dae, pred[:k], pred[k], arclength=(zs[-1], tangent, step),
                               steps_per_period=steps_per_period, y_guess=pair.y0)
                break
            except CorrectorError as exc:
                escaped = _escaped_domain(exc)
                step /= 2.0
        else:
            if len(points) == 1:
                raise CorrectorError("corrector failed on the very first continuation step; "
                                     "the seed does not start a traceable branch")
            return Branch(points, seed, "left_domain" if escaped else "corrector_failure")
        points.append(pair)

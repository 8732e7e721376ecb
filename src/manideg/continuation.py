"""Continuation of forced periodic solution pairs from seed zeros.

A zero of a seed map (a trivial solution pair at lam = 0) is continued
in the forcing amplitude lam by shooting: a solution pair is a fixed
point of the period map in the x-coordinates, y being slaved to x
through the constraint.  The tracer takes pseudo-arclength steps in
(x0, lam) with a secant predictor and a Newton corrector.  The
corrector's sensitivities W = dx(T)/d(x0, lam) are exact up to the
integration error: the shot at the prediction integrates the
variational equation W' = A W + [0 | sigma] alongside its trajectory,
with A = d_x p + d_y p * S, p = gamma + lam * sigma and
S = -(d_y g)^-1 d_x g the slope of y slaved to x, so only first
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

from dataclasses import dataclass

import numpy as np

from .degree import find_zeros
from .errors import CorrectorError, DomainEscapeError, NumericError
from .flow import flow_map
from .manifold import ForcedField, implicit_solve_y

__all__ = [
    "SolutionPair", "Branch", "seed_points", "shooting_residual",
    "correct", "trace_branch", "DEFAULT_TRACE_STEPS_PER_PERIOD",
]

DEFAULT_TRACE_STEPS_PER_PERIOD = 256


@dataclass
class SolutionPair:
    """A forcing amplitude and the periodic trajectory it sustains."""

    lam: float
    x0: np.ndarray
    y0: np.ndarray
    period: float
    residual: float   # |state(T) - state(0)|
    amplitude: float  # max deviation of the trajectory from its time mean
    drift: float      # max |g| along the trajectory


@dataclass
class Branch:
    points: list
    seed: object
    termination: str  # 'lambda_max' | 'max_steps' | 'corrector_failure' | 'left_domain'


def seed_points(seed_map, box, **find_options):
    """Zeros of a seed map inside the box; each is a candidate branch root."""
    return find_zeros(seed_map, box, **find_options)


def shooting_residual(dae, x0, lam, *, steps_per_period=DEFAULT_TRACE_STEPS_PER_PERIOD,
                      y_guess=None, projection_tol=1e-12, jacobian=False):
    """Shoot one period from (x0, lam).

    Returns x(T) - x(0) and the :class:`SolutionPair` built from the
    same trajectory.  With ``jacobian`` a third item follows: the k x
    (k + 1) derivative of the residual with respect to (x0, lam),
    W - [I | 0], where W = dx(T)/d(x0, lam) is integrated by the
    variational equation alongside the same trajectory.
    """
    if dae.period is None:
        raise NumericError("shooting needs a forcing period")
    x0 = np.array(x0, dtype=float)  # the pair keeps it; callers may mutate theirs
    field = ForcedField(dae.constraint, dae.gamma, dae.sigma)
    y0 = implicit_solve_y(dae.constraint, x0, y_guess=y_guess, tol=projection_tol)
    xi0 = np.concatenate([x0, y0])
    res = flow_map(field, xi0, 0.0, dae.period, lam, n_steps=steps_per_period,
                   projection_tol=projection_tol, sensitivity=jacobian)
    mean = res.states.mean(axis=0)
    amplitude = float(np.max(np.linalg.norm(res.states - mean, axis=1)))
    residual = float(np.linalg.norm(res.final_state - xi0))
    pair = SolutionPair(float(lam), x0, y0, dae.period, residual, amplitude,
                        res.max_drift)
    r = res.final_state[: dae.k] - x0
    if not jacobian:
        return r, pair
    return r, pair, res.sensitivity - np.eye(dae.k, dae.k + 1)


def correct(dae, x0, lam, *, arclength=None, tol=1e-8, max_iter=10,
            steps_per_period=DEFAULT_TRACE_STEPS_PER_PERIOD, y_guess=None):
    """Newton-correct a predicted solution pair.

    With ``arclength=None`` the forcing amplitude is held fixed and
    only x0 is adjusted.  Otherwise ``arclength`` is a tuple
    ``(z_prev, tangent, ds)`` over z = (x0, lam) and the corrector also
    satisfies the arclength condition tangent . (z - z_prev) = ds.

    The Newton matrix is ``[W - [I | 0]; tangent]`` (without the
    tangent row and the lam column when lam is fixed), with W the
    exact shooting sensitivities that the shot at the prediction
    integrates alongside its trajectory.  It is kept frozen over the
    Newton steps, each of which shoots one plain period; if a step
    stalls, the next iteration re-shoots the current z with
    sensitivities once to refresh it.
    """
    k = dae.k
    z = np.concatenate([np.asarray(x0, dtype=float), [float(lam)]])

    def shoot(zv, jacobian=False):
        # (residual, pair of the shot, Newton matrix or None)
        r, pair, *jac = shooting_residual(dae, zv[:k], zv[k], y_guess=y_guess,
                                          steps_per_period=steps_per_period,
                                          jacobian=jacobian)
        if arclength is None:
            jac = [m[:, :k] for m in jac]
        else:
            z_prev, tangent, ds = arclength
            r = np.append(r, tangent @ (zv - z_prev) - ds)
            jac = [np.vstack([m, tangent]) for m in jac]
        return r, pair, jac[0] if jac else None

    try:
        r, pair, jac = shoot(z, jacobian=True)  # pair: the shot at the current z
        refreshed = False
        for _ in range(max_iter):
            if np.linalg.norm(r) <= tol:
                return pair
            if jac is None:
                r, pair, jac = shoot(z, jacobian=True)
            try:
                delta = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                raise CorrectorError("singular shooting sensitivity matrix") from None
            if arclength is None:
                z[:k] += delta
            else:
                z += delta
            r_new, pair, _ = shoot(z)
            if np.linalg.norm(r_new) > 0.9 * np.linalg.norm(r) and not refreshed:
                jac = None  # frozen sensitivities went stale; rebuild once
                refreshed = True
            r = r_new
        if np.linalg.norm(r) <= tol:
            return pair
    except NumericError as exc:
        raise CorrectorError(f"corrector aborted: {exc}") from exc
    raise CorrectorError(
        f"corrector stalled at residual {np.linalg.norm(r):.3e} "
        f"(tolerance {tol:.1e})"
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


def trace_branch(dae, seed, ds=0.02, lambda_max=1.0, max_steps=400, *,
                 domain_box=None, steps_per_period=DEFAULT_TRACE_STEPS_PER_PERIOD,
                 tol=1e-8, max_halvings=5):
    """Follow a branch of solution pairs from a seed zero at lam = 0.

    Parameters
    ----------
    dae : SemiExplicitDae
        Forced system (sigma and period required).
    seed : ZeroRecord
        A zero of a seed map; its first k coordinates start the branch.
    ds : float
        Pseudo-arclength step in (x0, lam).  Halved on corrector
        failure, up to ``max_halvings`` times per advance; restored to
        the full length after every accepted point.
    lambda_max, max_steps :
        Stop once the amplitude parameter reaches lambda_max or the
        branch holds max_steps points.
    domain_box : DomainBox, optional
        Region the pairs must stay inside (defaults to the
        constraint's domain).

    Returns
    -------
    Branch with the ordered points and a termination reason.
    """
    if dae.period is None:
        raise NumericError("branch tracing needs a forcing period")
    k = dae.k
    box = domain_box or dae.constraint.domain
    x_seed = np.asarray(seed.location[:k], dtype=float)
    y_hint = np.asarray(seed.location[k:], dtype=float)

    _, pair = shooting_residual(dae, x_seed, 0.0, steps_per_period=steps_per_period,
                                y_guess=y_hint)
    if pair.residual > 1e-6:
        raise CorrectorError(
            f"seed at {x_seed} is not a periodic pair at lam = 0 "
            f"(residual {pair.residual:.3e})"
        )
    points = [pair]
    termination = None
    tangent = None

    while termination is None:
        last = points[-1]
        if last.lam >= lambda_max:
            termination = "lambda_max"
            break
        if len(points) >= max_steps:
            termination = "max_steps"
            break
        if not box.contains(np.concatenate([last.x0, last.y0])) or last.lam < 0.0:
            termination = "left_domain"
            break
        z_last = np.concatenate([last.x0, [last.lam]])
        if len(points) == 1:
            tangent = np.zeros(k + 1)
            tangent[k] = 1.0  # first step: grow the forcing from zero
        else:
            prev = points[-2]
            z_prev = np.concatenate([prev.x0, [prev.lam]])
            secant = z_last - z_prev
            norm = np.linalg.norm(secant)
            if norm > 1e-14:  # coincident points keep the old direction
                tangent = secant / norm

        corrected = None
        failure = None
        step = float(ds)
        for _ in range(max_halvings + 1):
            pred = z_last + step * tangent
            try:
                corrected = correct(
                    dae, pred[:k], pred[k],
                    arclength=(z_last, tangent, step), tol=tol,
                    steps_per_period=steps_per_period, y_guess=last.y0,
                )
                break
            except CorrectorError as exc:
                failure = exc
                step /= 2.0
        if corrected is None:
            if len(points) == 1:
                raise CorrectorError(
                    "corrector failed on the very first continuation step; "
                    "the seed does not start a traceable branch"
                )
            termination = ("left_domain" if _escaped_domain(failure)
                           else "corrector_failure")
            break
        points.append(corrected)

    return Branch(points, seed, termination)

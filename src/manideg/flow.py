"""Time integration of tangent fields with constraint projection.

Each step is a 6-stage Dormand-Prince update of 5th order (the 5th-order
solution of their 5(4) pair: Dormand & Prince, J. Comput. Appl. Math. 6,
1980; Hairer, Norsett & Wanner, "Solving ODEs I", II.5) in ambient
coordinates, followed by a projection of the y-components back onto the
level set (Newton on g with x frozen), the standard projection method
(Hairer, Lubich & Wanner, "Geometric Numerical Integration", IV.4).  A
step leaves the level set only at the local error order, so the
projection preserves the fifth-order accuracy while keeping the
constraint drift at the projection tolerance instead of letting it
accumulate.  The step size is fixed: there is no embedded error
estimate, and the states are those at the step ends.  Steps whose
projection fails are retried at half the step size; the step size
underflowing signals that the flow leaves the region where the
constraint can be solved.

On request the same steps also carry the sensitivities
W = dx/d(x0, lam) of the x-components, by the variational equation of
the x-dynamics with y slaved to x; a shot that asks for them visits
exactly the states of a plain shot.

A shot is one call of the field's generated code on Python floats (see
:class:`~manideg.manifold.ForcedField`): a loop over the steps whose
body is straight-line code, the six stages inlined, the shifted points,
the stage sum, then the damped y-Newton and the domain-box test of
:func:`~manideg.manifold.implicit_solve_y`.  It appends each state's
floats to one flat list, reshaped once after the shot, and |g| to a
second list, and carries W as k row tuples of floats, each entry of a
stage's A W summed left to right.  A step whose projection fails ends
that call; halving it is the Python fallback of :func:`_advance`, which
runs each half step as a shot of one step, and the loop then resumes
after it.  :func:`flow_map` and the shooting of
:mod:`manideg.continuation` share that loop (:func:`_steps`); the
shooting builds no :class:`FlowResult`.

The step code is folded as it is generated (see
:func:`~manideg.manifold._source`): x * 1.0, 1.0 * x, x / 1.0, x / -1.0
and arithmetic on two literals, which is bit-exact up to the sign of a
nan, and every term with a structural zero, a partial that no expression
has or a literal 0.0 (lam * 0.0, 0.0 * x, 0.0 / pivot, ...).  Dropping
such a term can change a result in two ways only: a zero may change sign,
and an inf or nan operand no longer meets the dropped 0.0.  A non-finite
``lam`` is therefore rejected up front, as are a non-finite time and step;
a dropped division divides by a pivot its generated zero test passed.  No
power, call or other division is folded.  A power u ** m (m >= 2) whose
value nothing reads is not computed: it stays as its overflow test,
``if not lo <= u <= hi: u ** m``, with [lo, hi] the floats whose m-th
power is finite on this platform, which raises the power's
OverflowError for exactly the u whose power raises (a nan or inf u
passes, as nan ** m and inf ** m do not raise).  So a step raises where
the unfolded code raised.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscapeError, DomainEvalError, IntegrationError, RootFindingError
from .fields import _floats, _integer

__all__ = ["FlowResult", "projected_step", "flow_map", "DEFAULT_STEPS_PER_PERIOD"]

DEFAULT_STEPS_PER_PERIOD = 1024
_MAX_HALVINGS = 20
ON_MANIFOLD_TOL = 1e-8  # |g| the initial state of a flow may have


@dataclass
class FlowResult:
    """A trajectory: its end state and the samples at every step."""

    final_state: np.ndarray
    max_drift: float
    steps: int
    times: np.ndarray   # (steps + 1,)
    states: np.ndarray  # (steps + 1, state size)
    drifts: np.ndarray  # |g| at each sample
    sensitivity: np.ndarray | None = None  # d x(t1) / d (x(t0), lam), k x (k + 1)


def projected_step(field, state, t, dt, lam=0.0):
    """One Dormand-Prince step of ``field.velocity(t, ., lam)`` plus y-projection.

    It runs the generated step code of :func:`flow_map`; a step whose
    projection fails raises that error instead of being halved, and a
    stage that overflows raises :func:`flow_map`'s ``DomainEvalError``.
    The sensitivities W are stepped by ``flow_map(..., sensitivity=True)``.
    """
    _check_finite(lam=lam, t=t, dt=dt)
    state = _floats(state, field.constraint.dim, "state")
    _, stepped, _, failure = field._code["dp5"](0, 1, t, dt, float(lam), None, [], [], *state)
    if failure is not None:
        _check_projection_failure(failure, t)
        raise failure
    return np.array(stepped)


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise IntegrationError(f"{name} must be finite, got {value!r}")


def _check_projection_failure(failure, t):
    # the error a step from time t returned passes when its projection failed (a
    # RootFindingError); any other is a stage that overflowed, which is outside the field's
    # domain as a stage's _div or _log error is, and like that error it is not halved
    if not isinstance(failure, RootFindingError):
        raise DomainEvalError(
            f"the field does not evaluate to finite numbers near t = {t:.6g}: {failure}"
        ) from failure


def _advance(shot, state, w, t, dt, lam, failure, depth=0):
    # (state, W, drift) one projected step of dt after ``state`` at time t, whose try in
    # ``shot`` returned ``failure``: the step again as two half steps, each a shot of one
    # step (at t + 0 * dt, which is t) and halved in turn if it fails; W stays None when
    # not integrated
    _check_projection_failure(failure, t)
    if depth >= _MAX_HALVINGS:
        reason = ("the trajectory left the domain box"
                  if isinstance(failure, DomainEscapeError)
                  else "the flow leaves the region where the constraint "
                       "is solvable")
        raise IntegrationError(
            f"time step underflow near t = {t:.6g}; {reason}"
        ) from failure
    half = dt / 2.0
    for start in (t, t + half):
        drifts = []
        _, stepped, stepped_w, failure = shot(0, 1, start, half, lam, w, [], drifts, *state)
        state, w, drift = ((stepped, stepped_w, drifts[0]) if failure is None else
                           _advance(shot, state, w, start, half, lam, failure, depth + 1))
    return state, w, drift


def flow_map(field, xi0, t0, t1, lam=0.0, *, n_steps=None, sensitivity=False):
    """Flow ``xi0`` from ``t0`` to ``t1`` along a tangent field.

    Parameters
    ----------
    field : ForcedField
        The tangent field; its ``constraint`` defines the level set.
    xi0 : array
        Initial state; must satisfy the constraint to ``ON_MANIFOLD_TOL``.
    n_steps : int, optional
        Step count over the span, an integer of at least 1 (else
        ``ValueError``); defaults to ``DEFAULT_STEPS_PER_PERIOD`` (1024).
    sensitivity : bool
        Also integrate W = dx(t1)/d(x(t0), lam) along the same steps;
        the states are the same as without it.

    The result keeps the state and drift at every step.
    """
    n_steps = DEFAULT_STEPS_PER_PERIOD if n_steps is None else _integer("n_steps", n_steps, 1)
    _check_finite(lam=lam, t0=t0, t1=t1)
    xi0 = np.asarray(xi0, dtype=float)
    state, w, states, drifts = _steps(field, xi0, t0, t1, n_steps, lam, sensitivity)
    steps = len(drifts) - 1  # n_steps, or none from t1 == t0
    dt = float(t1 - t0) / n_steps
    times = [t0] + [float(t0) + i * dt for i in range(1, steps + 1)]
    return FlowResult(np.array(state), max(drifts), steps, np.array(times),
                      np.array(states).reshape(steps + 1, xi0.size), np.array(drifts),
                      w and np.array(w))


def _steps(field, xi0, t0, t1, n_steps, lam, sensitivity):
    # the steps of flow_map, for a finite lam, t0 and t1 and an int n_steps >= 1: n_steps
    # projected steps of (t1 - t0) / n_steps from the float array xi0 at t0, none when
    # t1 == t0, each that fails halved by _advance.  Returns the end state (a list), W (k
    # row tuples; None without sensitivity), the states from xi0 on as one flat list of
    # floats and the drifts |g| at each.  xi0 must satisfy the constraint to ON_MANIFOLD_TOL
    c = field.constraint
    drift0 = c.residual(xi0)
    if drift0 > ON_MANIFOLD_TOL:
        raise ValueError(
            f"initial state violates the constraint (|g| = {drift0:.3e} "
            f"> {ON_MANIFOLD_TOL:.1e})"
        )
    w = tuple(map(tuple, np.eye(c.k, c.k + 1).tolist())) if sensitivity else None
    state, states, drifts = xi0.tolist(), xi0.tolist(), [drift0]
    span = float(t1 - t0)
    if span == 0.0:
        return state, w, states, drifts
    dt = span / n_steps

    # numpy scalars would turn every float of the steps into one
    t0, lam = float(t0), float(lam)
    shot, i = field._code["dp5w" if sensitivity else "dp5"], 0
    while i < n_steps:
        i, state, w, failure = shot(i, n_steps, t0, dt, lam, w, states, drifts, *state)
        if failure is not None:  # step i, halved
            state, w, drift = _advance(shot, state, w, t0 + i * dt, dt, lam, failure)
            states += state
            drifts.append(drift)
            i += 1
    return state, w, states, drifts

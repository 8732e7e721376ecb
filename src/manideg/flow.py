"""Time integration of tangent fields with constraint projection.

Each step is a classical 4-stage Runge-Kutta update in ambient
coordinates followed by a projection of the y-components back onto the
level set (Newton on g with x frozen).  An RK4 step leaves the level
set only at the local error order, so the projection preserves the
fourth-order accuracy while keeping the constraint drift at the
projection tolerance instead of letting it accumulate.

Steps whose projection fails are retried at half the step size; the
step size underflowing signals that the flow leaves the region where
the constraint can be solved.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainEscapeError, IntegrationError, RootFindingError
from .manifold import implicit_solve_y

__all__ = ["FlowResult", "projected_step", "flow_map", "period_map",
           "write_trajectory_csv", "DEFAULT_STEPS_PER_PERIOD"]

DEFAULT_STEPS_PER_PERIOD = 4096
_MAX_HALVINGS = 20


@dataclass
class FlowResult:
    """A trajectory: its end state and the samples at every step."""

    final_state: np.ndarray
    max_drift: float
    steps: int
    times: np.ndarray   # (steps + 1,)
    states: np.ndarray  # (steps + 1, state size)
    drifts: np.ndarray  # |g| at each sample


def projected_step(field, state, t, dt, lam=0.0, projection_tol=1e-12):
    """One RK4 step of ``field.velocity(t, ., lam)`` plus y-projection."""
    c = field.constraint
    k1 = field.velocity(t, state, lam)
    k2 = field.velocity(t + dt / 2.0, state + (dt / 2.0) * k1, lam)
    k3 = field.velocity(t + dt / 2.0, state + (dt / 2.0) * k2, lam)
    k4 = field.velocity(t + dt, state + dt * k3, lam)
    raw = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    x = raw[: c.k]
    y = implicit_solve_y(c, x, y_guess=raw[c.k:], tol=projection_tol)
    return np.concatenate([x, y])


def _advance(field, state, t, dt, lam, projection_tol, depth=0):
    try:
        return projected_step(field, state, t, dt, lam, projection_tol)
    except RootFindingError as exc:
        if depth >= _MAX_HALVINGS:
            reason = ("the trajectory left the domain box"
                      if isinstance(exc, DomainEscapeError)
                      else "the flow leaves the region where the constraint "
                           "is solvable")
            raise IntegrationError(
                f"time step underflow near t = {t:.6g}; {reason}"
            ) from exc
        half = dt / 2.0
        mid = _advance(field, state, t, half, lam, projection_tol, depth + 1)
        return _advance(field, mid, t + half, half, lam, projection_tol, depth + 1)


def flow_map(field, xi0, t0, t1, lam=0.0, *, n_steps=None, dt_max=None,
             projection_tol=1e-12, on_manifold_tol=1e-8):
    """Flow ``xi0`` from ``t0`` to ``t1`` along a tangent field.

    Parameters
    ----------
    field :
        Object with ``velocity(t, state, lam)`` and a ``constraint``
        attribute (a ForcedField).
    xi0 : array
        Initial state; must satisfy the constraint to ``on_manifold_tol``.
    n_steps, dt_max :
        Either a fixed step count or a step-size cap from which the
        count is derived (``ceil`` of span / dt_max).  Defaults to 4096
        steps over the span.

    The result keeps the state and drift at every step.
    """
    c = field.constraint
    xi0 = np.asarray(xi0, dtype=float)
    drift0 = c.residual(xi0)
    if drift0 > on_manifold_tol:
        raise ValueError(
            f"initial state violates the constraint (|g| = {drift0:.3e} "
            f"> {on_manifold_tol:.1e})"
        )
    span = float(t1 - t0)
    if span == 0.0:
        return FlowResult(xi0.copy(), drift0, 0, np.array([t0]),
                          xi0[None, :].copy(), np.array([drift0]))
    if n_steps is None:
        n_steps = DEFAULT_STEPS_PER_PERIOD if dt_max is None else max(
            1, int(np.ceil(abs(span) / dt_max)))
    n_steps = int(n_steps)
    dt = span / n_steps

    state = xi0.copy()
    max_drift = drift0
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, xi0.size))
    drifts = np.empty(n_steps + 1)
    times[0], states[0], drifts[0] = t0, state, drift0
    for i in range(n_steps):
        state = _advance(field, state, t0 + i * dt, dt, lam, projection_tol)
        drift = c.residual(state)
        max_drift = max(max_drift, drift)
        times[i + 1] = t0 + (i + 1) * dt
        states[i + 1] = state
        drifts[i + 1] = drift
    return FlowResult(state, max_drift, n_steps, times, states, drifts)


def period_map(field, xi0, lam, period, **options):
    """State after one period, starting at time zero."""
    return flow_map(field, xi0, 0.0, period, lam, **options).final_state


def write_trajectory_csv(result, var_names, out):
    """Rows (t, state..., |g|), one per step of the flow.

    ``out`` is a path or a writable text file object.
    """
    close = False
    if isinstance(out, str):
        out = open(out, "w", encoding="utf-8")
        close = True
    try:
        out.write(",".join(["t", *var_names, "g_norm"]) + "\n")
        for t, row, drift in zip(result.times, result.states, result.drifts):
            cells = [f"{t:.17g}"] + [f"{v:.17g}" for v in row] + [f"{drift:.17g}"]
            out.write(",".join(cells) + "\n")
    finally:
        if close:
            out.close()

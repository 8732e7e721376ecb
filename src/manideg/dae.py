"""Semi-explicit differential-algebraic systems on constraint level sets.

A system

    x' = gamma(x, y) + lam * sigma(t, x, y),    g(x, y) = 0

with nonsingular d_y g is equivalent to an ODE on the level set M:
the right-hand side of the x-equations, completed to a tangent vector,
drives the full state.  Two square "seed maps" summarise the zero
structure relevant to forced periodic solutions: (gamma, g) for the
autonomous part and (Sigma, g) for the time average

    Sigma(x, y) = (1/T) * integral of sigma(t, x, y) over one period.

A nonzero box degree of a seed map certifies a bifurcating branch of
forced periodic solution pairs, which :mod:`manideg.continuation`
follows numerically.

Averaging commutes with tangent completion (the completion is linear
in the first components), so the average wind field is computed by
averaging sigma first and completing once.
"""

import numpy as np

from .errors import DomainEvalError, ProblemFormatError
from .fields import AmbientMap
from .manifold import ForcedField, reduced_map

__all__ = [
    "SemiExplicitDae", "ForcedField",
    "build_autonomous_tangent", "build_forcing_tangent",
    "average_wind", "seed_map_F", "seed_map_Phi",
]

DEFAULT_QUADRATURE_NODES = 64


class SemiExplicitDae:
    """Problem data for x' = gamma + lam * sigma on g(x, y) = 0."""

    def __init__(self, constraint, gamma=None, sigma=None, period=None):
        if gamma is None and sigma is None:
            raise ProblemFormatError("a system needs gamma, sigma or both")
        k, dim = constraint.k, constraint.dim
        for name, part in (("gamma", gamma), ("sigma", sigma)):
            if part is None:
                continue
            if part.n_out != k or part.n_in != dim:
                raise ProblemFormatError(
                    f"{name} is {part.n_in}->{part.n_out}, expected {dim}->{k}"
                )
        if gamma is not None and gamma.time_dependent:
            raise ProblemFormatError("gamma must not depend on time")
        if period is not None and not np.isfinite(period):
            raise ProblemFormatError(f"the period must be finite, got {period!r}")
        if sigma is not None:
            if period is None or not period > 0.0:
                raise ProblemFormatError("a forcing term needs a positive period")
            _check_periodic(sigma, period, constraint.domain)
        self.constraint = constraint
        self.gamma = gamma
        self.sigma = sigma
        self.period = float(period) if period is not None else None

    @property
    def k(self):
        return self.constraint.k

    @property
    def s(self):
        return self.constraint.s


def _check_periodic(sigma, period, domain, tol=1e-8):
    if not sigma.time_dependent:
        return
    center = domain.center
    half = (np.array(domain.upper) - np.array(domain.lower)) / 2.0
    probes = [center, center + 0.31 * half, center - 0.17 * half]
    for t0 in (0.37 * period, 0.81 * period):
        for p in probes:
            try:
                a = sigma(p, t0)
                b = sigma(p, t0 + period)
            except DomainEvalError:
                continue
            if np.max(np.abs(a - b)) > tol * (1.0 + np.max(np.abs(a))):
                raise ProblemFormatError(
                    f"sigma is not {period}-periodic: value changes by "
                    f"{np.max(np.abs(a - b)):.3e} across one period at t = {t0}"
                )


def build_autonomous_tangent(dae):
    """Tangent field f with first components gamma."""
    if dae.gamma is None:
        raise ProblemFormatError("the system has no autonomous part gamma")
    return ForcedField(dae.constraint, gamma=dae.gamma)


def build_forcing_tangent(dae):
    """Tangent field h with first components lam * sigma."""
    if dae.sigma is None:
        raise ProblemFormatError("the system has no forcing part sigma")
    return ForcedField(dae.constraint, sigma=dae.sigma)


# the averaged map sums sigma over its nodes for about this many
# (point, node) values at a time, which bounds the memory of large batches
_AVERAGE_BLOCK_VALUES = 16384


def _averaged_map(sigma, period, nodes):
    """Uniform-node mean of sigma over one period, as a time-free map.

    Uniform sampling of a periodic integrand is the composite
    trapezoid rule and is exact for trigonometric polynomials of
    degree below the node count.  Points are broadcast against the
    nodes through sigma's ``vector`` function, block by block.
    """
    ts = period * np.arange(nodes) / nodes
    rows = max(1, _AVERAGE_BLOCK_VALUES // nodes)

    def vector(cols, t=0.0, jacobian=False):
        size = len(cols[0])
        width = sigma.n_out * (sigma.n_in + 1) if jacobian else sigma.n_out
        means = np.empty((width, size))
        for lo in range(0, size, rows):
            block = [c[lo:lo + rows, None] for c in cols]
            for j, part in enumerate(sigma.vector(block, ts, jacobian)):
                # the mean along the node axis (last, contiguous); a part that does
                # not vary with t keeps its value, which summing copies would round
                part = np.asarray(part)
                means[j, lo:lo + rows] = (np.mean(part, axis=-1) if part.shape[-1:] == (nodes,)
                                          else part[..., 0] if part.ndim else part)
        return tuple(means)

    return AmbientMap(sigma.n_in, sigma.n_out, vector)


def average_wind(dae, quadrature_nodes=DEFAULT_QUADRATURE_NODES):
    """Average forcing Sigma and the tangent field it generates.

    Returns ``(Sigma, w)`` where Sigma is the time average of sigma
    and w its tangent completion on M.
    """
    if dae.sigma is None:
        raise ProblemFormatError("the system has no forcing part sigma")
    sigma_bar = _averaged_map(dae.sigma, dae.period, int(quadrature_nodes))
    return sigma_bar, ForcedField(dae.constraint, gamma=sigma_bar)


def seed_map_F(dae):
    """Square map (gamma, g); its zeros seed branches of the forced system."""
    if dae.gamma is None:
        raise ProblemFormatError("the system has no autonomous part gamma")
    return reduced_map(dae.gamma, dae.constraint)


def seed_map_Phi(dae, quadrature_nodes=DEFAULT_QUADRATURE_NODES):
    """Square map (Sigma, g) built from the averaged forcing."""
    sigma_bar, _ = average_wind(dae, quadrature_nodes)
    return reduced_map(sigma_bar, dae.constraint)

"""Semi-explicit differential-algebraic systems on constraint level sets.

A system

    x' = gamma(x, y) + lam * sigma(t, x, y),    g(x, y) = 0

with nonsingular d_y g is equivalent to an ODE on the level set M:
the right-hand side of the x-equations, completed to a tangent vector,
drives the full state.  Such a system, with the period T of its
forcing, is the tangent field ``ForcedField(constraint, gamma, sigma,
period)``.  The square "seed map" ``reduced_map(phi1, g)`` summarises
the zero structure relevant to forced periodic solutions, phi1 being
gamma or, without one (``Problem.build_seed_map`` picks), the average

    Sigma(x, y) = (1/T) * integral of sigma(t, x, y) over one period.

A nonzero box degree of a seed map certifies a bifurcating branch of
forced periodic solution pairs, which :mod:`manideg.continuation`
follows numerically.

Averaging commutes with tangent completion (the completion is linear
in the first components), so the average wind field
``ForcedField(constraint, gamma=Sigma)`` completes the averaged sigma once.
"""

import numpy as np

from .errors import ProblemFormatError
from .fields import AmbientMap
from .manifold import ForcedField

__all__ = ["ForcedField", "average_wind"]

DEFAULT_QUADRATURE_NODES = 64


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


def average_wind(field, quadrature_nodes=DEFAULT_QUADRATURE_NODES):
    """Average forcing Sigma: the time average of the forced field's sigma
    over ``quadrature_nodes`` uniform nodes (an integer of at least 1) of
    its period, as a time-free map."""
    if field.sigma is None:
        raise ProblemFormatError("the system has no forcing part sigma")
    if field.period is None:
        raise ProblemFormatError("averaging the forcing needs its period")
    if not (isinstance(quadrature_nodes, (int, np.integer)) and quadrature_nodes >= 1):
        raise ProblemFormatError(
            f"quadrature_nodes must be an integer of at least 1, got {quadrature_nodes!r}")
    return _averaged_map(field.sigma, field.period, int(quadrature_nodes))

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

The average is the mean over uniform nodes of the period.  An
expression sigma is averaged term by term where its t sits under sums,
differences, negations, products with a time-free factor and quotients
by a time-free divisor only: each maximal part that reads t and no state
becomes the literal of its node mean, and Sigma is the time-free
expression map of the rewritten trees, with exact Jacobians.  Otherwise
(a callable sigma, t in a call or power with the state, a product of two
time-dependent factors, a division by a time-dependent term, or a
time-only part that is not finite at a node) sigma is sampled at every
(point, node) pair and meaned along the nodes.

Averaging commutes with tangent completion (the completion is linear
in the first components), so the average wind field
``ForcedField(constraint, gamma=Sigma)`` completes the averaged sigma once.
"""

import math

import numpy as np

from . import expr
from .errors import ProblemFormatError
from .expr import Bin, Neg, Num
from .fields import TIME_NAME, AmbientMap, _integer
from .manifold import ForcedField

__all__ = ["ForcedField", "average_wind"]

DEFAULT_QUADRATURE_NODES = 64


# the sampled average sums sigma over its nodes for about this many
# (point, node) values at a time, which bounds the memory of large batches
_AVERAGE_BLOCK_VALUES = 16384


def _nodes(period, nodes):
    return period * np.arange(nodes) / nodes


def _timed(node):
    return TIME_NAME in expr.variables_in(node)


def _node_mean(part, ts):
    # the time-only tree ``part`` as the literal of its mean over the nodes ``ts``, as the
    # sampled average takes it (a constant keeps its value); None where that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.asarray(expr.compile_value(part, (TIME_NAME,), backend="vector")(ts))
    mean = float(np.mean(value) if value.shape == ts.shape else value)
    return Num(mean) if math.isfinite(mean) else None


def _separated(node, ts):
    """``node`` with each maximal subtree that reads t and no state replaced by
    its node mean, or None where it does not separate (see the module docstring)."""
    names = expr.variables_in(node)
    if TIME_NAME not in names:
        return node
    if names == {TIME_NAME}:
        return _node_mean(node, ts)
    match node:
        case Neg(arg):
            arg = _separated(arg, ts)
            return None if arg is None else Neg(arg)
        case Bin(op, left, right) if (op in "+-" or not _timed(right)
                                      or op == "*" and not _timed(left)):
            left, right = _separated(left, ts), _separated(right, ts)
            return None if left is None or right is None else Bin(op, left, right)
    return None


def _sampled_map(sigma, period, nodes):
    """Uniform-node mean of sigma over one period, as a time-free map.

    Points are broadcast against the nodes through sigma's ``vector``
    function, block by block.
    """
    ts = _nodes(period, nodes)
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


def _averaged_map(sigma, period, nodes):
    """Uniform-node mean of sigma over one period, as a time-free map.

    Uniform sampling of a periodic integrand is the composite
    trapezoid rule and is exact for trigonometric polynomials of
    degree below the node count.  Where every tree of an expression
    sigma separates (see the module docstring), the mean is the
    expression map of its trees with each time-only part replaced by its
    node mean; otherwise it is sampled (:func:`_sampled_map`).  The two
    agree up to rounding.
    """
    if sigma.asts is not None:
        ts = _nodes(period, nodes)
        trees = tuple(_separated(tree, ts) for tree in sigma.asts)
        if all(tree is not None for tree in trees):
            return AmbientMap._from_asts(trees, sigma.variables)
    return _sampled_map(sigma, period, nodes)


def average_wind(field, quadrature_nodes=DEFAULT_QUADRATURE_NODES):
    """Average forcing Sigma: the time average of the forced field's sigma
    over ``quadrature_nodes`` uniform nodes (an integer of at least 1, else
    ``ValueError``) of its period, as a time-free map.

    Where sigma's expressions separate (see the module docstring), Sigma
    is an expression map whose time-only parts are their node means;
    otherwise it samples sigma at every node.  The two agree up to
    rounding."""
    if field.sigma is None:
        raise ProblemFormatError("the system has no forcing part sigma")
    if field.period is None:
        raise ProblemFormatError("averaging the forcing needs its period")
    nodes = _integer("quadrature_nodes", quadrature_nodes, 1)
    return _averaged_map(field.sigma, field.period, nodes)

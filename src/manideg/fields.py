"""Evaluation handles for differentiable vector-valued maps.

An :class:`AmbientMap` is a map from ambient coordinates (and, if the
defining expressions mention ``t``, from time) into R^p, with access to
its Jacobian with respect to the space variables.  A map holds one
evaluation function, ``vector``, over many points at once: expression
maps run the dual-number ``vector`` backend code of :mod:`manideg.expr`;
callable maps call their functions point by point and fall back to
central finite differences unless a Jacobian callable is supplied.
``batch`` (the degree routines' multi-start searches and samplings) is
its row form and a single point is a batch of one, so every number a
map gives about a point comes from the same code.  A degree field is a
square, time-free map; :mod:`manideg.degree` checks that shape.
"""

import math
import numbers

import numpy as np

from . import expr
from .errors import DomainEvalError, ProblemFormatError

TIME_NAME = "t"
_FD_STEP = 1e-6  # relative step of the central-difference Jacobians

# what evaluating a map at a point outside its domain may raise
EVAL_ERRORS = (DomainEvalError, OverflowError, ZeroDivisionError, FloatingPointError)


def finite_difference_jacobian(func, point):
    """Central-difference Jacobian of ``func`` at ``point``."""
    point = np.asarray(point, dtype=float)
    f0 = np.asarray(func(point), dtype=float)
    cols = []
    for j in range(point.size):
        step = _FD_STEP * (1.0 + abs(point[j]))
        hi = point.copy()
        lo = point.copy()
        hi[j] += step
        lo[j] -= step
        cols.append((np.asarray(func(hi)) - np.asarray(func(lo))) / (2.0 * step))
    return np.column_stack(cols) if cols else np.zeros((f0.size, 0))


class AmbientMap:
    """Differentiable map R^n (x time, optionally) -> R^p.

    Its one evaluation function ``vector(cols, t=0.0, jacobian=False)``
    takes one coordinate array per variable (broadcast together and with
    ``t``) and returns a flat sequence of outputs as arrays: the p values,
    or with ``jacobian`` per component the value followed by its n
    partials; NaN where a point is outside the map's domain.  ``batch`` is
    its row-wise form.  ``__call__``, ``jacobian`` and the plain-float
    ``flat(point, t=0.0, jacobian=False)`` (the same flat sequence as a
    list of floats, which generated step code calls for callable-backed
    maps) are a batch of one, and raise :class:`DomainEvalError` where an
    output is not finite.
    """

    def __init__(self, n_in, n_out, vector, *, time_dependent=False,
                 asts=None, variables=None):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.vector = vector
        self.time_dependent = bool(time_dependent)
        self.asts = asts
        self.variables = variables

    @classmethod
    def from_expressions(cls, sources, variables, *, allow_time=True):
        """Build from one expression string per output component.

        ``variables`` names the space coordinates, in order.  When
        ``allow_time`` is set the reserved name ``t`` may also appear;
        the map is then time-dependent (``t`` is never differentiated).
        """
        sources = tuple(sources)
        variables = tuple(variables)
        if not sources:
            raise ProblemFormatError("a map needs at least one component expression")
        if TIME_NAME in variables:
            raise ProblemFormatError("'t' is reserved for time and cannot be a variable")
        declared = variables + (TIME_NAME,)  # only allow_time lets t appear
        return cls._from_asts(
            tuple(expr.parse(src, declared if allow_time else variables) for src in sources),
            variables)

    @classmethod
    def _from_asts(cls, asts, variables):
        # the map of the parsed component trees ``asts`` over ``variables`` and t
        declared = variables + (TIME_NAME,)  # the generated code always takes t, last
        time_dependent = any(TIME_NAME in expr.variables_in(a) for a in asts)
        vector_fns = {}  # the vector backend's functions, compiled on first use

        def vector(cols, t=0.0, jacobian=False):
            fn = vector_fns.get(jacobian)
            if fn is None:
                fn = vector_fns[jacobian] = (
                    expr.compile_gradient(asts, declared, seeds=variables, backend="vector")
                    if jacobian else expr.compile_value(asts, declared, backend="vector"))
            return fn(*cols, t)

        return cls(len(variables), len(asts), vector, time_dependent=time_dependent,
                   asts=asts, variables=variables)

    @classmethod
    def from_callable(cls, n_in, n_out, func, jac=None, *, time_dependent=False):
        """Build from ``func(point)`` and optionally ``jac(point)`` (both also
        taking ``t`` when ``time_dependent``), else finite differences."""
        def value(point, t):
            return np.asarray(func(point, t) if time_dependent else func(point), dtype=float)

        def jet(point, t):
            d = (finite_difference_jacobian(lambda p: value(p, t), point) if jac is None
                 else jac(point, t) if time_dependent else jac(point))
            return np.column_stack([value(point, t), d]).ravel()

        def vector(cols, t=0.0, jacobian=False):
            # one call per point of the broadcast inputs; NaN where the callables fail
            points = np.broadcast(*cols, t)
            width = n_out * (n_in + 1) if jacobian else n_out
            out = np.full((points.size, width), np.nan)
            for i, (*point, ti) in enumerate(points):
                try:
                    out[i] = (jet if jacobian else value)(np.array(point, dtype=float), float(ti))
                except EVAL_ERRORS:
                    pass
            # one contiguous array per output, shaped like the broadcast inputs
            return tuple(np.ascontiguousarray(out.T).reshape((width,) + points.shape))

        return cls(n_in, n_out, vector, time_dependent=time_dependent)

    def __call__(self, point, t=0.0):
        return np.array(self.flat(point, t, False))

    def jacobian(self, point, t=0.0):
        """Jacobian with respect to the space variables only."""
        return np.array(self.flat(point, t, True)).reshape(self.n_out, self.n_in + 1)[:, 1:]

    def batch(self, points, jacobian=False):
        """Evaluate the time-free map at the N rows of ``points``.

        Returns the values (N, p), or with ``jacobian`` the Jacobians
        (N, p, n), and the (N,) mask of the rows that evaluated; a row
        outside the domain is NaN and masked out instead of raising.
        """
        points = np.asarray(points, dtype=float)
        out = self._rows(list(np.ascontiguousarray(points.T)), 0.0, jacobian)
        valid = ~np.isnan(out).any(axis=1)
        if jacobian:
            out = out.reshape(len(points), self.n_out, self.n_in + 1)[:, :, 1:]
        return out, valid

    def flat(self, point, t=0.0, jacobian=False):
        """The plain-float interface (see the class docstring): a batch of one at time t
        (an array of one per coordinate), as floats that must be finite."""
        row = self._rows(np.array(_floats(point, self.n_in))[:, None], t, jacobian)[0].tolist()
        if not all(map(math.isfinite, row)):
            raise DomainEvalError(f"the map does not evaluate to finite numbers at {point}")
        return row

    @np.errstate(over="ignore", invalid="ignore")
    def _rows(self, cols, t, jacobian):
        # vector's flat outputs at the points with coordinates ``cols``, a row each
        parts = self.vector(cols, t, jacobian)
        out = np.empty((len(cols[0]), len(parts)))
        for j, part in enumerate(parts):
            out[:, j] = part
        return out


def _floats(vector, size, name="point"):  # ``size`` plain floats, the fastest for math calls
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (size,):
        raise ValueError(f"{name} must hold {size} coordinates, got shape {vector.shape}")
    return vector.tolist()


def _integer(name, value, least=None):
    """The count ``value`` as an int: a ``numbers.Integral`` but not a bool, and at
    least ``least`` if given; otherwise :class:`ValueError` naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)

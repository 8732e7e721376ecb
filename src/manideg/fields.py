"""Evaluation handles for differentiable vector-valued maps.

An :class:`AmbientMap` is a map from ambient coordinates (and, if the
defining expressions mention ``t``, from time) into R^p, with access to
its Jacobian with respect to the space variables.  Expression-backed
maps differentiate exactly through the compiled dual-number code in
:mod:`manideg.expr`; callable-backed maps fall back to central finite
differences unless a Jacobian callable is supplied.

Every map also evaluates many points at once through ``batch``, which
the degree routines use for their multi-start searches and samplings.
"""

import numpy as np

from . import expr
from .errors import DomainEvalError, ProblemFormatError

TIME_NAME = "t"

# what evaluating a map at a point outside its domain may raise
EVAL_ERRORS = (DomainEvalError, OverflowError, ZeroDivisionError, FloatingPointError)


def finite_difference_jacobian(func, point, h=1e-6):
    """Central-difference Jacobian of ``func`` at ``point``."""
    point = np.asarray(point, dtype=float)
    f0 = np.asarray(func(point), dtype=float)
    cols = []
    for j in range(point.size):
        step = h * (1.0 + abs(point[j]))
        hi = point.copy()
        lo = point.copy()
        hi[j] += step
        lo[j] -= step
        cols.append((np.asarray(func(hi)) - np.asarray(func(lo))) / (2.0 * step))
    return np.column_stack(cols) if cols else np.zeros((f0.size, 0))


class AmbientMap:
    """Differentiable map R^n (x time, optionally) -> R^p.

    Besides the array interface (``__call__``, ``jacobian``) every map
    has a plain-float one, ``flat(args, t=0.0, jacobian=False)``: at the
    coordinates ``args`` (a list of floats) it returns the p values, or
    with ``jacobian`` per component the value followed by its n partials,
    as one flat sequence, adapted from the array interface (generated step
    code calls it for callable-backed maps only).

    Its array twin ``vector(cols, t=0.0, jacobian=False)`` takes one
    coordinate array per variable (broadcast together and with ``t``)
    and returns the same flat sequence of outputs as arrays, NaN where a
    point is outside the map's domain.  Expression maps answer it from
    the generated ``vector`` backend code; callable-backed maps loop over
    the points.  ``batch`` is its row-wise form.
    """

    def __init__(self, n_in, n_out, func, jac=None, *, time_dependent=False,
                 asts=None, variables=None, sources=None, vector=None):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self._func = func
        self._jac = jac
        self.vector = vector if vector is not None else self._vector_from_rows
        self.time_dependent = bool(time_dependent)
        self.asts = asts
        self.variables = variables
        self.sources = sources

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
        # the generated code always takes t, last; only allow_time lets it appear
        declared = variables + (TIME_NAME,)
        asts = tuple(expr.parse(src, declared if allow_time else variables) for src in sources)
        time_dependent = any(TIME_NAME in expr.variables_in(a) for a in asts)
        values = expr.compile_value(asts, declared)
        jet = expr.compile_gradient(asts, declared, seeds=variables)
        n, p = len(variables), len(sources)

        vector_fns = {}  # the vector backend's functions, compiled on first use

        def vector(cols, t=0.0, jacobian=False):
            fn = vector_fns.get(jacobian)
            if fn is None:
                fn = vector_fns[jacobian] = (
                    expr.compile_gradient(asts, declared, seeds=variables, backend="vector")
                    if jacobian else expr.compile_value(asts, declared, backend="vector"))
            return fn(*cols, t)

        def func(point, t=0.0):
            return np.array(values(*_floats(point), t))

        def jac(point, t=0.0):
            return np.array(jet(*_floats(point), t)).reshape(p, n + 1)[:, 1:]

        return cls(n, p, func, jac, time_dependent=time_dependent,
                   asts=asts, variables=variables, sources=sources, vector=vector)

    @classmethod
    def from_callable(cls, n_in, n_out, func, jac=None, *, time_dependent=False):
        if time_dependent:
            wrapped, wrapped_jac = func, jac
        else:
            def wrapped(point, t=0.0):
                return np.asarray(func(point), dtype=float)

            wrapped_jac = None
            if jac is not None:
                def wrapped_jac(point, t=0.0):
                    return np.asarray(jac(point), dtype=float)

        return cls(n_in, n_out, wrapped, wrapped_jac, time_dependent=time_dependent)

    def __call__(self, point, t=0.0):
        return self._func(point, t)

    def jacobian(self, point, t=0.0):
        """Jacobian with respect to the space variables only."""
        if self._jac is not None:
            return self._jac(point, t)
        return finite_difference_jacobian(lambda p: self._func(p, t), point)

    def flat(self, args, t=0.0, jacobian=False):
        """The plain-float interface (see the class docstring)."""
        point = np.array(args, dtype=float)
        value = np.asarray(self(point, t), dtype=float)
        if not jacobian:
            return value.tolist()
        return np.column_stack([value, self.jacobian(point, t)]).ravel().tolist()

    def _vector_from_rows(self, cols, t=0.0, jacobian=False):
        # ``vector`` of a map given by array callables: one ``flat`` call per point
        *cols, t = np.broadcast_arrays(*cols, t)
        width = self.n_out * (self.n_in + 1) if jacobian else self.n_out
        out = np.full((t.size, width), np.nan)
        points = np.stack([c.ravel() for c in cols], axis=1).tolist()
        for i, (point, ti) in enumerate(zip(points, t.ravel().tolist())):
            try:
                out[i] = self.flat(point, ti, jacobian)
            except EVAL_ERRORS:
                pass
        # one contiguous array per output, shaped like the broadcast inputs
        return tuple(np.ascontiguousarray(out.T).reshape((width,) + t.shape))

    def batch(self, points, jacobian=False):
        """Evaluate the time-free map at the N rows of ``points``.

        Returns the values (N, p), or with ``jacobian`` the Jacobians
        (N, p, n), and the (N,) mask of the rows that evaluated; a row
        outside the domain is NaN and masked out instead of raising.
        """
        points = np.asarray(points, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            parts = self.vector(list(np.ascontiguousarray(points.T)), 0.0, jacobian)
        out = np.empty((len(points), len(parts)))
        for j, part in enumerate(parts):
            out[:, j] = part
        valid = ~np.isnan(out).any(axis=1)
        if jacobian:
            out = out.reshape(len(points), self.n_out, self.n_in + 1)[:, :, 1:]
        return out, valid


def _floats(point):
    # math-module calls are fastest on plain Python floats
    if isinstance(point, np.ndarray):
        return point.tolist()
    return [float(v) for v in point]


class FieldHandle(AmbientMap):
    """Square vector field R^m -> R^m, the object degree theory acts on."""

    def __init__(self, dim, func, jac=None, **options):
        super().__init__(dim, dim, func, jac, **options)

    @property
    def dim(self):
        return self.n_in

    @classmethod
    def from_expressions(cls, sources, variables):
        base = AmbientMap.from_expressions(sources, variables, allow_time=False)
        if base.n_in != base.n_out:
            raise ProblemFormatError(
                f"field has {base.n_out} components over {base.n_in} variables; "
                "a degree field must be square"
            )
        return cls(base.n_in, base._func, base._jac,
                   asts=base.asts, variables=base.variables, sources=base.sources,
                   vector=base.vector)

    @classmethod
    def from_callable(cls, dim, func, jac=None):
        base = AmbientMap.from_callable(dim, dim, func, jac)
        return cls(dim, base._func, base._jac)

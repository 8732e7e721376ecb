"""Evaluation handles for differentiable vector-valued maps.

An :class:`AmbientMap` is a map from ambient coordinates (and, if the
defining expressions mention ``t``, from time) into R^p, with access to
its Jacobian with respect to the space variables.  Expression-backed
maps differentiate exactly through the compiled dual-number code in
:mod:`manideg.expr`; callable-backed maps fall back to central finite
differences unless a Jacobian callable is supplied.
"""

import numpy as np

from . import expr
from .errors import ProblemFormatError

TIME_NAME = "t"


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
    """Differentiable map R^n (x time, optionally) -> R^p."""

    def __init__(self, n_in, n_out, func, jac=None, *, time_dependent=False,
                 asts=None, variables=None, sources=None, value_and_jac=None):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self._func = func
        self._jac = jac
        self._value_and_jac = value_and_jac
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
        declared = variables + (TIME_NAME,) if allow_time else variables
        asts = tuple(expr.parse(src, declared) for src in sources)
        time_dependent = allow_time and any(TIME_NAME in expr.variables_in(a) for a in asts)
        vals = [expr.compile_value(a, declared) for a in asts]
        grads = [expr.compile_gradient(a, declared, seeds=variables) for a in asts]
        n = len(variables)

        if allow_time:
            def func(point, t=0.0):
                args = _floats(point)
                args.append(t)
                return np.array([f(*args) for f in vals])

            def jac(point, t=0.0):
                args = _floats(point)
                args.append(t)
                return np.array([g(*args)[1:] for g in grads])

            def value_and_jac(point, t=0.0):
                args = _floats(point)
                args.append(t)
                return _split_rows([g(*args) for g in grads])
        else:
            def func(point, t=0.0):
                return np.array([f(*_floats(point)) for f in vals])

            def jac(point, t=0.0):
                return np.array([g(*_floats(point))[1:] for g in grads])

            def value_and_jac(point, t=0.0):
                args = _floats(point)
                return _split_rows([g(*args) for g in grads])

        return cls(n, len(sources), func, jac, time_dependent=time_dependent,
                   asts=asts, variables=variables, sources=sources,
                   value_and_jac=value_and_jac)

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

    def value_and_jacobian(self, point, t=0.0):
        """``(self(point, t), self.jacobian(point, t))``.

        Expression-backed maps get both from one dual-number pass per
        component; the value is bit-identical to ``self(point, t)``
        because the compiled value code is the same in both passes.
        """
        if self._value_and_jac is not None:
            return self._value_and_jac(point, t)
        return self._func(point, t), self.jacobian(point, t)


def _split_rows(rows):
    # rows of (value, d/dx1, ...) from compiled gradient calls
    return np.array([r[0] for r in rows]), np.array([r[1:] for r in rows])


def _floats(point):
    # math-module calls are fastest on plain Python floats
    if isinstance(point, np.ndarray):
        return point.tolist()
    return [float(v) for v in point]


class FieldHandle(AmbientMap):
    """Square vector field R^m -> R^m, the object degree theory acts on."""

    def __init__(self, dim, func, jac=None, *, time_dependent=False,
                 asts=None, variables=None, sources=None):
        super().__init__(dim, dim, func, jac, time_dependent=time_dependent,
                         asts=asts, variables=variables, sources=sources)

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
                   asts=base.asts, variables=base.variables, sources=base.sources)

    @classmethod
    def from_callable(cls, dim, func, jac=None):
        base = AmbientMap.from_callable(dim, dim, func, jac)
        return cls(dim, base._func, base._jac)

"""Degree theory on implicitly defined manifolds.

A level set M = g^{-1}(0) of a map g : R^k x R^s -> R^s is handled
through the splitting of coordinates into x (first k) and y (last s).
Wherever the y-block of the constraint Jacobian is nonsingular, a
tangent field on M is determined by its first k components, and its
degree on M equals

    sign(det d_y g) * deg((psi_1, g), box)

so everything reduces to a plain box degree of the square "reduced
map" built from the first components and the constraint.  The sign is
well defined as long as det d_y g keeps one sign over the region,
which is verified by grid sampling.
"""

import warnings as _warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .degree import DegreeResult, _count, _default_density, degree_sign_sum
from .errors import (
    DomainEscapeError, DomainEvalError, ProblemFormatError, RegularityError,
    RootFindingError,
)
from . import expr
from .expr import Op, Term
from .fields import EVAL_ERRORS, TIME_NAME, AmbientMap, _floats

__all__ = [
    "ImplicitConstraint", "ForcedField", "ManifoldDegreeResult",
    "partial2_sign",
    "reduced_map", "manifold_degree",
    "implicit_solve_y", "schur_determinant_split", "complete_velocity",
]

SINGULAR_TOL = 1e-10  # |det d_y g| below which partial2_sign calls a sample singular
NEAR_SINGULAR_TOL = 1e-6  # and below which it warns
Y_SOLVE_TOL = 1e-12  # |g| every y-solve converges to, the flow's projections included
_PROJECTION_ITER = 50  # Newton steps each y-solve may take, a flow step's projection too


class ImplicitConstraint:
    """The equation g(x, y) = 0 with x in R^k and y in R^s."""

    def __init__(self, k, s, gmap, domain):
        if gmap.time_dependent:
            raise ValueError("constraints must not depend on time")
        if gmap.n_out != s or gmap.n_in != k + s:
            raise ValueError(
                f"constraint map has {gmap.n_out} components over {gmap.n_in} "
                f"coordinates, expected {s} over {k + s}"
            )
        if domain.dim != k + s:
            raise ValueError(f"domain box dimension {domain.dim} != {k + s}")
        self.k = int(k)
        self.s = int(s)
        self.gmap = gmap
        self.domain = domain
        # slack a solved point may have outside the domain box
        self.escape_margin = 1e-9 * domain.diameter

    _code = cached_property(lambda self: _generated(self))  # _source's, on first use

    @classmethod
    def from_expressions(cls, k, s, g_sources, variables, domain):
        gmap = AmbientMap.from_expressions(g_sources, variables, allow_time=False)
        return cls(k, s, gmap, domain)

    @property
    def dim(self):
        return self.k + self.s

    def residual(self, point):
        """|g| at ``point``, by the generated operations of every y-solve's drift."""
        return self._code["residual"](*_floats(point, self.dim))


def partial2_sign(constraint, sample_density=None, box=None):
    """Constant sign of det d_y g over a box, verified by grid sampling.

    ``sample_density`` is the samples per axis, an integer, by default
    the zero search's grid density; a density below 2 counts as 2.  Raises
    :class:`RegularityError` when |det| drops below ``SINGULAR_TOL`` at a
    sample or when two samples disagree in sign; emits a RuntimeWarning
    when the margin is thinner than ``NEAR_SINGULAR_TOL``.
    """
    box = box or constraint.domain
    points = box.grid(_count("sample_density", sample_density, _default_density(box.dim)))
    jac, valid = constraint.gmap.batch(points, jacobian=True)
    if not valid.all():
        raise DomainEvalError(
            f"the constraint is undefined at the sample {points[~valid][0]}")
    d2 = jac[:, :, constraint.k:]
    dets = d2[:, 0, 0] if constraint.s == 1 else np.linalg.det(d2)
    worst = float(np.min(np.abs(dets)))
    if worst < SINGULAR_TOL:
        raise RegularityError(
            f"det d_y g reaches {worst:.3e} on the sampled box {box.bounds}; "
            "the constraint is not regular there"
        )
    if worst < NEAR_SINGULAR_TOL:
        _warnings.warn(
            f"det d_y g is nearly singular (min |det| = {worst:.3e})",
            RuntimeWarning, stacklevel=2,
        )
    signs = np.sign(dets)
    if signs.max() != signs.min():
        raise RegularityError(
            f"det d_y g changes sign over {box.bounds}; "
            "split the region into boxes of constant sign"
        )
    return int(signs[0])


def complete_velocity(constraint, point, psi1_value):
    """Extend first components to the unique vector tangent to the level set.

    Solves d_y g * psi_2 = -d_x g * psi_1 by Gaussian elimination (never an
    explicit inverse), so the result satisfies g'(point) * psi = 0.
    """
    point, psi1 = _floats(point, constraint.dim), _floats(psi1_value, constraint.k, "psi1_value")
    return np.array(constraint._code["tangent"](*point, *psi1))


class ForcedField:
    """Tangent field on the level set with first components gamma + lam * sigma.

    It is the semi-explicit DAE x' = gamma + lam * sigma, g(x, y) = 0 as a flow
    on the level set; ``period``, the period of sigma, is what shooting and
    averaging need.  Either part may be absent: without sigma the field ignores
    ``lam``, without gamma it is ``lam`` times the completed forcing.  Its
    arithmetic, and the Dormand-Prince steps :mod:`manideg.flow` runs, are straight-line
    code generated once per combination of parts (see :func:`_source`).  Each
    part maps the constraint's dim coordinates (and time) to k components.  A
    given period must be finite; with a sigma it must be positive and a period.
    """

    def __init__(self, constraint, gamma=None, sigma=None, period=None):
        if gamma is None and sigma is None:
            raise ValueError("a field needs gamma, sigma or both")
        for part in (gamma, sigma):
            if part is not None:
                _check_first(part, constraint)
        if period is not None and not np.isfinite(period):
            raise ValueError(f"the period must be finite, got {period!r}")
        if sigma is not None and period is not None:
            if not period > 0.0:
                raise ValueError(f"a forcing period must be positive, got {period!r}")
            _check_periodic(sigma, period, constraint.domain)
        self.constraint = constraint
        self.gamma = gamma
        self.sigma = sigma
        self.period = None if period is None else float(period)

    _code = cached_property(lambda self: _generated(self.constraint, self.gamma, self.sigma))

    def velocity(self, t, point, lam=0.0):
        return np.array(self._code["velocity"](*_floats(point, self.constraint.dim), t, lam))

    def linearize(self, t, point, lam=0.0):
        """Velocity and the first-order data of the x-equations at ``point``.

        With y slaved to x on the level set (dy/dx = S = -(d_y g)^-1 d_x g)
        the x-components p = gamma + lam * sigma obey x' = p(t, x, y(x)).
        Returns ``(velocity, A, dp_dlam)`` where the velocity is
        bit-identical to :meth:`velocity`, A = d_x p + d_y p * S is the
        k x k matrix of the variational equation and dp_dlam = sigma
        (zero without a forcing part).  Only first derivatives are used.
        """
        velocity, a, dp_dlam = self._code["linearize"](*_floats(point, self.constraint.dim), t, lam)
        return np.array(velocity), np.array(a), np.array(dp_dlam)


# --- generated step code ------------------------------------------------------

_STEP_CODE = {}  # (parts' ASTs and variables, k, s) -> {name: code}


def _generated(constraint, *field):
    # _source's functions, compiled once per parts and bound per call (no map outlives its
    # field): callable parts' flat as g, gamma, sigma, the box lo0 <= a0 <= hi0, ... with margin
    parts = (constraint.gmap, *field)
    key = (tuple(p if p is None else (p.asts, p.variables) if p.asts else "flat"
                 for p in parts), constraint.k, constraint.s)
    if key not in _STEP_CODE:  # one by one: compiling all at once peaks at 0.5 MB
        _STEP_CODE[key] = {name: compile(source, "<manideg step>", "exec")
                           for name, source in _source(constraint.k, constraint.s, *parts)}
    codes = _STEP_CODE[key]
    box, margin = constraint.domain, constraint.escape_margin
    ns = dict(globals(), **expr._SCALAR_NS,  # numpy as np, the errors, math
              **{name: p.flat if p is not None and p.asts is None else None
                 for name, p in zip(("g", "gamma", "sigma"), parts)},
              **{f"lo{i}": lo - margin for i, lo in enumerate(box.lower)},
              **{f"hi{i}": hi + margin for i, hi in enumerate(box.upper)})
    for code in codes.values():
        exec(code, ns)
    return {name: ns[name] for name in codes}


def _source(k, s, g, *field):
    # (name, source) of straight-line functions of the float coordinates a0, ..., a[n-1] that do
    # their formulas' float operations in order.  For the constraint alone: residual, solve_y of
    # (max_iter, a0, ...) -> (y, |g|) (see _projection) and tangent (completing f0, ...).  For a
    # field: velocity, linearize of (a0, ..., t, lam), and dp5 and dp5w, each a whole shot of
    # projected steps of the tableau (_C, _A, _B) in one call: (i, n, t0, dt, lam, W, states,
    # drifts, u0, ...) runs the steps i, ..., n-1 of dt from the state u0, ... at step i, step j
    # at time t0 + j * dt, and appends each new state and |g| to the lists states and drifts.
    # It returns (n, state, W, None), or at the first step that raises an error its except
    # clause names (index, start state, start W, error): halving that step is the caller's.
    # dp5w also advances W (k row tuples; dp5 passes W through).  Callable parts are called as
    # g, gamma, sigma.
    #
    # Each line is an expr.Op record; expr._printed prints them.  The code is folded as the
    # records are built, by expr's rules (exact up to the sign of a nan), and a pivot that is a
    # non-zero literal gets no zero test.  A partial that no expression has is a structural zero
    # (None, as is a literal 0.0, the value of a part "0"): the sums, products and eliminations
    # leave it out (expr._sum, _solved), and an operand known when the code is generated (a
    # literal 0.0 or 1.0 of A, say) is written in place of its name.  Dropping a structural zero
    # changes a result in two ways only: a zero result may change sign, and an inf or nan
    # operand no longer meets the dropped 0.0 (a flow's lam is never one: flow_map and
    # projected_step reject it; a dropped 0.0 / pivot follows the pivot's zero test).  _pruned
    # drops the lines nothing reads that cannot raise (a division by a non-zero literal cannot)
    # from each function that does not loop and from the stages a shot inlines.
    n = k + s
    a = [f"a{i}" for i in range(n)]
    point, em, out = ", ".join(a), expr._Emitter((), (), "scalar"), []

    def define(name, params, result, loops=False):
        lines = em.lines if loops else _pruned(em.lines, expr._reads(result))
        out.append((name, expr._printed(name, params, lines, result)))
        em.lines = []

    if not field:
        define("residual", point, _norm([r[0] for r in _emit_part(em, g, "g", n, ())]))
        em.lines = _projection(em, k, s, g, "max_iter")
        define("solve_y", f"max_iter, {point}", Term("{}, {}", expr._tuple(a[k:], "[{}]"), "r"),
               loops=True)
        f, gjet = [f"f{i}" for i in range(k)], _emit_part(em, g, "g", n, range(n))
        define("tangent", ", ".join(a + f),
               expr._tuple(map(_out, _completion(em, k, gjet, f, a)[0])))
        return out
    args = f"{point}, a{n}, lam"

    def by_row(entry, width=k + 1):  # k row tuples of entry(r, j), W's by default
        return expr._tuple(expr._tuple(entry(r, j) for j in range(width)) for r in range(k))

    # a stage, velocity's or linearize's body, computes the velocity at the point a0, ...
    # and time a[n], and linearize's A and dp/dlam, as operands: names its lines assign
    # or read, or constants (a literal, lam or a structural zero)
    stages = {}
    for name, seeds in (("velocity", ()), ("linearize", range(n))):
        p, forcing = _emit_p(em, *field, n, seeds)
        gjet = _emit_part(em, g, "g", n, range(n))
        values, slave = _completion(em, k, gjet, [r[0] for r in p], a, slaved=bool(seeds))
        if seeds:  # A = d_x p + d_y p S, each entry left to right, then dp/dlam
            values += [em.sum(r[1 + q], *zip(r[1 + k:], column))
                       for r in p for q, column in enumerate(slave)]
            values += [r[0] for r in forcing] if forcing else [None] * k
        stages[name] = em.lines, values
        read = list(map(_out, values))
        define(name, args, expr._tuple(read[:n]) if not seeds else
               Term("{}, {}, {}", expr._tuple(read[:n]),
                    by_row(lambda r, q: read[n + r * k + q], k), expr._tuple(read[n + k * k:])))

    # the shots: each step of the loop inlines the stages of the tableau, stage s after its
    # point a0, ... = u0 + (dt * a_s0) * k0_0 + ... (u0, ...: the step's start state) and
    # time a[n] = t + dt * c_s, its velocity bound to ks_0, ...; then the step u0 +
    # (dt * b_0) * k0_0 + ... and the projection.  W advances by W' = A W + [0 | d]
    # through the stage values Ms = A Z + [0 | d] at Z = W + (dt * a_s0) * M0 + ..., each
    # entry of A Z summed left to right, to W + (dt * b_0) * M0 + ...  Each product of dt
    # and a tableau entry is bound once per shot, and a zero entry's term is left out.  A
    # line whose value is a constant (a literal, lam or a structural zero) is not written:
    # the lines after it read the constant, and a stage's copies are read in place (_in_place)
    u, rk = [f"u{j}" for j in range(n)], [(r, j) for r in range(k) for j in range(k + 1)]
    w = by_row(lambda r, j: f"w{r}_{j}")
    for name, lin in (("dp5", False), ("dp5w", True)):
        body, values = stages["linearize" if lin else "velocity"]
        known, steps = {}, [Op("t", Term("{} + {} * {}", "t0", "i", "dt"))]
        products = {}  # tableau entry -> the name of its product with dt

        def product(q):  # dt * q as the shot reads it: None for 0, dt for 1, else a name
            if q[0] in (0, q[1]):
                return None if q[0] == 0 else "dt"
            return products.setdefault(q, "dt{}_{}".format(*q).replace("-", "m"))

        def let(target, *terms):  # target = the sum of terms (names or products)
            value = expr._sum(*(tuple(map(val, t)) if isinstance(t, tuple) else val(t)
                                for t in terms))
            if _constant(value):
                known[target] = value
                return
            known.pop(target, None)
            if value != target:
                steps.append(Op(target, value))

        def val(name):
            return known.get(name, name)

        for i, (c, row) in enumerate(zip(_C, _A)):  # stage i at time t + dt * c
            mark = len(steps)
            for j, x in enumerate(u):
                let(f"a{j}", x, *((product(q), f"k{l}_{j}") for l, q in enumerate(row)))
            steps += [Op(f"a{n}", Term("{} + {}", "t", product(c)) if c[0] else "t"), *body]
            for j in range(n):
                let(f"k{i}_{j}", values[j])
            if lin:
                for r, j in rk * bool(row):
                    let(f"z{r}_{j}", f"w{r}_{j}",
                        *((product(q), f"m{l}_{r}_{j}") for l, q in enumerate(row)))
                z = "z" if row else "w"
                for r, j in rk:
                    let(f"m{i}_{r}_{j}",
                        *((values[n + r * k + q], f"{z}{q}_{j}") for q in range(k)),
                        *[values[n + k * k + r]] * (j == k))
            outputs = {f"k{i}_{j}" for j in range(n)} | {f"m{i}_{r}_{j}" for r, j in rk}
            steps[mark:] = _in_place(steps[mark:], outputs)
        for j, x in enumerate(u):
            let(f"a{j}", x, *((product(b), f"k{i}_{j}") for i, b in enumerate(_B)))
        stepped = [(f"w{r}_{j}", expr._sum(f"w{r}_{j}", *((product(b), val(f"m{i}_{r}_{j}"))
                                                           for i, b in enumerate(_B))))
                   for r, j in rk if lin]
        done = [*_projection(em, k, s, g, _PROJECTION_ITER),
                *(Op(x, f"a{j}") for j, x in enumerate(u)),
                *(Op(x, value) for x, value in stepped if value != x),
                Op(None, Term("{}.append({})", "states", expr._tuple(a, "[{}]"))),
                Op(None, Term("{}.append({})", "drifts", "r"))]
        state, w_out = expr._tuple(u, "[{}]"), w if lin else "w"
        loop = [*_pruned(steps, expr._reads(*(op.value for op in done))), *done]
        read = expr._reads(*(op.value for op in loop))
        em.lines = _block(
            *[Term(f"{expr._text(w)} = {{}}", "w")] * lin,
            *(Op(p, _scaled(q)) for q, p in products.items() if p in read),
            "try:", [Term("for {0} in range({0}, {1}):", "i", "n"), loop],
            "except (RootFindingError, OverflowError, ZeroDivisionError, "
            "FloatingPointError) as exc:",
            # a returned error's traceback, or its context's, would keep the shot's frame,
            # and through it the caller's that holds the error, in a cycle
            [Term("{0}.__traceback__ = {0}.__context__ = None", "exc"),
             Term("return {}, {}, {}, {}", "i", state, w_out, "exc")])
        define(name, f"i, n, t0, dt, lam, w, states, drifts, {', '.join(u)}",
               Term("{}, {}, {}, None", "n", state, w_out), loops=True)
    return out


def _fractions(text):  # "n/d ..." as the pairs (n, d) of integers, d = 1 for "n"
    return tuple((int(n), int(d or 1)) for n, _, d in (q.partition("/") for q in text.split()))


# Dormand & Prince (1980), the 5th-order solution of their 5(4) pair, as fractions in
# lowest terms: stage s at time t + c_s dt and point u + dt (a_s0 k0 + a_s1 k1 + ...),
# the step u + dt (b_0 k0 + ...)
_C = _fractions("0 1/5 3/10 4/5 8/9 1")
_A = tuple(map(_fractions, ("", "1/5", "3/40 9/40", "44/45 -56/15 32/9",
                            "19372/6561 -25360/2187 64448/6561 -212/729",
                            "9017/3168 -355/33 46732/5247 49/176 -5103/18656")))
_B = _fractions("35/384 0 500/1113 125/192 -2187/6784 11/84")


def _scaled(q):
    # dt * n / d for a tableau entry q = (n, d) as a shot computes it once: dt divided by
    # the integer d / n when n is 1 or -1, which rounds once, or else dt times the float
    # nearest n / d
    n, d = q
    if abs(n) == 1:
        return expr._divided("dt", float(n * d))
    return expr._folded("dt", "*", n / d)


def _in_place(ops, outputs):
    # the lines ``ops`` of a shot's stage with their copies read in place: a top-level line
    # o = v, v a name, goes and the other lines call both by one name, where that keeps
    # every value.  v is renamed o when o is an output (in ``outputs``, read after the
    # stage) and v a name the stage assigns before the copy and not after it (the stage
    # velocity's k0_0 = a1, a value's k0_1 = v4, M's m1_0_0 = z1_0); o is renamed v when
    # o is not an output and the stage assigns o only there and v nowhere (the first
    # stage's point a0 = u0 and time a3 = t).  No line after a stage reads a name it
    # assigns but its outputs: the next stage assigns its point and time again
    lines = {}  # name -> the indices of the lines that assign it
    for i, op in enumerate(ops):
        lines.setdefault(op.target, []).append(i)
    names, copies = {}, set()
    for i, (o, v, indent) in enumerate(ops):
        if o is None or indent or not isinstance(v, str):
            continue
        at = lines.get(v, [])
        if o in outputs and v not in outputs and v not in names and at and at[-1] < i:
            names[v] = o
        elif o not in outputs and lines[o] == [i] and not at:
            names[o] = v
        else:
            continue
        copies.add(i)
    return [_renamed(op, names) for i, op in enumerate(ops) if i not in copies]


def _renamed(op, names):  # the line ``op`` with the local names ``names`` maps renamed
    def new(x):
        if isinstance(x, Term):
            args = [new(y) for y in x.args]
            same = all(y is z for y, z in zip(args, x.args))
            return x if same else Term(x.fmt, *args, raises=x.raises)
        return names.get(x, x) if isinstance(x, str) else x

    return Op(names.get(op.target, op.target), new(op.value), op.indent)


def _constant(operand):  # a structural zero, a literal or lam: the same all through a shot
    return operand is None or operand == "lam" or isinstance(operand, float)


def _out(operand):  # an operand as generated code reads it: a structural zero as 0.0
    return 0.0 if operand is None else operand


def _block(*items, indent=0):
    # Op records of ``items``, each an Op, a Term (a statement), the text of a statement
    # that reads no local, or a list of items: a block one in
    ops = []
    for item in items:
        if isinstance(item, list):
            ops += _block(*item, indent=indent + 1)
        elif isinstance(item, Op):
            ops.append(Op(item.target, item.value, item.indent + indent))
        else:
            ops.append(Op(None, item if isinstance(item, Term) else Term(item), indent))
    return ops


def _pruned(ops, live, may_raise=False):
    # ``ops`` without the lines that assign a name no later line reads, nor ``live``,
    # and that cannot raise (or that may, too, when ``may_raise``): one backward walk
    live, kept = set(live), []
    for op in reversed(ops):
        raises = isinstance(op.value, Term) and op.value.raises
        if op.target is None or op.target in live or raises and not may_raise:
            live |= expr._reads(op.value)
            kept.append(op)
    return kept[::-1]


def _projection(em, k, s, g, max_iter):
    # lines projecting the point (a0, ..., a[n-1]) onto g = 0: damped Newton in y = a[k:]
    # with x = a[:k] frozen, to |g| <= Y_SOLVE_TOL checked before each of the max_iter
    # steps and after the last.  A step is halved, up to 20 times, until |g| strictly
    # decreases; an evaluation error counts as an infinite |g|.  The solved point must
    # lie in the box lo0 <= a0 <= hi0, ... that _generated binds.  Leaves y in a[k:] and
    # |g| in r.  The step solves d_y g step = -g, g read from the names of its value
    # lines, which hold it at the point last accepted.  Needs em.lines empty, leaves it so.
    n = k + s
    a = [f"a{i}" for i in range(n)]
    values = [r[0] for r in _emit_part(em, g, "g", n, ())]
    res, em.lines = em.lines, []
    dy = [r[1:] for r in _emit_part(em, g, "g", n, range(k, n))]
    # only the jet lines d_y g reads: the jet runs where the residual lines just evaluated
    # g, so its copy of g's value ops cannot raise (a velocity stage, at a new point, can)
    jet, em.lines = _pruned(em.lines, expr._reads(*sum(dy, [])), may_raise=True), []
    x = expr._tuple(a[:k], "{{[{}]}}")
    fail = Term("raise RootFindingError(f'singular d_y g during y-solve at x = {}')", x,
                raises=True)
    (step,), solve, em.lines = _solved(em, dy, [values], fail), em.lines, []
    halving = [*(Op(v, Term("{} + {} * {}", f"base{j}", "scale", _out(step[j])))
                 for j, v in enumerate(a[k:])),
               "try:", [*res, Op("rn", _norm(values))],
               "except EVAL_ERRORS:", [Op("rn", Term("math.inf"))],
               Term("if {} < {}:", "rn", "r"), ["break"], Term("{} *= 0.5", "scale")]
    newton = [Term("if {} <= Y_SOLVE_TOL:", "r"), ["break"], *jet, *solve,
              *(Op(f"base{j}", v) for j, v in enumerate(a[k:])), Op("scale", 1.0),
              "for _ in range(20):", halving, "else:",
              [Term("raise RootFindingError(f'Newton stalled at residual {{{}:.3e}}')", "r",
                    raises=True)],
              Op("r", "rn")]
    inside = Term(" and ".join(f"lo{i} <= {{}} <= hi{i}" for i in range(n)), *a)
    return _block(*res, Op("r", _norm(values)),
                  Term("for _ in range({}):", max_iter), newton,
                  "else:", [Term("if not {} <= Y_SOLVE_TOL:", "r"),
                            [Term("raise RootFindingError(f'Newton did not reach tolerance "
                                  "{{Y_SOLVE_TOL:.1e}} (residual {{{}:.3e}} after {{{}}} "
                                  "iterations)')", "r", max_iter, raises=True)]],
                  Term("if not ({}):", inside), [Term(
                      "raise DomainEscapeError(f'y-solve at x = {} converged to {}, outside the "
                      "domain box')", x, expr._tuple(a[k:], "{{[{}]}}"), raises=True)])


def _norm(values):  # |values|: math.hypot, or for one value abs, its equal and a cheaper call
    return Term(f"{'abs' if len(values) == 1 else 'math.hypot'}({{}})", expr._tuple(values, "{}"))


def _emit_part(em, part, name, n, seeds, t=0.0):
    # per component of ``part`` (``name`` in the source) at (a0, ...) and time t: the
    # operands of its value and partials by ``seeds``; a callable part calls its flat
    if part.asts is None:
        jet = em.new(Term(f"{name}({{}}, {{}}, {bool(seeds)})",
                          expr._tuple((f"a{i}" for i in range(n)), "[{}]"), t, raises=True))
        return [[Term(f"{{}}[{i * (n + 1) + j if seeds else i}]", jet, raises=True)
                 for j in (0, *(1 + j for j in seeds))] for i in range(part.n_out)]
    em.bind(part.variables + (TIME_NAME,), [part.variables[j] for j in seeds])
    emitted = [em.emit(tree) for tree in part.asts]  # (value, {seed slot: partial})
    return [[v, *(d.get(j) for j in range(len(seeds)))] for v, d in emitted]


def _emit_p(em, gamma, sigma, n, seeds):
    # rows (as _emit_part's) of p = gamma + lam * sigma and of sigma; sigma is
    # evaluated where lam != 0.0 only, unless partials are asked for (dp/dlam)
    t = f"a{n}"
    forcing = sigma and (seeds or gamma is None) and _emit_part(em, sigma, "sigma", n, seeds, t)
    if gamma is None:
        return [[em.sum(("lam", b)) for b in row] for row in forcing], forcing
    own, mark = _emit_part(em, gamma, "gamma", n, seeds, t), len(em.lines)
    if sigma is None:
        return own, None
    forcing = forcing or _emit_part(em, sigma, "sigma", n, seeds, t)
    p = [[em.sum(u, ("lam", v)) for u, v in zip(*pair)] for pair in zip(own, forcing)]
    made = {op.target for op in em.lines[mark:]}
    rest = [Op(q, _out(u)) for rq, ru in zip(p, own) for q, u in zip(rq, ru) if q in made]
    if len(em.lines) > mark:
        em.lines[mark:] = _block(Term("if {} != 0.0:", "lam"), em.lines[mark:],
                                 *(["else:", rest] if rest else []))
    return p, forcing


def _completion(em, k, gjet, first, a, slaved=False):
    # (psi, S): psi completes ``first`` by d_y g psi_2 = -d_x g psi_1 at the point ``a``,
    # each d_x g . psi_1 left to right (a BLAS dot's fused multiply-adds round otherwise);
    # S = -(d_y g)^-1 d_x g by columns, from the same elimination, when ``slaved`` (else [])
    fail = Term("raise RegularityError(f'd_y g is singular at {{np.asarray({})}}')",
                expr._tuple(a, "[{}]"), raises=True)
    columns = [[em.sum(*zip(row[1:k + 1], first)) for row in gjet]]
    columns += [[row[1 + q] for row in gjet] for q in range(k * slaved)]
    psi2, *slave = _solved(em, [row[k + 1:] for row in gjet], columns, fail)
    return [*first, *psi2], slave


def _solved(em, m, columns, fail):
    # the solutions x of m x = -c, one per column c of ``columns``, for the s x s operands
    # m (by rows; None is a structural zero): Gaussian elimination with partial pivoting
    # (Golub & Van Loan 3.4) on floats.  The pivot of column j is its first entry of
    # largest magnitude on or below the diagonal, swapped up row by row: at run time by
    # an if/else that assigns both rows' entries from column j on to new names, unless
    # literals decide it now.  A zero pivot raises ``fail``; each row below adds
    # (-entry / pivot) times the pivot row, then x_i = -(c_i + u_i,i+1 x_i+1 + ...) / u_ii
    # left to right.  For s = 1: x = -c / m, after the zero test.
    s = len(m)
    rows = [[*row, *(c[i] for c in columns)] for i, row in enumerate(m)]
    for j in range(s):
        for i in range(j + 1, s):  # swapped where |rows[i][j]| > |rows[j][j]|
            top, low = rows[j], rows[i]
            a, b = _out(low[j]), _out(top[j])
            if isinstance(a, float) and (a == 0.0 or isinstance(b, float)):
                rows[j], rows[i] = (low, top) if a != 0.0 and abs(a) > abs(b) else (top, low)
                continue
            width = len(top) - j
            names = [f"v{next(em.counter)}" for _ in range(2 * width)]
            swapped, kept = (Term(f"{', '.join(names)} = {{}}", expr._tuple(map(_out, order), "{}"))
                             for order in (low[j:] + top[j:], top[j:] + low[j:]))
            em.lines += _block(Term("if abs({}) > abs({}):", a, b), [swapped], "else:", [kept])
            rows[j], rows[i] = top[:j] + names[:width], low[:j] + names[width:]
        pivot = _out(rows[j][j])
        if not (isinstance(pivot, float) and pivot != 0.0):  # a non-zero literal needs no test
            em.lines += _block(Term("if {} == 0.0:", pivot), [fail])
        for row in rows[j + 1:]:
            if not expr._zero(row[j]):
                factor = em.operand(expr._divided(expr._negated(row[j]), pivot))
                row[j + 1:] = [em.sum(v, (factor, u)) for v, u in zip(row[j + 1:], rows[j][j + 1:])]
    solutions = [[None] * s for _ in columns]
    for q, x in enumerate(solutions, start=s):
        for i in reversed(range(s)):
            total = em.sum(rows[i][q], *zip(rows[i][i + 1:s], x[i + 1:]))
            x[i] = None if total is None else em.operand(
                expr._divided(expr._negated(total), _out(rows[i][i])))
    return solutions


def _check_first(phi1, constraint):
    if phi1.n_out != constraint.k or phi1.n_in != constraint.dim:
        raise ValueError(
            f"first component map is {phi1.n_in}->{phi1.n_out}, "
            f"expected {constraint.dim}->{constraint.k}"
        )


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


def reduced_map(phi1, constraint):
    """Square field (phi_1, g) on the ambient box; its zeros are the
    zeros of the tangent field determined by phi_1, and its box degree
    carries the manifold degree up to the sign of det d_y g."""
    if phi1.time_dependent:
        raise ValueError("the reduced map needs a time-independent first component")
    _check_first(phi1, constraint)

    def vector(cols, t=0.0, jacobian=False):
        return (*phi1.vector(cols, t, jacobian), *constraint.gmap.vector(cols, t, jacobian))

    return AmbientMap(constraint.dim, constraint.dim, vector)


def implicit_solve_y(constraint, x, y_guess=None):
    """Solve g(x, y) = 0 for y at fixed x by damped Newton, to |g| <= ``Y_SOLVE_TOL``.

    The guess defaults to the midpoint of the y-slice of the
    constraint's domain box.  The iteration is the one that projects each
    flow step (generated code, see :func:`_projection`), with the same
    cap of ``_PROJECTION_ITER`` Newton steps.  The converged
    point must lie inside the domain box, otherwise
    :class:`DomainEscapeError` is raised; a solve that does not
    converge raises :class:`RootFindingError`.
    """
    if y_guess is None:
        y_guess = [(a + b) / 2.0 for a, b in constraint.domain.bounds[constraint.k:]]
    x, y_guess = _floats(x, constraint.k, "x"), _floats(y_guess, constraint.s, "y_guess")
    y, _ = constraint._code["solve_y"](_PROJECTION_ITER, *x, *y_guess)
    return np.array(y)


def schur_determinant_split(phi1, constraint, point):
    """Determinant identity behind the reduction formula.

    Returns ``(det_full, det_d2g, det_schur)`` where ``det_full`` is
    the determinant of the full Jacobian of the reduced map (phi_1, g)
    and ``det_full == det_d2g * det_schur`` with the Schur complement
    taken against the y-block of g.
    """
    point = np.asarray(point, dtype=float)
    k, jp, jg = constraint.k, phi1.jacobian(point), constraint.gmap.jacobian(point)
    schur = jp[:, :k] - jp[:, k:] @ np.linalg.solve(jg[:, k:], jg[:, :k])
    return tuple(float(np.linalg.det(m)) for m in (np.vstack([jp, jg]), jg[:, k:], schur))


@dataclass
class ManifoldDegreeResult:
    """Degree of a tangent field on the level set, with its two factors."""

    degree: int
    ambient: DegreeResult
    constraint_sign: int


def manifold_degree(phi1, constraint, box=None, **degree_options):
    """Degree of the tangent field with first components ``phi1`` on M.

    ``degree_options`` are forwarded to :func:`degree_sign_sum`
    (grid_density, boundary_samples, ...).
    """
    box = box or constraint.domain
    sign = partial2_sign(constraint, box=box,
                         sample_density=degree_options.pop("sample_density", None))
    ambient = degree_sign_sum(reduced_map(phi1, constraint), box, **degree_options)
    return ManifoldDegreeResult(sign * ambient.degree, ambient, sign)

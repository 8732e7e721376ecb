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
which is verified by grid sampling.  Several disjoint boxes, each with
its own constant sign, can be combined additively.
"""

import warnings as _warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .degree import DegreeResult, _default_density, degree_sign_sum, find_zeros
from .errors import (
    AdmissibilityError, DomainEscapeError, DomainEvalError, RegularityError,
    RootFindingError,
)
from . import expr
from .expr import Op, Term
from .fields import EVAL_ERRORS, TIME_NAME, AmbientMap, FieldHandle, _floats

__all__ = [
    "ImplicitConstraint", "ForcedField", "ManifoldDegreeResult",
    "partial2_sign", "tangent_completion", "tangency_residual",
    "reduced_map", "manifold_degree", "multi_region_degree",
    "implicit_solve_y", "schur_determinant_split", "complete_velocity",
]

SINGULAR_TOL = 1e-10  # |det d_y g| below which partial2_sign calls a sample singular
NEAR_SINGULAR_TOL = 1e-6  # and below which it warns
Y_SOLVE_TOL = 1e-12  # |g| every y-solve converges to, the flow's projections included
_PROJECTION_ITER = 50  # Newton steps each projection of a flow step may take


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

    def g(self, point):
        return self.gmap(point)

    def jacobian(self, point):
        return self.gmap.jacobian(point)

    def partial1(self, point):
        return self.gmap.jacobian(point)[:, : self.k]

    def partial2(self, point):
        return self.gmap.jacobian(point)[:, self.k:]

    def det_partial2(self, point):
        d2 = self.partial2(point)
        return float(d2[0, 0]) if self.s == 1 else float(np.linalg.det(d2))

    def residual(self, point):
        """|g| at ``point``, by the generated operations of every y-solve's drift."""
        return self._code["residual"](*_floats(point, self.dim))

    def y_slice(self, box=None):
        return (box or self.domain).bounds[self.k:]


def partial2_sign(constraint, sample_density=None, box=None):
    """Constant sign of det d_y g over a box, verified by grid sampling.

    Raises :class:`RegularityError` when |det| drops below ``SINGULAR_TOL``
    at a sample or when two samples disagree in sign; emits a
    RuntimeWarning when the margin is thinner than ``NEAR_SINGULAR_TOL``.
    """
    box = box or constraint.domain
    if sample_density is None:
        sample_density = _default_density(box.dim)
    points = box.grid(sample_density)
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

    Either part may be absent: without sigma the field ignores ``lam``,
    without gamma it is ``lam`` times the completed forcing.  Its arithmetic,
    and the RK4 steps :mod:`manideg.flow` runs, are straight-line code
    generated once per combination of parts (see :func:`_source`).
    """

    def __init__(self, constraint, gamma=None, sigma=None):
        if gamma is None and sigma is None:
            raise ValueError("a field needs gamma, sigma or both")
        self.constraint = constraint
        self.gamma = gamma
        self.sigma = sigma
        self.time_dependent = any(part is not None and part.time_dependent
                                  for part in (gamma, sigma))

    _code = cached_property(lambda self: _generated(self.constraint, self.gamma, self.sigma))

    def first(self, t, point, lam=0.0):
        return np.array(self._code["first"](*_floats(point, self.constraint.dim), t, lam))

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

    def eval(self, t, point):
        return self.velocity(t, point, 1.0)


# --- generated step code ------------------------------------------------------

_STEP_CODE = {}  # (parts' ASTs and variables, k, s) -> ({name: code}, {binding: functions})


def _generated(constraint, *field):
    # _source's functions, compiled once per parts and bound once per binding: callable
    # parts' flat as g, gamma, sigma, the projection's box lo0 <= a0 <= hi0, ... with margin
    parts = (constraint.gmap, *field)
    key = (tuple(p if p is None else (p.asts, p.variables) if p.asts else "flat"
                 for p in parts), constraint.k, constraint.s)
    if key not in _STEP_CODE:  # one by one: compiling all at once peaks at 0.5 MB
        _STEP_CODE[key] = ({name: compile(source, "<manideg step>", "exec")
                            for name, source in _source(constraint.k, constraint.s, *parts)}, {})
    codes, bound = _STEP_CODE[key]
    box, margin = constraint.domain, constraint.escape_margin
    binding = {**{name: p.flat if p is not None and p.asts is None else None
                  for name, p in zip(("g", "gamma", "sigma"), parts)},
               **{f"lo{i}": lo - margin for i, lo in enumerate(box.lower)},
               **{f"hi{i}": hi + margin for i, hi in enumerate(box.upper)}}
    values = tuple(binding.values())
    if values not in bound:
        ns = dict(globals(), **expr._SCALAR_NS, **binding)  # numpy as np, the errors, math
        for code in codes.values():
            exec(code, ns)
        bound[values] = {name: ns[name] for name in codes}
    return bound[values]


def _source(k, s, g, *field):
    # (name, source) of straight-line functions of the float coordinates a0, ..., a[n-1] that do
    # their formulas' float operations in order.  For the constraint alone: residual, solve_y of
    # (max_iter, a0, ...) -> (y, |g|) (see _projection) and tangent (completing f0, ...).  For a
    # field: first, velocity, linearize of (a0, ..., t, lam), and rk4 and rk4w, each a whole
    # shot of projected steps in one call: (i, n, t0, dt, lam, W, states, drifts, u0, ...) runs
    # the steps i, ..., n-1 of dt from the state u0, ... at step i, step j at time t0 + j * dt,
    # and appends each new state and |g| to the lists states and drifts.  It returns (n, state,
    # W, None), or at the first step that raises an error its except clause names (index, start
    # state, start W, error): halving that step is the caller's.  rk4w also advances W (k row
    # tuples; rk4 passes W through).  Callable parts are called as g, gamma, sigma.
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
    define("first", args, expr._tuple(_out(r[0]) for r in _emit_p(em, *field, n, ())[0]))

    def by_row(entry, width=k + 1):  # k row tuples of entry(r, j), W's by default
        return expr._tuple(expr._tuple(entry(r, j) for j in range(width)) for r in range(k))

    # a stage, velocity's or linearize's body, binds the velocity at the point a0, ...
    # and time a[n] to k0, ..., and linearize's A and dp/dlam to A0_0, ... and d0, ...;
    # an output that is a constant (a literal, lam or a structural zero) is bound to
    # none of them: the lines that read it read the constant
    names = [f"k{j}" for j in range(n)]
    names += [f"A{r}_{q}" for r in range(k) for q in range(k)] + [f"d{r}" for r in range(k)]
    stages = {}
    for name, seeds in (("velocity", ()), ("linearize", range(n))):
        p, forcing = _emit_p(em, *field, n, seeds)
        gjet = _emit_part(em, g, "g", n, range(n))
        values, slave = _completion(em, k, gjet, [r[0] for r in p], a, slaved=bool(seeds))
        if seeds:  # A = d_x p + d_y p S, each entry left to right, then dp/dlam
            values += [em.sum(r[1 + q], *zip(r[1 + k:], column))
                       for r in p for q, column in enumerate(slave)]
            values += [r[0] for r in forcing] if forcing else [None] * k
        held = {t: v for t, v in zip(names, values) if _constant(v)}
        em.lines += [Op(t, v) for t, v in zip(names, values) if t not in held]
        stages[name] = em.lines, held
        read = [_out(held.get(t, t)) for t, _ in zip(names, values)]
        define(name, args, expr._tuple(read[:n]) if not seeds else
               Term("{}, {}, {}", expr._tuple(read[:n]),
                    by_row(lambda r, q: read[n + r * k + q], k), expr._tuple(read[n + k * k:])))

    # the shots: each step of the loop inlines the four stages, each after its point
    # a0, ... = u0 + c * k0, ... (u0, ...: the step's start state) and time a[n], then
    # the stage sum and the projection.  The sums k0 + 2.0 * k1 + 2.0 * k2 + k3 are
    # accumulated stage by stage in sk0, ..., left to right as written.  W advances by
    # W' = A W + [0 | d] through M = A Z + [0 | d], Z = W + c * M of the stage before,
    # each entry of A Z summed left to right, and the M summed like the k in sm0_0, ...
    # A line whose value is a constant (a literal, lam or a structural zero) is not
    # written: the lines after it read the constant
    u, rk = [f"u{j}" for j in range(n)], [(r, j) for r in range(k) for j in range(k + 1)]
    w = by_row(lambda r, j: f"w{r}_{j}")
    for name, lin in (("rk4", False), ("rk4w", True)):
        body, outputs = stages["linearize" if lin else "velocity"]
        known, steps = {}, [Op("t", Term("{} + {} * {}", "t0", "i", "dt"))]

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

        for i, c in enumerate(("", "h", "h", "dt")):  # stage i at time t + c
            for j, x in enumerate(u):
                let(f"a{j}", x, *[(c, f"k{j}")] * (i > 0))
            steps += [Op(f"a{n}", Term("{} + {}", "t", c) if i else "t"), *body]
            known.update(outputs)
            sums = [(f"sk{j}", f"k{j}") for j in range(n)]
            if lin:
                if i:
                    for r, j in rk:
                        let(f"z{r}_{j}", f"w{r}_{j}", (c, f"m{r}_{j}"))
                z = "z" if i else "w"
                for r, j in rk:
                    let(f"m{r}_{j}", *((f"A{r}_{q}", f"{z}{q}_{j}") for q in range(k)),
                        *[f"d{r}"] * (j == k))
                sums += [(f"sm{r}_{j}", f"m{r}_{j}") for r, j in rk]
            for total, term in sums:
                let(total, *[total] * (i > 0), (2.0, term) if 0 < i < 3 else term)
        for j, x in enumerate(u):
            let(f"a{j}", x, ("sixth", f"sk{j}"))
        stepped = [(f"w{r}_{j}", expr._sum(f"w{r}_{j}", ("sixth", val(f"sm{r}_{j}"))))
                   for r, j in rk if lin]
        done = [*_projection(em, k, s, g, _PROJECTION_ITER),
                *(Op(x, f"a{j}") for j, x in enumerate(u)),
                *(Op(x, value) for x, value in stepped if value != x),
                Op(None, Term("{}.append({})", "states", expr._tuple(a, "[{}]"))),
                Op(None, Term("{}.append({})", "drifts", "r"))]
        state, w_out = expr._tuple(u, "[{}]"), w if lin else "w"
        em.lines = _block(
            *[Term(f"{expr._text(w)} = {{}}", "w")] * lin,
            Op("h", expr._divided("dt", 2.0)), Op("sixth", expr._divided("dt", 6.0)),
            "try:", [Term("for {0} in range({0}, {1}):", "i", "n"),
                     [*_pruned(steps, expr._reads(*(op.value for op in done))), *done]],
            "except (RootFindingError, OverflowError, ZeroDivisionError, "
            "FloatingPointError) as exc:",
            # a returned error's traceback, or its context's, would keep the shot's frame,
            # and through it the caller's that holds the error, in a cycle
            [Term("{0}.__traceback__ = {0}.__context__ = None", "exc"),
             Term("return {}, {}, {}, {}", "i", state, w_out, "exc")])
        define(name, f"i, n, t0, dt, lam, w, states, drifts, {', '.join(u)}",
               Term("{}, {}, {}, None", "n", state, w_out), loops=True)
    return out


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


def tangent_completion(psi1, constraint):
    """Tangent field on M with prescribed first k components."""
    if psi1.n_out != constraint.k or psi1.n_in != constraint.dim:
        raise ValueError(
            f"first component map is {psi1.n_in}->{psi1.n_out}, "
            f"expected {constraint.dim}->{constraint.k}"
        )
    return ForcedField(constraint, gamma=psi1)


def tangency_residual(field, point, t=0.0):
    """|g'(point) . field(t, point)|, zero up to roundoff for tangent fields."""
    v = field.eval(t, point) if hasattr(field, "eval") else field(point, t)
    return float(np.linalg.norm(field.constraint.jacobian(point) @ v))


def reduced_map(phi1, constraint):
    """Square field (phi_1, g) on the ambient box; its zeros are the
    zeros of the tangent field determined by phi_1, and its box degree
    carries the manifold degree up to the sign of det d_y g."""
    if phi1.time_dependent:
        raise ValueError("the reduced map needs a time-independent first component")
    if phi1.n_out != constraint.k or phi1.n_in != constraint.dim:
        raise ValueError(
            f"first component map is {phi1.n_in}->{phi1.n_out}, "
            f"expected {constraint.dim}->{constraint.k}"
        )

    def vector(cols, t=0.0, jacobian=False):
        return (*phi1.vector(cols, t, jacobian), *constraint.gmap.vector(cols, t, jacobian))

    return FieldHandle(constraint.dim, vector)


def implicit_solve_y(constraint, x, y_guess=None, max_iter=50):
    """Solve g(x, y) = 0 for y at fixed x by damped Newton, to |g| <= ``Y_SOLVE_TOL``.

    The guess defaults to the midpoint of the y-slice of the
    constraint's domain box; ``max_iter`` (an integer of at least 1)
    caps the Newton steps.  The iteration is the one that projects each
    flow step (generated code, see :func:`_projection`).  The converged
    point must lie inside the domain box, otherwise
    :class:`DomainEscapeError` is raised; a solve that does not
    converge raises :class:`RootFindingError`.
    """
    if y_guess is None:
        y_guess = [(a + b) / 2.0 for a, b in constraint.y_slice()]
    x, y_guess = _floats(x, constraint.k, "x"), _floats(y_guess, constraint.s, "y_guess")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    y, _ = constraint._code["solve_y"](int(max_iter), *x, *y_guess)
    return np.array(y)


def schur_determinant_split(phi1, constraint, point):
    """Determinant identity behind the reduction formula.

    Returns ``(det_full, det_d2g, det_schur)`` where ``det_full`` is
    the determinant of the full Jacobian of the reduced map (phi_1, g)
    and ``det_full == det_d2g * det_schur`` with the Schur complement
    taken against the y-block of g.
    """
    point = np.asarray(point, dtype=float)
    k, jp, jg = constraint.k, phi1.jacobian(point), constraint.jacobian(point)
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


def multi_region_degree(phi1, constraint, boxes, **degree_options):
    """Sum of per-box signed degrees over pairwise disjoint boxes.

    Each box gets its own constant sign of det d_y g, so level sets
    whose y-block flips orientation between components are handled.  A
    zero of the reduced map found inside the constraint's domain but
    outside every box makes the combination unreliable and raises
    :class:`AdmissibilityError`.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("need at least one box")
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes[i].overlaps(boxes[j]):
                raise ValueError(f"boxes {i} and {j} overlap: "
                                 f"{boxes[i].bounds} vs {boxes[j].bounds}")
    stray = [
        z for z in find_zeros(reduced_map(phi1, constraint), constraint.domain,
                              grid_density=degree_options.get("grid_density"))
        if not any(b.contains(z.location) for b in boxes)
    ]
    if stray:
        raise AdmissibilityError(
            f"zero of the reduced map at {stray[0].location} lies outside "
            "every supplied box; enlarge or add boxes"
        )
    return sum(manifold_degree(phi1, constraint, box, **degree_options).degree
               for box in boxes)

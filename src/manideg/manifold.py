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

import re
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
_CANNOT_RAISE = re.compile(r"(?!.*\*\*)[\w. +*-]+")  # float +, -, * of names and literals


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
        g = self._code["residual"](*_floats(point))
        return abs(g) if self.s == 1 else float(np.linalg.norm(g))

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

    Solves d_y g * psi_2 = -d_x g * psi_1 by a linear solve (never an
    explicit inverse), so the result satisfies g'(point) * psi = 0.
    """
    return np.array(constraint._code["tangent"](*_floats(point), *_floats(psi1_value)))


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
        return np.array(self._code["first"](*_floats(point), t, lam))

    def velocity(self, t, point, lam=0.0):
        return np.array(self._code["velocity"](*_floats(point), t, lam))

    def linearize(self, t, point, lam=0.0):
        """Velocity and the first-order data of the x-equations at ``point``.

        With y slaved to x on the level set (dy/dx = S = -(d_y g)^-1 d_x g)
        the x-components p = gamma + lam * sigma obey x' = p(t, x, y(x)).
        Returns ``(velocity, A, dp_dlam)`` where the velocity is
        bit-identical to :meth:`velocity`, A = d_x p + d_y p * S is the
        k x k matrix of the variational equation and dp_dlam = sigma
        (zero without a forcing part).  Only first derivatives are used.
        """
        velocity, a, dp_dlam = self._code["linearize"](*_floats(point), t, lam)
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


def _tuple(names):
    return f"({', '.join(names)},)"


def _source(k, s, g, *field):
    # (name, source) of straight-line functions of the float coordinates a0, ...,
    # a[n-1] that do their formulas' float operations in order.  For the constraint
    # alone: residual, solve_y of (max_iter, a0, ...) -> (y, |g|) (see _projection)
    # and tangent (completing f0, ...).  For a field: first, velocity, linearize of
    # (a0, ..., t, lam), and rk4 and rk4w, each a whole shot of projected steps in one
    # call: (i, n, t0, dt, lam, W, states, drifts, u0, ...) runs the steps i, ..., n-1
    # of dt from the state u0, ... at step i, step j at time t0 + j * dt, and appends
    # each new state and |g| to the lists states and drifts.  It returns (n, state, W,
    # None), or at the first step that raises RootFindingError, OverflowError,
    # ZeroDivisionError or FloatingPointError (index, start state, start W, error):
    # halving that step is the caller's.  rk4w also advances W (k row tuples; rk4
    # passes W through).  Callable parts are called as g, gamma, sigma.
    n = k + s
    a = [f"a{i}" for i in range(n)]
    point, em, out = ", ".join(a), expr._Emitter((), (), "scalar"), []

    def define(name, params, result):
        body = "\n".join([*em.lines, f"return {result}"]).splitlines()
        out.append((name, "\n".join([f"def {name}({params}):", *(f"    {ln}" for ln in body)])))
        em.lines = []

    if not field:
        values = [r[0] for r in _emit_part(em, g, "g", n, ())]
        define("residual", point, values[0] if s == 1 else _tuple(values))
        em.lines = _projection(em, k, s, g, "max_iter")
        define("solve_y", f"max_iter, {point}", f"[{', '.join(a[k:])}], r")
        f, gjet = [f"f{i}" for i in range(k)], _emit_part(em, g, "g", n, range(n))
        define("tangent", ", ".join(a + f), _tuple(_completion(em, k, s, gjet, f, point)))
        return out
    args = f"{point}, a{n}, lam"
    define("first", args, _tuple(r[0] for r in _emit_p(em, *field, n, ())[0]))

    def by_row(entry, width=k + 1):  # k row tuples of entry(r, j), W's by default
        return _tuple(_tuple(entry(r, j) for j in range(width)) for r in range(k))

    # a stage, velocity's or linearize's body, binds the velocity at the point a0, ...
    # and time a[n] to k0, ..., and linearize's A and dp/dlam to A0_0, ... and d0, ...
    names = [f"k{j}" for j in range(n)]
    results = {"velocity": _tuple(names),
               "linearize": (f"{_tuple(names)}, {by_row(lambda r, q: f'A{r}_{q}', k)}, "
                             f"{_tuple(f'd{r}' for r in range(k))}")}
    names += [f"A{r}_{q}" for r in range(k) for q in range(k)] + [f"d{r}" for r in range(k)]
    stages = {}
    for name, seeds in (("velocity", ()), ("linearize", range(n))):
        p, forcing = _emit_p(em, *field, n, seeds)
        gjet = _emit_part(em, g, "g", n, range(n))
        values = _completion(em, k, s, gjet, [r[0] for r in p], point)
        if seeds and s == 1:  # A = d_x p + d_y p * slave, slave = d_x g / (-d_y g)
            pivot = em.new(f"-{gjet[0][k + 1]}")
            slave = [em.new(f"{d} / {pivot}") for d in gjet[0][1:k + 1]]
            values += [em.new(f"{r[1 + j]} + {r[1 + k]} * {sj}")
                       for r in p for j, sj in enumerate(slave)]
        elif seeds:  # by numpy, with jac = d_(x, y) g from the completion
            em.lines += [f"dp = np.array({_tuple(sum(p, []))}).reshape({k}, {n + 1})[:, 1:]",
                         f"slaved = (dp[:, :{k}] + dp[:, {k}:] @ "
                         f"np.linalg.solve(jac[:, {k}:], -jac[:, :{k}])).tolist()"]
            values += [f"slaved[{r}][{q}]" for r in range(k) for q in range(k)]
        if seeds:  # dp/dlam
            values += [r[0] for r in forcing] if forcing else ["0.0"] * k
        em.lines += [f"{t} = {v}" for t, v in zip(names, values)]
        stages[name] = em.lines
        define(name, args, results[name])

    # the shots: each step of the loop inlines the four stages, each after its point
    # a0, ... = u0 + c * k0, ... (u0, ...: the step's start state) and time a[n], then
    # the stage sum and the projection.  The sums k0 + 2.0 * k1 + 2.0 * k2 + k3 are
    # accumulated stage by stage in sk0, ..., left to right as written.  W advances by
    # W' = A W + [0 | d] through M = A Z + [0 | d], Z = W + c * M of the stage before,
    # each entry of A Z summed left to right, and the M summed like the k in sm0_0, ...
    u, rk = [f"u{j}" for j in range(n)], [(r, j) for r in range(k) for j in range(k + 1)]
    w = by_row(lambda r, j: f"w{r}_{j}")
    for name, lin in (("rk4", False), ("rk4w", True)):
        steps = ["t = t0 + i * dt"]
        for i, (c, ts, term) in enumerate(zip(("", "h", "h", "dt"),
                                              ("t", "t + h", "t + h", "t + dt"),
                                              ("{}", "s{0} + 2.0 * {0}", "s{0} + 2.0 * {0}",
                                               "s{0} + {0}"))):
            steps += [f"a{j} = {x} + {c} * k{j}" if i else f"a{j} = {x}" for j, x in enumerate(u)]
            steps += [f"a{n} = {ts}", *stages["linearize" if lin else "velocity"]]
            steps += [f"sk{j} = " + term.format(f"k{j}") for j in range(n)]
            if lin:
                z = "z" if i else "w"
                steps += [f"z{r}_{j} = w{r}_{j} + {c} * m{r}_{j}" for r, j in rk if i]
                steps += [" + ".join([f"m{r}_{j} = A{r}_0 * {z}0_{j}",
                                      *(f"A{r}_{q} * {z}{q}_{j}" for q in range(1, k)),
                                      *[f"d{r}"] * (j == k)]) for r, j in rk]
                steps += [f"sm{r}_{j} = " + term.format(f"m{r}_{j}") for r, j in rk]
        steps += [f"a{j} = {x} + sixth * sk{j}" for j, x in enumerate(u)]
        done = [*_projection(em, k, s, g, _PROJECTION_ITER),
                *(f"{x} = a{j}" for j, x in enumerate(u)),
                *(f"w{r}_{j} = w{r}_{j} + sixth * sm{r}_{j}" for r, j in rk if lin),
                f"states.append([{point}])", "drifts.append(r)"]
        state, w_out = f"[{', '.join(u)}]", w if lin else "w"
        em.lines = [*[f"{w} = w"] * lin, "h = dt / 2.0", "sixth = dt / 6.0", "try:",
                    "    for i in range(i, n):",
                    *_indented(_indented([*_pruned(steps, done), *done])),
                    "except (RootFindingError, OverflowError, ZeroDivisionError, "
                    "FloatingPointError) as exc:",
                    # a returned error's traceback, or its context's, would keep the shot's
                    # frame, and through it the caller's that holds the error, in a cycle
                    "    exc.__traceback__ = exc.__context__ = None",
                    f"    return i, {state}, {w_out}, exc"]
        define(name, f"i, n, t0, dt, lam, w, states, drifts, {', '.join(u)}",
               f"n, {state}, {w_out}, None")
    return out


def _pruned(lines, after):
    # ``lines``, straight-line code with branches, without the assignments whose name no
    # later line reads, nor a line of ``after``, and whose value cannot raise: float +, -,
    # * and negation of names and literals.  Every **, call and / stays.
    live = set(re.findall(r"\b[A-Za-z_]\w*", "\n".join(after)))
    kept = []
    for line in reversed("\n".join(lines).splitlines()):
        name, eq, value = line.strip().partition(" = ")
        if not (eq and name.isidentifier()):
            value = line
        elif name not in live and _CANNOT_RAISE.fullmatch(value):
            continue
        live.update(re.findall(r"\b[A-Za-z_]\w*", value))
        kept.append(line)
    return kept[::-1]


def _indented(lines):
    return [f"    {ln}" for ln in "\n".join(lines).splitlines()]


def _projection(em, k, s, g, max_iter):
    # lines projecting the point (a0, ..., a[n-1]) onto g = 0: damped Newton in
    # y = a[k:] with x = a[:k] frozen, to |g| <= Y_SOLVE_TOL checked before each of
    # the max_iter steps and after the last.  A step is halved, up to 20 times, until
    # |g| strictly decreases; an evaluation error counts as an infinite |g|.  The
    # solved point must lie in the box lo0 <= a0 <= hi0, ... that _generated binds.
    # Leaves y in a[k:] and |g| in r.  For s > 1 the step is numpy's LAPACK solve and
    # |g| numpy's norm, with overflow and invalid-value warnings off.
    n = k + s
    a, steps = [f"a{i}" for i in range(n)], [f"step{j}" for j in range(s)]
    lines, em.lines = em.lines, []
    values = [r[0] for r in _emit_part(em, g, "g", n, ())]
    res, em.lines = em.lines, []
    dy = [d for r in _emit_part(em, g, "g", n, range(k, n)) for d in r[1:]]
    # only the jet lines d_y g reads: the jet runs where the residual lines just evaluated
    # g, so its copy of g's value ops cannot raise (a velocity stage, at a new point, can)
    jet, read = [], set(re.findall(r"\w+", " ".join(dy)))
    for line in reversed(em.lines):
        name, _, value = line.partition(" = ")
        if name in read:
            jet.insert(0, line)
            read.update(re.findall(r"\w+", value))
    em.lines = lines
    x = f"{{[{', '.join(a[:k])}]}}"
    fail = f"raise RootFindingError(f'singular d_y g during y-solve at x = {x}')"
    if s == 1:
        value, norm = values[0], "abs"
        solve = [f"if {dy[0]} == 0.0:", f"    {fail}", f"step0 = -gv / {dy[0]}"]
    else:
        value, norm = f"np.array({_tuple(values)})", "np.linalg.norm"
        solve = ["try:", f"    {_tuple(steps)} = np.linalg.solve(np.array({_tuple(dy)})"
                 f".reshape({s}, {s}), -gv).tolist()",
                 "except np.linalg.LinAlgError:", f"    {fail} from None"]
    halving = [*(f"{v} = base{j} + scale * step{j}" for j, v in enumerate(a[k:])),
               "try:", *_indented([*res, f"fn = {value}", f"rn = {norm}(fn)"]),
               "except EVAL_ERRORS:", "    rn = math.inf",
               "if rn < r:", "    break", "scale *= 0.5"]
    newton = ["if r <= Y_SOLVE_TOL:", "    break", *jet, *solve,
              *(f"base{j} = {v}" for j, v in enumerate(a[k:])), "scale = 1.0",
              "for _ in range(20):", *_indented(halving),
              "else:", "    raise RootFindingError(f'Newton stalled at residual {r:.3e}')",
              "gv, r = fn, rn"]
    lines = [*res, f"gv = {value}", f"r = {norm}(gv)",
             f"for _ in range({max_iter}):", *_indented(newton),
             "else:", "    if not r <= Y_SOLVE_TOL:",
             "        raise RootFindingError(f'Newton did not reach tolerance "
             f"{{Y_SOLVE_TOL:.1e}} (residual {{r:.3e}} after {{{max_iter}}} iterations)')"]
    if s > 1:
        lines = ["with np.errstate(over='ignore', invalid='ignore'):", *_indented(lines),
                 "r = float(r)"]
    inside = " and ".join(f"lo{i} <= {v} <= hi{i}" for i, v in enumerate(a))
    return [*lines, f"if not ({inside}):",
            f"    raise DomainEscapeError(f'y-solve at x = {x} converged to "
            f"{{[{', '.join(a[k:])}]}}, outside the domain box')"]


def _emit_part(em, part, name, n, seeds, t="0.0"):
    # per component of ``part`` (``name`` in the source) at (a0, ...) and time t: the
    # names of its value and partials by ``seeds``; a callable part calls its flat
    if part.asts is None:
        jet = em.new(f"{name}([{', '.join(f'a{i}' for i in range(n))}], {t}, {bool(seeds)})")
        return [[f"{jet}[{i * (n + 1) + j if seeds else i}]"
                 for j in (0, *(1 + j for j in seeds))] for i in range(part.n_out)]
    em.bind(part.variables + (TIME_NAME,), [part.variables[j] for j in seeds])
    emitted = [em.emit(tree) for tree in part.asts]  # (value, {seed slot: partial})
    return [[v, *(d.get(j, "0.0") for j in range(len(seeds)))] for v, d in emitted]


def _emit_p(em, gamma, sigma, n, seeds):
    # rows (as _emit_part's) of p = gamma + lam * sigma and of sigma; sigma is
    # evaluated where lam != 0.0 only, unless partials are asked for (dp/dlam)
    t = f"a{n}"
    forcing = sigma and (seeds or gamma is None) and _emit_part(em, sigma, "sigma", n, seeds, t)
    if gamma is None:
        return [[em.new(f"lam * {b}") for b in row] for row in forcing], forcing
    own, mark = _emit_part(em, gamma, "gamma", n, seeds, t), len(em.lines)
    if sigma is None:
        return own, None
    forcing = forcing or _emit_part(em, sigma, "sigma", n, seeds, t)
    p = [[em.new(f"{u} + lam * {v}") for u, v in zip(*pair)] for pair in zip(own, forcing)]
    em.lines[mark:] = ["if lam != 0.0:", *(f"    {ln}" for ln in em.lines[mark:]), "else:",
                       *(f"    {q} = {u}" for rq, ru in zip(p, own) for q, u in zip(rq, ru))]
    return p, forcing


def _completion(em, k, s, gjet, first, point):
    # the components of the velocity completing ``first`` by d_y g * psi_2 = -d_x g * psi_1;
    # for s = 1 on floats, d_x g . psi_1 left to right (a BLAS dot's fused multiply-adds
    # round otherwise)
    fail = f"raise RegularityError(f'd_y g is singular at {{np.asarray([{point}])}}')"
    if s > 1:
        em.lines += [f"jac = np.array({_tuple(sum(gjet, []))}).reshape({s}, {k + s + 1})[:, 1:]",
                     f"try:\n    psi2 = np.linalg.solve(jac[:, {k}:], "
                     f"-(jac[:, :{k}] @ np.array({_tuple(first)}))).tolist()",
                     f"except np.linalg.LinAlgError:\n    {fail} from None"]
        return [*first, *(f"psi2[{i}]" for i in range(s))]
    d = gjet[0]
    em.lines += [f"if {d[k + 1]} == 0.0:\n    {fail}"]
    rhs = em.new(f"{d[1]} * {first[0]}")
    em.lines += [f"{rhs} += {u} * {v}" for u, v in zip(d[2:k + 1], first[1:])]
    return [*first, f"-{rhs} / {d[k + 1]}"]


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
    x, y_guess = np.asarray(x, dtype=float), np.asarray(y_guess, dtype=float)
    for name, v, size in (("x", x, constraint.k), ("y_guess", y_guess, constraint.s)):
        if v.shape != (size,):
            raise ValueError(f"{name} must hold {size} coordinates, got shape {v.shape}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    y, _ = constraint._code["solve_y"](int(max_iter), *x.tolist(), *y_guess.tolist())
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

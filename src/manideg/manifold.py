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

from .degree import (
    DegreeResult, _default_density, damped_newton, degree_sign_sum, find_zeros,
)
from .errors import (
    AdmissibilityError, DomainEscapeError, DomainEvalError, RegularityError,
    RootFindingError,
)
from . import expr
from .fields import TIME_NAME, AmbientMap, FieldHandle, _floats

__all__ = [
    "ImplicitConstraint", "ForcedField", "ManifoldDegreeResult",
    "partial2_sign", "tangent_completion", "tangency_residual",
    "reduced_map", "manifold_degree", "multi_region_degree",
    "implicit_solve_y", "schur_determinant_split", "complete_velocity",
]


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
        """|g| at ``point``, by the generated code every y-solve's drift comes from."""
        g = self._code["residual"](*_floats(point))
        return abs(g) if self.s == 1 else float(np.linalg.norm(g))

    def y_slice(self, box=None):
        box = box or self.domain
        return box.bounds[self.k:]


def partial2_sign(constraint, sample_density=None, box=None, *,
                  singular_tol=1e-10, warn_tol=1e-6):
    """Constant sign of det d_y g over a box, verified by grid sampling.

    Raises :class:`RegularityError` when |det| drops below
    ``singular_tol`` at a sample or when two samples disagree in sign;
    emits a RuntimeWarning when the margin is thinner than
    ``warn_tol``.
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
    if worst < singular_tol:
        raise RegularityError(
            f"det d_y g reaches {worst:.3e} on the sampled box {box.bounds}; "
            "the constraint is not regular there"
        )
    if worst < warn_tol:
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
        return np.array(velocity), a, np.array(dp_dlam)

    def eval(self, t, point):
        return self.velocity(t, point, 1.0)


# --- generated step code ------------------------------------------------------

_STEP_CODE = {}  # (parts' ASTs and variables, k, s) -> {name: code of its def}


def _generated(constraint, *field):
    # _source's functions, with the callable parts' flat as their globals g, gamma, sigma
    parts = (constraint.gmap, *field)
    key = (tuple(p if p is None else (p.asts, p.variables) if p.asts else "flat"
                 for p in parts), constraint.k, constraint.s)
    if key not in _STEP_CODE:  # one by one: compiling all at once peaks at 0.5 MB
        _STEP_CODE[key] = {name: compile(source, "<manideg step>", "exec")
                           for name, source in _source(constraint.k, constraint.s, *parts)}
    ns = dict(globals(), **expr._SCALAR_NS)  # numpy as np, the errors, math
    ns.update(zip(("g", "gamma", "sigma"), (p and p.flat for p in parts)))
    for code in _STEP_CODE[key].values():
        exec(code, ns)
    return {name: ns[name] for name in _STEP_CODE[key]}


def _tuple(names):
    return f"({', '.join(names)},)"


def _source(k, s, g, *field):
    # (name, source) of straight-line functions of the float coordinates a0, ...,
    # a[n-1] that do their formulas' float operations in order.  For the constraint
    # alone: residual, newton_y (the y-Newton step) and tangent (completing f0, ...).
    # For a field: first, velocity, linearize of (a0, ..., t, lam) and rk4(w) of (t,
    # dt, lam, W, a0, ...) -> (state, W).  Callable parts are called as g, gamma, sigma.
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
        dy = [d for r in _emit_part(em, g, "g", n, range(k, n)) for d in r[1:]]
        fail = ("raise RootFindingError(f'singular d_y g during y-solve at x = "
                f"{{[{', '.join(a[:k])}]}}')")
        em.lines += [f"if {dy[0]} == 0.0:\n    {fail}"] if s == 1 else [
            f"try:\n    step = np.linalg.solve(np.array({_tuple(dy)}).reshape({s}, {s}), -gval)",
            f"except np.linalg.LinAlgError:\n    {fail} from None"]
        define("newton_y", f"{point}, gval", f"-gval / {dy[0]}" if s == 1 else "step")
        f, gjet = [f"f{i}" for i in range(k)], _emit_part(em, g, "g", n, range(n))
        define("tangent", ", ".join(a + f), _completion(em, k, s, gjet, f, point))
        return out
    args = f"{point}, a{n}, lam"
    define("first", args, _tuple(r[0] for r in _emit_p(em, *field, n, ())[0]))
    for name, seeds in (("velocity", ()), ("linearize", range(n))):
        p, forcing = _emit_p(em, *field, n, seeds)
        gjet = _emit_part(em, g, "g", n, range(n))
        ret = _completion(em, k, s, gjet, [r[0] for r in p], point)
        if seeds and s == 1:  # A = d_x p + d_y p * slave, slave = d_x g / (-d_y g)
            pivot = em.new(f"-{gjet[0][k + 1]}")
            slave = [em.new(f"{d} / {pivot}") for d in gjet[0][1:k + 1]]
            rows = [_tuple(em.new(f"{r[1 + j]} + {r[1 + k]} * {sj}")
                           for j, sj in enumerate(slave)) for r in p]
            ret += f", np.array({_tuple(rows)})"
        elif seeds:  # by numpy, with jac = d_(x, y) g from the completion
            em.lines.append(f"dp = np.array({_tuple(sum(p, []))}).reshape({k}, {n + 1})[:, 1:]")
            ret += f", dp[:, :{k}] + dp[:, {k}:] @ np.linalg.solve(jac[:, {k}:], -jac[:, :{k}])"
        if seeds:  # dp/dlam
            ret += ", " + _tuple([r[0] for r in forcing] if forcing else ["0.0"] * k)
        define(name, args, ret)
    for name, lin in (("rk4", False), ("rk4w", True)):
        em.lines, ks = ["h = dt / 2.0"], a
        for i, (c, ts) in enumerate(zip(("", "h", "h", "dt"), ("t", "t + h", "t + h", "t + dt"))):
            shifted = ", ".join(f"{x} + {c} * {v}" if i else x for x, v in zip(a, ks))
            ks = [f"k{i}_{j}" for j in range(n)]
            em.lines += [f"{_tuple(ks)}, A, d = linearize({shifted}, {ts}, lam)",
                         f"m{i} = A.dot({f'w + {c} * m{i - 1}' if i else 'w'})",  # W' = AW + [0|d]
                         *(f"m{i}[{r}, -1] += d[{r}]" for r in range(k))] if lin else [
                             f"{_tuple(ks)} = velocity({shifted}, {ts}, lam)"]
        raw = ", ".join(f"{x} + sixth * (k0_{j} + 2.0 * k1_{j} + 2.0 * k2_{j} + k3_{j})"
                        for j, x in enumerate(a))
        em.lines.append("sixth = dt / 6.0")
        define(name, f"t, dt, lam, w, {point}",
               f"[{raw}], w" + (" + sixth * (m0 + 2.0 * m1 + 2.0 * m2 + m3)" if lin else ""))
    return out


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
    # the velocity completing ``first`` by d_y g * psi_2 = -d_x g * psi_1; for s = 1 on
    # floats, d_x g . psi_1 left to right (a BLAS dot's fused multiply-adds round otherwise)
    fail = f"raise RegularityError(f'd_y g is singular at {{np.asarray([{point}])}}')"
    if s > 1:
        em.lines += [f"jac = np.array({_tuple(sum(gjet, []))}).reshape({s}, {k + s + 1})[:, 1:]",
                     f"try:\n    psi2 = np.linalg.solve(jac[:, {k}:], "
                     f"-(jac[:, :{k}] @ np.array({_tuple(first)})))",
                     f"except np.linalg.LinAlgError:\n    {fail} from None"]
        return f"[{', '.join(first)}, *psi2.tolist()]"
    d = gjet[0]
    em.lines += [f"if {d[k + 1]} == 0.0:\n    {fail}"]
    rhs = em.new(f"{d[1]} * {first[0]}")
    em.lines += [f"{rhs} += {u} * {v}" for u, v in zip(d[2:k + 1], first[1:])]
    return _tuple([*first, f"-{rhs} / {d[k + 1]}"])


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


def implicit_solve_y(constraint, x, y_guess=None, tol=1e-12, max_iter=50):
    """Solve g(x, y) = 0 for y at fixed x by damped Newton.

    The guess defaults to the midpoint of the y-slice of the
    constraint's domain box.  The converged point must lie inside the
    domain box, otherwise :class:`DomainEscapeError` is raised; a solve
    that does not converge raises :class:`RootFindingError`.
    """
    if y_guess is None:
        y_guess = [(a + b) / 2.0 for a, b in constraint.y_slice()]
    y, _ = _solve_y(constraint, _floats(x), _floats(y_guess), tol, max_iter)
    return np.array(y)


def _solve_y(constraint, x, y, tol, max_iter=50):
    # implicit_solve_y on float lists; returns (y, |g| at the solution).
    # A scalar y is solved on floats, s > 1 by numpy solves.
    g, step = constraint._code["residual"], constraint._code["newton_y"]
    if constraint.s == 1:
        y, gval = damped_newton(lambda yv: g(*x, yv), lambda yv, gv: step(*x, yv, gv),
                                y[0], tol, max_iter, norm=abs)
        y, drift = [y], abs(gval)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            y, gval = damped_newton(lambda yv: np.array(g(*x, *yv.tolist())),
                                    lambda yv, gv: step(*x, *yv.tolist(), gv),
                                    np.array(y), tol, max_iter)
            drift = float(np.linalg.norm(gval))
        y = y.tolist()
    if not constraint.domain.contains(x + y, margin=constraint.escape_margin):
        raise DomainEscapeError(
            f"y-solve at x = {x} converged to {y}, outside the domain box"
        )
    return y, drift


def schur_determinant_split(phi1, constraint, point):
    """Determinant identity behind the reduction formula.

    Returns ``(det_full, det_d2g, det_schur)`` where ``det_full`` is
    the determinant of the full Jacobian of the reduced map (phi_1, g)
    and ``det_full == det_d2g * det_schur`` with the Schur complement
    taken against the y-block of g.
    """
    point = np.asarray(point, dtype=float)
    k = constraint.k
    jp = phi1.jacobian(point)
    jg = constraint.jacobian(point)
    full = np.vstack([jp, jg])
    det_full = float(np.linalg.det(full))
    d2g = jg[:, k:]
    det_d2g = float(np.linalg.det(d2g))
    solved = np.linalg.solve(d2g, jg[:, :k])
    schur = jp[:, :k] - jp[:, k:] @ solved
    det_schur = float(np.linalg.det(schur))
    return det_full, det_d2g, det_schur


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

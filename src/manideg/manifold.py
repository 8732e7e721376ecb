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

import numpy as np

from .degree import (
    DegreeResult, _default_density, damped_newton, degree_sign_sum, find_zeros,
)
from .errors import (
    AdmissibilityError, DomainEscapeError, DomainEvalError, RegularityError,
    RootFindingError,
)
from .fields import AmbientMap, FieldHandle, _floats

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
        return float(np.linalg.norm(self.gmap(point)))

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
    point = _floats(point)
    jet = constraint.gmap.flat(point, jacobian=True)
    return np.array(_complete(constraint, jet, point, _floats(psi1_value)))


def _complete(constraint, jet, point, psi1):
    # complete_velocity on floats, from the constraint's flat jet at point
    k, s = constraint.k, constraint.s
    if s == 1:
        pivot = jet[k + 1]
        if pivot == 0.0:
            raise RegularityError(f"d_y g is singular at {np.asarray(point)}")
        # d_x g . psi1 left to right: the same bits on every machine, which
        # a BLAS dot with fused multiply-adds does not promise
        rhs = jet[1] * psi1[0]
        for a, b in zip(jet[2:k + 1], psi1[1:]):
            rhs += a * b
        return [*psi1, -rhs / pivot]
    jac = np.array(jet).reshape(s, constraint.dim + 1)[:, 1:]
    rhs = jac[:, :k] @ np.array(psi1)
    try:
        psi2 = np.linalg.solve(jac[:, k:], -rhs)
    except np.linalg.LinAlgError:
        raise RegularityError(f"d_y g is singular at {np.asarray(point)}") from None
    return [*psi1, *psi2.tolist()]


class ForcedField:
    """Tangent field on the level set with first components gamma + lam * sigma.

    Either part may be absent: without sigma the field ignores ``lam``,
    without gamma it is ``lam`` times the completed forcing.  The array
    methods wrap plain-float ones (``_velocity``, ``_linearize``), which
    the flow steps call directly on lists of floats.
    """

    def __init__(self, constraint, gamma=None, sigma=None):
        self.constraint = constraint
        self.gamma = gamma
        self.sigma = sigma
        self.time_dependent = any(part is not None and part.time_dependent
                                  for part in (gamma, sigma))

    def _first(self, t, p, lam):
        # gamma + lam * sigma at the float list p
        if self.gamma is None:
            return [lam * b for b in self.sigma.flat(p, t)]
        first = self.gamma.flat(p, t)
        if self.sigma is not None and lam != 0.0:
            first = [a + lam * b for a, b in zip(first, self.sigma.flat(p, t))]
        return first

    def first(self, t, point, lam=0.0):
        return np.array(self._first(t, _floats(point), lam))

    def _velocity(self, t, p, lam):
        c = self.constraint
        return _complete(c, c.gmap.flat(p, jacobian=True), p, self._first(t, p, lam))

    def velocity(self, t, point, lam=0.0):
        return np.array(self._velocity(t, _floats(point), lam))

    def _linearize(self, t, p, lam):
        # linearize at the float list p: velocity and dp/dlam as lists, A as an array
        c = self.constraint
        k, n1 = c.k, c.dim + 1
        if self.sigma is None:
            jet = self.gamma.flat(p, t, True)
            dp_dlam = [0.0] * k
        else:
            forcing = self.sigma.flat(p, t, True)
            dp_dlam = forcing[::n1]
            if self.gamma is None:
                jet = [lam * b for b in forcing]
            else:
                jet = self.gamma.flat(p, t, True)
                if lam != 0.0:
                    jet = [a + lam * b for a, b in zip(jet, forcing)]
        gjet = c.gmap.flat(p, jacobian=True)
        velocity = _complete(c, gjet, p, jet[::n1])
        if c.s == 1:
            pivot = -gjet[k + 1]
            slave = [d / pivot for d in gjet[1:k + 1]]
            # row i of d_(x, y) p starts at jet[r], r = i * n1 + 1
            a = np.array([[jet[r + j] + jet[r + k] * sj for j, sj in enumerate(slave)]
                          for r in range(1, k * n1, n1)])
        else:
            dp = np.array(jet).reshape(k, n1)[:, 1:]
            jac = np.array(gjet).reshape(c.s, n1)[:, 1:]
            a = dp[:, :k] + dp[:, k:] @ np.linalg.solve(jac[:, k:], -jac[:, :k])
        return velocity, a, dp_dlam

    def linearize(self, t, point, lam=0.0):
        """Velocity and the first-order data of the x-equations at ``point``.

        With y slaved to x on the level set (dy/dx = S = -(d_y g)^-1 d_x g)
        the x-components p = gamma + lam * sigma obey x' = p(t, x, y(x)).
        Returns ``(velocity, A, dp_dlam)`` where the velocity is
        bit-identical to :meth:`velocity`, A = d_x p + d_y p * S is the
        k x k matrix of the variational equation and dp_dlam = sigma
        (zero without a forcing part).  Only first derivatives are used.
        """
        velocity, a, dp_dlam = self._linearize(t, _floats(point), lam)
        return np.array(velocity), a, np.array(dp_dlam)

    def eval(self, t, point):
        return self.velocity(t, point, 1.0)


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

    def func(point, t=0.0):
        return np.concatenate([phi1(point), constraint.g(point)])

    def jac(point, t=0.0):
        return np.vstack([phi1.jacobian(point), constraint.jacobian(point)])

    def vector(cols, t=0.0, jacobian=False):
        return (*phi1.vector(cols, t, jacobian), *constraint.gmap.vector(cols, t, jacobian))

    return FieldHandle(constraint.dim, func, jac, vector=vector)


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
    gmap, k, s = constraint.gmap, constraint.k, constraint.s
    point = None

    if s == 1:
        def residual(yv):
            nonlocal point
            point = x + [yv]
            return gmap.flat(point)[0]

        def newton_step(yv, gval):
            # point is (x, yv): damped_newton steps from its latest residual point
            pivot = gmap.flat(point, jacobian=True)[k + 1]
            if pivot == 0.0:
                raise RootFindingError(f"singular d_y g during y-solve at x = {x}")
            return -gval / pivot

        y, gval = damped_newton(residual, newton_step, y[0], tol, max_iter, norm=abs)
        y, drift = [y], abs(gval)
    else:
        def residual(yv):
            nonlocal point
            point = x + yv.tolist()
            return np.array(gmap.flat(point))

        def newton_step(yv, gval):
            jet = gmap.flat(point, jacobian=True)
            d2 = np.array(jet).reshape(s, k + s + 1)[:, k + 1:]
            try:
                return np.linalg.solve(d2, -gval)
            except np.linalg.LinAlgError:
                raise RootFindingError(
                    f"singular d_y g during y-solve at x = {x}") from None

        with np.errstate(over="ignore", invalid="ignore"):
            y, gval = damped_newton(residual, newton_step, np.array(y), tol, max_iter)
            drift = float(np.linalg.norm(gval))
        y = y.tolist()
    if not constraint.domain.contains(point, margin=constraint.escape_margin):
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

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
    AdmissibilityError, DomainEscapeError, RegularityError, RootFindingError,
)
from .fields import AmbientMap, FieldHandle

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
    dets = np.array([constraint.det_partial2(p) for p in box.grid(sample_density)])
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
    jac = constraint.jacobian(point)
    k = constraint.k
    rhs = jac[:, :k] @ psi1_value
    d2 = jac[:, k:]
    if constraint.s == 1:
        pivot = d2[0, 0]
        if pivot == 0.0:
            raise RegularityError(f"d_y g is singular at {np.asarray(point)}")
        psi2 = np.array([-rhs[0] / pivot])
    else:
        try:
            psi2 = np.linalg.solve(d2, -rhs)
        except np.linalg.LinAlgError:
            raise RegularityError(f"d_y g is singular at {np.asarray(point)}") from None
    return np.concatenate([np.asarray(psi1_value, dtype=float), psi2])


class ForcedField:
    """Tangent field on the level set with first components gamma + lam * sigma.

    Either part may be absent: without sigma the field ignores ``lam``,
    without gamma it is ``lam`` times the completed forcing.
    """

    def __init__(self, constraint, gamma=None, sigma=None):
        self.constraint = constraint
        self.gamma = gamma
        self.sigma = sigma
        self.time_dependent = any(part is not None and part.time_dependent
                                  for part in (gamma, sigma))

    def first(self, t, point, lam=0.0):
        if self.gamma is not None:
            out = self.gamma(point, t)
            if self.sigma is not None and lam != 0.0:
                out = out + lam * self.sigma(point, t)
            return out
        return lam * self.sigma(point, t)

    def velocity(self, t, point, lam=0.0):
        return complete_velocity(self.constraint, point, self.first(t, point, lam))

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

    return FieldHandle(constraint.dim, func, jac)


def implicit_solve_y(constraint, x, y_guess=None, tol=1e-12, max_iter=50):
    """Solve g(x, y) = 0 for y at fixed x by damped Newton.

    The guess defaults to the midpoint of the y-slice of the
    constraint's domain box.  The converged point must lie inside the
    domain box, otherwise :class:`DomainEscapeError` is raised; a solve
    that does not converge raises :class:`RootFindingError`.
    """
    x = np.asarray(x, dtype=float)
    if y_guess is None:
        y = np.array([(a + b) / 2.0 for a, b in constraint.y_slice()])
    else:
        y = np.array(y_guess, dtype=float)

    point = None

    def residual(yv):
        nonlocal point
        point = np.concatenate([x, yv])
        return constraint.g(point)

    def newton_step(yv, gval):
        # point is (x, yv): damped_newton steps from its latest residual point
        d2 = constraint.partial2(point)
        if constraint.s == 1:
            if d2[0, 0] == 0.0:
                raise RootFindingError(f"singular d_y g during y-solve at x = {x}")
            return np.array([-gval[0] / d2[0, 0]])
        try:
            return np.linalg.solve(d2, -gval)
        except np.linalg.LinAlgError:
            raise RootFindingError(f"singular d_y g during y-solve at x = {x}") from None

    y, _ = damped_newton(residual, newton_step, y, tol, max_iter)
    domain = constraint.domain
    if not domain.contains(point, margin=1e-9 * domain.diameter):
        raise DomainEscapeError(
            f"y-solve at x = {x} converged to {y}, outside the domain box"
        )
    return y


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

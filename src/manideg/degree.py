"""Brouwer degree of vector fields on box regions.

The workhorse is the sign-sum formula: locate every zero of the field
inside the box with damped multi-start Newton, check each is
nondegenerate, and add up the signs of the Jacobian determinants.  The
field must not vanish on the box boundary, which is checked by dense
sampling (a heuristic, reported as a warning on the result).  In two
dimensions an independent winding-number computation is available as a
cross-check; it needs no Jacobians and tolerates degenerate interior
zeros.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    AdmissibilityError,
    DegenerateZeroError,
    DomainEvalError,
    NumericError,
    RootFindingError,
)
from .fields import FieldHandle

__all__ = [
    "DomainBox", "ZeroRecord", "DegreeResult", "FieldHandle",
    "find_zeros", "local_index", "boundary_min",
    "degree_sign_sum", "degree_winding_2d",
]

# Newton starts per axis, by dimension; beyond 4 axes the grid is kept coarse.
_DEFAULT_GRID = {1: 16, 2: 16, 3: 8, 4: 6}
_DEFAULT_FACE = {1: 2, 2: 64, 3: 16, 4: 8}

_EVAL_ERRORS = (DomainEvalError, OverflowError, ZeroDivisionError, FloatingPointError)


def _default_density(dim):
    return _DEFAULT_GRID.get(dim, 5)


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box, the region degrees are computed over."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box needs matching, non-empty bound tuples")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"degenerate box: lower {lo} not strictly below upper {hi}")

    @classmethod
    def from_bounds(cls, bounds):
        bounds = list(bounds)
        return cls(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds))

    @classmethod
    def cube(cls, lo, hi, dim):
        return cls((lo,) * dim, (hi,) * dim)

    @property
    def dim(self):
        return len(self.lower)

    @property
    def bounds(self):
        return tuple(zip(self.lower, self.upper))

    @property
    def center(self):
        return np.array([(a + b) / 2.0 for a, b in self.bounds])

    @property
    def diameter(self):
        return math.sqrt(sum((b - a) ** 2 for a, b in self.bounds))

    def contains(self, point, margin=0.0):
        # plain floats: this runs once per Newton step and per y-solve
        values = point.tolist() if isinstance(point, np.ndarray) else map(float, point)
        for v, a, b in zip(values, self.lower, self.upper):
            if not a - margin <= v <= b + margin:
                return False
        return True

    def grid(self, density):
        """All nodes of a ``density``-per-axis grid, shape (density^dim, dim)."""
        axes = [np.linspace(a, b, density) for a, b in self.bounds]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def boundary_grid(self, samples_per_axis):
        """Sample points covering every face of the box."""
        m = self.dim
        if m == 1:
            return np.array([[self.lower[0]], [self.upper[0]]])
        faces = []
        for axis in range(m):
            others = [np.linspace(a, b, samples_per_axis)
                      for i, (a, b) in enumerate(self.bounds) if i != axis]
            mesh = np.meshgrid(*others, indexing="ij")
            flat = np.column_stack([g.ravel() for g in mesh])
            for value in (self.lower[axis], self.upper[axis]):
                pts = np.empty((flat.shape[0], m))
                pts[:, axis] = value
                pts[:, [i for i in range(m) if i != axis]] = flat
                faces.append(pts)
        return np.vstack(faces)

    def overlaps(self, other):
        return all(a < d and c < b
                   for (a, b), (c, d) in zip(self.bounds, other.bounds))


@dataclass
class ZeroRecord:
    """A located zero of a field, with its local degree contribution."""

    location: np.ndarray
    residual: float
    jacobian_det: float
    index: int
    degenerate: bool = False


@dataclass
class DegreeResult:
    degree: int
    zeros: list
    method: str
    boundary_min: float
    warnings: list = dataclass_field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")
def damped_newton(residual, newton_step, x, tol, max_iter):
    """Residual-halving Newton iteration from ``x``.

    ``residual(x)`` is the vector driven to zero and ``newton_step(x, fx)``
    the full Newton step at ``x``, which is always the point of the latest
    ``residual`` call.  A step is halved, up to 20 times,
    until the residual norm decreases; an evaluation error while halving
    counts as an infinite residual, and so does a norm that overflows.
    Returns ``(x, residual(x))`` once the norm is at most ``tol``, checked
    before each of the ``max_iter`` steps and after the last.

    Raises :class:`RootFindingError` on a step no halving improves or a
    residual still above ``tol`` at the cap; errors from ``newton_step``
    propagate.
    """
    fx = residual(x)
    r = np.linalg.norm(fx)
    for _ in range(max_iter):
        if r <= tol:
            return x, fx
        step = newton_step(x, fx)
        scale = 1.0
        for _ in range(20):
            xn = x + scale * step
            try:
                fn = residual(xn)
                rn = np.linalg.norm(fn)
            except _EVAL_ERRORS:
                rn = np.inf
            if rn < r:
                break
            scale *= 0.5
        else:
            raise RootFindingError(f"Newton stalled at residual {r:.3e}")
        x, fx, r = xn, fn, rn
    if r <= tol:
        return x, fx
    raise RootFindingError(
        f"Newton did not reach tolerance {tol:.1e} "
        f"(residual {r:.3e} after {max_iter} iterations)"
    )


def _newton(field, start, tol, max_iter, fence):
    """Damped Newton from one start; returns the polished point or None.

    The start is abandoned (None) as soon as an accepted iterate leaves
    the box ``fence``; no Jacobian is evaluated outside it.
    """
    def residual(x):
        return np.asarray(field(x), dtype=float)

    def newton_step(x, fx):
        if not fence.contains(x):
            raise RootFindingError(f"Newton left the search region at {x}")
        step = np.linalg.solve(np.asarray(field.jacobian(x), dtype=float), -fx)
        if not np.all(np.isfinite(step)):
            raise RootFindingError("non-finite Newton step")
        return step

    try:
        x, fx = damped_newton(residual, newton_step, np.array(start, dtype=float),
                              tol, max_iter)
    except (RootFindingError, np.linalg.LinAlgError, *_EVAL_ERRORS):
        return None
    if not fence.contains(x):
        return None
    return _polish(field, x, fx)


def _polish(field, x, fx, max_extra=60):
    """Push a residual-converged iterate to stationarity.

    At a multiple zero the residual tolerance is met while the point is
    still O(sqrt(tol)) away and the Jacobian determinant looks merely
    small instead of singular.  Continuing until the Newton step itself
    is negligible makes degeneracy detectable and sharpens dedup.
    """
    for _ in range(max_extra):
        try:
            jac = np.asarray(field.jacobian(x), dtype=float)
            step = np.linalg.solve(jac, -fx)
        except (np.linalg.LinAlgError, *_EVAL_ERRORS):
            return x
        if not np.all(np.isfinite(step)):
            return x
        if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(x)):
            return x
        xn = x + step
        try:
            fn = np.asarray(field(xn), dtype=float)
        except _EVAL_ERRORS:
            return x
        # roundoff bounce: keep the better iterate and stop
        if np.linalg.norm(fn) > max(4.0 * np.linalg.norm(fx), 1e-13):
            return x
        x, fx = xn, fn
    return x


def find_zeros(field, box, grid_density=None, newton_tol=1e-10,
               dedup_radius=None, max_newton_iter=60, degenerate_tol=1e-10):
    """Locate the zeros of ``field`` inside ``box``.

    Parameters
    ----------
    field : FieldHandle
        Square vector field with Jacobian access.
    box : DomainBox
        Search region; converged points outside it are discarded, and a
        start is abandoned once an iterate leaves the box widened by
        one box width on each side.
    grid_density : int, optional
        Newton starts per axis.  Defaults depend on the dimension
        (16 for one or two axes, 8 for three, 6 for four).
    newton_tol : float
        Residual norm below which a start counts as converged.
    dedup_radius : float, optional
        Merge radius for coincident roots; defaults to 1e-6 times the
        box diameter.
    max_newton_iter, degenerate_tol :
        Iteration cap per start and the |det| threshold below which a
        zero is flagged degenerate.

    Returns
    -------
    list of ZeroRecord, sorted by location.
    """
    if field.dim != box.dim:
        raise ValueError(f"field dimension {field.dim} != box dimension {box.dim}")
    density = grid_density if grid_density is not None else _default_density(box.dim)
    density = max(2, int(density))
    radius = dedup_radius if dedup_radius is not None else 1e-6 * box.diameter
    # starts that run this far off (one box width past every face) are
    # abandoned instead of being followed towards overflow
    width = np.subtract(box.upper, box.lower)
    fence = DomainBox.from_bounds(zip(box.lower - width, box.upper + width))

    accepted = []
    for start in box.grid(density):
        x = _newton(field, start, newton_tol, max_newton_iter, fence)
        if x is None or not box.contains(x):
            continue
        for seen in accepted:
            if np.linalg.norm(seen - x) <= radius:
                break
        else:
            accepted.append(x)

    records = []
    for x in sorted(accepted, key=lambda p: tuple(p)):
        residual = float(np.linalg.norm(field(x)))
        jac = np.asarray(field.jacobian(x), dtype=float)
        det = float(np.linalg.det(jac))
        degenerate = abs(det) < degenerate_tol
        index = 0 if degenerate else (1 if det > 0 else -1)
        records.append(ZeroRecord(x, residual, det, index, degenerate))
    return records


def local_index(field, zero, degenerate_tol=1e-10):
    """Sign of the Jacobian determinant at a nondegenerate zero."""
    det = float(np.linalg.det(np.asarray(field.jacobian(np.asarray(zero, dtype=float)))))
    if abs(det) < degenerate_tol:
        raise DegenerateZeroError(
            f"Jacobian determinant {det:.3e} at {np.asarray(zero)} is (numerically) "
            "singular; the local index is undefined there"
        )
    return 1 if det > 0 else -1


def boundary_min(field, box, samples_per_face=None):
    """Minimum field magnitude over a dense sampling of the box boundary."""
    n = samples_per_face if samples_per_face is not None else _DEFAULT_FACE.get(box.dim, 6)
    pts = box.boundary_grid(max(2, int(n)))
    best = np.inf
    for p in pts:
        best = min(best, float(np.linalg.norm(field(p))))
    return best


def degree_sign_sum(field, box, *, grid_density=None, newton_tol=1e-10,
                    dedup_radius=None, boundary_samples=None,
                    admissibility_tol=1e-8, max_newton_iter=60):
    """Brouwer degree of ``field`` on ``box`` by summing local indices.

    Raises
    ------
    AdmissibilityError
        If the sampled boundary magnitude drops to ``admissibility_tol``.
    DegenerateZeroError
        If any located zero has a singular Jacobian.
    """
    bmin = boundary_min(field, box, boundary_samples)
    if bmin <= admissibility_tol:
        raise AdmissibilityError(
            f"field magnitude {bmin:.3e} on the sampled boundary of {box.bounds}; "
            "the degree is not defined for fields vanishing on the boundary"
        )
    zeros = find_zeros(field, box, grid_density=grid_density, newton_tol=newton_tol,
                       dedup_radius=dedup_radius, max_newton_iter=max_newton_iter)
    for z in zeros:
        if z.degenerate:
            raise DegenerateZeroError(
                f"zero at {z.location} has |det| = {abs(z.jacobian_det):.3e}; "
                "use the 2-D winding computation or perturb the box"
            )
    warnings = [
        "boundary admissibility and zero enumeration rely on sampling "
        f"(boundary min |F| = {bmin:.6e})"
    ]
    if not zeros:
        warnings.append("no zeros found in the box; degree 0")
    degree = sum(z.index for z in zeros)
    return DegreeResult(degree, zeros, "sign-sum", bmin, warnings)


# --- 2-D winding oracle -----------------------------------------------------

def _boundary_path(box, ts):
    """Counterclockwise boundary point for each parameter in [0, 4)."""
    (x0, x1), (y0, y1) = box.bounds
    ts = np.asarray(ts) % 4.0
    pts = np.empty((ts.size, 2))
    edge = np.floor(ts).astype(int)
    frac = ts - edge
    b = edge == 0
    pts[b, 0], pts[b, 1] = x0 + frac[b] * (x1 - x0), y0
    b = edge == 1
    pts[b, 0], pts[b, 1] = x1, y0 + frac[b] * (y1 - y0)
    b = edge == 2
    pts[b, 0], pts[b, 1] = x1 - frac[b] * (x1 - x0), y1
    b = edge == 3
    pts[b, 0], pts[b, 1] = x0, y1 - frac[b] * (y1 - y0)
    return pts


def degree_winding_2d(field, box, boundary_samples=256, *, zero_tol=1e-10,
                      max_passes=48, max_points=200000):
    """Degree of a planar field as the winding number of its boundary image.

    Angle increments between consecutive samples are accumulated along
    the counterclockwise boundary; whenever an increment exceeds pi/2
    the segment is split, so no increment can silently jump by a full
    half-turn.  The accumulated angle divided by 2*pi is returned,
    rounded to the nearest integer.
    """
    if field.dim != 2:
        raise ValueError("the winding computation applies to planar fields only")
    ts = np.linspace(0.0, 4.0, max(8, int(boundary_samples)), endpoint=False)
    for _ in range(max_passes):
        pts = _boundary_path(box, ts)
        vals = np.array([field(p) for p in pts])
        norms = np.hypot(vals[:, 0], vals[:, 1])
        if norms.min() <= zero_tol:
            raise AdmissibilityError(
                f"field magnitude {norms.min():.3e} on the box boundary; "
                "winding is undefined"
            )
        angles = np.arctan2(vals[:, 1], vals[:, 0])
        diffs = np.diff(angles, append=angles[0])
        diffs -= 2.0 * np.pi * np.round(diffs / (2.0 * np.pi))
        too_big = np.abs(diffs) > 0.5 * np.pi
        if not too_big.any():
            total = float(diffs.sum())
            winding = total / (2.0 * np.pi)
            degree = int(round(winding))
            if abs(winding - degree) > 0.25:
                raise NumericError(
                    f"winding total {winding:.6f} turns is not close to an integer"
                )
            return degree
        nxt = np.roll(ts, -1).copy()
        nxt[-1] += 4.0
        mids = (ts[too_big] + nxt[too_big]) / 2.0
        ts = np.sort(np.concatenate([ts, mids]))
        if ts.size > max_points:
            break
    raise NumericError(
        "boundary angle increments stay above pi/2 after refinement; "
        "the field nearly vanishes on the boundary"
    )

"""Brouwer degree of vector fields on box regions.

The workhorse is the sign-sum formula: locate every zero of the field
inside the box with damped multi-start Newton, check each is
nondegenerate, and add up the signs of the Jacobian determinants.  The
field must not vanish on the box boundary, which is checked by dense
sampling (a heuristic, reported as a warning on the result).  In two
dimensions an independent winding-number computation is available as a
cross-check; it needs no Jacobians and tolerates degenerate interior
zeros.

The Newton starts run in lock-step: per iteration one batched Jacobian
(``AmbientMap.batch``), one stacked linear solve and at most three
batched residuals (the full steps, then two chunks of halvings) serve
every live start, and masks give each start its own halvings, fence,
stall and convergence (see :func:`_lockstep_newton`).
Boundary and winding samples are batched too.  The flow's y-projection
runs the same damped rule on one point, as generated code (see
:mod:`manideg.manifold`).
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import AdmissibilityError, DegenerateZeroError, DomainEvalError, NumericError
from .fields import _floats

__all__ = [
    "DomainBox", "ZeroRecord", "DegreeResult",
    "find_zeros", "boundary_min",
    "degree_sign_sum", "degree_winding_2d",
]

# Newton starts per axis, by dimension; beyond 4 axes the grid is kept coarse.
_DEFAULT_GRID = {1: 16, 2: 16, 3: 8, 4: 6}
_DEFAULT_FACE = {1: 2, 2: 64, 3: 16, 4: 8}
NEWTON_MAX_ITER = 60  # iterations per Newton start
DEGENERATE_TOL = 1e-10  # |det| below which a zero is degenerate
ADMISSIBILITY_TOL = 1e-8  # sampled boundary |F| at or below which the sign-sum refuses
_WINDING_SAMPLES = 256  # first boundary samples of the winding computation
_WINDING_ZERO_TOL = 1e-10  # boundary |F| at or below which the winding is undefined
_WINDING_MAX_PASSES = 48  # caps on the winding's refinement passes
_WINDING_MAX_POINTS = 200000  # and on its boundary samples
# step scales 2**-j a lock-step Newton iteration tries, one batch per chunk:
# the full step, then halvings 1-3, then 4-19 for the rows still not improved
_HALVING_CHUNKS = tuple(np.array([0.5 ** j for j in levels])
                        for levels in ((0,), (1, 2, 3), range(4, 20)))


# a lock-step Newton start's region, unchecked: three box widths across, its diameter may overflow
_Fence = namedtuple("_Fence", "lower upper")


def _default_density(dim):
    return _DEFAULT_GRID.get(dim, 5)


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box (finite bounds, lower < upper, finite diameter), a degree's region."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box needs matching, non-empty bound tuples")
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError(f"box bounds must be finite, got lower {lo}, upper {hi}")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"each box range needs lower < upper, got lower {lo}, upper {hi}")
        if not math.isfinite(self.diameter):
            raise ValueError(f"the diameter of the box with lower {lo}, upper {hi} overflows")

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
        # a product, unlike ** 2, overflows to inf instead of raising
        return math.sqrt(sum((b - a) * (b - a) for a, b in self.bounds))

    def contains(self, point):
        for v, a, b in zip(_floats(point, self.dim), self.lower, self.upper):
            if not a <= v <= b:
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


def _norms(a):
    # Euclidean norm of each row, bit for bit np.linalg.norm of the row
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


def _residual_norms(values, valid):
    # an invalid or non-finite residual counts as infinite
    r = _norms(values)
    r[~(valid & np.isfinite(r))] = np.inf
    return r


def _inside(box, points):
    return np.all((np.array(box.lower) <= points) & (points <= np.array(box.upper)), axis=1)


def _newton_steps(field, x, fx):
    """Full Newton steps at the rows ``x`` (residuals ``fx``), one stacked
    solve; NaN where the Jacobian does not evaluate or is singular."""
    jac, valid = field.batch(x, jacobian=True)
    jac[~valid] = np.eye(x.shape[1])
    try:
        steps = np.linalg.solve(jac, -fx[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # a singular matrix fails the stacked solve: solve row by row this once
        steps = np.full_like(fx, np.nan)
        for i in range(len(x)):
            try:
                steps[i] = np.linalg.solve(jac[i], -fx[i])
            except np.linalg.LinAlgError:
                pass
    steps[~valid] = np.nan
    return steps


def _lockstep_newton(field, x, tol, max_iter, fence):
    """Damped Newton from every row of ``x`` at once, in lock-step.

    Each iteration moves a row by the first of its Newton step's scales
    2**-j (j = 0, ..., 19) that strictly decreases its residual norm; a
    residual that does not evaluate or whose norm is not finite counts
    as infinite.  The tolerance is checked before each of the
    ``max_iter`` steps and after the last.  A row is abandoned (stalls)
    when no scale improves it, and also when its start does not
    evaluate, when an iterate about to step lies outside ``fence`` (so
    no Jacobian is evaluated there) and when its step is not finite.
    Returns the final points and residuals, and the mask of the rows
    that converged inside ``fence``.

    The halving levels are tried a chunk at a time (``_HALVING_CHUNKS``):
    one batch holds every level of a chunk for every row still waiting,
    and a row's residual bound does not change while it waits, so the
    row takes the level it would take trying one level per batch.  The
    field is also evaluated at the levels of a chunk past the one a row
    takes, points between the row's iterate and its rejected full step;
    a callable-backed field sees these as extra calls.
    """
    fx, valid = field.batch(x)
    r = _residual_norms(fx, valid)
    live = np.isfinite(r)
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(max_iter):
        done = live & (r <= tol)
        converged |= done
        live &= ~done & _inside(fence, x)
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        steps = _newton_steps(field, x[rows], fx[rows])
        finite = np.isfinite(steps).all(axis=1)
        live[rows[~finite]] = False
        rows, steps = rows[finite], steps[finite]
        for scales in _HALVING_CHUNKS:
            if not rows.size:
                break
            # row i, level j of the chunk at flat index i * len(scales) + j
            xn = (x[rows][:, None] + scales[:, None] * steps[:, None]).reshape(-1, x.shape[1])
            fn, valid = field.batch(xn)
            rn = _residual_norms(fn, valid)
            better = rn.reshape(len(rows), -1) < r[rows, None]
            moved = better.any(axis=1)
            took = rows[moved]
            pick = np.flatnonzero(moved) * len(scales) + better[moved].argmax(axis=1)
            x[took], fx[took], r[took] = xn[pick], fn[pick], rn[pick]
            rows, steps = rows[~moved], steps[~moved]
        live[rows] = False  # stalled: no halving decreased the residual
    else:
        converged |= live & (r <= tol)
    return x, fx, converged & _inside(fence, x)


def _polish(field, x, fx, max_extra=60):
    """Push residual-converged iterates (the rows of ``x``) to stationarity.

    At a multiple zero the residual tolerance is met while the point is
    still O(sqrt(tol)) away and the Jacobian determinant looks merely
    small instead of singular.  Continuing until the Newton step itself
    is negligible makes degeneracy detectable and sharpens dedup.  A row
    stops at a Jacobian that does not evaluate or is singular, at a
    non-finite or negligible step, and at a step whose residual does not
    evaluate or bounces up; it keeps its last good iterate.
    """
    rows = np.arange(len(x))
    for _ in range(max_extra):
        if not rows.size:
            break
        steps = _newton_steps(field, x[rows], fx[rows])
        moving = np.isfinite(steps).all(axis=1)
        moving[moving] = ~(_norms(steps[moving])
                           <= 1e-14 * (1.0 + _norms(x[rows[moving]])))
        rows, steps = rows[moving], steps[moving]
        xn = x[rows] + steps
        fn, valid = field.batch(xn)
        # roundoff bounce: keep the better iterate and stop
        calm = ~(_residual_norms(fn, valid) > np.maximum(4.0 * _norms(fx[rows]), 1e-13))
        rows = rows[calm]
        x[rows], fx[rows] = xn[calm], fn[calm]
    return x


def _check_field(field, box):
    # a degree field is a time-free map R^m -> R^m on an m-dimensional box
    if field.time_dependent or not field.n_in == field.n_out == box.dim:
        kind = "time-dependent " if field.time_dependent else ""
        raise ValueError(f"a degree field must be a time-free map R^{box.dim} -> R^{box.dim} "
                         f"on a {box.dim}-D box, got a {kind}{field.n_in}->{field.n_out} map")


def _check_search_tolerances(newton_tol=1e-10, dedup_radius=None):
    # newton_tol positive and finite, dedup_radius (if given) non-negative and finite
    if not 0.0 < newton_tol < math.inf:
        raise ValueError(f"newton_tol must be positive and finite, got {newton_tol!r}")
    if dedup_radius is not None and not 0.0 <= dedup_radius < math.inf:
        raise ValueError(
            f"dedup_radius must be non-negative and finite, got {dedup_radius!r}")


def find_zeros(field, box, grid_density=None, newton_tol=1e-10, dedup_radius=None):
    """Locate the zeros of ``field`` inside ``box``.

    Parameters
    ----------
    field : AmbientMap
        Time-free map R^m -> R^m, m the box dimension, with Jacobian access.
    box : DomainBox
        Search region; converged points outside it are discarded, and a
        start is abandoned once an iterate leaves the box widened by
        one box width on each side.
    grid_density : int, optional
        Newton starts per axis, all run in lock-step for at most
        ``NEWTON_MAX_ITER`` iterations; a density below 2 counts as 2.
        Defaults depend on the dimension (16 for one or two axes, 8 for
        three, 6 for four).
    newton_tol : float
        Residual norm below which a start counts as converged.
    dedup_radius : float, optional
        Merge radius for coincident roots; defaults to 1e-6 times the
        box diameter.

    Returns
    -------
    list of ZeroRecord, sorted by location; degenerate where |det| < ``DEGENERATE_TOL``.
    """
    _check_field(field, box)
    _check_search_tolerances(newton_tol, dedup_radius)
    density = grid_density if grid_density is not None else _default_density(box.dim)
    density = max(2, int(density))
    radius = dedup_radius if dedup_radius is not None else 1e-6 * box.diameter
    # starts that run this far off (one box width past every face) are
    # abandoned instead of being followed towards overflow
    width = np.subtract(box.upper, box.lower)
    fence = _Fence(box.lower - width, box.upper + width)

    with np.errstate(over="ignore", invalid="ignore"):
        x, fx, converged = _lockstep_newton(field, box.grid(density), newton_tol,
                                            NEWTON_MAX_ITER, fence)
        x = _polish(field, x[converged], fx[converged])
    # dedup in grid order: the first point is kept, with every later one
    # within the radius of it dropped, and so on with the rest
    rest, accepted = x[_inside(box, x)], []
    while len(rest):
        accepted.append(rest[0])
        rest = rest[_norms(rest - rest[0]) > radius]

    # the residuals and determinants of all zeros come from one batch each
    zeros = np.array(sorted(accepted, key=tuple)).reshape(-1, box.dim)
    residuals, dets = _norms(_sample(field, zeros)), np.linalg.det(_sample(field, zeros, True))
    records = []
    for x, residual, det in zip(zeros, residuals.tolist(), dets.tolist()):
        degenerate = abs(det) < DEGENERATE_TOL
        index = 0 if degenerate else (1 if det > 0 else -1)
        records.append(ZeroRecord(x, residual, det, index, degenerate))
    return records


def boundary_min(field, box, samples_per_face=None):
    """Minimum field magnitude over a dense sampling of the box boundary.

    ``samples_per_face`` is the samples per axis of each face; a count
    below 2 counts as 2.
    """
    _check_field(field, box)
    n = samples_per_face if samples_per_face is not None else _DEFAULT_FACE.get(box.dim, 6)
    return float(_norms(_sample(field, box.boundary_grid(max(2, int(n))))).min())


def _sample(field, points, jacobian=False):
    # field values (or Jacobians) at sample points, each of which must evaluate
    values, valid = field.batch(points, jacobian)
    if not valid.all():
        raise DomainEvalError(f"the field is undefined at the sample {points[~valid][0]}")
    return values


def degree_sign_sum(field, box, *, grid_density=None, newton_tol=1e-10,
                    dedup_radius=None, boundary_samples=None):
    """Brouwer degree of ``field`` on ``box`` by summing local indices.

    Raises
    ------
    AdmissibilityError
        If the sampled boundary magnitude drops to ``ADMISSIBILITY_TOL``.
    DegenerateZeroError
        If any located zero has a singular Jacobian.
    """
    bmin = boundary_min(field, box, boundary_samples)
    if bmin <= ADMISSIBILITY_TOL:
        raise AdmissibilityError(
            f"field magnitude {bmin:.3e} on the sampled boundary of {box.bounds}; "
            "the degree is not defined for fields vanishing on the boundary"
        )
    zeros = find_zeros(field, box, grid_density=grid_density, newton_tol=newton_tol,
                       dedup_radius=dedup_radius)
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


def degree_winding_2d(field, box):
    """Degree of a planar field as the winding number of its boundary image.

    Angle increments between consecutive samples are accumulated along
    the counterclockwise boundary; whenever an increment exceeds pi/2
    the segment is split, so no increment can silently jump by a full
    half-turn.  The accumulated angle divided by 2*pi is returned,
    rounded to the nearest integer.
    """
    _check_field(field, box)
    if box.dim != 2:
        raise ValueError("the winding computation applies to planar fields only")
    ts = np.linspace(0.0, 4.0, _WINDING_SAMPLES, endpoint=False)
    for _ in range(_WINDING_MAX_PASSES):
        pts = _boundary_path(box, ts)
        vals = _sample(field, pts)
        norms = np.hypot(vals[:, 0], vals[:, 1])
        if norms.min() <= _WINDING_ZERO_TOL:
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
        if ts.size > _WINDING_MAX_POINTS:
            break
    raise NumericError(
        "boundary angle increments stay above pi/2 after refinement; "
        "the field nearly vanishes on the boundary"
    )

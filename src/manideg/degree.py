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
every live start, each with its own halvings.  After an iteration that
tried halvings 4-19, an iteration with at most ``_FEW_LIVE`` live starts
tries all 20 step scales in a single batch instead, in which a
callable-backed field sees more extra calls.  The live starts are held
compact, and a start leaves them once, converged, fenced, with a
non-finite step or stalled (see :func:`_lockstep_newton`), so an
iteration costs what its live starts cost.  Only the first converged
start of each group of duplicates is polished (see :func:`find_zeros`).
The boundary samples are batched too; the winding starts from the same
256 points as :func:`boundary_min` and evaluates only the midpoints its
refinement inserts.  The flow's y-projection runs the same damped rule
on one point, as generated code (see :mod:`manideg.manifold`).
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import AdmissibilityError, DegenerateZeroError, DomainEvalError, NumericError
from .fields import _floats, _integer

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
_WINDING_ZERO_TOL = 1e-10  # boundary |F| at or below which the winding is undefined
_WINDING_MAX_PASSES = 48  # caps on the winding's refinement passes
_WINDING_MAX_POINTS = 200000  # and on its boundary samples
# step scales 2**-j a lock-step Newton iteration tries after the full step, one
# batch per chunk: halvings 1-3, then 4-19 for the starts still not improved
_HALVING_CHUNKS = tuple(np.array([0.5 ** j for j in levels])
                        for levels in ((1, 2, 3), range(4, 20)))
# after an iteration that ran halvings 4-19, at most this many live starts try all
# 20 scales, the full step included, in one batch; for more starts, or starts that
# the full step improves, the extra rows cost more than the batch calls saved
_FEW_LIVE = 16
_ALL_SCALES = (np.concatenate(([1.0], *_HALVING_CHUNKS)),)  # that batch's one chunk


# a lock-step Newton start's region, unchecked: three box widths across, its diameter may overflow
_Fence = namedtuple("_Fence", "lower upper")


def _default_density(dim):
    return _DEFAULT_GRID.get(dim, 5)


def _count(name, value, default):
    # a count per axis, ``default`` if None: an integer, and below 2 it counts as 2
    return default if value is None else max(2, _integer(name, value))


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
        """Sample points covering every face of the box, ``samples_per_axis``
        per axis of each face, ends included.

        The faces come axis by axis, the lower before the upper, each a
        grid over the other axes in the order of :meth:`grid`.  In 2-D
        that is x = x0, x = x1 (y rising), then y = y0, y = y1 (x
        rising), the order :func:`degree_winding_2d` walks them in.
        """
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
    # Euclidean norm of each row, bit for bit np.linalg.norm of the row; rows
    # that may overflow need np.errstate(over="ignore", invalid="ignore")
    r = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    if np.isinf(r).any():  # a finite row past about 1.3e154 squares to inf: scale it first
        big = np.isinf(r) & np.isfinite(a).all(axis=1)
        m = np.abs(a[big]).max(axis=1)
        r[big] = m * np.sqrt(((a[big] / m[:, None]) ** 2).sum(axis=1))
    return r


def _residual_norms(values, valid):
    # an invalid or non-finite residual counts as infinite
    r = _norms(values)
    r[~(valid & np.isfinite(r))] = np.inf
    return r


def _inside(box, points):
    return ((np.asarray(box.lower) <= points) & (points <= np.asarray(box.upper))).all(axis=1)


def _newton_steps(field, x, fx):
    """Full Newton steps at the rows ``x`` (residuals ``fx``), one stacked
    solve; NaN where the Jacobian does not evaluate or is singular."""
    jac, valid = field.batch(x, jacobian=True)
    all_valid = valid.all()
    if not all_valid:
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
    if not all_valid:
        steps[~valid] = np.nan
    return steps


def _retire(x, fx, leaving, rows, xl, fl, *rest):
    """Write the live starts flagged ``leaving`` back into ``x`` and ``fx``.

    A Newton loop holds its live starts compact: ``rows`` are their rows
    of ``x``, ``xl`` and ``fl`` their points and values, and ``rest``
    more arrays with a row per live start.  Returns the same arrays for
    the starts that stay live.
    """
    if not leaving.any():
        return (rows, xl, fl, *rest)
    gone = rows[leaving]
    x[gone], fx[gone] = xl[leaving], fl[leaving]
    keep = ~leaving
    return tuple(a[keep] for a in (rows, xl, fl, *rest))


def _lockstep_newton(field, x, tol, max_iter, fence):
    """Damped Newton from every row of ``x`` at once, in lock-step.

    Each iteration moves a start by the first of its Newton step's scales
    2**-j (j = 0, ..., 19) that strictly decreases its residual norm; a
    residual that does not evaluate or whose norm is not finite counts
    as infinite.  Returns the final points and residuals, and the mask
    of the starts that converged inside ``fence``.

    Only the live starts are iterated, held compact (row of ``x``, point,
    value, residual norm).  A start whose residual does not evaluate
    never runs.  The others leave the live set at one place per outcome,
    where their final point and value are written back into ``x`` and
    ``fx``:

    - converged: the residual norm is at most ``tol``, checked before
      each of the ``max_iter`` steps and after the last; a start that
      converges outside ``fence`` is dropped;
    - fenced: an iterate about to step lies outside ``fence``, so no
      Jacobian is evaluated there;
    - non-finite step: the Jacobian does not evaluate or is singular;
    - stalled: no scale decreases the residual norm;
    - out of iterations after ``max_iter`` steps.

    One batch holds the full steps of every live start.  The halving
    levels are then tried a chunk at a time (``_HALVING_CHUNKS``): one
    batch holds every level of a chunk for every start still waiting,
    and a start's residual bound does not change while it waits, so it
    takes the level it would take trying one level per batch.  The
    field is also evaluated at the levels of a chunk past the one a start
    takes, points between its iterate and its rejected full step; a
    callable-backed field sees these as extra calls.

    After an iteration that tried halvings 4-19, an iteration with at
    most ``_FEW_LIVE`` live starts tries all 20 scales of every start,
    the full step included, in one batch, and keeps doing so while the
    starts stay that few, since that batch holds the deep levels too.
    Each start still takes the first scale that decreases its residual
    norm, but a start that the full step improves is evaluated at its 19
    halvings as well, so a callable-backed field sees more extra calls in
    that batch.
    """
    fx, valid = field.batch(x)
    r = _residual_norms(fx, valid)
    converged = np.zeros(len(x), dtype=bool)
    rows = np.flatnonzero(np.isfinite(r))
    xl, fl, rl = x[rows], fx[rows], r[rows]
    deep = False
    for _ in range(max_iter):
        done, inside = rl <= tol, _inside(fence, xl)
        converged[rows[done]] = inside[done]
        rows, xl, fl, rl = _retire(x, fx, done | ~inside, rows, xl, fl, rl)  # converged, fenced
        if not rows.size:
            break
        steps = _newton_steps(field, xl, fl)
        finite = np.isfinite(steps).all(axis=1)
        rows, xl, fl, rl, steps = _retire(x, fx, ~finite, rows, xl, fl, rl, steps)  # non-finite
        if deep and len(rows) <= _FEW_LIVE:
            chunks, waiting = _ALL_SCALES, np.arange(len(rows))
        else:
            chunks = _HALVING_CHUNKS
            xn = xl + steps  # the full steps
            fn, valid = field.batch(xn)
            rn = _residual_norms(fn, valid)
            moved = rn < rl
            xl[moved], fl[moved], rl[moved] = xn[moved], fn[moved], rn[moved]
            waiting = np.flatnonzero(~moved)  # the live starts no scale has improved yet
            steps = steps[waiting]
        deep = False  # whether this iteration tries halvings 4-19
        for scales in chunks:
            if not waiting.size:
                break
            deep = scales is chunks[-1]
            # start i, level j of the chunk at flat index i * len(scales) + j
            xn = (xl[waiting][:, None] + scales[:, None] * steps[:, None]).reshape(-1, x.shape[1])
            fn, valid = field.batch(xn)
            rn = _residual_norms(fn, valid)
            better = rn.reshape(len(waiting), -1) < rl[waiting, None]
            moved = better.any(axis=1)
            took = waiting[moved]
            pick = np.flatnonzero(moved) * len(scales) + better[moved].argmax(axis=1)
            xl[took], fl[took], rl[took] = xn[pick], fn[pick], rn[pick]
            waiting, steps = waiting[~moved], steps[~moved]
        if waiting.size:  # stalled: no scale decreased the residual
            stalled = np.zeros(len(rows), dtype=bool)
            stalled[waiting] = True
            rows, xl, fl, rl = _retire(x, fx, stalled, rows, xl, fl, rl)
    else:  # out of iterations: the last step may have converged
        done = rl <= tol
        converged[rows[done]] = _inside(fence, xl[done])
        x[rows], fx[rows] = xl, fl
    return x, fx, converged


def _polish(field, x, fx, max_extra=60):
    """Push residual-converged iterates (the rows of ``x``, values ``fx``)
    to stationarity; returns the final points and their values.

    At a multiple zero the residual tolerance is met while the point is
    still O(sqrt(tol)) away and the Jacobian determinant looks merely
    small instead of singular.  Continuing until the Newton step itself
    is negligible makes degeneracy detectable and sharpens dedup.
    :func:`find_zeros` polishes one start per group of converged starts.

    As in :func:`_lockstep_newton` only the live rows are iterated, held
    compact, and each keeps its last good iterate and its value, written
    back into ``x`` and ``fx`` where it leaves: at a Jacobian that does
    not evaluate or is singular, at a non-finite or negligible step, at a
    step whose residual does not evaluate or bounces up, and after
    ``max_extra`` steps.  No batch is evaluated once every row has left.
    """
    rows, xl, fl = np.arange(len(x)), x, fx
    for _ in range(max_extra):
        if not rows.size:
            break
        steps = _newton_steps(field, xl, fl)
        moving = np.isfinite(steps).all(axis=1)
        moving[moving] = ~(_norms(steps[moving]) <= 1e-14 * (1.0 + _norms(xl[moving])))
        rows, xl, fl, steps = _retire(x, fx, ~moving, rows, xl, fl, steps)  # stationary, or stuck
        if not rows.size:
            break
        xn = xl + steps
        fn, valid = field.batch(xn)
        # roundoff bounce: keep the better iterate and stop
        calm = ~(_residual_norms(fn, valid) > np.maximum(4.0 * _norms(fl), 1e-13))
        rows, xl, fl, xn, fn = _retire(x, fx, ~calm, rows, xl, fl, xn, fn)
        xl, fl = xn, fn
    else:
        x[rows], fx[rows] = xl, fl
    return x, fx


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

    Notes
    -----
    The converged starts inside the box are grouped by the dedup rule
    (:func:`_firsts`) and only the first of each group is polished; the
    box filter and the dedup then run again over those, and a zero's
    residual is that of the value its polish ends with.  Polishing every
    converged start first finds the same: a converged start lies within
    about ``newton_tol/σ`` of its zero (σ the Jacobian's smallest singular
    value), far inside the default radius.  The two differ only where the
    polish moves two starts across the radius (distinct zeros about one
    radius apart, or a near-degenerate zero, which :func:`degree_sign_sum`
    refuses anyway) or a start across a box face (a zero that close to
    the face).
    """
    _check_field(field, box)
    _check_search_tolerances(newton_tol, dedup_radius)
    density = _count("grid_density", grid_density, _default_density(box.dim))
    radius = dedup_radius if dedup_radius is not None else 1e-6 * box.diameter
    # starts that run this far off (one box width past every face) are
    # abandoned instead of being followed towards overflow
    width = np.subtract(box.upper, box.lower)
    fence = _Fence(box.lower - width, box.upper + width)

    with np.errstate(over="ignore", invalid="ignore"):
        x, fx, converged = _lockstep_newton(field, box.grid(density), newton_tol,
                                            NEWTON_MAX_ITER, fence)
        inside = converged & _inside(box, x)
        x, fx = x[inside], fx[inside]
        firsts = _firsts(x, radius)
        x, fx = _polish(field, x[firsts], fx[firsts])
    inside = _inside(box, x)
    x, fx = x[inside], fx[inside]
    with np.errstate(over="ignore", invalid="ignore"):
        apart = _apart(x, radius)
    kept = sorted(range(len(x)) if apart else _firsts(x, radius), key=lambda i: tuple(x[i]))
    if not kept:
        return []

    zeros = x[kept]  # the determinants of all zeros come from one batch
    residuals, dets = _norms(fx[kept]), np.linalg.det(_sample(field, zeros, True))
    records = []
    for x, residual, det in zip(zeros, residuals.tolist(), dets.tolist()):
        degenerate = abs(det) < DEGENERATE_TOL
        index = 0 if degenerate else (1 if det > 0 else -1)
        records.append(ZeroRecord(x, residual, det, index, degenerate))
    return records


def _firsts(points, radius):
    # the rows dedup keeps, in grid order: the first point, with every later
    # one within the radius of it dropped, and so on with the rest
    rows, kept = np.arange(len(points)), []
    while rows.size:
        kept.append(rows[0])
        far = _norms(points - points[0]) > radius
        rows, points = rows[far], points[far]
    return kept


def _apart(points, radius):
    # whether every two points lie more than the radius apart, by the distances _firsts
    # computes (the norm of a difference is that of its negative): then _firsts keeps all.
    # One batch of all n * n differences, the diagonal's zeros masked
    n, dim = points.shape
    far = _norms((points[:, None] - points).reshape(n * n, dim)) > radius
    return bool((far | np.eye(n, dtype=bool).ravel()).all())


def boundary_min(field, box, samples_per_face=None):
    """Minimum field magnitude over a dense sampling of the box boundary.

    ``samples_per_face`` is the samples per axis of each face, an
    integer; a count below 2 counts as 2.
    """
    _check_field(field, box)
    n = _count("samples_per_face", samples_per_face, _DEFAULT_FACE.get(box.dim, 6))
    return _boundary_samples(field, box, n)[2]


def _boundary_samples(field, box, n):
    # the points of box.boundary_grid(n), the field's values there and their least norm
    points = box.boundary_grid(n)
    values = _sample(field, points)
    with np.errstate(over="ignore", invalid="ignore"):
        return points, values, float(_norms(values).min())


def _sample(field, points, jacobian=False):
    # field values (or Jacobians) at sample points, each of which must evaluate
    values, valid = field.batch(points, jacobian)
    if not valid.all():
        raise DomainEvalError(f"the field is undefined at the sample {points[~valid][0]}")
    return values


def degree_sign_sum(field, box, *, grid_density=None, newton_tol=1e-10, dedup_radius=None):
    """Brouwer degree of ``field`` on ``box`` by summing local indices.

    Raises
    ------
    AdmissibilityError
        If the sampled boundary magnitude drops to ``ADMISSIBILITY_TOL``.
    DegenerateZeroError
        If any located zero has a singular Jacobian.
    DomainEvalError
        If the field is undefined at a boundary sample or at a zero.
    ValueError
        If the field is not a time-free map R^m -> R^m on the m-D box,
        a tolerance is out of range or a count is not an integer.
    """
    bmin = boundary_min(field, box)
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

def degree_winding_2d(field, box):
    """Degree of a planar field as the winding number of its boundary image,
    returned as a :class:`DegreeResult` with method "winding" and no zeros.

    The walk starts from one batch at ``box.boundary_grid(64)``, taken
    counterclockwise (the four repeated corners are segments of increment
    0); the least norm of that batch is the record's ``boundary_min``, bit
    for bit ``boundary_min(field, box)``.  Angle increments between
    consecutive samples are accumulated along the walk; a segment whose
    increment exceeds pi/2 has its midpoint inserted and evaluated, so no
    increment can silently jump by a full half-turn.  A walk that still
    has such a segment after ``_WINDING_MAX_PASSES`` passes, or would
    pass ``_WINDING_MAX_POINTS`` samples, raises :class:`NumericError`
    naming its last pass and the length of its shortest such segment.
    """
    _check_field(field, box)
    if box.dim != 2:
        raise ValueError("the winding computation applies to planar fields only")
    pts, vals, margin = _boundary_samples(field, box, _DEFAULT_FACE[2])
    left, right, bottom, top = np.arange(len(pts)).reshape(4, -1)
    walk = np.concatenate([bottom, right, top[::-1], left[::-1]])
    pts, vals = pts[walk], vals[walk]
    for passes in range(1, _WINDING_MAX_PASSES + 1):
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
            winding = float(diffs.sum()) / (2.0 * np.pi)
            degree = int(round(winding))
            if abs(winding - degree) > 0.25:
                raise NumericError(f"winding total {winding:.6f} turns is not close to an integer")
            return DegreeResult(degree, [], "winding", margin)
        at = np.flatnonzero(too_big)
        ends = pts[(at + 1) % len(pts)]
        # no pass would check the last pass's midpoints
        if passes == _WINDING_MAX_PASSES or len(pts) + len(at) > _WINDING_MAX_POINTS:
            break
        mids = (pts[at] + ends) / 2.0
        pts = np.insert(pts, at + 1, mids, axis=0)
        vals = np.insert(vals, at + 1, _sample(field, mids), axis=0)
    shortest = float(_norms(ends - pts[at]).min())
    raise NumericError(
        f"boundary angle increments stay above pi/2 after refinement (pass {passes}; the "
        f"shortest segment still turning by more than pi/2 has length {shortest:.2g}); the "
        "field nearly vanishes on the boundary or turns within a shorter span"
    )

"""Problem definitions: plain-text format and the bundled references.

A problem file is line-oriented ``key = value`` text (``#`` starts a
comment).  Multi-component expressions repeat the key, one component
per line, in order::

    name = forced-spring
    k = 2
    s = 1
    vars = x1, x2, y
    g = y^3 + y - x1^5 - x1
    gamma = x2
    gamma = -y - 0.5*x2
    sigma = 0
    sigma = cos(t)
    period = 6.283185307179586
    box = -2 2, -2 2, -2 2

Every key except ``g``, ``gamma`` and ``sigma`` appears at most once.
``g`` needs s lines over the declared variables; ``gamma`` (autonomous
drift, k lines, time-free) and ``sigma`` (forcing, k lines, may use
``t``) are optional; ``box`` lists one finite ``lo hi`` pair (lo < hi)
per variable, of finite diameter, and the period must be finite.
Remaining keys are numeric solver overrides (grid_density, newton_tol,
dedup_radius, boundary_samples, sample_density, quadrature_nodes,
steps_per_period); the integer ones must be at least 1, newton_tol
positive and finite, dedup_radius non-negative and finite.

The registry at the bottom bundles six reference problems whose
degrees are known in closed form; ``manideg verify-paper`` recomputes
them.
"""

import math
from dataclasses import dataclass, field

from .dae import DEFAULT_QUADRATURE_NODES, average_wind
from .degree import DomainBox, _check_search_tolerances
from .errors import ProblemFormatError
from .fields import AmbientMap, _integer
from .manifold import ForcedField, ImplicitConstraint, reduced_map

__all__ = [
    "Problem", "parse_problem",
    "REGISTRY", "REFERENCE_DEGREES", "ReferenceDegrees",
]

# solver overrides accepted by find_zeros, and in addition by manifold_degree
ZERO_SEARCH_OPTIONS = ("grid_density", "newton_tol", "dedup_radius")
DEGREE_OPTIONS = ZERO_SEARCH_OPTIONS + ("boundary_samples", "sample_density")
_OPTION_KEYS = DEGREE_OPTIONS + ("quadrature_nodes", "steps_per_period")
_INT_OPTIONS = {"grid_density", "boundary_samples", "sample_density",
                "quadrature_nodes", "steps_per_period"}


@dataclass(frozen=True)
class Problem:
    """A constraint, optional drift/forcing, and the region of interest."""

    name: str
    k: int
    s: int
    variables: tuple
    g: tuple
    box: tuple  # ((lo, hi), ...) per variable
    gamma: tuple | None = None
    sigma: tuple | None = None
    period: float | None = None
    options: tuple = ()  # sorted (key, value) pairs
    # what the builders built, kept on the instance: "constraint", "dae" and each node count
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1 or self.s < 1:
            raise ProblemFormatError("k and s must be positive")
        if len(self.variables) != self.k + self.s:
            raise ProblemFormatError(
                f"{len(self.variables)} variables for k + s = {self.k + self.s}"
            )
        if len(self.g) != self.s:
            raise ProblemFormatError(f"{len(self.g)} constraint lines, expected {self.s}")
        for part, label in ((self.gamma, "gamma"), (self.sigma, "sigma")):
            if part is not None and len(part) != self.k:
                raise ProblemFormatError(f"{len(part)} {label} lines, expected {self.k}")
        if len(self.box) != self.k + self.s:
            raise ProblemFormatError(
                f"{len(self.box)} box ranges for {self.k + self.s} variables"
            )
        self.domain()
        if self.period is not None and not math.isfinite(self.period):
            raise ProblemFormatError(f"the period must be finite, got {self.period!r}")
        if self.sigma is not None and (self.period is None or not self.period > 0):
            raise ProblemFormatError("a forcing term needs a positive period")

    # --- builders --------------------------------------------------------

    def domain(self):
        return _domain(self.box)

    def build_constraint(self):
        """The problem's constraint, built on the first call and kept on the instance."""
        if "constraint" not in self._built:
            self._built["constraint"] = ImplicitConstraint.from_expressions(
                self.k, self.s, self.g, self.variables, self.domain())
        return self._built["constraint"]

    def build_dae(self):
        """The problem's DAE, a :class:`ForcedField` with the problem's period,
        built on the first call and kept on the instance."""
        if "dae" not in self._built:
            if self.gamma is None and self.sigma is None:
                raise ProblemFormatError("a system needs gamma, sigma or both")
            constraint = self.build_constraint()
            gamma = sigma = None
            if self.gamma is not None:
                gamma = AmbientMap.from_expressions(self.gamma, self.variables,
                                                    allow_time=False)
            if self.sigma is not None:
                sigma = AmbientMap.from_expressions(self.sigma, self.variables)
            self._built["dae"] = ForcedField(constraint, gamma, sigma, self.period)
        return self._built["dae"]

    def build_phi1(self, quadrature_nodes=None):
        """First-component map whose zeros seed the analysis.

        The autonomous drift when present, otherwise the averaged
        forcing.  ``quadrature_nodes`` overrides the problem's node
        count for the average and must be at least 1.  Each node count's
        average is built on its first call and kept on the instance.
        """
        dae = self.build_dae()
        if dae.gamma is not None:
            return dae.gamma
        if quadrature_nodes is None:
            quadrature_nodes = self.option("quadrature_nodes", DEFAULT_QUADRATURE_NODES)
        nodes = _integer("quadrature_nodes", quadrature_nodes, 1)
        if nodes not in self._built:
            self._built[nodes] = average_wind(dae, nodes)
        return self._built[nodes]

    def build_seed_map(self, quadrature_nodes=None):
        return reduced_map(self.build_phi1(quadrature_nodes), self.build_dae().constraint)

    def solver_options(self, keys=DEGREE_OPTIONS):
        """The problem's overrides among ``keys``, as keyword arguments."""
        return {key: value for key, value in self.options if key in keys}

    def option(self, key, default=None):
        for name, value in self.options:
            if name == key:
                return value
        return default


# --- text format ----------------------------------------------------------

def parse_problem(text):
    """Parse problem-file text into a :class:`Problem`."""
    singles = {}
    multi = {"g": [], "gamma": [], "sigma": []}
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if not value:
            raise ProblemFormatError(f"line {lineno}: empty value for {key!r}")
        if key in multi:
            multi[key].append(value)
        elif key in singles or key in options:
            raise ProblemFormatError(f"line {lineno}: duplicate key {key!r}")
        elif key in ("name", "k", "s", "vars", "period", "box"):
            singles[key] = value
        elif key in _OPTION_KEYS:
            try:
                options[key] = int(value) if key in _INT_OPTIONS else float(value)
            except ValueError:
                raise ProblemFormatError(
                    f"line {lineno}: bad numeric value for {key!r}: {value!r}"
                ) from None
            if key in _INT_OPTIONS and options[key] < 1:
                raise ProblemFormatError(
                    f"line {lineno}: {key!r} must be at least 1, got {options[key]}")
            if key in ("newton_tol", "dedup_radius"):
                try:
                    _check_search_tolerances(**{key: options[key]})
                except ValueError as exc:
                    raise ProblemFormatError(f"line {lineno}: {exc}") from None
        else:
            raise ProblemFormatError(f"line {lineno}: unknown key {key!r}")

    for required in ("name", "k", "s", "vars", "box"):
        if required not in singles:
            raise ProblemFormatError(f"missing required key {required!r}")
    try:
        k = int(singles["k"])
        s = int(singles["s"])
    except ValueError:
        raise ProblemFormatError("k and s must be integers") from None
    variables = tuple(v.strip() for v in singles["vars"].split(",") if v.strip())
    box = _parse_box(singles["box"])
    period = None
    if "period" in singles:
        try:
            period = float(singles["period"])
        except ValueError:
            raise ProblemFormatError(f"bad period {singles['period']!r}") from None

    problem = Problem(
        name=singles["name"], k=k, s=s, variables=variables,
        g=tuple(multi["g"]), box=box,
        gamma=tuple(multi["gamma"]) or None,
        sigma=tuple(multi["sigma"]) or None,
        period=period,
        options=tuple(sorted(options.items())),
    )
    problem.build_constraint()  # validates the expressions eagerly
    if problem.gamma is not None or problem.sigma is not None:
        problem.build_dae()
    return problem


def _parse_box(text):
    ranges = []
    for part in text.split(","):
        pieces = part.split()
        if len(pieces) != 2:
            raise ProblemFormatError(f"box range {part.strip()!r} is not 'lo hi'")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError:
            raise ProblemFormatError(f"bad box bound in {part.strip()!r}") from None
        ranges.append((lo, hi))
    return tuple(ranges)


def _domain(ranges):
    # the DomainBox of ((lo, hi), ...), whose rules make a bad box a ProblemFormatError
    try:
        return DomainBox.from_bounds(ranges)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


# --- bundled reference problems --------------------------------------------

@dataclass(frozen=True)
class ReferenceDegrees:
    """Independently derived values a reference problem must reproduce."""

    ambient_degree: int    # degree of the seed map on the problem box
    constraint_sign: int   # sign of det d_y g there
    manifold_degree: int   # their product
    zero: tuple            # the unique seed-map zero in the box


_TWO_PI = 6.283185307179586

REGISTRY = {
    "example-4-1": Problem(
        name="example-4-1", k=1, s=1, variables=("x", "y"),
        g=("x^3 - y^3 - 3*y",),
        gamma=("x*(y^2 + 1)",),
        box=((-2.0, 2.0), (-2.0, 2.0)),
    ),
    "example-4-2": Problem(
        name="example-4-2", k=2, s=1, variables=("x1", "x2", "y"),
        g=("x1^2 - y",),
        gamma=("x1", "1 + x2^3"),
        box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
    ),
    "example-5-2": Problem(
        name="example-5-2", k=1, s=2, variables=("x", "y1", "y2"),
        g=("exp(y1)*cos(y2) - x", "exp(y1)*sin(y2) + x - 1"),
        gamma=("y2",),
        box=((-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)),
    ),
    "example-5-3": Problem(
        name="example-5-3", k=1, s=1, variables=("x", "y"),
        g=("y^3 + y - x^2",),
        sigma=("x + y + sin(t)",),
        period=_TWO_PI,
        box=((-2.0, 2.0), (-2.0, 2.0)),
    ),
    "example-5-5": Problem(
        name="example-5-5", k=2, s=1, variables=("x1", "x2", "y"),
        g=("y^3 + y - x1^5 - x1",),
        gamma=("x2", "-y - 0.5*x2"),
        sigma=("0", "cos(t)"),
        period=_TWO_PI,
        box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
    ),
    "example-5-7": Problem(
        name="example-5-7", k=2, s=2, variables=("x1", "x2", "y1", "y2"),
        g=("x1 - y1*cos(y2)", "x2 - y1*sin(y2)"),
        sigma=("y2 + cos(t)", "y1 - 2*cos(t)^2"),
        period=_TWO_PI,
        box=((-3.0, 3.0), (-3.0, 3.0), (0.2, 3.0), (-2.0, 2.0)),
    ),
}

REFERENCE_DEGREES = {
    "example-4-1": ReferenceDegrees(-1, -1, 1, (0.0, 0.0)),
    "example-4-2": ReferenceDegrees(-1, -1, 1, (0.0, -1.0, 0.0)),
    "example-5-2": ReferenceDegrees(-1, 1, -1, (1.0, 0.0, 0.0)),
    "example-5-3": ReferenceDegrees(1, 1, 1, (0.0, 0.0)),
    "example-5-5": ReferenceDegrees(1, 1, 1, (0.0, 0.0, 0.0)),
    "example-5-7": ReferenceDegrees(-1, 1, -1, (1.0, 0.0, 1.0, 0.0)),
}

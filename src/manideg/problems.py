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

``g`` needs s lines over the declared variables; ``gamma`` (autonomous
drift, k lines, time-free) and ``sigma`` (forcing, k lines, may use
``t``) are optional; ``box`` lists one ``lo hi`` pair per variable.
Remaining keys are numeric solver overrides (grid_density, newton_tol,
dedup_radius, boundary_samples, sample_density, quadrature_nodes,
steps_per_period); the integer ones must be at least 1.

The registry at the bottom bundles six reference problems whose
degrees are known in closed form; ``manideg verify-paper`` recomputes
them.
"""

from dataclasses import dataclass, field

from .dae import DEFAULT_QUADRATURE_NODES, SemiExplicitDae, average_wind
from .degree import DomainBox
from .errors import ProblemFormatError
from .fields import AmbientMap
from .manifold import ImplicitConstraint, reduced_map

__all__ = [
    "Problem", "parse_problem", "format_problem",
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
    _constraint: object = field(default=None, init=False, repr=False, compare=False)
    _dae: object = field(default=None, init=False, repr=False, compare=False)

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
        if self.sigma is not None and (self.period is None or not self.period > 0):
            raise ProblemFormatError("a forcing term needs a positive period")

    # --- builders --------------------------------------------------------

    def domain(self):
        return DomainBox.from_bounds(self.box)

    def build_constraint(self):
        """The problem's constraint, built on the first call and kept on the instance."""
        if self._constraint is None:
            object.__setattr__(self, "_constraint", ImplicitConstraint.from_expressions(
                self.k, self.s, self.g, self.variables, self.domain()))
        return self._constraint

    def build_dae(self):
        """The problem's DAE, built on the first call and kept on the instance."""
        if self._dae is None:
            constraint = self.build_constraint()
            gamma = sigma = None
            if self.gamma is not None:
                gamma = AmbientMap.from_expressions(self.gamma, self.variables,
                                                    allow_time=False)
            if self.sigma is not None:
                sigma = AmbientMap.from_expressions(self.sigma, self.variables)
            object.__setattr__(
                self, "_dae", SemiExplicitDae(constraint, gamma, sigma, self.period))
        return self._dae

    def build_phi1(self, quadrature_nodes=None):
        """First-component map whose zeros seed the analysis.

        The autonomous drift when present, otherwise the averaged
        forcing.
        """
        dae = self.build_dae()
        if dae.gamma is not None:
            return dae.gamma
        nodes = quadrature_nodes or self.option("quadrature_nodes",
                                                DEFAULT_QUADRATURE_NODES)
        return average_wind(dae, int(nodes))[0]

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
        elif key in ("name", "k", "s", "vars", "period", "box"):
            if key in singles:
                raise ProblemFormatError(f"line {lineno}: duplicate key {key!r}")
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
        if not lo < hi:
            raise ProblemFormatError(f"empty box range {part.strip()!r}")
        ranges.append((lo, hi))
    return tuple(ranges)


def format_problem(problem):
    """Render a :class:`Problem` back to file text (parse round-trips)."""
    lines = [
        f"name = {problem.name}",
        f"k = {problem.k}",
        f"s = {problem.s}",
        f"vars = {', '.join(problem.variables)}",
    ]
    lines.extend(f"g = {src}" for src in problem.g)
    if problem.gamma is not None:
        lines.extend(f"gamma = {src}" for src in problem.gamma)
    if problem.sigma is not None:
        lines.extend(f"sigma = {src}" for src in problem.sigma)
    if problem.period is not None:
        lines.append(f"period = {problem.period!r}")
    lines.append("box = " + ", ".join(f"{lo!r} {hi!r}" for lo, hi in problem.box))
    lines.extend(f"{key} = {value!r}" for key, value in problem.options)
    return "\n".join(lines) + "\n"


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

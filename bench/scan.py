"""Generated problem files for the ``degree-scan`` workload, with their
closed-form degrees and zero sets.

Every problem has separable sine first components and a constraint that
is cubic in y with d_y g = 3 y^2 + 1 > 0, on the box [-2, 2]^(k+1):

    2-D (k = s = 1):  gamma = sin(a x - b),
                      g = y^3 + y - c x + e x^2
    3-D (k = 2, s = 1): gamma = sin(a1 x1 - b1), sin(a2 x2 - b2),
                      g = y^3 + y - c1 x1 - c2 x2 + e x1 x2

The reduced map (gamma, g) vanishes where every sine does and y is the
unique real root of the cubic.  Its Jacobian is lower triangular, so the
local index of a zero is the product of the signs of the sine
derivatives (d_y g > 0), and the box degree is the product over the x
axes of the alternating sums of those signs.  The coefficients keep
|c x - e x^2| (and the 3-D analogue) at most 8 < 10 = y^3 + y at y = 2,
so the root stays strictly inside the y range and the y faces are
admissible; the phases keep every sine zero at least a tenth of a
half-period away from the x faces.

The frequency ranges reach past what the default Newton grid resolves:
16 starts per axis over a width of 4 (2-D) resolve sine zeros up to
about a = pi * 15 / 4 = 11.8, and 8 starts per axis (3-D) up to about
a = pi * 7 / 4 = 5.5.  The frequencies sit on a fixed ladder, PER_RUNG
problems per rung, so every seed covers the range the same way and does
the same amount of work.  A frequency a = pi * N / 4 puts exactly N sine
zeros in the box width for almost every phase, so the zero count of each
problem is fixed too; an odd N gives a degree factor of +-1 (its sign
set by the phase), an even N a factor of 0.  The seed picks the phases,
the coefficients and the order of the problems.

This module uses only the standard library: the benchmark's parent
process generates the files without importing the program.
"""

import math
import random

LO, HI = -2.0, 2.0
# sine zeros in the box on each rung: N, or (N1, N2) in 3-D; a = pi * N / 4
LADDER_2D = (3, 5, 8, 10, 13, 15, 17, 19)        # a = 2.4 .. 14.9
LADDER_3D = ((1, 2), (3, 3), (6, 7), (9, 9))     # a = 0.8 .. 7.1
# problems per rung: how many zeros the grid misses depends on the phase,
# so more problems per rung make passes of different seeds more alike
PER_RUNG = 2
EDGE_MARGIN = 0.1  # of a half-period, between a sine zero and an x face


def _sine_zeros(a, b):
    """(x_j, sign of the derivative) for sin(a x - b) = 0 inside (LO, HI)."""
    out = []
    j = math.ceil((a * LO - b) / math.pi)
    while True:
        x = (b + j * math.pi) / a
        if x >= HI:
            return out
        if x > LO:
            out.append((x, 1 if j % 2 == 0 else -1))
        j += 1


def _sine(rng, count):
    """(a, b) for sin(a x - b) with ``count`` zeros, none near an x face."""
    a = math.pi * count / (HI - LO)
    margin = EDGE_MARGIN * math.pi / a
    while True:
        b = rng.uniform(0.0, math.pi)
        zeros = _sine_zeros(a, b)
        if len(zeros) == count and all(
                x - LO >= margin and HI - x >= margin for x, _ in zeros):
            return a, b


def _cubic_root(rhs):
    """Unique real y with y^3 + y = rhs, by bisection on the monotone cubic."""
    lo, hi = -3.0, 3.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid ** 3 + mid < rhs:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def generate(seed):
    """Problems for one seed: dicts with name, text, dim, degree, zeros and
    the local index of each zero."""
    rng = random.Random(seed)
    problems = []
    ladder = list(LADDER_2D) * PER_RUNG
    rng.shuffle(ladder)
    for count in ladder:
        a, b = _sine(rng, count)
        c = rng.uniform(0.5, 2.0)
        e = rng.uniform(0.0, 1.0)
        zeros, indices = [], []
        for x, sign in _sine_zeros(a, b):
            zeros.append([x, _cubic_root(c * x - e * x * x)])
            indices.append(sign)
        name = f"scan-2d-{len(problems)}"
        text = "\n".join([
            f"name = {name}", "k = 1", "s = 1", "vars = x, y",
            f"g = y^3 + y - {c!r}*x + {e!r}*x^2",
            f"gamma = sin({a!r}*x - {b!r})",
            f"box = {LO!r} {HI!r}, {LO!r} {HI!r}",
        ]) + "\n"
        problems.append({"name": name, "text": text, "dim": 2, "degree": sum(indices),
                         "zeros": zeros, "indices": indices})
    ladder = list(LADDER_3D) * PER_RUNG
    rng.shuffle(ladder)
    for count1, count2 in ladder:
        (a1, b1), (a2, b2) = _sine(rng, count1), _sine(rng, count2)
        c1 = rng.uniform(0.5, 1.5)
        c2 = rng.uniform(0.5, 1.5)
        e = rng.uniform(0.0, 0.5)
        zeros1, zeros2 = _sine_zeros(a1, b1), _sine_zeros(a2, b2)
        zeros = [[x1, x2, _cubic_root(c1 * x1 + c2 * x2 - e * x1 * x2)]
                 for x1, _ in zeros1 for x2, _ in zeros2]
        indices = [s1 * s2 for _, s1 in zeros1 for _, s2 in zeros2]
        name = f"scan-3d-{len(problems) - len(LADDER_2D) * PER_RUNG}"
        text = "\n".join([
            f"name = {name}", "k = 2", "s = 1", "vars = x1, x2, y",
            f"g = y^3 + y - {c1!r}*x1 - {c2!r}*x2 + {e!r}*x1*x2",
            f"gamma = sin({a1!r}*x1 - {b1!r})",
            f"gamma = sin({a2!r}*x2 - {b2!r})",
            f"box = {LO!r} {HI!r}, {LO!r} {HI!r}, {LO!r} {HI!r}",
        ]) + "\n"
        problems.append({"name": name, "text": text, "dim": 3, "degree": sum(indices),
                         "zeros": zeros, "indices": indices})
    return problems

"""
Brouwer degree of a field on a box
==================================

Two independent computations of the same integer: a sign-sum over the
zeros found by multi-start Newton, and (in the plane) the winding
number of the field direction around the box boundary.
"""

import numpy as np

from manideg import (
    AmbientMap, DegenerateZeroError, DomainBox,
    boundary_min, degree_sign_sum, degree_winding_2d, find_zeros,
)

field = AmbientMap.from_expressions(("x^3 - x", "y"), ("x", "y"))
box = DomainBox.cube(-1.5, 1.5, 2)

# every zero carries its Jacobian determinant sign (the local index)
for z in find_zeros(field, box):
    print(f"zero at {np.round(z.location, 10)}  index {z.index}")

result = degree_sign_sum(field, box)
print("sign-sum degree:", result.degree)
print("winding degree: ", degree_winding_2d(field, box))

# the degree is additive over disjoint boxes that carry all the zeros
left = DomainBox.from_bounds([(-1.5, -0.4), (-1.5, 1.5)])
mid = DomainBox.from_bounds([(-0.4, 0.6), (-1.5, 1.5)])
right = DomainBox.from_bounds([(0.6, 1.5), (-1.5, 1.5)])
parts = [degree_sign_sum(field, b).degree for b in (left, mid, right)]
print("per-box degrees:", parts, " sum:", sum(parts))

# and stable under any perturbation smaller than the boundary minimum
margin = boundary_min(field, box)
print("boundary minimum:", round(margin, 6))
shift = 0.5 * margin / np.sqrt(2.0)
bumped = AmbientMap.from_callable(
    2, 2, lambda p: field(p) - shift, jac=field.jacobian)
print("perturbed degree:", degree_sign_sum(bumped, box).degree)

# the sign-sum refuses degenerate zeros; the winding oracle does not care
squaring = AmbientMap.from_expressions(("x^2 - y^2", "2*x*y"), ("x", "y"))
try:
    degree_sign_sum(squaring, box)
except DegenerateZeroError as exc:
    print("\nsign-sum on the squaring field:", exc)
print("winding on the squaring field:", degree_winding_2d(squaring, box))

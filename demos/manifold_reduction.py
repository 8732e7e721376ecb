"""
Degree of a tangent field on an implicit manifold
=================================================

A surface given by g(x, y) = 0 with invertible d_y g admits a chart in
the x variables.  The degree of a tangent field on the surface reduces
to a flat box degree: stack the field's first block on top of g, take
the box degree, multiply by the constant sign of det d_y g.
"""

import numpy as np

from manideg import (
    AmbientMap, DomainBox, ImplicitConstraint,
    complete_velocity, implicit_solve_y, manifold_degree,
    partial2_sign, schur_determinant_split,
)

# the cubic-line curve y^3 + 3y = x^3 inside [-2,2]^2
con = ImplicitConstraint.from_expressions(
    1, 1, ("x^3 - y^3 - 3*y",), ("x", "y"), DomainBox.cube(-2.0, 2.0, 2))
print("sign of det d_y g:", partial2_sign(con))

# tangent completion: prescribe the x-velocity, solve for the y-velocity
point = np.array([1.0, implicit_solve_y(con, np.array([1.0]))[0]])
v = complete_velocity(con, point, np.array([1.0]))
print("completed velocity:", v)
print("tangency residual:", abs(con.gmap.jacobian(point) @ v))

# reduce a tangent field and take its degree
phi1 = AmbientMap.from_expressions(("x*(y^2 + 1)",), ("x", "y"))
res = manifold_degree(phi1, con)
print("box degree of the stacked map:", res.ambient.degree)
print("manifold degree:", res.degree)

# the stacked Jacobian determinant factors through the constraint block
full, d2g, schur = schur_determinant_split(phi1, con, point)
print("det factorisation:", round(full, 12), "=",
      round(d2g, 12), "*", round(schur, 12))

# when det d_y g changes sign across the surface, split the region
# and add the per-box degrees:
# y^2 = 1 + x^2 has two branches with opposite constraint signs
two = ImplicitConstraint.from_expressions(
    1, 1, ("y^2 - 1 - x^2",), ("x", "y"),
    DomainBox.from_bounds([(-0.5, 0.5), (-1.8, 1.8)]))
chi = AmbientMap.from_expressions(("x",), ("x", "y"))
upper = DomainBox.from_bounds([(-0.5, 0.5), (0.5, 1.8)])
lower = DomainBox.from_bounds([(-0.5, 0.5), (-1.8, -0.5)])
total = manifold_degree(chi, two, upper).degree + manifold_degree(chi, two, lower).degree
print("two-branch total degree:", total)

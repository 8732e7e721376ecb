"""
Forced systems on a constraint surface and their averages
=========================================================

A semi-explicit system pairs x' = gamma + lam*sigma with g(x, y) = 0.
It is the tangent field on the surface whose first components are
gamma + lam*sigma, with the forcing's period:
ForcedField(constraint, gamma, sigma, period), which is what a
problem's build_dae returns.  Periodic forcing is summarised by its
time average over one period; the averaged wind is what the seed map
and the degree argument use when the system has no autonomous part.
"""

import numpy as np

from manideg import (
    REGISTRY, average_wind, find_zeros, implicit_solve_y, reduced_map,
    tangency_residual,
)

# a forced cubic: x' = x + y + sin t on the curve y^3 + y = x^2
dae = REGISTRY["example-5-3"].build_dae()
con = dae.constraint
print("differential vars:", con.k, " algebraic vars:", con.s,
      " period:", round(dae.period, 6))

# the system's field is tangent to the curve at every time
x = np.array([1.0])
point = np.concatenate([x, implicit_solve_y(con, x)])
for t in (0.0, 1.3, 5.1):
    r = tangency_residual(dae, point, t)
    print(f"tangency residual at t={t}: {r:.2e}")

# averaging the forcing over one period kills the sin t term,
# leaving the autonomous wind x + y
sigma_bar = average_wind(dae)
for p in ([0.0, 0.0], [1.0, -0.5], [-0.7, 0.2]):
    print("averaged wind at", p, "->", sigma_bar(np.array(p)))

# a seed map stacks a wind over the constraint; its zeros at lam = 0
# are where branches of periodic responses start
phi = reduced_map(sigma_bar, con)
zeros = find_zeros(phi, dae.constraint.domain)
for z in zeros:
    print("seed zero:", np.round(z.location, 10), " index", z.index)

# autonomous wind version for the damped oscillator
spring = REGISTRY["example-5-5"].build_dae()
F = reduced_map(spring.gamma, spring.constraint)
print("oscillator seed map at origin:", F(np.zeros(3)))

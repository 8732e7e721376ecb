"""
Integrating on the constraint surface
=====================================

Fixed-step 5th-order Dormand-Prince in the ambient space, with the
algebraic variables re-solved after every step so the trajectory never
drifts off g = 0.  The linear problem y = x with x' = y flows to e^t,
which makes the error and the order of the method directly visible.
"""

import math
import os
import tempfile

import numpy as np

from manideg import (
    REGISTRY, AmbientMap, DomainBox, ForcedField, ImplicitConstraint,
    flow_map, implicit_solve_y, write_trajectory_csv,
)

con = ImplicitConstraint.from_expressions(
    1, 1, ("y - x",), ("x", "y"), DomainBox.cube(-4.0, 4.0, 2))
gamma = AmbientMap.from_expressions(("y",), ("x", "y"))
field = ForcedField(con, gamma=gamma)

start = np.array([1.0, 1.0])
res = flow_map(field, start, 0.0, 1.0)
print("endpoint:", res.final_state)
print("error vs e:", abs(res.final_state[0] - math.e))
print("max |g| along the way:", res.max_drift)
print("steps taken:", res.steps)

# halving the step size divides the endpoint error by about 2^5
errs = []
for n in (16, 32, 64):
    r = flow_map(field, start, 0.0, 1.0, n_steps=n)
    errs.append(abs(r.final_state[0] - math.e))
print("errors at 16/32/64 steps:", ["%.3e" % e for e in errs])
print("ratios:", [round(float(a / b), 2) for a, b in zip(errs, errs[1:])])

# the damped oscillator's period map contracts toward its equilibrium
spring = REGISTRY["example-5-5"].build_dae()
spring_field = ForcedField(spring.constraint, gamma=spring.gamma)
x = np.array([0.4, 0.0])
xi = np.concatenate([x, implicit_solve_y(spring.constraint, x)])
for _ in range(3):
    xi = flow_map(spring_field, xi, 0.0, spring.period).final_state
    print("after one period:", np.round(xi, 8))

# recorded trajectories export as CSV rows (t, x..., y..., |g|)
rec = flow_map(field, start, 0.0, 1.0, n_steps=10)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "flow.csv")
    write_trajectory_csv(rec, ("x", "y"), path)
    with open(path) as fh:
        for line in list(fh)[:4]:
            print(line.rstrip())

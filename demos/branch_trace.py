"""
A branch of periodic responses to growing forcing
=================================================

At forcing amplitude lam = 0 the damped oscillator sits at its
equilibrium, a trivial periodic pair.  The seed map has a single zero
there with nonzero degree, so a branch of genuinely oscillating pairs
emanates from it.  The tracer follows that branch in (x0, lam) by
shooting with pseudo-arclength steps.
"""

import numpy as np

from manideg import REGISTRY, find_zeros, trace_branch

problem = REGISTRY["example-5-5"]
dae = problem.build_dae()

# the seed map stacks the autonomous drift over the constraint
seeds = find_zeros(problem.build_seed_map(), dae.constraint.domain)
print("seed zeros:", [tuple(float(v) for v in np.round(z.location, 10))
                      for z in seeds])

branch = trace_branch(dae, seeds[0], ds=0.05, lambda_max=0.6)
print("points traced:", len(branch.points))
print("stopped because:", branch.termination)

print("\n  lam      |x0|       amplitude   residual")
for pair in branch.points[::6] + [branch.points[-1]]:
    print(f"  {pair.lam:6.4f}   {np.linalg.norm(pair.x0):8.5f}"
          f"   {pair.amplitude:9.6f}   {pair.residual:.1e}")

# the first pair is the trivial one; every later pair with visible
# forcing has genuinely nonzero amplitude
assert branch.points[0].amplitude <= 1e-8
grown = [p.amplitude for p in branch.points if p.lam >= 0.1]
print("\nsmallest amplitude past lam = 0.1:", min(grown))

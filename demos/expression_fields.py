"""
Expressions as differentiable vector fields
===========================================

The package evaluates plain-text formulas with exact forward-mode
derivatives.  This walk-through parses a few, prints them back, and
compares the automatic gradient with a finite difference.
"""

import numpy as np

from manideg import FieldHandle, parse, to_source
from manideg.expr import compile_gradient, compile_value

# parse once, reuse the syntax tree; compile once per variable order
names = ("x", "y")
ast = parse("x*(y^2 + 1) - sin(x*y)", names)
print("parsed:", to_source(ast))

value = compile_value(ast, names)
point = (0.7, -1.2)
print("value at (0.7, -1.2):", value(*point))

# gradient comes from dual-number evaluation, not symbolic algebra:
# the compiled function returns the value, then one partial per variable
g = np.array(compile_gradient(ast, names)(*point)[1:])
print("gradient:", g)

# check against a central difference
h = 1e-6
fd = []
for i in range(2):
    vals = list(point)
    vals[i] += h
    up = value(*vals)
    vals[i] -= 2 * h
    dn = value(*vals)
    fd.append((up - dn) / (2 * h))
print("finite difference:", fd)
print("max deviation:", max(abs(a - b) for a, b in zip(g, fd)))

# several expressions bundle into a vector field with a Jacobian
field = FieldHandle.from_expressions(("x^3 - y", "x + y^3"), ("x", "y"))
p = np.array([0.5, -0.25])
print("\nfield value:", field(p))
print("field Jacobian:\n", field.jacobian(p))

# domain violations raise instead of returning NaN
bad = parse("log(x)", ("x",))
try:
    compile_value(bad, ("x",))(-1.0)
except Exception as exc:
    print("\nlog of a negative number:", exc)

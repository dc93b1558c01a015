"""Cross-check the componentwise field formula against the dense solve.

The componentwise evaluation of the generated field is a handful of
index contractions; the oracle instead assembles d(alpha)^omega^{n-2} in
a sparse basis-indexed representation and solves the linear system
nu_n(X) = n(n-1) d(alpha)^omega^{n-2} for X.  The two paths share no
code beyond the jet, so their agreement pins down every sign and factor.
Run with different n to see the residuals stay at rounding level while
the number of basis monomials grows.
"""

import numpy as np

from volflow import (
    d_at_point,
    generate,
    omega_power,
    random_two_form,
    solve_nu_n,
    wedge,
)

rng = np.random.default_rng(5)

for n in (2, 3, 4):
    alpha = random_two_form(n, rng, degree=3, max_terms=3, scale=0.2)
    X = generate(alpha)
    worst = 0.0
    for _ in range(25):
        x = rng.normal(size=2 * n) * 0.5
        dalpha = d_at_point(alpha.jet_at(x))
        target = wedge(dalpha, omega_power(n, n - 2)) * float(n * (n - 1))
        solved = solve_nu_n(target, n)
        scale = 1.0 + float(np.max(np.abs(solved)))
        worst = max(worst, float(np.max(np.abs(X(x) - solved))) / scale)
    print(f"n = {n}: relative residual over 25 points = {worst:.3e}")

print("\nboth routes also agree on the textbook witness:")
from volflow import TwoFormField, poly_variables

q, _ = poly_variables(2)
witness = TwoFormField(2, A={(0, 1): q[0]})
x = np.array([0.3, -0.8, 0.2, 0.9])
print(f"  alpha = q^1 dp_1^dq^2  ->  X = {generate(witness)(x)}  (d/dp_2 at any point)")

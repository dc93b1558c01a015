"""Build a 2-form, generate its vector field, and watch the flow preserve volume.

The whole pipeline in one place: pick polynomial components for
alpha = (1/2) Q_ij dq^i^dq^j + A^i_j dp_i^dq^j + (1/2) P^ij dp_i^dp_j,
generate the field X with i_X(omega^n) = -n(n-1) d(alpha)^omega^{n-2},
then confirm the two structural facts numerically: div X = 0 pointwise,
and the flow-map Jacobian determinant stays at 1 along a trajectory.
"""

import numpy as np

from volflow import (
    TwoFormField,
    divergence_at,
    generate,
    monitor,
    poly_variables,
)

n = 2
q, p = poly_variables(n)

alpha = TwoFormField(
    n,
    Q={(0, 1): q[0] * p[1] * 0.3},
    A={(0, 0): p[0] * q[1] * 0.2, (0, 1): q[0] * q[0] * 0.1, (1, 0): p[1] * 0.4},
    P={(0, 1): (q[1] + p[0]) * 0.25},
)
X = generate(alpha)

print("generated field at a few points:")
rng = np.random.default_rng(0)
pts = rng.normal(size=(3, 2 * n))
for x in pts:
    print(f"  x = {np.array2string(x, precision=3)}  ->  X = "
          f"{np.array2string(X(x), precision=5)}")

div = divergence_at(X, rng.normal(size=(200, 2 * n)))
print(f"\nmax |div X| over 200 random points: {np.max(np.abs(div)):.3e}")

x0 = 0.1 * np.ones(2 * n)
diag = monitor(X, x0, dt=1e-3, steps=5000, sample_every=500)
times, dets = diag.times, diag.volume_dets
print(f"\nflow from x0 = {x0} to t = {times[-1]:.1f}:")
for t, d, x in zip(times, dets, diag.states):
    print(f"  t = {t:4.1f}   det(dPhi_t) - 1 = {d - 1:+.3e}   |x| = {np.linalg.norm(x):.4f}")
print(f"\nworst volume-determinant error: {np.max(np.abs(dets - 1.0)):.3e}")

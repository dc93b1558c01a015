"""The antisymmetric block-tensor route and where it parts ways with generate.

Any divergence-free field can be written X^i = d T[i,j]/dx^j with T
antisymmetric.  Packing the 2-form components as [[P, -A], [A^T, Q]]
gives such a T, and the row-wise divergence reproduces the generated
field -- but only when tr A is constant.  The demo shows agreement on a
traceless example and a clean factor-of-minus-one disagreement on
alpha = H omega/(n-1) with H = p_1 (trace p_1, not constant).
"""

import numpy as np

from volflow import (
    TwoFormField,
    feng_shang_field,
    feng_shang_tensor,
    generate,
    hamiltonian_two_form,
    poly_variables,
)

n = 2
q, p = poly_variables(n)
rng = np.random.default_rng(3)

# off-diagonal A only: tr A = 0 identically
alpha = TwoFormField(
    n,
    Q={(0, 1): q[1] * p[0]},
    A={(0, 1): q[0] * q[0], (1, 0): p[1] * 0.7},
    P={(0, 1): q[0] * p[1]},
)
x = rng.normal(size=2 * n)
T = feng_shang_tensor(alpha, x)[..., 0]
print("antisymmetric tensor T at a random point:")
print(np.round(T, 4))
print(f"antisymmetry residual: {np.max(np.abs(T + T.T)):.3e}")

X = generate(alpha)
Y = feng_shang_field(alpha)
pts = rng.normal(size=(20, 2 * n))
worst = float(np.max(np.abs(X(pts) - Y(pts))))
print(f"\ntraceless case, max |generate - tensor route| over 20 points: {worst:.3e}")

# now a nonconstant trace: the two routes measurably disagree
ham = hamiltonian_two_form(p[0], n)
Xh = generate(ham)
Yh = feng_shang_field(ham)
w = np.array([0.2, 0.4, 0.6, 0.8])
print(f"\nalpha = H omega/(n-1), H = p_1 at x = {w}:")
print(f"  generate route: {np.round(Xh(w), 6)}   (the Hamiltonian field d/dq^1)")
print(f"  tensor route:   {np.round(Yh(w), 6)}")
print(f"  gap: {np.max(np.abs(Xh(w) - Yh(w))):.3f}  (trace terms enter with opposite sign)")

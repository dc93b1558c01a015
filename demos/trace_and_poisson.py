"""Trace of a 2-form, observable derivatives, and the Poisson bracket link.

Three related identities, all checked at random points:

  1. tr(alpha) = A^i_i equals the coefficient ratio from
     alpha ^ omega^{n-1} = (tr alpha / n) omega^n, so it does not depend
     on how the components are laid out.
  2. Along the generated flow, fdot matches the wedge formula
     fdot omega^n = n(n-1) d(alpha) ^ df ^ omega^{n-2}.
  3. For alpha = H omega/(n-1) this collapses to fdot = {f, H}, the
     familiar bracket, which also equals tr(dH ^ df).
"""

import numpy as np

from volflow import (
    check_dotf,
    generate,
    gradient_one_form,
    hamiltonian_two_form,
    poisson_bracket,
    poisson_trace_residual,
    poly_variables,
    trace_field,
    trace_of,
    two_form_from_components,
    wedge,
    TwoFormField,
)

n = 2
q, p = poly_variables(n)
rng = np.random.default_rng(2)

alpha = TwoFormField(
    n,
    Q={(0, 1): q[0] * p[0]},
    A={(0, 0): q[1] * q[1], (0, 1): p[1], (1, 1): q[0] * p[1]},
    P={(0, 1): q[1] * 0.5},
)

print("1. trace vs oracle ratio")
worst = 0.0
for _ in range(20):
    x = rng.normal(size=2 * n)
    jet = alpha.jet_at(x)
    form = two_form_from_components(jet.Q, jet.A, jet.P)
    worst = max(worst, abs(trace_field(alpha).value(x) - trace_of(form, n)))
print(f"   max |A^i_i - wedge ratio| over 20 points: {worst:.3e}")

print("\n2. observable derivative along the generated flow")
f = q[0] * q[0] * p[1] + q[1]
worst = max(check_dotf(alpha, f, rng.normal(size=2 * n)) for _ in range(20))
print(f"   max residual of the fdot identity over 20 points: {worst:.3e}")

print("\n3. Hamiltonian case: fdot = {f, H} = tr(dH ^ df)")
H = p[0] * p[0] * 0.5 + q[0] * q[1]
ham_alpha = hamiltonian_two_form(H, n)
X = generate(ham_alpha)
x = np.array([0.7, -0.2, 0.4, 0.9])
fdot = float(np.sum(f.gradient(x) * X(x)))
bracket = poisson_bracket(f, H, x)
wedge_trace = trace_of(wedge(gradient_one_form(H.gradient(x)),
                             gradient_one_form(f.gradient(x))), n)
print(f"   fdot along X        = {fdot:+.10f}")
print(f"   {{f, H}}              = {bracket:+.10f}")
print(f"   tr(dH ^ df)         = {wedge_trace:+.10f}")
print(f"   bracket/trace residual at 20 points: "
      f"{max(poisson_trace_residual(f, H, rng.normal(size=2 * n)) for _ in range(20)):.3e}")

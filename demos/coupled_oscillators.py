"""The coupled-oscillator system: volume preserved, symplectic structure broken.

q-ddot = -k q with a non-symmetric k mixes a Hamiltonian part (from the
symmetric piece of k) with a genuinely non-Hamiltonian coupling (the
antisymmetric piece a, here a_12 = 1/4).  The flow still preserves phase
volume, but L_X omega picks up a constant 2 a_12 dq^1^dq^2 component and
the energy is no longer conserved.  The eigenvalues of the first-order
matrix include +/- sqrt(3/2), so trajectories grow exponentially while
the determinant of the flow map stays pinned at 1.
"""

import numpy as np

from volflow import (
    COUPLED_K,
    LinearSystemSpec,
    coupled_oscillators,
    flow_jacobian_dets,
    integrate,
    lie_derivative_omega,
)

sys = coupled_oscillators()
spec = LinearSystemSpec(COUPLED_K)
print(f"k =\n{COUPLED_K}")
print(f"symmetric part s (enters H):\n{spec.s}")
print(f"antisymmetric part a (breaks the bracket):\n{spec.a}")

M = spec.first_order_matrix()
print(f"\nfirst-order eigenvalues: {np.round(np.linalg.eigvals(M), 6)}")

x0 = sys.default_x0
T, dt = 10.0, 1e-3
steps = int(T / dt)
traj = integrate(sys.field, x0, dt=dt, steps=steps, sample_every=steps // 5)
H = sys.hamiltonian
print(f"\ntrajectory from {x0} (energy is NOT constant):")
for t, x in zip(traj.times, traj.states):
    print(f"  t = {t:5.1f}   |x| = {np.linalg.norm(x):9.3f}   H = {H.value(x):10.4f}")

det = flow_jacobian_dets(sys.field, x0, dt=dt, steps=steps)[1][-1]
print(f"\ndet(dPhi_T) - 1 at T = {T}: {det - 1:+.3e}   (volume survives the growth)")

L = lie_derivative_omega(sys.field, x0)
print(f"\nL_X omega components: {dict(L.coeffs)}")
print("expected: 2 * a_12 = 0.5 on the dq^1^dq^2 slot, everything else 0")

exact = spec.flow(T, x0)
print(f"\nclosed-form check |x(T) - expm(TM) x0| = "
      f"{np.max(np.abs(traj.final_state - exact)):.3e}")

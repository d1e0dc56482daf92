"""The brute-force propagator: closed-form checks and convergence order.

The fourth-order Magnus stepper exponentiates an anti-Hermitian matrix
built from H at two Gauss nodes per step, so it is unitary by construction
and its global error is O(dt^4).
"""

import numpy as np

from ffo.algebra import I2, ladder_operators, max_abs
from ffo.grid import GridSamples
from ffo.propagator import apply_unitary, evolve_unitary
from ffo.signals import ComplexSignal, Constant, HamiltonianSpec, Sinusoid, constant_spec

b, b_dag, _ = ladder_operators()

# constant frequency: U(t) = diag(1, exp(-i w t))
w0, t_final = 1.3, 5.0
traj = evolve_unitary(GridSamples(constant_spec(omega=w0), t_final, 1e-3))
want = np.diag([1.0, np.exp(-1j * w0 * t_final)])
print("constant omega, |U - closed form| :", max_abs(traj.U[-1] - want))

# constant real forcing: Rabi rotation between the two states, amplitudes of U psi0
f0 = 0.8
traj = evolve_unitary(GridSamples(constant_spec(f=f0), t_final, 1e-3))
amp0, amp1 = apply_unitary(traj.U, [1, 0])
print("forcing, max |amp0 - cos(f t)|    :", np.max(np.abs(amp0 - np.cos(f0 * traj.times))))
print("forcing, max |amp1 + i sin(f t)|  :", np.max(np.abs(amp1 + 1j * np.sin(f0 * traj.times))))

# unitarity over a long run with a fully time-dependent spec
spec = HamiltonianSpec(omega=Sinusoid(0.9, 1.1, 0.2, offset=0.7),
                       f=ComplexSignal(Sinusoid(0.5, 0.8, 0.5, offset=0.1), Constant(0.2)),
                       g=Constant(0.1))
traj = evolve_unitary(GridSamples(spec, 10.0, 1e-3))
unit = np.max(np.abs(np.conj(np.transpose(traj.U, (0, 2, 1))) @ traj.U - I2))
print("\nunitarity drift over t <= 10      :", unit)

# Richardson check: halving dt should shrink the result change by ~16
us = [evolve_unitary(GridSamples(spec, 2.0, dt)).U[-1]
      for dt in (0.02, 0.01, 0.005)]
e1, e2 = max_abs(us[0] - us[1]), max_abs(us[1] - us[2])
print("observed convergence ratio        :", e1 / e2, "(expect ~16)")
# with order 4 known, the dt=0.005 result is off by about e2/15
ref = evolve_unitary(GridSamples(spec, 2.0, 1e-4)).U[-1]
print("Richardson error estimate, dt=0.005:", e2 / 15)
print("error against a dt=1e-4 reference :", max_abs(us[2] - ref))

"""Dynamical invariant ladder operators for the forced oscillator.

Integrating the coefficient system from the canonical start (1, 0, 0)
produces B(t) with B(0) = b.  Two facts make it trustworthy: the bilinear
constants of motion stay pinned at (0, 1), and the assembled matrix agrees
entrywise with the independent Heisenberg transport U b U' from the
propagator.  The free-oscillator closed form is calibrated against the same
system.
"""

import numpy as np

from ffo.algebra import ladder_operators
from ffo.grid import GridSamples
from ffo.invariants import (build_B_array, build_B_so, free_oscillator_nu, integrate_nu,
                            invariance_residual_max, ladder_conditions_check)
from ffo.propagator import PropagatorConfig, evolve_unitary
from ffo.signals import ComplexSignal, HamiltonianSpec, Sinusoid

spec = HamiltonianSpec(
    omega=Sinusoid(0.3, 1.0, 0.0, offset=1.0),
    f=ComplexSignal(Sinusoid(0.25, 0.7, 1.1, offset=0.3),
                    Sinusoid(0.2, 1.1, 0.2, offset=-0.1)),
    g=Sinusoid(0.3, 0.5, 0.0, offset=0.4),
)
cfg = PropagatorConfig(dt=1e-3)
t_final = 10.0

# omega, f and g are sampled once on the grid and shared by every check below
samples = GridSamples(spec, t_final, cfg.dt)
traj = integrate_nu(samples, (1, 0, 0))
print("lambda1 drift:", np.max(np.abs(traj.lambda1 - traj.lambda1[0])))
print("lambda2 drift:", np.max(np.abs(traj.lambda2 - traj.lambda2[0])))

# ladder conditions at a few times, from the matrix itself
ks = [0, 5000, 10000]
for k, rb2, ranti in zip(ks, *ladder_conditions_check(traj.nu[ks])):
    print(f"t={traj.times[k]:5.2f}  ||B^2||={rb2:.2e}  |{{B,B'}}-1|={ranti:.2e}")

# oracle equivalence: B(t) = U b U' with the independent Magnus propagator
u = evolve_unitary(spec, t_final, cfg)
b, _, _ = ladder_operators()
oracle = u.U @ b @ np.conj(np.transpose(u.U, (0, 2, 1)))
print("\nmax |B(t) - U b U'| :", np.max(np.abs(build_B_array(traj.nu) - oracle)))

# the defining invariance equation, via central differences on the grid
print("invariance residual :", invariance_residual_max(samples, traj))

# free oscillator: closed form against the integrator, and the explicit
# ladder operator it assembles
free = HamiltonianSpec(omega=spec.omega, f=ComplexSignal(Sinusoid(0.0, 1.0)),
                       g=spec.g)
nu0 = (0.6, 0.4j, 2 * np.sqrt(-0.6 * 0.4j))
ftraj = integrate_nu(GridSamples(free, 5.0, cfg.dt), nu0)
closed = free_oscillator_nu(nu0, free.omega, ftraj.times)
print("\nclosed form vs integrated (f = 0):", np.max(np.abs(closed - ftraj.nu)))
mat = build_B_so(0.6, 0.4j, free.omega, 2.5)
print("B_so(2.5) =\n", mat)

"""Evolved vacuum, coherence theorem, and Lewis-Riesenfeld phases.

Three capabilities in one walk-through: the B(t)-vacuum that solves the
Schrodinger equation while staying annihilated, the temporal-stability
measurement showing that forcing (and only forcing) breaks coherence, and
the phase split into geometric and dynamical parts.
"""

import numpy as np

from ffo.grid import GridSamples
from ffo.invariants import NuTrajectory, build_B_array, integrate_nu, motion_constants
from ffo.propagator import evolve_unitary
from ffo.reduction import integrate_epsilon, nu_from_epsilon_arrays
from ffo.signals import ComplexSignal, Constant, HamiltonianSpec, Sinusoid, constant_spec
from ffo.states import (coherence_check, cs_eigen_residual,
                        lr_phases, schrodinger_residual_max, vacuum_trajectory)

dt = 1e-3
spec = HamiltonianSpec(
    omega=Sinusoid(0.8, 0.9, 0.3, offset=0.6),
    f=ComplexSignal(Sinusoid(0.15, 0.7, 1.1, offset=0.8),
                    Sinusoid(0.2, 1.1, 0.2, offset=-0.1)),
    g=Sinusoid(0.3, 0.5, 0.0, offset=0.4),
)

# build a ladder-calibrated trajectory from the epsilon route, rescaled so
# lambda2 = 1 exactly (nu scales as eps^2, hence the quarter power)
samples = GridSamples(spec, 5.0, dt)
et = integrate_epsilon(samples, (0.833 + 0.895j, -0.375 + 0.454j))
nus = nu_from_epsilon_arrays(samples, et.eps, et.eps_dot)
scale = float(motion_constants(nus[0]).lambda2) ** (-0.25)
nus = nu_from_epsilon_arrays(samples, et.eps * scale, et.eps_dot * scale)
traj = NuTrajectory(et.samples, nus)

# the evolved vacuum exp(i phi0) e0 of the traceless H0 = H - (g + omega/2) 1
# from the Lewis-Riesenfeld phases: annihilated by B(t) and solving H0's
# Schrodinger equation; the physical vacuum is exp(-i theta) times it
ph = lr_phases(traj)
psi, _ = vacuum_trajectory(ph)
bpsi = np.einsum("kij,kj->ki", build_B_array(traj.nu), psi)
print("max ||B(t)|0;t>||      :", np.max(np.linalg.norm(bpsi, axis=1)))
print("schrodinger residual   :", schrodinger_residual_max(samples, psi))

# the coherent state built on it is an exact eigenstate in the algebra
k = 2500
print("grassmann eigen residual:", cs_eigen_residual(traj.nu[k], psi[k], 0.7 - 0.2j))

# coherence theorem: no forcing keeps the canonical CS an eigenstate of b
free = HamiltonianSpec(omega=Sinusoid(0.7, 0.9, 0.2, offset=1.1),
                       f=ComplexSignal(Constant(0.0)), g=Constant(0.3))
rep = coherence_check(evolve_unitary(GridSamples(free, 5.0, dt)))
print("\nfree spec:  max eigen residual =", np.max(rep.eigen_residual))
print("            zeta(t)/zeta tracks exp(-i int omega):",
      np.max(np.abs(rep.zeta_ratio - np.conj(rep.beta))))
forced = constant_spec(f=0.5)
rep2 = coherence_check(evolve_unitary(GridSamples(forced, 5.0, dt)))
print("forced spec: max eigen residual =", np.max(rep2.eigen_residual),
      "(coherence visibly broken)")

# Lewis-Riesenfeld phases: stationary case has closed-form phases and no
# geometric part; the forced trajectory splits nontrivially
w0, g0 = 1.3, 0.7
s_spec = constant_spec(omega=w0, g=g0)
s_traj = integrate_nu(GridSamples(s_spec, 5.0, dt), (1, 0, 0))
s_ph = lr_phases(s_traj)
# the physical phases are H0's phases -+ phi0 minus theta = int (g + omega/2)
phi0, phi1 = s_ph.phi0[-1] - s_ph.theta[-1], -s_ph.phi0[-1] - s_ph.theta[-1]
print(f"\nstationary: phi0(5) = {phi0:.6f} (expect {-g0 * 5.0})")
print(f"stationary: phi1(5) = {phi1:.6f} (expect {-(g0 + w0) * 5.0})")
print("stationary: phi_G(5) =", s_ph.phi_geometric[-1])

print(f"forced:     phi_G(5) = {ph.phi_geometric[-1]:.6f}, "
      f"phi_D(5) = {ph.phi_dynamical[-1]:.6f}")
print("forced:     two-route consistency =", ph.consistency_residual)

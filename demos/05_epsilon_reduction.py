"""The nu_plus reduction chain and the epsilon parametrization.

For nonvanishing forcing, one complex second-order equation generates the
whole ladder-calibrated invariant family: nu_plus = eps^2/2 and two more
closed forms rebuild (nu_minus, nu_3) with the ladder constraint satisfied
identically.  This script verifies the closure against the direct system,
the two first integrals, and the gauge transform that removes the
first-derivative term.
"""

import numpy as np

from ffo.grid import GridSamples, Samples
from ffo.invariants import integrate_nu, motion_constants
from ffo.reduction import (_gamma_omega, epsilon_prime_transform, first_integral_lambda,
                           integrate_epsilon, lambda2_from_epsilon, nu_from_epsilon_arrays,
                           nu_plus_jets, third_order_residual)
from ffo.signals import ComplexSignal, HamiltonianSpec, Sinusoid

spec = HamiltonianSpec(
    omega=Sinusoid(0.8, 0.9, 0.3, offset=0.6),
    f=ComplexSignal(Sinusoid(0.15, 0.7, 1.1, offset=0.8),
                    Sinusoid(0.2, 1.1, 0.2, offset=-0.1)),
    g=Sinusoid(0.3, 0.5, 0.0, offset=0.4),
)
dt = 1e-3
t_final = 10.0

# Omega = |f|^2 + omega^2/4 + i omega'/2 - i omega f'/(2f), from the sampled coefficients
omega_0 = _gamma_omega(Samples(spec, 0.0))[1]
print("Omega(0) =", omega_0)

samples = GridSamples(spec, t_final, dt)
et = integrate_epsilon(samples, (1.0 + 0.2j, 0.1 - 0.3j))
nus = nu_from_epsilon_arrays(samples, et.eps, et.eps_dot)
lam1, lam2_nu = motion_constants(nus)
print("max |lambda1| along the eps route:", np.max(np.abs(lam1)), "(identically zero)")

# closure: direct integration from the matched start reproduces the map
direct = integrate_nu(samples, tuple(nus[0]))
print("closure vs direct system:", np.max(np.abs(direct.nu - nus)))

# lambda2 two ways: the closed form in eps and the nu bilinear
lam2_eps = lambda2_from_epsilon(samples, (et.eps, et.eps_dot))
print("lambda2 two routes, max difference:", np.max(np.abs(lam2_eps - lam2_nu)))

# the nu_plus jets, the first integral and the third-order equation on the whole grid
jets = nu_plus_jets(samples, direct.nu)
print("max |nu_plus|, |nu_plus'|, |nu_plus''|, |nu_plus'''|:",
      *(f"{np.max(np.abs(j)):.4f}" for j in jets))
lam = first_integral_lambda(samples, *jets[:3])
print("first integral max |lam| (should be ~0 on this branch):", np.max(np.abs(lam)))
print("third-order equation residual, max over the grid:",
      np.max(third_order_residual(samples, jets)))

# removing the first-derivative term: eps = eps' * gauge
om_p, gauge = epsilon_prime_transform(samples)
print("\ngauge factor at t =", t_final, ":", gauge[-1])
print("Omega'(0) - Omega(0) =", om_p[0] - omega_0)

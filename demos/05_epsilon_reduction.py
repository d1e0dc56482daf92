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
from ffo.propagator import PropagatorConfig
from ffo.reduction import (EpsilonState, big_omega, epsilon_prime_transform,
                           first_integral_lambda, integrate_epsilon,
                           lambda2_from_epsilon, nu_from_epsilon,
                           nu_from_epsilon_arrays, nu_plus_jets,
                           third_order_residual)
from ffo.signals import ComplexSignal, HamiltonianSpec, Sinusoid

spec = HamiltonianSpec(
    omega=Sinusoid(0.8, 0.9, 0.3, offset=0.6),
    f=ComplexSignal(Sinusoid(0.15, 0.7, 1.1, offset=0.8),
                    Sinusoid(0.2, 1.1, 0.2, offset=-0.1)),
    g=Sinusoid(0.3, 0.5, 0.0, offset=0.4),
)
cfg = PropagatorConfig(dt=1e-3)
t_final = 10.0

print("Omega(0) =", big_omega(spec, 0.0))

samples = GridSamples(spec, t_final, cfg.dt)
et = integrate_epsilon(samples, (1.0 + 0.2j, 0.1 - 0.3j))
nus = nu_from_epsilon_arrays(samples, et.eps, et.eps_dot)
lam1 = nus[:, 1] * nus[:, 0] + 0.25 * nus[:, 2] ** 2
print("max |lambda1| along the eps route:", np.max(np.abs(lam1)), "(identically zero)")

# closure: direct integration from the matched start reproduces the map
direct = integrate_nu(samples, tuple(nus[0]))
print("closure vs direct system:", np.max(np.abs(direct.nu - nus)))

# both first integrals, pointwise
k = 5000
t = float(et.times[k])
e = EpsilonState(complex(et.eps[k]), complex(et.eps_dot[k]))
lam2_eps = lambda2_from_epsilon(Samples(spec, t), e)
lam2_nu = motion_constants(nu_from_epsilon(spec, t, e)).lambda2
print(f"lambda2 two routes at t={t}: {lam2_eps:.12f} vs {lam2_nu:.12f}")

vp, vpd, vpdd, vpddd = nu_plus_jets(spec, t, direct.nu_at(k))
lam = first_integral_lambda(spec, t, vp, vpd, vpdd)
print("first integral lam (should be ~0 on this branch):", abs(lam))
print("third-order equation residual on the jet:",
      third_order_residual(spec, t, (vp, vpd, vpdd, vpddd)))

# removing the first-derivative term: eps = eps' * gauge
om_p, gauge = epsilon_prime_transform(spec, et.times)
print("\ngauge factor at t =", t_final, ":", gauge[-1])
print("Omega'(0) - Omega(0) =", om_p[0] - big_omega(spec, 0.0))

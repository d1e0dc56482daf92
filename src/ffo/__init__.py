"""Simulation and verification toolkit for the nonstationary fermionic
forced oscillator: dynamical invariant ladder operators, Grassmann coherent
states, and a brute-force propagator oracle on the exact two-dimensional
Hilbert space."""

from .algebra import (anticommutator, commutator, hamiltonian_matrix,
                      ladder_operators, max_abs, spin_operators)
from .errors import (ConfigError, ContractError, FfoError, IntegrationError,
                     SignalRangeError, SingularReductionError)
from .grassmann import (GrassmannElement, apply_fermion_op, berezin_integrate,
                        coherent_ket, completeness_check, g_mul, graded_apply)
from .grid import GridSamples, Samples, linear_rk4, time_grid
from .invariants import (MotionConstants, NuTrajectory, build_B_array,
                         build_B_dagger, build_B_so, free_oscillator_nu,
                         hermitian_invariant, integrate_nu,
                         invariance_residual_max, ladder_conditions_check,
                         motion_constants, nu_generator)
from .propagator import UnitaryTrajectory, apply_unitary, evolve_unitary, transport
from .reduction import (EpsilonTrajectory, build_B_normalized,
                        epsilon_prime_transform, first_integral_lambda,
                        integrate_epsilon, lambda2_from_epsilon,
                        nu3_from_nu_plus, nu_from_epsilon_arrays,
                        nu_minus_compact, nu_minus_from_nu_plus_2nd,
                        nu_plus_jets, third_order_residual)
from .signals import (ComplexSignal, Constant, HamiltonianSpec, Polynomial,
                      Signal, Sinusoid, Tabulated, constant_spec)
from .states import (CoherenceReport, PhaseTrajectory, coherence_check,
                     coherent_state, cs_eigen_residual, lr_frame, lr_phases,
                     schrodinger_residual_max, vacuum_trajectory)

__version__ = "0.1.0"

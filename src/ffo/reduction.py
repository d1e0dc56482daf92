"""The nu_plus reduction chain and the epsilon parametrization.

For nonvanishing forcing f(t) the three coefficient functions can be
rebuilt from nu_plus and its derivatives alone:

    nu_3     = -(i/f) (nu_plus' + i nu_plus omega)
    nu_minus = (1/2f^2) [nu_plus'' + (i omega - f'/f) nu_plus'
               + (2 f conj(f) + i omega' - i (omega/f) f') nu_plus]

nu_plus itself obeys a third-order linear equation whose first integral

    lam = (4/f^2) [2 nu_plus nu_plus'' - nu_plus'^2
          - 2 nu_plus nu_plus' f'/f + 4 nu_plus^2 Omega]

equals 16*lambda1 along solutions (Omega below).  On the lam = 0 branch the
substitution nu_plus = eps^2/2 collapses everything to one second-order
complex ODE,

    eps'' - (f'/f) eps' + Omega(t) eps = 0,
    Omega = |f|^2 + omega^2/4 + i omega'/2 - i omega f' / (2f),

whose solutions parametrize the ladder-calibrated invariant family.  The
first-derivative term is removable by eps = eps' * exp(1/2 int f'/f),
trading Omega for Omega' = Omega + f''/2f - 3 f'^2/4f^2.

Each function of time takes a ``grid.Samples`` and arrays shaped like its
times, a scalar time included.  Everything that divides by f (or nu_plus)
raises SingularReductionError when its minimum over the times is below
``F_MIN`` (or ``NU_MIN``) instead of returning garbage; the direct
first-order system in :mod:`ffo.invariants` has no such restriction and is
the default computational path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, SingularReductionError
from .grid import GridSamples, Samples, Trajectory, cumsimpson_grid, linear_rk4
from .invariants import F_MIN, _nu_dot, build_B_array, motion_constants

# |nu_plus| floor of the forms that divide by nu_plus
NU_MIN = 1e-9


@dataclass
class EpsilonTrajectory(Trajectory):
    eps: np.ndarray
    eps_dot: np.ndarray


def _require_f(samples: Samples) -> np.ndarray:
    """``samples.f``, once |f| >= F_MIN holds at every one of ``samples.times``."""
    if np.min(samples.abs_f) < F_MIN:
        t = float(np.ravel(samples.times)[np.argmin(samples.abs_f)])
        raise SingularReductionError(f"reduction needs |f| >= {F_MIN}; violated at t={t}")
    return samples.f


def nu3_from_nu_plus(samples: Samples, nu_plus, nu_plus_dot):
    """nu_3 = -(i/f)(nu_plus' + i nu_plus omega)."""
    f = _require_f(samples)
    return -1j / f * (nu_plus_dot + 1j * nu_plus * samples.omega)


def nu_minus_from_nu_plus_2nd(samples: Samples, nu_plus, nu_plus_dot, nu_plus_ddot):
    """Second-derivative expression for nu_minus in terms of nu_plus jets."""
    f = _require_f(samples)
    fd, w = samples.f_d1, samples.omega
    return (nu_plus_ddot
            + (1j * w - fd / f) * nu_plus_dot
            + (2.0 * f * np.conj(f) + 1j * samples.omega_d1 - 1j * (w / f) * fd) * nu_plus
            ) / (2.0 * f * f)


def _gamma_omega(s: Samples):
    """gamma = f'/f and Omega = |f|^2 + omega^2/4 + i omega'/2 - i omega gamma/2."""
    gamma, w = s.f_d1 / s.f, s.omega
    return gamma, s.abs_f ** 2 + 0.25 * w * w + 0.5j * s.omega_d1 - 0.5j * w * gamma


def _big_omega_dot(s: Samples):
    """Omega', the time derivative of Omega."""
    f, fd, w, wd = s.f, s.f_d1, s.omega, s.omega_d1
    return (fd * np.conj(f) + f * np.conj(fd) + 0.5 * w * wd + 0.5j * s.omega_d2
            - 0.5j * (wd * fd / f + w * s.f_d2 / f - w * (fd / f) ** 2))


def third_order_residual(samples: Samples, nu_plus_jet):
    """|LHS - RHS| of the third-order nu_plus equation on a 4-jet.

    The equation is used in the form implied by the first-order system
    (equivalently d(lam)/dt = 0):

        nu''' = (3 f'/f) nu'' + (f''/f - 3 f'^2/f^2 - 4 Omega) nu'
                + (4 Omega f'/f - 2 Omega') nu,

    scaled by 1/|2 f^2| to match the printed normalization.  Vanishes on
    jets extracted from valid trajectories; a perturbed jet makes it jump,
    which is the detector property tests rely on.
    """
    vp, vpd, vpdd, vpddd = nu_plus_jet
    f = _require_f(samples)
    gamma, q = _gamma_omega(samples)
    rhs = ((3.0 * gamma) * vpdd
           + (samples.f_d2 / f - 3.0 * gamma ** 2 - 4.0 * q) * vpd
           + (4.0 * q * gamma - 2.0 * _big_omega_dot(samples)) * vp)
    return np.abs(vpddd - rhs) / np.abs(2.0 * f * f)


def first_integral_lambda(samples: Samples, nu_plus, nu_plus_dot, nu_plus_ddot):
    """First integral lam of the third-order equation; lam = 16*lambda1."""
    f = _require_f(samples)
    gamma, q = _gamma_omega(samples)
    vp, vpd, vpdd = nu_plus, nu_plus_dot, nu_plus_ddot
    return 4.0 / (f * f) * (2.0 * vp * vpdd - vpd * vpd
                            - 2.0 * vp * vpd * gamma + 4.0 * vp * vp * q)


def nu_minus_compact(samples: Samples, nu_plus, nu_plus_dot, lam):
    """nu_minus = lam/(16 nu_plus) - (omega nu_plus - i nu_plus')^2/(4 f^2 nu_plus).

    Equivalent, term by term, to (lam/4 - nu_3^2)/(4 nu_plus) with nu_3
    from the first reduction formula.
    """
    if np.min(np.abs(nu_plus)) < NU_MIN:
        raise SingularReductionError(f"compact nu_minus needs |nu_plus| >= {NU_MIN}")
    f = _require_f(samples)
    core = samples.omega * nu_plus - 1j * nu_plus_dot
    return lam / (16.0 * nu_plus) - core * core / (4.0 * f * f * nu_plus)


def build_B_normalized(samples: Samples, nu_plus, nu_plus_dot) -> np.ndarray:
    """Ladder-normalized invariant built from (nu_plus, nu_plus') alone, shape (..., 2, 2).

    nu_minus and nu_3 come from nu_minus_compact at lam = 0 and nu3_from_nu_plus,
    with their guards; the coefficients are divided by sqrt(lambda2), so B^2 = 0
    and {B, B'} = 1 by construction, and the invariance equation holds whenever
    nu_plus solves the lam = 0 branch of the first-integral equation.
    """
    nu = np.stack([nu_minus_compact(samples, nu_plus, nu_plus_dot, 0.0), nu_plus,
                   nu3_from_nu_plus(samples, nu_plus, nu_plus_dot)], axis=-1)
    return build_B_array(nu) / np.sqrt(motion_constants(nu).lambda2)[..., None, None]


# -- epsilon machinery --------------------------------------------------------

def _epsilon_generator(gamma, q) -> np.ndarray:
    """A of (eps, eps')' = A (eps, eps') for eps'' - (f'/f) eps' + Omega eps = 0,
    grid-last (2, 2, len(q))."""
    return np.array([[np.zeros_like(q), np.ones_like(q)], [-q, gamma]])


def integrate_epsilon(samples: GridSamples, e0) -> EpsilonTrajectory:
    """RK4 integration of the eps equation on the shared grid.

    Requires |f| >= F_MIN on the whole interval (checked sample-wise on the
    grid nodes, then on the step midpoints, before stepping).  Reads f, f',
    omega and omega' on both from ``samples``.
    """
    grids = (samples, samples.mids)
    for s in grids:
        _require_f(s)
    y = linear_rk4(_epsilon_generator, *map(_gamma_omega, grids), samples.dt, e0)
    if not np.all(np.isfinite(y)):
        t = float(samples.times[np.argmax(~np.all(np.isfinite(y), axis=1))])
        raise IntegrationError(f"nonfinite epsilon state at t={t}", t=t)
    return EpsilonTrajectory(samples=samples, eps=y[:, 0], eps_dot=y[:, 1])


def nu_from_epsilon_arrays(samples: Samples, eps, eps_dot) -> np.ndarray:
    """Map (eps, eps') at ``samples.times`` to invariant coefficients on the lambda1 = 0 branch.

    nu_plus = eps^2/2, nu_minus = -(omega eps/2 - i eps')^2/(2 f^2),
    nu_3 = (omega eps/2 - i eps') eps/f.  The identity nu_plus nu_minus +
    nu_3^2/4 = 0 holds exactly by construction.  eps and eps' have the shape
    of ``samples.times``, a scalar included; the result appends an axis of 3.
    Raises SingularReductionError if |f| < F_MIN at any of the times.
    """
    f, w = _require_f(samples), samples.omega
    core = 0.5 * w * eps - 1j * eps_dot
    return np.stack([-core * core / (2.0 * f * f), 0.5 * eps * eps, core * eps / f], axis=-1)


def lambda2_from_epsilon(samples: Samples, e):
    """lambda2 along the eps parametrization:

    lambda2 = (1/4) (|eps|^2 + |omega eps/2 - i eps'|^2 / |f|^2)^2,

    which matches motion_constants(nu_from_epsilon_arrays(...)) identically
    and is a first integral of the eps equation.  ``e = (eps, eps')`` has
    the shape of ``samples.times``, a scalar included, and so has the result.
    """
    _require_f(samples)
    eps, epsd = e[0], e[1]
    u = np.abs(0.5 * samples.omega * eps - 1j * epsd) ** 2 / samples.abs_f ** 2
    return 0.25 * (np.abs(eps) ** 2 + u) ** 2


def epsilon_prime_transform(samples: Samples):
    """Gauge-removed form of the eps equation at ``samples.times``.

    Returns (omega_prime, gauge) with omega_prime(t) = Omega + f''/2f -
    3 f'^2/4f^2 and gauge(t) = exp(1/2 int_{t_0}^t f'/f) from the first of
    the times t_0 (cumulative Simpson on a uniform grid; 1 at a single
    time), so that solutions of eps'' + omega_prime eps' = 0 multiplied by
    the gauge solve the original equation.
    """
    f = _require_f(samples)
    gamma, omega_big = _gamma_omega(samples)
    omega_prime = omega_big + 0.5 * samples.f_d2 / f - 0.75 * gamma * gamma
    times = np.ravel(samples.times)
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    gauge = np.exp(0.5 * cumsimpson_grid(np.ravel(gamma), dt)).reshape(np.shape(gamma))
    return omega_prime, gauge


# -- analytic jets along direct trajectories -----------------------------------

def nu_plus_jets(samples: Samples, nu):
    """(nu_plus, nu_plus', nu_plus'', nu_plus''') from the system RHS.

    ``nu`` is (K, 3) on a grid or (3,) at a scalar time; each entry has the
    shape of ``samples.times``.  Derivatives come from differentiating the
    first-order system analytically (never from finite differences), so
    reduction formulas can be checked pointwise along integrated trajectories.
    """
    nu = np.asarray(nu, dtype=complex)
    (vm, vp, v3), w, wd, f, fd = nu.T, samples.omega, samples.omega_d1, samples.f, samples.f_d1
    vmd, vpd, v3d = _nu_dot(samples, nu)
    v3dd = 2j * (vpd * np.conj(f) + vp * np.conj(fd) - vmd * f - vm * fd)
    vpdd = 1j * (v3d * f + v3 * fd - vpd * w - vp * wd)
    vpddd = 1j * (v3dd * f + 2.0 * v3d * fd + v3 * samples.f_d2 - vpdd * w - 2.0 * vpd * wd
                  - vp * samples.omega_d2)
    return vp, vpd, vpdd, vpddd

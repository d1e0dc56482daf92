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

Everything that divides by f (or nu_plus) raises SingularReductionError
below the configured floors instead of returning garbage; the direct
first-order system in :mod:`ffo.invariants` has no such restriction and is
the default computational path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import IntegrationError, SingularReductionError
from .grid import GridSamples, Samples, cumsimpson_grid, linear_rk4
from .invariants import NuVector, build_B
from .signals import HamiltonianSpec


class EpsilonState(NamedTuple):
    eps: complex
    eps_dot: complex


@dataclass
class EpsilonTrajectory:
    times: np.ndarray
    eps: np.ndarray
    eps_dot: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _require_f(f: complex, f_min: float) -> complex:
    if abs(f) < f_min:
        raise SingularReductionError(f"reduction needs |f| >= {f_min}, got {abs(f)}")
    return f


def nu3_from_nu_plus(spec: HamiltonianSpec, t: float, nu_plus: complex,
                     nu_plus_dot: complex, tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """nu_3 = -(i/f)(nu_plus' + i nu_plus omega)."""
    f = _require_f(complex(spec.f.value(t)), tol.f_min)
    w = float(spec.omega.value(t))
    return -1j / f * (nu_plus_dot + 1j * nu_plus * w)


def nu_minus_from_nu_plus_2nd(spec: HamiltonianSpec, t: float, nu_plus: complex,
                              nu_plus_dot: complex, nu_plus_ddot: complex,
                              tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """Second-derivative expression for nu_minus in terms of nu_plus jets."""
    f = _require_f(complex(spec.f.value(t)), tol.f_min)
    fd = complex(spec.f.d1(t))
    w = float(spec.omega.value(t))
    wd = float(spec.omega.d1(t))
    return (nu_plus_ddot
            + (1j * w - fd / f) * nu_plus_dot
            + (2.0 * f * f.conjugate() + 1j * wd - 1j * (w / f) * fd) * nu_plus) / (2.0 * f * f)


def _gamma_omega(s: Samples):
    """gamma = f'/f and Omega = |f|^2 + omega^2/4 + i omega'/2 - i omega gamma/2."""
    gamma, w = s.f_d1 / s.f, s.omega
    return gamma, np.abs(s.f) ** 2 + 0.25 * w * w + 0.5j * s.omega_d1 - 0.5j * w * gamma


def big_omega(spec: HamiltonianSpec, t: float, tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """Omega(t) = |f|^2 + omega^2/4 + i omega'/2 - i omega f'/(2f)."""
    _require_f(complex(spec.f.value(t)), tol.f_min)
    return complex(_gamma_omega(Samples(spec, t))[1])


def _big_omega_dot(spec: HamiltonianSpec, t: float) -> complex:
    f = complex(spec.f.value(t))
    fd = complex(spec.f.d1(t))
    fdd = complex(spec.f.d2(t))
    w = float(spec.omega.value(t))
    wd = float(spec.omega.d1(t))
    wdd = float(spec.omega.d2(t))
    return (fd * f.conjugate() + f * fd.conjugate() + 0.5 * w * wd + 0.5j * wdd
            - 0.5j * (wd * fd / f + w * fdd / f - w * (fd / f) ** 2))


def third_order_residual(spec: HamiltonianSpec, t: float, nu_plus_jet,
                         tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """|LHS - RHS| of the third-order nu_plus equation on a 4-jet.

    The equation is used in the form implied by the first-order system
    (equivalently d(lam)/dt = 0):

        nu''' = (3 f'/f) nu'' + (f''/f - 3 f'^2/f^2 - 4 Omega) nu'
                + (4 Omega f'/f - 2 Omega') nu,

    scaled by 1/|2 f^2| to match the printed normalization.  Vanishes on
    jets extracted from valid trajectories; a perturbed jet makes it jump,
    which is the detector property tests rely on.
    """
    vp, vpd, vpdd, vpddd = (complex(x) for x in nu_plus_jet)
    f = _require_f(complex(spec.f.value(t)), tol.f_min)
    fd = complex(spec.f.d1(t))
    fdd = complex(spec.f.d2(t))
    q = big_omega(spec, t, tol)
    qd = _big_omega_dot(spec, t)
    rhs = ((3.0 * fd / f) * vpdd
           + (fdd / f - 3.0 * (fd / f) ** 2 - 4.0 * q) * vpd
           + (4.0 * q * fd / f - 2.0 * qd) * vp)
    return abs(vpddd - rhs) / abs(2.0 * f * f)


def first_integral_lambda(spec: HamiltonianSpec, t: float, nu_plus: complex,
                          nu_plus_dot: complex, nu_plus_ddot: complex,
                          tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """First integral lam of the third-order equation; lam = 16*lambda1."""
    f = _require_f(complex(spec.f.value(t)), tol.f_min)
    fd = complex(spec.f.d1(t))
    q = big_omega(spec, t, tol)
    vp, vpd, vpdd = nu_plus, nu_plus_dot, nu_plus_ddot
    return 4.0 / (f * f) * (2.0 * vp * vpdd - vpd * vpd
                            - 2.0 * vp * vpd * fd / f + 4.0 * vp * vp * q)


def nu_minus_compact(spec: HamiltonianSpec, t: float, nu_plus: complex,
                     nu_plus_dot: complex, lam: complex,
                     tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """nu_minus = lam/(16 nu_plus) - (omega nu_plus - i nu_plus')^2/(4 f^2 nu_plus).

    Equivalent, term by term, to (lam/4 - nu_3^2)/(4 nu_plus) with nu_3
    from the first reduction formula.
    """
    if abs(nu_plus) < tol.nu_min:
        raise SingularReductionError(f"compact nu_minus needs |nu_plus| >= {tol.nu_min}")
    f = _require_f(complex(spec.f.value(t)), tol.f_min)
    w = float(spec.omega.value(t))
    core = w * nu_plus - 1j * nu_plus_dot
    return lam / (16.0 * nu_plus) - core * core / (4.0 * f * f * nu_plus)


def build_B_normalized(spec: HamiltonianSpec, t: float, nu_plus: complex,
                       nu_plus_dot: complex, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Ladder-normalized invariant built from (nu_plus, nu_plus') alone.

    Valid for any nonnegative lambda2 (the assembled coefficients are
    divided by sqrt(lambda2)); satisfies B^2 = 0 and {B, B'} = 1 by
    construction, and the invariance equation whenever nu_plus solves the
    lam = 0 branch of the first-integral equation.
    """
    if abs(nu_plus) < tol.nu_min:
        raise SingularReductionError(f"build_B_normalized needs |nu_plus| >= {tol.nu_min}")
    f = _require_f(complex(spec.f.value(t)), tol.f_min)
    w = float(spec.omega.value(t))
    core = w * nu_plus - 1j * nu_plus_dot
    v3 = core / f
    vm = -core * core / (4.0 * f * f * nu_plus)
    lam2 = abs(vm) ** 2 + abs(nu_plus) ** 2 + 0.5 * abs(v3) ** 2
    if lam2 <= 0.0:
        raise SingularReductionError("build_B_normalized needs lambda2 > 0")
    return build_B(NuVector(vm, nu_plus, v3)) / np.sqrt(lam2)


# -- epsilon machinery --------------------------------------------------------

def epsilon_rhs(spec: HamiltonianSpec, t: float, e: EpsilonState,
                tol: ToleranceConfig = DEFAULT_TOL) -> EpsilonState:
    """Derivative of (eps, eps') for eps'' - (f'/f) eps' + Omega eps = 0."""
    _require_f(complex(spec.f.value(t)), tol.f_min)
    gamma, q = _gamma_omega(Samples(spec, t))
    return EpsilonState(e.eps_dot, complex(gamma * e.eps_dot - q * e.eps))


def _epsilon_generator(gamma, q) -> np.ndarray:
    """A of (eps, eps')' = A (eps, eps'), grid-last (2, 2, len(q))."""
    return np.array([[np.zeros_like(q), np.ones_like(q)], [-q, gamma]])


def integrate_epsilon(samples: GridSamples, e0,
                      tol: ToleranceConfig = DEFAULT_TOL) -> EpsilonTrajectory:
    """RK4 integration of the eps equation on the shared grid.

    Requires |f| >= f_min on the whole interval (checked sample-wise on the
    grid nodes, then on the step midpoints, before stepping).  Reads f, f',
    omega and omega' on both from ``samples``.
    """
    grids = (samples, samples.mids)
    for s in grids:
        absf = np.abs(s.f)
        if np.min(absf) < tol.f_min:
            raise SingularReductionError(
                f"epsilon equation needs |f| >= {tol.f_min}; "
                f"violated at t={float(s.times[np.argmin(absf)])}")
    y = linear_rk4(_epsilon_generator, *map(_gamma_omega, grids), samples.dt, e0)
    times = samples.times
    if not np.all(np.isfinite(y)):
        bad = int(np.argmax(~np.all(np.isfinite(y), axis=1)))
        raise IntegrationError(f"nonfinite epsilon state at t={times[bad]}", t=float(times[bad]))
    return EpsilonTrajectory(times=times, eps=y[:, 0], eps_dot=y[:, 1])


def nu_from_epsilon(spec: HamiltonianSpec, t: float, e: EpsilonState,
                    tol: ToleranceConfig = DEFAULT_TOL) -> NuVector:
    """Map (eps, eps') to invariant coefficients on the lambda1 = 0 branch.

    nu_plus = eps^2/2, nu_minus = -(omega eps/2 - i eps')^2/(2 f^2),
    nu_3 = (omega eps^2/2 - i eps eps')/f.  The identity nu_plus nu_minus +
    nu_3^2/4 = 0 holds exactly by construction.
    """
    f = _require_f(complex(spec.f.value(t)), tol.f_min)
    w = float(spec.omega.value(t))
    eps, epsd = complex(e[0]), complex(e[1])
    core = 0.5 * w * eps - 1j * epsd
    return NuVector(-core * core / (2.0 * f * f),
                    0.5 * eps * eps,
                    (0.5 * w * eps * eps - 1j * eps * epsd) / f)


def nu_from_epsilon_arrays(samples: Samples, eps: np.ndarray,
                           eps_dot: np.ndarray) -> np.ndarray:
    """Vectorized nu_from_epsilon over a trajectory sampled at ``samples.times``; (K, 3)."""
    f, w = samples.f, samples.omega
    core = 0.5 * w * eps - 1j * eps_dot
    out = np.empty((len(eps), 3), dtype=complex)
    out[:, 0] = -core * core / (2.0 * f * f)
    out[:, 1] = 0.5 * eps * eps
    out[:, 2] = (0.5 * w * eps - 1j * eps_dot) * eps / f
    return out


def lambda2_from_epsilon(samples: Samples, e, tol: ToleranceConfig = DEFAULT_TOL):
    """lambda2 along the eps parametrization:

    lambda2 = (1/4) (|eps|^2 + |omega eps/2 - i eps'|^2 / |f|^2)^2,

    which matches motion_constants(nu_from_epsilon(...)) identically and is
    a first integral of the eps equation.  ``samples.times`` and
    ``e = (eps, eps')`` may be grid arrays; a scalar call returns a float.
    """
    f, w = samples.f, samples.omega
    _require_f(np.min(np.abs(f)), tol.f_min)
    eps, epsd = e[0], e[1]
    u = np.abs(0.5 * w * eps - 1j * epsd) ** 2 / np.abs(f) ** 2
    out = 0.25 * (np.abs(eps) ** 2 + u) ** 2
    return float(out) if np.ndim(out) == 0 else out


def epsilon_prime_transform(spec: HamiltonianSpec, times: np.ndarray,
                            tol: ToleranceConfig = DEFAULT_TOL):
    """Gauge-removed form of the eps equation on a grid.

    Returns (omega_prime, gauge) with omega_prime(t) = Omega + f''/2f -
    3 f'^2/4f^2 and gauge(t) = exp(1/2 int_0^t f'/f), so that solutions of
    eps'' + omega_prime eps' = 0 multiplied by the gauge solve the original
    equation.
    """
    s = Samples(spec, times)
    f = s.f
    if np.min(np.abs(f)) < tol.f_min:
        raise SingularReductionError("epsilon_prime_transform needs |f| >= f_min on the grid")
    gamma, omega_big = _gamma_omega(s)
    fdd = np.asarray(spec.f.d2(times), dtype=complex)
    omega_prime = omega_big + 0.5 * fdd / f - 0.75 * gamma * gamma
    dt = float(times[1] - times[0])
    gauge = np.exp(0.5 * cumsimpson_grid(gamma, dt))
    return omega_prime, gauge


# -- analytic jets along direct trajectories -----------------------------------

def nu_plus_jets(spec: HamiltonianSpec, t: float, nu: NuVector):
    """(nu_plus, nu_plus', nu_plus'', nu_plus''') from the system RHS.

    Derivatives are obtained by differentiating the first-order system
    analytically (never by finite differences), so reduction formulas can
    be checked pointwise along integrated trajectories.
    """
    vm, vp, v3 = (complex(x) for x in nu)
    w = float(spec.omega.value(t))
    wd = float(spec.omega.d1(t))
    wdd = float(spec.omega.d2(t))
    f = complex(spec.f.value(t))
    fd = complex(spec.f.d1(t))
    fdd = complex(spec.f.d2(t))
    fc, fdc = f.conjugate(), fd.conjugate()

    vmd = 1j * (vm * w - v3 * fc)
    vpd = 1j * (v3 * f - vp * w)
    v3d = 2j * (vp * fc - vm * f)
    v3dd = 2j * (vpd * fc + vp * fdc - vmd * f - vm * fd)
    vpdd = 1j * (v3d * f + v3 * fd - vpd * w - vp * wd)
    vpddd = 1j * (v3dd * f + 2.0 * v3d * fd + v3 * fdd - vpdd * w - 2.0 * vpd * wd - vp * wdd)
    return vp, vpd, vpdd, vpddd

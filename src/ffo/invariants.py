"""Invariant ladder operators for the forced fermion oscillator.

The non-Hermitian invariant is parametrized as

    B(t) = nu_minus(t) J- + nu_plus(t) J+ + nu_3(t) J3,

and staying invariant under H = omega b'b + f b' + conj(f) b + g is
equivalent to the linear system

    d(nu_3)/dt     = 2i (nu_plus conj(f) - nu_minus f)
    d(nu_plus)/dt  = i (nu_3 f - nu_plus omega)
    d(nu_minus)/dt = i (nu_minus omega - nu_3 conj(f)).

Two bilinears are conserved along solutions: lambda1 = nu_plus*nu_minus +
nu_3^2/4 (the coefficient of B^2) and lambda2 = |nu_minus|^2 + |nu_plus|^2
+ |nu_3|^2/2 (the anticommutator {B, B'}).  Calibrating lambda1 = 0,
lambda2 = 1 makes B(t) a genuine fermion ladder operator for all t.

Closed-form solutions for f = 0 carry the phase pairing nu_minus ~
exp(+i int omega), nu_plus ~ exp(-i int omega); this is the orientation the
differential system itself (and the Heisenberg-transport oracle) produces,
and every closed form here is calibrated against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import I2
from .errors import ContractError, IntegrationError
from .grid import GridSamples, Samples, Trajectory, cumsimpson_grid, linear_rk4

# |f| floor: below it a scenario counts as free, and the reduction chain,
# which divides by f, is declared singular
F_MIN = 1e-9


class MotionConstants(NamedTuple):
    lambda1: np.ndarray   # complex
    lambda2: np.ndarray   # real


@dataclass
class NuTrajectory(Trajectory):
    """Invariant coefficients on the grid of ``samples``; the constants follow on first use."""

    nu: np.ndarray        # shape (len(times), 3); columns nu_minus, nu_plus, nu_3

    @cached_property
    def constants(self) -> MotionConstants:
        return motion_constants(self.nu)

    @property
    def lambda1(self) -> np.ndarray:   # complex
        return self.constants.lambda1

    @property
    def lambda2(self) -> np.ndarray:   # real
        return self.constants.lambda2


def nu_generator(samples: Samples) -> np.ndarray:
    """Matrix A(t) of the coefficient system d(nu)/dt = A(t) nu at ``samples.times``.

    nu is ordered (nu_minus, nu_plus, nu_3); the result has shape
    (len(times), 3, 3), or (3, 3) at a scalar time.
    """
    w, f = samples.omega, samples.f
    fc, z = np.conj(f), np.zeros_like(f)
    return np.moveaxis(np.array([[1j * w, z, -1j * fc],
                                 [z, -1j * w, 1j * f],
                                 [-2j * f, 2j * fc, z]]), (0, 1), (-2, -1))


def _nu_dot(samples: Samples, nu):
    """nu' as the rows (nu_minus', nu_plus', nu_3') of nu_generator(samples) nu.

    ``nu`` is (K, 3) on a grid or (3,) at a scalar time.
    """
    (vm, vp, v3), w, f = nu.T, samples.omega, samples.f
    fc = np.conj(f)
    return 1j * (w * vm - fc * v3), 1j * (f * v3 - w * vp), 2j * (fc * vp - f * vm)


def motion_constants(nu) -> MotionConstants:
    """lambda1 = nu_plus nu_minus + nu_3^2/4 and lambda2 = the norm bilinear.

    ``nu`` is (..., 3), columns nu_minus, nu_plus, nu_3; both constants have
    shape (...).
    """
    nu = np.asarray(nu, dtype=complex)
    vm, vp, v3 = nu[..., 0], nu[..., 1], nu[..., 2]
    lam1 = vp * vm + 0.25 * v3 * v3
    lam2 = np.abs(vm) ** 2 + np.abs(vp) ** 2 + 0.5 * np.abs(v3) ** 2
    return MotionConstants(lam1, lam2)


def _bloch_generator(w, f) -> np.ndarray:
    """db/dt = 2 n x b, n = (Re f, Im f, -omega/2), for B = b . sigma: real, (3, 3, len(w))."""
    z, fr, fi = np.zeros_like(w), 2.0 * f.real, 2.0 * f.imag
    return np.array([[z, w, fi], [-w, z, -fr], [-fi, fr, z]])


def integrate_nu(samples: GridSamples, nu0) -> NuTrajectory:
    """Integrate the coefficient system from ``nu0``, shape (3,), with classical fixed-step RK4.

    It is stepped in the real Bloch basis b of ``_bloch_generator``, on
    the omega and f samples of the grid nodes and step midpoints, b's real
    and imaginary parts as two real columns of one ``linear_rk4`` call.
    The grid matches the propagator grid for the same (t_final, dt), so
    oracle comparisons need no interpolation.
    """
    nodes, mids = ((s.omega, s.f) for s in (samples, samples.mids))
    vm, vp, v3 = np.asarray(nu0, dtype=complex).reshape(3)
    b0 = np.array([0.5 * (vm + vp), 0.5j * (vm - vp), -0.5 * v3])
    y0 = np.stack([b0.real, b0.imag], -1)
    b = linear_rk4(_bloch_generator, nodes, mids, samples.dt, y0).view(complex)[..., 0]
    out = np.stack([b[:, 0] - 1j * b[:, 1], b[:, 0] + 1j * b[:, 1], -2.0 * b[:, 2]], axis=-1)
    if not np.all(np.isfinite(out)):
        t = float(samples.times[np.argmax(~np.all(np.isfinite(out), axis=-1))])
        raise IntegrationError(f"nonfinite nu state at t={t}", t=t)
    return NuTrajectory(samples=samples, nu=out)


# -- operator assembly -------------------------------------------------------

def build_B_array(nu) -> np.ndarray:
    """B = nu_minus J- + nu_plus J+ + nu_3 J3 as 2x2 matrices: (..., 3) -> (..., 2, 2)."""
    nu = np.asarray(nu, dtype=complex)
    out = np.empty(nu.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = -0.5 * nu[..., 2]
    out[..., 0, 1] = nu[..., 0]
    out[..., 1, 0] = nu[..., 1]
    out[..., 1, 1] = 0.5 * nu[..., 2]
    return out


def build_B_dagger(nu) -> np.ndarray:
    return np.conj(build_B_array(nu)).swapaxes(-1, -2)


def ladder_conditions_check(nu):
    """Residuals of the fermion ladder conditions for B(nu), nu of shape (..., 3).

    Returns (||B^2||_max, ||{B, B'} - 1||_max), each of shape (...),
    computed by matrix arithmetic.  These equal |lambda1| and |lambda2 - 1|
    identically; tests assert the two routes agree to rounding.
    """
    b, bd = build_B_array(nu), build_B_dagger(nu)
    res_b2 = np.max(np.abs(b @ b), axis=(-2, -1))
    res_anti = np.max(np.abs(b @ bd + bd @ b - I2), axis=(-2, -1))
    return res_b2, res_anti


def hermitian_invariant(nu) -> np.ndarray:
    """The quadratic Hermitian invariant B'B - 1/2, (..., 3) -> (..., 2, 2).

    Its eigenvalues are {-1/2, +1/2} whenever the ladder conditions hold,
    and they stay put in time because the spectrum of an invariant is
    constant.
    """
    return build_B_dagger(nu) @ build_B_array(nu) - 0.5 * I2


# -- invariance equation ------------------------------------------------------

def invariance_residual_max(traj: NuTrajectory) -> float:
    """Max of ||dB/dt - i[B, H]||_max over the interior points of ``traj.times``.

    dB/dt uses the central difference of the stored trajectory, so the
    result is bounded by C*dt^2 plus the integration error.  B's entries
    are nu_minus, nu_plus and -+nu_3/2, and i[B, H] is B with nu' of the
    coefficient system (``_nu_dot``) in place of nu; so the residual is the
    central difference minus ``_nu_dot``, its nu_3 row halved.  g commutes
    with B and is not read, so no size of g can round omega away.
    """
    r = (traj.nu[2:] - traj.nu[:-2]) / (2.0 * traj.samples.dt) - np.column_stack(
        _nu_dot(traj.samples, traj.nu))[1:-1]
    r[:, 2] *= 0.5
    return float(np.max(np.abs(r)))  # a nan residual stays nan


# -- free oscillator closed forms ---------------------------------------------

def free_oscillator_nu(nu0, samples: Samples) -> np.ndarray:
    """Closed-form coefficients for f = 0 on a uniform grid from 0, shape (len(times), 3).

    nu_minus(t) = nu0_minus exp(+i phi), nu_plus(t) = nu0_plus exp(-i phi),
    nu_3 constant, with phi = int_0^t omega by cumulative Simpson on
    ``samples.times``.  The sign pairing is the one the differential system
    produces.  Raises ContractError unless |f| <= F_MIN at every grid time.
    """
    if np.max(samples.abs_f) > F_MIN:
        raise ContractError("free-oscillator closed form requires f = 0")
    vm, vp, v3 = (complex(x) for x in nu0)
    phi = cumsimpson_grid(samples.omega, float(samples.times[1] - samples.times[0]))
    out = np.empty((len(phi), 3), dtype=complex)
    out[:, 0] = vm * np.exp(1j * phi)
    out[:, 1] = vp * np.exp(-1j * phi)
    out[:, 2] = v3
    return out


def build_B_so(nu0_minus: complex, nu0_plus: complex, samples: Samples,
               branch: int = +1) -> np.ndarray:
    """Free-oscillator invariant ladder operator on a grid, shape (len(times), 2, 2).

    B_so = nu0_minus e^{+i phi} b + nu0_plus e^{-i phi} b' +
    branch * 2 sqrt(-nu0_minus nu0_plus) (b'b - 1/2), phi = int_0^t omega,
    from ``free_oscillator_nu`` on ``samples``.

    The square root takes the principal branch; ``branch=-1`` selects the
    other sign, which is an equally valid invariant since only nu_3^2 is
    constrained.  Requires |nu0_minus| + |nu0_plus| = 1.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    vm0, vp0 = complex(nu0_minus), complex(nu0_plus)
    if abs(abs(vm0) + abs(vp0) - 1.0) > 1e-9:
        raise ContractError("build_B_so requires |nu0_minus| + |nu0_plus| = 1")
    v3 = branch * 2.0 * np.sqrt(complex(-vm0 * vp0))
    return build_B_array(free_oscillator_nu((vm0, vp0, v3), samples))

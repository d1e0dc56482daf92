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
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson

from .algebra import I2, hamiltonian_entries, hamiltonian_matrix, max_abs
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ContractError, IntegrationError
from .grid import cumsimpson_grid, linear_rk4, time_grid
from .propagator import PropagatorConfig
from .signals import HamiltonianSpec, Signal


class NuVector(NamedTuple):
    nu_minus: complex
    nu_plus: complex
    nu_3: complex


class MotionConstants(NamedTuple):
    lambda1: complex
    lambda2: float


@dataclass
class NuTrajectory:
    """Invariant coefficients on the shared grid, constants attached."""

    times: np.ndarray
    nu: np.ndarray        # shape (len(times), 3); columns nu_minus, nu_plus, nu_3
    lambda1: np.ndarray   # complex
    lambda2: np.ndarray   # real

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def nu_at(self, k: int) -> NuVector:
        vm, vp, v3 = self.nu[k]
        return NuVector(vm, vp, v3)

    def constants_at(self, k: int) -> MotionConstants:
        return MotionConstants(complex(self.lambda1[k]), float(self.lambda2[k]))


def nu_generator(spec: HamiltonianSpec, ts) -> np.ndarray:
    """Matrix A(t) of the coefficient system d(nu)/dt = A(t) nu.

    nu is ordered (nu_minus, nu_plus, nu_3); the result has shape
    (len(ts), 3, 3), or (3, 3) for a scalar t.
    """
    w = np.asarray(spec.omega.value(ts), dtype=float)
    f = np.asarray(spec.f.value(ts), dtype=complex)
    fc, z = np.conj(f), np.zeros_like(f)
    return np.moveaxis(np.array([[1j * w, z, -1j * fc],
                                 [z, -1j * w, 1j * f],
                                 [-2j * f, 2j * fc, z]]), (0, 1), (-2, -1))


def nu_rhs(spec: HamiltonianSpec, t: float, nu: NuVector) -> NuVector:
    """Time derivative of (nu_minus, nu_plus, nu_3) at time t."""
    d = nu_generator(spec, t) @ np.asarray(nu, dtype=complex)
    return NuVector(*(complex(x) for x in d))


def motion_constants(nu: NuVector) -> MotionConstants:
    """lambda1 = nu_plus nu_minus + nu_3^2/4; lambda2 = the norm bilinear."""
    vm, vp, v3 = (complex(x) for x in nu)
    lam1 = vp * vm + 0.25 * v3 * v3
    lam2 = abs(vm) ** 2 + abs(vp) ** 2 + 0.5 * abs(v3) ** 2
    return MotionConstants(lam1, lam2)


def _constants_arrays(nu: np.ndarray):
    vm, vp, v3 = nu[:, 0], nu[:, 1], nu[:, 2]
    lam1 = vp * vm + 0.25 * v3 * v3
    lam2 = np.abs(vm) ** 2 + np.abs(vp) ** 2 + 0.5 * np.abs(v3) ** 2
    return lam1, lam2.real


def integrate_nu(spec: HamiltonianSpec, nu0, t_final: float,
                 cfg: PropagatorConfig = PropagatorConfig()) -> NuTrajectory:
    """Integrate the coefficient system with classical fixed-step RK4.

    The grid matches the propagator grid for the same (t_final, dt), so
    oracle comparisons need no interpolation.
    """
    times = time_grid(t_final, cfg.dt)
    out = linear_rk4(lambda ts: nu_generator(spec, ts), times, nu0)
    if not np.all(np.isfinite(out)):
        bad = int(np.argmax(~np.all(np.isfinite(out), axis=1)))
        raise IntegrationError(f"nonfinite nu state at t={times[bad]}", t=float(times[bad]))

    lam1, lam2 = _constants_arrays(out)
    return NuTrajectory(times=times, nu=out, lambda1=lam1, lambda2=lam2)


# -- operator assembly -------------------------------------------------------

def build_B(nu) -> np.ndarray:
    """B = nu_minus J- + nu_plus J+ + nu_3 J3 as a 2x2 matrix."""
    vm, vp, v3 = (complex(x) for x in nu)
    return np.array([[-0.5 * v3, vm], [vp, 0.5 * v3]], dtype=complex)


def build_B_dagger(nu) -> np.ndarray:
    return build_B(nu).conj().T


def build_B_array(nu: np.ndarray) -> np.ndarray:
    """Vectorized build_B over a trajectory array of shape (K, 3)."""
    out = np.empty((nu.shape[0], 2, 2), dtype=complex)
    out[:, 0, 0] = -0.5 * nu[:, 2]
    out[:, 0, 1] = nu[:, 0]
    out[:, 1, 0] = nu[:, 1]
    out[:, 1, 1] = 0.5 * nu[:, 2]
    return out


def ladder_conditions_check(nu):
    """Residuals of the fermion ladder conditions for B(nu).

    Returns (||B^2||_max, |{B, B'} - 1|) computed by matrix arithmetic.
    These equal |lambda1| and |lambda2 - 1| identically; tests assert the
    two routes agree to rounding.
    """
    b = build_B(nu)
    bd = b.conj().T
    res_b2 = max_abs(b @ b)
    anti = b @ bd + bd @ b
    res_anti = max_abs(anti - I2)
    return res_b2, res_anti


def hermitian_invariant(nu) -> np.ndarray:
    """The quadratic Hermitian invariant B'B - 1/2.

    Its eigenvalues are {-1/2, +1/2} whenever the ladder conditions hold,
    and they stay put in time because the spectrum of an invariant is
    constant.
    """
    b = build_B(nu)
    return b.conj().T @ b - 0.5 * I2


# -- invariance equation ------------------------------------------------------

def invariance_residual(spec: HamiltonianSpec, traj: NuTrajectory, t_index: int) -> float:
    """||dB/dt - i[B, H]||_max at an interior grid point.

    dB/dt uses the central difference of the stored trajectory, so the
    result is bounded by C*dt^2 plus the integration error.
    """
    k = t_index
    if k < 1 or k > len(traj.times) - 2:
        raise IndexError("invariance_residual needs an interior grid index")
    dt = traj.dt
    db = (build_B(traj.nu[k + 1]) - build_B(traj.nu[k - 1])) / (2.0 * dt)
    b = build_B(traj.nu[k])
    h = hamiltonian_matrix(spec, float(traj.times[k]))
    return max_abs(db - 1j * (b @ h - h @ b))


def invariance_residual_max(spec: HamiltonianSpec, traj: NuTrajectory) -> float:
    """Max invariance residual over all interior grid points (vectorized)."""
    dt = traj.dt
    b = build_B_array(traj.nu)
    db = (b[2:] - b[:-2]) / (2.0 * dt)
    h00, h01, h10, h11 = hamiltonian_entries(spec, traj.times[1:-1])
    h = np.empty_like(b[1:-1])
    h[:, 0, 0] = h00
    h[:, 0, 1] = h01
    h[:, 1, 0] = h10
    h[:, 1, 1] = h11
    comm = b[1:-1] @ h - h @ b[1:-1]
    return float(np.max(np.abs(db - 1j * comm)))


# -- free oscillator closed forms ---------------------------------------------

def _f_probe(f_signal, t_final: float, f_min: float) -> None:
    probe = np.linspace(0.0, t_final, 33)
    if np.max(np.abs(np.asarray(f_signal.value(probe)))) > f_min:
        raise ContractError("free-oscillator closed form requires f = 0")


def _omega_integral(omega: Signal, t: float) -> float:
    if t == 0:
        return 0.0
    n = 2 * max(32, int(np.ceil(abs(t) / 2e-3)))
    ts = np.linspace(0.0, t, n + 1)
    return float(simpson(np.asarray(omega.value(ts), dtype=float), x=ts))


def free_oscillator_nu(nu0, omega: Signal, t: float, f=None,
                       tol: ToleranceConfig = DEFAULT_TOL) -> NuVector:
    """Closed-form coefficients for f = 0.

    nu_minus(t) = nu0_minus exp(+i phi), nu_plus(t) = nu0_plus exp(-i phi),
    nu_3 constant, with phi = int_0^t omega by composite Simpson.  The sign
    pairing is the one the differential system produces.  Passing the
    spec's f signal enables the f = 0 guard.
    """
    if f is not None:
        _f_probe(f, t, tol.f_min)
    vm, vp, v3 = (complex(x) for x in nu0)
    phi = _omega_integral(omega, t)
    return NuVector(vm * np.exp(1j * phi), vp * np.exp(-1j * phi), v3)


def free_oscillator_trajectory(nu0, omega: Signal, times: np.ndarray) -> np.ndarray:
    """Vectorized closed form on a uniform grid (cumulative Simpson phase)."""
    vm, vp, v3 = (complex(x) for x in nu0)
    dt = float(times[1] - times[0])
    phi = cumsimpson_grid(np.asarray(omega.value(times), dtype=float), dt)
    out = np.empty((len(times), 3), dtype=complex)
    out[:, 0] = vm * np.exp(1j * phi)
    out[:, 1] = vp * np.exp(-1j * phi)
    out[:, 2] = v3
    return out


def build_B_so(nu0_minus: complex, nu0_plus: complex, omega: Signal, t: float,
               branch: int = +1, f=None, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Free-oscillator invariant ladder operator at time t.

    B_so = nu0_minus e^{+i phi} b + nu0_plus e^{-i phi} b' +
    branch * 2 sqrt(-nu0_minus nu0_plus) (b'b - 1/2), phi = int_0^t omega.

    The square root takes the principal branch; ``branch=-1`` selects the
    other sign, which is an equally valid invariant since only nu_3^2 is
    constrained.  Requires |nu0_minus| + |nu0_plus| = 1.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if f is not None:
        _f_probe(f, t, tol.f_min)
    vm0, vp0 = complex(nu0_minus), complex(nu0_plus)
    if abs(abs(vm0) + abs(vp0) - 1.0) > 1e-9:
        raise ContractError("build_B_so requires |nu0_minus| + |nu0_plus| = 1")
    v3 = branch * 2.0 * np.sqrt(complex(-vm0 * vp0))
    phi = _omega_integral(omega, t)
    return build_B(NuVector(vm0 * np.exp(1j * phi), vp0 * np.exp(-1j * phi), v3))

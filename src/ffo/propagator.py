"""Brute-force evolution-operator oracle.

Builds the time-ordered evolution operator on a fixed grid: one fourth-order
Magnus exponential per step on two Gauss nodes (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009), arXiv:0810.5488), composed by a log-depth prefix
product.  Each factor is the exponential of an anti-Hermitian matrix, so U
is unitary by construction; its global error is O(dt^4).  It shares no
time-stepping algorithm with the RK4 integrators of the invariant
machinery, which is exactly what makes it a usable oracle for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import I2
from .errors import IntegrationError
from .grid import time_grid
from .signals import HamiltonianSpec

_GAUSS = math.sqrt(3.0) / 6.0


@dataclass
class UnitaryTrajectory:
    times: np.ndarray
    U: np.ndarray  # (len(times), 2, 2), a view of a grid-last array: each entry is contiguous


def _magnus_factors(spec: HamiltonianSpec, times: np.ndarray, dt: float):
    """Per-step factors exp(Omega_k), vectorized over the grid.

    Omega_k = -i dt/2 (H1 + H2) - sqrt(3) dt^2/12 [H2, H1] with H1, H2 at
    t_k + (1/2 -+ sqrt(3)/6) dt.  Writing the traceless part of H as
    n.sigma with n = (Re f, Im f, -omega/2), the commutator is
    2i (n2 x n1).sigma, so Omega_k = -i dt (a 1 + v.sigma) with real a and
    v, and exp(Omega_k) = e^{-i dt a} (cos(dt|v|) 1 - i dt sinc v.sigma).
    vc = v_x + i v_y and vz = v_z below.
    """
    t1 = times[:-1] + (0.5 - _GAUSS) * dt
    t2 = times[:-1] + (0.5 + _GAUSS) * dt
    w1 = np.asarray(spec.omega.value(t1), dtype=float)
    w2 = np.asarray(spec.omega.value(t2), dtype=float)
    f1 = np.asarray(spec.f.value(t1), dtype=complex)
    f2 = np.asarray(spec.f.value(t2), dtype=complex)
    g = np.asarray(spec.g.value(t1), dtype=float) + np.asarray(spec.g.value(t2), dtype=float)
    kappa = _GAUSS * dt
    vc = 0.5 * (f1 + f2) + (0.5j * kappa) * (w1 * f2 - w2 * f1)
    vz = -0.25 * (w1 + w2) + kappa * (np.conj(f2) * f1).imag
    r = np.sqrt(vz * vz + np.abs(vc) ** 2)
    phase = np.exp(-1j * dt * (0.25 * (w1 + w2) + 0.5 * g))
    c = np.cos(dt * r)
    s = np.sinc(dt * r / np.pi)  # sin(dt r)/(dt r), exact at r = 0
    e00 = phase * (c - 1j * dt * vz * s)
    e01 = phase * (-1j * dt * np.conj(vc)) * s
    e10 = phase * (-1j * dt * vc) * s
    e11 = phase * (c + 1j * dt * vz * s)
    return e00, e01, e10, e11


def _prefix_products(e00, e01, e10, e11) -> np.ndarray:
    """Inclusive prefix products P_k = E_k ... E_0 of 2x2 factors given entrywise.

    Returns p with p[i, j, k] = (P_k)_ij.  Hillis-Steele scan (CACM 29(12),
    1986): after the pass with shift d, P_k is the product of the factors
    max(0, k - 2d + 1) .. k, the later factor on the left; log2(K) passes.
    """
    p = np.array([[e00, e01], [e10, e11]])
    d = 1
    while d < p.shape[-1]:
        a, b = p[..., d:], p[..., :-d]
        p[..., d:] = [[a[i, 0] * b[0, j] + a[i, 1] * b[1, j] for j in (0, 1)] for i in (0, 1)]
        d *= 2
    return p


def evolve_unitary(spec: HamiltonianSpec, t_final: float, dt: float) -> UnitaryTrajectory:
    """Integrate U(t) = T exp(-i int_0^t H) on the shared grid, U(0) = 1.

    Parameters
    ----------
    spec : HamiltonianSpec
        Oscillator coefficients; must be evaluable on [0, t_final].
    t_final : float
        End time, a positive integer multiple of dt.
    dt : float
        Step size, positive.

    Returns
    -------
    UnitaryTrajectory
        U at every grid time; unitary to rounding.

    Raises
    ------
    IntegrationError
        If the Hamiltonian is nonfinite anywhere on the grid; ``t`` is the
        start of the first step it spoils.
    ValueError
        If dt is not positive, from ``time_grid``.
    """
    times = time_grid(t_final, dt)
    factors = _magnus_factors(spec, times, dt)
    bad = ~reduce(np.logical_and, map(np.isfinite, factors))
    if bad.any():
        t = float(times[np.argmax(bad)])
        raise IntegrationError(f"nonfinite propagator step at t={t}", t=t)

    u = np.empty((2, 2, len(times)), dtype=complex)
    u[..., 0] = I2
    u[..., 1:] = _prefix_products(*factors)
    return UnitaryTrajectory(times=times, U=np.moveaxis(u, -1, 0))


def evolve_state(spec: HamiltonianSpec, psi0: np.ndarray, t_final: float, dt: float):
    """Evolve a state vector: psi(t_k) = U(t_k) psi0.

    Returns (times, psi) with psi of shape (len(times), 2); the norm is
    preserved within the propagator's unitarity tolerance.
    """
    traj = evolve_unitary(spec, t_final, dt)
    return traj.times, np.stack(apply_unitary(traj.U, psi0), axis=1)


def apply_unitary(u: np.ndarray, psi0) -> tuple[np.ndarray, np.ndarray]:
    """The two amplitudes of U psi0 for a (K, 2, 2) stack U, entrywise over the grid."""
    s0, s1 = np.asarray(psi0, dtype=complex).reshape(2)
    (u00, u01), (u10, u11) = np.moveaxis(u, 0, -1)
    return u00 * s0 + u01 * s1, u10 * s0 + u11 * s1

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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import I2, max_abs
from .errors import ContractError, IntegrationError
from .grid import time_grid
from .signals import HamiltonianSpec

_GAUSS = math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class UnitaryTrajectory:
    times: np.ndarray
    U: np.ndarray  # shape (len(times), 2, 2)


def exp2x2(a: np.ndarray) -> np.ndarray:
    """Closed-form exponential of a 2x2 complex matrix.

    Splits a = alpha*1 + m with tr m = 0; then exp(a) =
    e^alpha (cosh(mu) 1 + sinh(mu)/mu m) with mu^2 = -det m.  The
    sinh(mu)/mu factor switches to its series for |mu| < 1e-6.  Both cosh
    and sinh(mu)/mu are even, so the branch of mu is irrelevant.
    """
    a = np.asarray(a, dtype=complex)
    alpha = 0.5 * (a[0, 0] + a[1, 1])
    m = a - alpha * I2
    mu2 = m[0, 0] * m[0, 0] + m[0, 1] * m[1, 0]
    mu = cmath.sqrt(mu2)
    if abs(mu) < 1e-6:
        ch = 1.0 + mu2 / 2.0 + mu2 * mu2 / 24.0
        sh_over = 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0
    else:
        ch = cmath.cosh(mu)
        sh_over = cmath.sinh(mu) / mu
    return cmath.exp(alpha) * (ch * I2 + sh_over * m)


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


def evolve_unitary(spec: HamiltonianSpec, t_final: float,
                   cfg: PropagatorConfig = PropagatorConfig()) -> UnitaryTrajectory:
    """Integrate U(t) = T exp(-i int_0^t H) on the shared grid, U(0) = 1.

    Parameters
    ----------
    spec : HamiltonianSpec
        Oscillator coefficients; must be evaluable on [0, t_final].
    t_final : float
        End time, a positive integer multiple of cfg.dt.
    cfg : PropagatorConfig
        Step size.

    Returns
    -------
    UnitaryTrajectory
        U at every grid time; unitary to rounding.

    Raises
    ------
    IntegrationError
        If the Hamiltonian is nonfinite anywhere on the grid; ``t`` is the
        start of the first step it spoils.
    """
    dt = cfg.dt
    times = time_grid(t_final, dt)
    factors = _magnus_factors(spec, times, dt)
    bad = ~np.logical_and.reduce([np.isfinite(e) for e in factors])
    if bad.any():
        t = float(times[np.argmax(bad)])
        raise IntegrationError(f"nonfinite propagator step at t={t}", t=t)

    U = np.empty((len(times), 2, 2), dtype=complex)
    U[0] = I2
    U[1:] = np.moveaxis(_prefix_products(*factors), -1, 0)
    return UnitaryTrajectory(times=times, U=U)


def heisenberg_oracle(u: np.ndarray, x0: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Heisenberg transport U X0 U'; refuses visibly non-unitary U."""
    u = np.asarray(u, dtype=complex)
    if max_abs(u.conj().T @ u - I2) > tol:
        raise ContractError("heisenberg_oracle requires a unitary matrix")
    return u @ np.asarray(x0, dtype=complex) @ u.conj().T


def evolve_state(spec: HamiltonianSpec, psi0: np.ndarray, t_final: float,
                 cfg: PropagatorConfig = PropagatorConfig()):
    """Evolve a state vector: psi(t_k) = U(t_k) psi0.

    Returns (times, psi) with psi of shape (len(times), 2); the norm is
    preserved within the propagator's unitarity tolerance.
    """
    traj = evolve_unitary(spec, t_final, cfg)
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    psi = np.einsum("kij,j->ki", traj.U, psi0)
    return traj.times, psi

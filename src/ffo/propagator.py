"""Brute-force evolution-operator oracle.

Builds the time-ordered evolution operator on a fixed grid: one fourth-order
Magnus exponential per step on two Gauss nodes (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009), arXiv:0810.5488).  The trace part (g + omega/2) 1
of H only turns U by a phase, and the traceless rest generates SU(2), so
each step factor is e^{-i angle_k} times the SU(2) matrix of its
Cayley-Klein pair (alpha_k, beta_k).  The pairs are composed by a log-depth
prefix product, the angles by one cumulative sum, and
U = e^{-i theta} [[A, -conj B], [B, conj A]] is written once.  Each factor
is the exponential of an anti-Hermitian matrix, so U is unitary by
construction; its global error is O(dt^4).  It shares no time-stepping
algorithm with the RK4 integrators of the invariant machinery, which is
exactly what makes it a usable oracle for them.

CPU us per step, signal sampling included, medians of interleaved runs
over 8 random specs and the README spec (two runs under different machine
load), four complex entries per step -> Cayley-Klein pairs:

    2,001 points   0.39 -> 0.25   0.57 -> 0.37
    10,001 points  0.58 -> 0.36   0.41 -> 0.27
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .grid import GridSamples, Trajectory
from .signals import HamiltonianSpec

_GAUSS = math.sqrt(3.0) / 6.0


@dataclass
class UnitaryTrajectory(Trajectory):
    U: np.ndarray  # (len(times), 2, 2), a view of a grid-last array: each entry is contiguous


def _magnus_factors(spec: HamiltonianSpec, times: np.ndarray, dt: float):
    """Per-step factors as (alpha, beta, angle): exp(Omega_k) is
    e^{-i angle_k} [[alpha_k, -conj beta_k], [beta_k, conj alpha_k]].

    Omega_k = -i dt/2 (H1 + H2) - sqrt(3) dt^2/12 [H2, H1] with H1, H2 at
    t_k + (1/2 -+ sqrt(3)/6) dt, each signal sampled once on both node
    sets.  Writing the traceless part of H as n.sigma with
    n = (Re f, Im f, -omega/2), the commutator is 2i (n2 x n1).sigma, so
    Omega_k = -i dt (a 1 + v.sigma) with real a and v, and exp(Omega_k) =
    e^{-i dt a} (cos(dt|v|) 1 - i dt sinc v.sigma).  vc = v_x + i v_y and
    vz = v_z below; g enters as the mean 0.5 g1 + 0.5 g2, which cannot
    overflow where g1 and g2 do not.
    """
    n = len(times) - 1
    t = np.concatenate((times[:-1] + (0.5 - _GAUSS) * dt, times[:-1] + (0.5 + _GAUSS) * dt))
    w = np.asarray(spec.omega.value(t), dtype=float)
    f = np.asarray(spec.f.value(t), dtype=complex)
    g = np.asarray(spec.g.value(t), dtype=float)
    w1, w2, f1, f2 = w[:n], w[n:], f[:n], f[n:]
    kappa = _GAUSS * dt
    vc = 0.5 * (f1 + f2) + (0.5j * kappa) * (w1 * f2 - w2 * f1)
    vz = -0.25 * (w1 + w2) + kappa * (np.conj(f2) * f1).imag
    r = np.sqrt(vz * vz + np.abs(vc) ** 2)
    ds = dt * np.sinc(dt * r / np.pi)  # sin(dt r)/r, exact at r = 0
    alpha = np.cos(dt * r) - 1j * ds * vz
    beta = -1j * ds * vc
    angle = dt * (0.25 * (w1 + w2) + 0.5 * g[:n] + 0.5 * g[n:])
    return alpha, beta, angle


def _prefix_products(alpha: np.ndarray, beta: np.ndarray):
    """Inclusive prefix products P_k = E_k ... E_0 of SU(2) factors given as pairs.

    Returns the pairs (A, B) of the P_k.  Hillis-Steele scan (CACM 29(12),
    1986): after the pass with shift d, P_k is the product of the factors
    max(0, k - 2d + 1) .. k, the later factor on the left, by
    (a1, b1)(a2, b2) = (a1 a2 - conj(b1) b2, b1 a2 + conj(a1) b2); log2(K)
    passes, each writing into the pair of buffers it does not read, the
    inputs being one of the two pairs.
    """
    a, b = alpha, beta
    a_out, b_out, tmp = np.empty_like(a), np.empty_like(b), np.empty_like(a)
    d = 1
    while d < len(a):
        a1, b1, a2, b2 = a[d:], b[d:], a[:-d], b[:-d]
        t = tmp[:len(a1)]
        a_out[:d], b_out[:d] = a[:d], b[:d]
        np.multiply(a1, a2, out=a_out[d:])
        np.multiply(np.conj(b1, out=t), b2, out=t)
        a_out[d:] -= t
        np.multiply(b1, a2, out=b_out[d:])
        np.multiply(np.conj(a1, out=t), b2, out=t)
        b_out[d:] += t
        a, b, a_out, b_out = a_out, b_out, a, b
        d *= 2
    return a, b


def evolve_unitary(samples: GridSamples) -> UnitaryTrajectory:
    """Integrate U(t) = T exp(-i int_0^t H) on the grid of ``samples``, U(0) = 1.

    Reads only ``samples.spec``, ``.times`` and ``.dt``: omega, f and g are
    sampled on the Gauss nodes of each step here, so the oracle shares no
    samples and no time stepping with the integrators it checks.  U is
    unitary to rounding.  Raises IntegrationError if the Hamiltonian is
    nonfinite anywhere on the grid, or its running phase overflows; ``t``
    is the start of the first step it spoils.
    """
    times = samples.times
    alpha, beta, angle = _magnus_factors(samples.spec, times, samples.dt)
    with np.errstate(over="ignore"):  # an overflowing phase is reported below
        theta = np.cumsum(angle)
    bad = ~(np.isfinite(alpha) & np.isfinite(beta) & np.isfinite(theta))
    if bad.any():
        t = float(times[np.argmax(bad)])
        raise IntegrationError(f"nonfinite propagator step at t={t}", t=t)

    a, b = _prefix_products(alpha, beta)
    phase = np.exp(-1j * theta)
    u = np.empty((2, 2, len(times)), dtype=complex)
    u[..., 0] = np.eye(2)
    (u00, u01), (u10, u11) = u[..., 1:]
    np.multiply(phase, a, out=u00)
    np.multiply(phase, b, out=u10)
    np.multiply(np.conj(b, out=u01), -phase, out=u01)
    np.multiply(np.conj(a, out=u11), phase, out=u11)
    return UnitaryTrajectory(samples=samples, U=np.moveaxis(u, -1, 0))


def apply_unitary(u: np.ndarray, psi0) -> tuple[np.ndarray, np.ndarray]:
    """The two amplitudes of U psi0 for a (K, 2, 2) stack U, entrywise over the grid."""
    s0, s1 = np.asarray(psi0, dtype=complex).reshape(2)
    (u00, u01), (u10, u11) = np.moveaxis(u, 0, -1)
    return u00 * s0 + u01 * s1, u10 * s0 + u11 * s1

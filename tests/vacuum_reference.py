"""Test-side routes to the evolved vacuum, independent of ``ffo.states``.

``vacuum_trajectory`` returns the phased Lewis-Riesenfeld branch
exp(i phi0) e0.  The tests hold it against the paper's closed form keyed on
nu_minus,

    alpha0(t) = sqrt(nu_minus) exp[-(i/2) int_0^t (2g + omega)],
    alpha1(t) = alpha0(t) nu_3 / (2 nu_minus),

with the continuous branch of the square root, on the stretches where
|nu_minus| >= VACUUM_NU_MIN.  ``closed_form_deviation`` evaluates it on all
those points at once; ``vacuum_reference`` walks the grid point by point and
bridges each gap with Crank-Nicolson steps and null vectors of B.
"""

import numpy as np

from ffo.algebra import hamiltonian_matrix
from ffo.errors import ContractError
from ffo.grid import Samples, cumsimpson_grid

# |nu_minus| floor below which the closed form is not evaluated
VACUUM_NU_MIN = 1e-4


def cn_step(h_prev, h_now, psi, dt):
    """One Crank-Nicolson step (1 + i dt/2 H_now)^-1 (1 - i dt/2 H_prev) psi, H 2x2."""
    (p00, p01), (p10, p11) = h_prev
    (n00, n01), (n10, n11) = h_now
    b00, b01, b10, b11 = (1.0 - 0.5j * dt * p00, -0.5j * dt * p01,
                          -0.5j * dt * p10, 1.0 - 0.5j * dt * p11)
    a00, a01, a10, a11 = (1.0 + 0.5j * dt * n00, 0.5j * dt * n01,
                          0.5j * dt * n10, 1.0 + 0.5j * dt * n11)
    r0 = b00 * psi[0] + b01 * psi[1]
    r1 = b10 * psi[0] + b11 * psi[1]
    det = a00 * a11 - a01 * a10
    return np.array([(a11 * r0 - a01 * r1) / det, (a00 * r1 - a10 * r0) / det])


def null_direction(vm, vp, v3):
    """Unit null vector of B; picks the better-conditioned parametrization."""
    d1 = np.array([vm, 0.5 * v3], dtype=complex)
    d2 = np.array([-0.5 * v3, vp], dtype=complex)
    # (d2 is B-null only up to the lambda1 = 0 constraint, same as d1)
    d = d1 if np.linalg.norm(d1) >= np.linalg.norm(d2) else np.array([0.5 * v3, -vp], dtype=complex)
    n = np.linalg.norm(d)
    if n == 0.0:
        raise ContractError("B has no usable null direction (nu vanished)")
    return d / n


def vacuum_reference(traj, spec):
    """Point-by-point evolved vacuum: closed form, or a null vector of B below the floor.

    Returns (psi, mask), the mask marking the points below VACUUM_NU_MIN.
    Every point takes a Crank-Nicolson prediction from the previous one; the
    sqrt(nu_minus) branch is tracked point to point and restarts after a gap,
    whose end re-anchors the phase of all later closed-form points.
    """
    times, dt, n = traj.times, traj.dt, len(traj.times)
    q = cumsimpson_grid(2.0 * np.asarray(spec.g.value(times), dtype=float)
                        + np.asarray(spec.omega.value(times), dtype=float), dt)
    h = hamiltonian_matrix(Samples(spec, times))
    psi = np.empty((n, 2), dtype=complex)
    mask = np.zeros(n, dtype=bool)
    s_prev = None
    phase_off = 1.0 + 0j
    for k in range(n):
        vm, vp, v3 = traj.nu[k]
        pred = None
        if k > 0:
            pred = cn_step(h[k - 1], h[k], psi[k - 1], dt)
        if abs(vm) >= VACUUM_NU_MIN:
            s = complex(np.sqrt(vm))
            if s_prev is not None and abs(s - s_prev) > abs(s + s_prev):
                s = -s
            a0 = s * np.exp(-0.5j * q[k])
            v = np.array([a0, a0 * v3 / (2.0 * vm)], dtype=complex)
            v /= np.linalg.norm(v)
            if s_prev is None and pred is not None:
                ov = np.vdot(v, pred)
                phase_off = ov / abs(ov) if abs(ov) > 0 else 1.0 + 0j
            psi[k] = v * phase_off
            s_prev = s
        else:
            d = null_direction(vm, vp, v3)
            if pred is None:
                j = int(np.argmax(np.abs(d)))
                d = d * np.exp(-1j * np.angle(d[j]))
            else:
                ov = np.vdot(d, pred)
                if abs(ov) > 0:
                    d = d * ov / abs(ov)
            psi[k] = d
            mask[k] = True
            s_prev = None
            phase_off = 1.0 + 0j
    return psi, mask


def closed_form_deviation(traj, samples, psi) -> float:
    """Max |psi - z closed form| over the points with |nu_minus| >= VACUUM_NU_MIN.

    The closed form is evaluated on all those points at once, the branch of
    sqrt(nu_minus) from the unwound phase of nu_minus.  Each stretch (run of
    consecutive such points) takes its own constant phase z from its first
    point, so a branch flip across a gap costs nothing; within a stretch
    the two routes must agree.
    """
    vm, v3 = traj.nu[:, 0], traj.nu[:, 2]
    ok = np.flatnonzero(np.abs(vm) >= VACUUM_NU_MIN)
    stretch = np.concatenate(([0], np.cumsum(np.diff(ok) > 1)))
    q = cumsimpson_grid(2.0 * samples.g + samples.omega, traj.dt)[ok]
    a0 = np.sqrt(np.abs(vm[ok])) * np.exp(0.5j * (np.unwrap(np.angle(vm[ok])) - q))
    closed = np.column_stack((a0, a0 * v3[ok] / (2.0 * vm[ok])))
    closed /= np.linalg.norm(closed, axis=1)[:, None]
    first = np.flatnonzero(np.diff(stretch, prepend=-1))
    z = np.sum(np.conj(closed[first]) * psi[ok[first]], axis=1)
    z = (z / np.abs(z))[stretch]
    return float(np.max(np.abs(psi[ok] - z[:, None] * closed)))

"""Time-evolved vacuum, coherent states, coherence theorem and phases.

The evolved vacuum |0;t> is pinned down by two requirements at once:
B(t)|0;t> = 0 and the Schrodinger equation.  On the ladder-calibrated
family (lambda1 = 0, lambda2 = 1) the closed form keyed on nu_minus is

    alpha0(t) = sqrt(|nu_minus|) exp[(i/2)(phi_minus - int_0^t (2g + omega))],
    alpha1(t) = alpha0(t) nu_3 / (2 nu_minus),

with phi_minus the continuously unwound phase of nu_minus(t) (so
sqrt(|nu_minus|) e^{i phi_minus/2} is just the continuous complex square
root of nu_minus).  The mirror pair keyed on nu_plus with the opposite
phase sign solves the same two equations for the B'(t)-null partner state,
i.e. the evolved top state.  Where nu_minus pinches off, a null-space
fallback with phase continuity and one implicit Schrodinger step takes
over; both constructions are cross-validated on their common domain.
Functions over a grid read omega, f and g from its ``grid.Samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import hamiltonian_matrix
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ContractError
from .grassmann import GrassmannElement, GrassmannKet, GrassmannOperator
from .grid import Samples, cumsimpson_grid, cumtrapz_grid
from .invariants import NuTrajectory, build_B_array, build_B_dagger, nu_generator
# evolve_unitary is not called here, but perfbench/layers.py wraps it by this name
from .propagator import UnitaryTrajectory, evolve_unitary


# -- vacuum construction ------------------------------------------------------

def _cn_step(h_prev, h_now, psi, dt):
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


def _null_direction(vm, vp, v3):
    """Unit null vector of B; picks the better-conditioned parametrization."""
    d1 = np.array([vm, 0.5 * v3], dtype=complex)
    d2 = np.array([-0.5 * v3, vp], dtype=complex)
    # (d2 is B-null only up to the lambda1 = 0 constraint, same as d1)
    d = d1 if np.linalg.norm(d1) >= np.linalg.norm(d2) else np.array([0.5 * v3, -vp], dtype=complex)
    n = np.linalg.norm(d)
    if n == 0.0:
        raise ContractError("B has no usable null direction (nu vanished)")
    return d / n


def vacuum_trajectory(traj: NuTrajectory, samples: Samples,
                      tol: ToleranceConfig = DEFAULT_TOL):
    """Evolved vacuum on the whole grid.

    Returns (psi, fallback_mask) with psi of shape (len(times), 2), unit
    norm at every grid point.  The mask is |nu_minus| < tol.vacuum_nu_min;
    it cuts the grid into stretches of closed-form points between gaps.

    The closed form is evaluated on all unmasked points at once.  The
    branch of sqrt(nu_minus) is kept continuous by a cumulative product of
    sign flips (a flip wherever the principal root jumps closer to minus
    the previous root than to it), restarted at the first point of every
    stretch.  Only the gap points and the first point after each gap are
    then visited one by one: a gap point steps the previous state with
    Crank-Nicolson and projects it onto the instantaneous null direction
    of B; a re-entry point takes the phase of that same prediction and
    carries it over its whole stretch.
    """
    samples.check_grid(traj.times)
    times, dt = traj.times, traj.dt
    vm, vp, v3 = traj.nu[:, 0], traj.nu[:, 1], traj.nu[:, 2]
    mask = np.abs(vm) < tol.vacuum_nu_min
    ok = np.flatnonzero(~mask)
    start = np.ones(len(ok), dtype=bool)
    start[1:] = np.diff(ok) > 1

    s = np.sqrt(vm[ok])
    away, toward = np.abs(s[1:] - s[:-1]), np.abs(s[1:] + s[:-1])
    flips = np.zeros(len(ok), dtype=np.int64)
    flips[1:] = away > toward
    # the principal root is kept at a stretch start and on an exact tie
    reset = start.copy()
    reset[1:] |= away == toward
    flips[reset] = 0
    parity = np.cumsum(flips)
    parity -= np.maximum.accumulate(np.where(reset, parity, 0))
    q = cumsimpson_grid(2.0 * samples.g + samples.omega, dt)
    a0 = np.where(parity % 2 == 1, -s, s) * np.exp(-0.5j * q[ok])
    a1 = a0 * v3[ok] / (2.0 * vm[ok])
    norm = np.sqrt(np.abs(a0) ** 2 + np.abs(a1) ** 2)
    psi = np.empty((len(times), 2), dtype=complex)
    psi[ok, 0] = a0 / norm
    psi[ok, 1] = a1 / norm
    if not mask.any():
        return psi, mask

    h = hamiltonian_matrix(samples)
    gaps = np.flatnonzero(mask)
    reentries = ok[start]
    for k in np.union1d(gaps, reentries[reentries > 0]).tolist():
        pred = None
        if k > 0:
            pred = _cn_step(h[k - 1], h[k], psi[k - 1], dt)
        if not mask[k]:
            # re-entry after a gap: re-anchor the phase of the whole stretch
            nxt = np.searchsorted(gaps, k)
            end = gaps[nxt] if nxt < len(gaps) else len(times)
            ov = np.vdot(psi[k], pred)
            if abs(ov) > 0:
                psi[k:end] *= ov / abs(ov)
            continue
        d = _null_direction(vm[k], vp[k], v3[k])
        if pred is None:
            # fix the free phase by making the largest component real
            j = int(np.argmax(np.abs(d)))
            d = d * np.exp(-1j * np.angle(d[j]))
        else:
            ov = np.vdot(d, pred)
            if abs(ov) > 0:
                d = d * ov / abs(ov)
        psi[k] = d
    return psi, mask


def schrodinger_residual_max(samples: Samples, psi: np.ndarray) -> float:
    """Max central-difference residual of i d psi/dt = H psi over interior points."""
    if len(psi) != len(samples.times):
        raise ContractError("psi and the samples are on different time grids")
    dt = float(samples.times[1] - samples.times[0])
    (h00, h01), (h10, h11) = np.moveaxis(hamiltonian_matrix(samples)[1:-1], 0, -1)
    dpsi = (psi[2:] - psi[:-2]) / (2.0 * dt)
    hpsi = np.empty_like(dpsi)
    hpsi[:, 0] = h00 * psi[1:-1, 0] + h01 * psi[1:-1, 1]
    hpsi[:, 1] = h10 * psi[1:-1, 0] + h11 * psi[1:-1, 1]
    return float(np.max(np.abs(dpsi + 1j * hpsi)))


# -- coherent states ----------------------------------------------------------

def coherent_state(zeta_scale: complex, psi, nu) -> GrassmannKet:
    """|zeta;t> = exp(-|s|^2 zeta*zeta/2) (|0;t> - s zeta B'(t)|0;t>).

    ``psi`` is the vacuum |0;t> as a 2-vector (one row of
    ``vacuum_trajectory``) and ``nu`` the coefficients (3,) at the same
    time.  ``zeta_scale`` multiplies the symbolic generator, so the state is
    the eigenstate of B(t) with eigenvalue zeta_scale * zeta.
    """
    s = complex(zeta_scale)
    v = np.asarray(psi, dtype=complex)
    w = build_B_dagger(nu) @ v
    half = 0.5 * (s.conjugate() * s)
    a0 = GrassmannElement([v[0], -s * w[0], 0.0, -half * v[0]])
    a1 = GrassmannElement([v[1], -s * w[1], 0.0, -half * v[1]])
    return GrassmannKet(a0, a1)


def cs_eigen_residual(nu, psi, zeta_scale: complex = 1.0) -> float:
    """Max-abs coefficient of B|zeta;t> - (s zeta)|zeta;t> in the algebra."""
    ket = coherent_state(zeta_scale, psi, nu)
    lhs = GrassmannOperator(build_B_array(nu)).apply(ket)
    rhs = ket.left_mul(GrassmannElement([0.0, complex(zeta_scale), 0.0, 0.0]))
    return (lhs - rhs).max_abs()


# -- temporal stability of the canonical CS -----------------------------------

@dataclass
class CoherenceReport:
    """Trajectory-level record of the coherence measurement.

    beta is the invariant-coefficient solution exp(+i int omega);
    zeta_ratio is the measured eigenvalue ratio of b on the evolved CS
    (meaningful where the eigen-relation holds); eigen_residual is the
    max-abs coefficient of the part of b|zeta;t> orthogonal to the
    eigen-relation.
    """

    times: np.ndarray
    beta: np.ndarray
    zeta_ratio: np.ndarray
    eigen_residual: np.ndarray


def coherence_check(samples: Samples, unitary: UnitaryTrajectory) -> CoherenceReport:
    """Evolve the canonical CS through U(t) and measure b-eigenstate-ness.

    The CS is assembled Grassmann-symbolically from the evolved |0> and |1>
    branches; with u_ij = <i|U|j> the eigen-relation requires u10 = 0 and
    then zeta(t)/zeta = u11/u00.  The residual collects the coefficients
    that violate it (all proportional to u10 once the ratio is fitted).
    """
    samples.check_grid(unitary.times)
    times, U = unitary.times, unitary.U
    u00, u01 = U[:, 0, 0], U[:, 0, 1]
    u10, u11 = U[:, 1, 0], U[:, 1, 1]
    safe = np.abs(u00) > 1e-12
    ratio = np.where(safe, u11 / np.where(safe, u00, 1.0), 0.0)
    # residual ket coefficients: u10 (|0>, scalar), -u10/2 (|0>, zeta*zeta),
    # (u11 - c u00) (|0>, zeta) and -c u10 (|1>, zeta)
    fit_gap = np.abs(u11 - ratio * u00)
    residual = np.maximum.reduce([np.abs(u10), 0.5 * np.abs(u10),
                                  np.abs(ratio * u10), fit_gap])
    dt = float(times[1] - times[0])
    beta = np.exp(1j * cumsimpson_grid(samples.omega, dt))
    return CoherenceReport(times=times, beta=beta, zeta_ratio=ratio,
                           eigen_residual=residual)


# -- Lewis-Riesenfeld frame and phases ------------------------------------------

class PhaseRecord(NamedTuple):
    phi0: float
    phi1: float
    phi_geometric: float
    phi_dynamical: float

    @property
    def phi(self) -> float:
        return self.phi1 - self.phi0


@dataclass
class LRFrame:
    """Gauge-fixed eigenvectors of the Hermitian invariant on the grid.

    e0 spans the B-null (eigenvalue -1/2) branch, e1 the B'-null
    (eigenvalue +1/2) branch.  The gauge is declared: the phase of the
    key coefficient (nu_plus or nu_minus, whichever stays farther from
    zero on the grid) is continuously unwound and divided out so the keyed
    component of each eigenvector is real positive.
    """

    times: np.ndarray
    e0: np.ndarray  # (K, 2)
    e1: np.ndarray  # (K, 2)
    key: str        # "plus" or "minus"


def off_ladder_shell(lambda1, lambda2) -> bool:
    """Whether |lambda1| exceeds 1e-6 max(1, lambda2) anywhere: B is no ladder operator."""
    return float(np.max(np.abs(lambda1))) > 1e-6 * max(1.0, float(np.max(lambda2)))


def lr_frame(traj: NuTrajectory, tol: ToleranceConfig = DEFAULT_TOL) -> LRFrame:
    vm, vp, v3 = traj.nu[:, 0], traj.nu[:, 1], traj.nu[:, 2]
    if off_ladder_shell(traj.lambda1, traj.lambda2):
        raise ContractError("lr_frame requires a ladder-calibrated trajectory (lambda1 = 0)")
    min_plus = float(np.min(np.abs(vp)))
    min_minus = float(np.min(np.abs(vm)))
    key = "plus" if min_plus >= min_minus else "minus"
    if max(min_plus, min_minus) < tol.gauge_min:
        raise ContractError("eigenframe gauge degenerate: nu_plus and nu_minus both vanish")
    if key == "plus":
        chi = np.unwrap(np.angle(vp))
        ph = np.exp(1j * chi)
        root = np.sqrt(np.abs(vp))
        e1 = np.stack([np.conj(vp) * ph, 0.5 * np.conj(v3) * ph], axis=1) / root[:, None]
        e0 = np.stack([-0.5 * v3 / ph, vp / ph], axis=1) / root[:, None]
    else:
        chi = np.unwrap(np.angle(vm))
        ph = np.exp(1j * chi)
        root = np.sqrt(np.abs(vm))
        e0 = np.stack([vm / ph, 0.5 * v3 / ph], axis=1) / root[:, None]
        e1 = np.stack([-0.5 * np.conj(v3) * ph, np.conj(vm) * ph], axis=1) / root[:, None]
    e0 /= np.linalg.norm(e0, axis=1)[:, None]
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return LRFrame(times=traj.times, e0=e0, e1=e1, key=key)


def _grid_derivative(arr: np.ndarray, dt: float) -> np.ndarray:
    """Central differences, second-order one-sided at the ends."""
    d = np.empty_like(arr)
    d[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * dt)
    d[-1] = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * dt)
    return d


@dataclass
class PhaseTrajectory:
    times: np.ndarray
    phi0: np.ndarray
    phi1: np.ndarray
    phi_geometric: np.ndarray
    phi_dynamical: np.ndarray
    consistency_residual: float
    frame: LRFrame

    def record_at(self, k: int) -> PhaseRecord:
        return PhaseRecord(float(self.phi0[k]), float(self.phi1[k]),
                           float(self.phi_geometric[k]), float(self.phi_dynamical[k]))


def _frame_connections(traj: NuTrajectory, samples: Samples, frame: LRFrame):
    """Analytic Berry connections Im<e_n|d e_n> of the gauge-fixed frame.

    The frame vectors are closed forms in nu, so their derivatives follow
    from the coefficient system's right-hand side; no finite differencing
    is involved.  Returns (a0, a1) with a_n = Im<e_n|e_n'> as real arrays.
    """
    vm, vp, v3 = traj.nu[:, 0], traj.nu[:, 1], traj.nu[:, 2]
    vmd, vpd, v3d = np.einsum("kij,kj->ik", nu_generator(samples), traj.nu)
    if frame.key == "plus":
        chid = np.imag(vpd / vp)
        r2 = 0.25 * np.abs(v3) ** 2 + np.abs(vp) ** 2
        core = np.imag(np.conj(vp) * vpd + 0.25 * np.conj(v3) * v3d)
        a0 = (core - chid * r2) / r2
        a1 = (-core + chid * r2) / r2
    else:
        chid = np.imag(vmd / vm)
        r2 = np.abs(vm) ** 2 + 0.25 * np.abs(v3) ** 2
        core = np.imag(np.conj(vm) * vmd + 0.25 * np.conj(v3) * v3d)
        a0 = (core - chid * r2) / r2
        a1 = (-core + chid * r2) / r2
    return a0, a1


def _h_expectations(samples: Samples, e0: np.ndarray, e1: np.ndarray):
    (h00, h01), (h10, h11) = np.moveaxis(hamiltonian_matrix(samples), 0, -1)

    def h_exp(e):
        he0 = h00 * e[:, 0] + h01 * e[:, 1]
        he1 = h10 * e[:, 0] + h11 * e[:, 1]
        return np.real(np.conj(e[:, 0]) * he0 + np.conj(e[:, 1]) * he1)

    return h_exp(e0), h_exp(e1)


def lr_phases(traj: NuTrajectory, samples: Samples,
              tol: ToleranceConfig = DEFAULT_TOL) -> PhaseTrajectory:
    """Lewis-Riesenfeld phases phi_n and the geometric/dynamical split.

    phi_n(t) = int_0^t <n~|(i d_tau - H)|n~> with the connection part
    evaluated analytically from the coefficient system's right-hand side
    (finite differences of a fast-rotating gauge would poison the phased
    states near pinches of the key coefficient) and integrated by
    cumulative Simpson.  The geometric phase keeps the declared
    central-difference/trapezoid recipe; its two-route identity is checked
    on those same samples and reported as ``consistency_residual``.
    """
    samples.check_grid(traj.times)
    frame = lr_frame(traj, tol)
    dt = traj.dt
    a0, a1 = _frame_connections(traj, samples, frame)
    en0, en1 = _h_expectations(samples, frame.e0, frame.e1)
    phi0 = cumsimpson_grid(-a0 - en0, dt)
    phi1 = cumsimpson_grid(-a1 - en1, dt)
    phi = phi1 - phi0

    # geometric phase: central differences + trapezoid (declared recipe)
    de0 = _grid_derivative(frame.e0, dt)
    de1 = _grid_derivative(frame.e1, dt)
    z0 = np.sum(np.conj(frame.e0) * de0, axis=1)
    z1 = np.sum(np.conj(frame.e1) * de1, axis=1)
    phi_g = cumtrapz_grid(-np.imag(z1 - z0), dt)
    # second route: phi plus the energy-gap integral must reproduce phi_g
    phi_g_alt = phi + cumtrapz_grid(en1 - en0, dt)
    consistency = float(np.max(np.abs(phi_g - phi_g_alt)))

    phi_d = phi - phi_g
    return PhaseTrajectory(times=traj.times, phi0=phi0, phi1=phi1,
                           phi_geometric=phi_g, phi_dynamical=phi_d,
                           consistency_residual=consistency, frame=frame)


def lr_ladder_fit(phases: PhaseTrajectory, traj: NuTrajectory):
    """Fit the single phase in B~(t) = exp(i theta(t)) B(t).

    B~ = |0~><1~| from the gauge-fixed frame, B from the nu coefficients
    (normalized by sqrt(lambda2)).  Returns (theta, max fit residual);
    theta(t) - theta(0) tracks phi(t) - phi(0) = (phi1 - phi0)(t) up to
    quadrature accuracy.
    """
    frame = phases.frame
    b_tilde = frame.e0[:, :, None] * np.conj(frame.e1)[:, None, :]
    b_nu = build_B_array(traj.nu) / np.sqrt(traj.lambda2)[:, None, None]
    inner = np.sum(np.conj(b_nu) * b_tilde, axis=(1, 2))
    theta = np.angle(inner)
    fit = b_tilde - np.exp(1j * theta)[:, None, None] * b_nu
    return np.unwrap(theta), float(np.max(np.abs(fit)))

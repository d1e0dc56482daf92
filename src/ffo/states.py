"""Time-evolved vacuum, coherent states, coherence theorem and phases.

The trace part (g + omega/2) 1 of H only turns every state by exp(-i theta),
theta = int_0^t (g + omega/2), so states and phases here are those of the
traceless H0 = H - (g + omega/2) 1, and theta is one ``PhaseTrajectory``
field.  On the ladder shell (lambda1 = 0) ker B is one-dimensional, so H0's
evolved vacuum, B(t)|0;t> = 0 and a Schrodinger solution at once, is the
Lewis-Riesenfeld eigenstate e0 of the patched frame carrying its phase phi0,
exp(i phi0) e0; e1 carrying -phi0 is the evolved top state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .grassmann import ZETA, GrassmannElement, graded_apply
from .grid import GridSamples, Samples, abs2, cumsimpson_grid
from .invariants import NuTrajectory, _nu_dot, build_B_array, build_B_dagger
# evolve_unitary is not called here, but perfbench/layers.py wraps it by this name
from .propagator import UnitaryTrajectory, evolve_unitary


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_k|b_k> for each row k of two (K, 2) stacks."""
    return np.conj(a[:, 0]) * b[:, 0] + np.conj(a[:, 1]) * b[:, 1]


# -- vacuum construction ------------------------------------------------------

def vacuum_trajectory(phases: PhaseTrajectory):
    """H0's evolved vacuum exp(i phi0) e0 of ``lr_phases`` on the whole grid.

    The physical vacuum is exp(-i theta) times it (``PhaseTrajectory.theta``).
    Returns (psi, mask) with psi of shape (len(times), 2), unit norm at
    every grid point.  The mask is all False; it stays only because
    perfbench/layers.py reads it as result[1].
    """
    psi = np.exp(1j * phases.phi0)[:, None] * phases.frame.e0
    return psi, np.zeros(len(psi), dtype=bool)


def schrodinger_residual_max(samples: GridSamples, psi: np.ndarray) -> float:
    """Max central-difference residual of i d psi/dt = H0 psi over interior points.

    H0 = H - (g + omega/2) 1 is the traceless part of H and ``psi`` one of
    its states (K, 2), such as ``vacuum_trajectory``'s; g is not read, so
    no size of g reaches the difference quotient.
    """
    if len(psi) != len(samples.times):
        raise ContractError("psi and the samples are on different time grids")
    dt, w, f = samples.dt, 0.5 * samples.omega[1:-1], samples.f[1:-1]
    p0, p1 = psi[:, 0], psi[:, 1]
    c0, c1 = p0[1:-1], p1[1:-1]
    r0 = np.abs((p0[2:] - p0[:-2]) / (2.0 * dt) + 1j * (np.conj(f) * c1 - w * c0))
    r1 = np.abs((p1[2:] - p1[:-2]) / (2.0 * dt) + 1j * (f * c0 + w * c1))
    return float(np.max(np.maximum(r0, r1)))  # a nan residual stays nan


# -- coherent states ----------------------------------------------------------

def coherent_state(zeta_scale: complex, psi, nu) -> GrassmannElement:
    """|zeta;t> = exp(-|s|^2 zeta*zeta/2) (|0;t> - s zeta B'(t)|0;t>), a (2, 4) ket.

    ``psi`` is the vacuum |0;t> as a 2-vector (one row of
    ``vacuum_trajectory``) and ``nu`` the coefficients (3,) at the same
    time, or stacks (K, 2) and (K, 3) of them for K kets (K, 2, 4).
    ``zeta_scale`` multiplies the symbolic generator, so the state is the
    eigenstate of B(t) with eigenvalue zeta_scale * zeta.
    """
    s = complex(zeta_scale)
    v = np.asarray(psi, dtype=complex)
    bd = build_B_dagger(nu)
    # B'|0;t> entrywise, each entry one grid column
    w = np.stack([bd[..., i, 0] * v[..., 0] + bd[..., i, 1] * v[..., 1] for i in (0, 1)], axis=-1)
    half = 0.5 * (s.conjugate() * s)
    return GrassmannElement(np.stack([v, -s * w, np.zeros_like(v), -half * v], axis=-1))


def cs_eigen_residual(nu, psi, zeta_scale: complex = 1.0) -> float:
    """Max-abs coefficient of B|zeta;t> - (s zeta)|zeta;t> in the algebra.

    ``nu`` and ``psi`` are one point or stacks, as for ``coherent_state``;
    a stack gives the max over all its points.
    """
    ket = coherent_state(zeta_scale, psi, nu)
    lhs = graded_apply(build_B_array(nu), ket)
    return (lhs - (complex(zeta_scale) * ZETA) * ket).max_abs()


# -- temporal stability of the canonical CS -----------------------------------

@dataclass
class CoherenceReport:
    """Trajectory-level record of the coherence measurement.

    beta is the invariant-coefficient solution exp(+i int omega);
    zeta_ratio is the measured eigenvalue ratio of b on the evolved CS
    (meaningful where the eigen-relation holds); eigen_residual is |u10|,
    read from U, the largest coefficient of the part of b|zeta;t> that
    violates the eigen-relation.
    """

    beta: np.ndarray
    zeta_ratio: np.ndarray
    eigen_residual: np.ndarray


def coherence_check(unitary: UnitaryTrajectory) -> CoherenceReport:
    """Measure how far the canonical CS evolved through U(t) is from a b-eigenstate.

    With u_ij = <i|U|j> the eigen-relation requires u10 = 0 and then
    zeta(t)/zeta = u11/u00.  The residual is the largest coefficient that
    violates it, |u10|, read from U; no Grassmann element is built.
    """
    u00, u10, u11 = unitary.U[:, 0, 0], unitary.U[:, 1, 0], unitary.U[:, 1, 1]
    safe = np.abs(u00) > 1e-12
    ratio = np.where(safe, u11 / np.where(safe, u00, 1.0), 0.0)
    # residual ket coefficients: u10 (|0>, scalar), -u10/2 (|0>, zeta*zeta),
    # u11 - ratio u00 (|0>, zeta) and -ratio u10 (|1>, zeta); |u11| = |u00| for
    # U = e^{-i theta} [[A, -conj B], [B, conj A]], so |ratio| <= 1 and the fit
    # gap is rounding, or |u11| <= 1e-12 < |u10| where u00 is not safe
    beta = np.exp(1j * cumsimpson_grid(unitary.samples.omega, unitary.samples.dt))
    return CoherenceReport(beta=beta, zeta_ratio=ratio, eigen_residual=np.abs(u10))


# -- Lewis-Riesenfeld frame and phases ------------------------------------------

@dataclass
class LRFrame:
    """Eigenvectors of the Hermitian invariant on the grid in one continuous gauge.

    e0 spans the B-null (eigenvalue -1/2) branch and e1 = (-conj e0_1,
    conj e0_0) the B'-null (+1/2) one.  Each point is keyed on the larger
    of |nu_minus| and |nu_plus|, never below sqrt(lambda2)/2 on the ladder
    shell: e0 is (1, r)/|(1, r)|, r = nu_3/(2 nu_minus), or (-r, 1)/|(-r, 1)|,
    r = nu_3/(2 nu_plus).  At each switch of the key the new patch takes the
    transition phase that makes e0 continuous there, from the overlap of the
    two keyed vectors at the switch node (a Wu-Yang patching).
    """

    e0: np.ndarray        # (K, 2)
    e1: np.ndarray        # (K, 2)
    plus: np.ndarray      # (K,) bool, the points keyed on nu_plus
    switches: np.ndarray  # grid indices whose key differs from the previous point's


def off_ladder_shell(lambda1, lambda2) -> bool:
    """Whether |lambda1| exceeds 1e-6 max(1, lambda2) anywhere: B is no ladder operator."""
    return float(np.max(np.abs(lambda1))) > 1e-6 * max(1.0, float(np.max(lambda2)))


def _keyed_e0(nu: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Unit B-null vectors (1, r) or (-r, 1), r = nu_3 / (2 key), keyed as ``plus`` says."""
    r = 0.5 * nu[:, 2] / np.where(plus, nu[:, 1], nu[:, 0])
    norm = np.sqrt(1.0 + abs2(r))
    e0 = np.empty((len(r), 2), dtype=complex)
    e0[:, 0] = np.where(plus, -r, 1.0) / norm
    e0[:, 1] = np.where(plus, 1.0, r) / norm
    return e0


def lr_frame(traj: NuTrajectory) -> LRFrame:
    """The patched Lewis-Riesenfeld frame of a ladder-calibrated trajectory (``LRFrame``).

    Raises ContractError off the ladder shell and where nu vanishes.
    """
    if off_ladder_shell(traj.lambda1, traj.lambda2):
        raise ContractError("lr_frame requires a ladder-calibrated trajectory (lambda1 = 0)")
    abs_minus, abs_plus = np.abs(traj.nu[:, 0]), np.abs(traj.nu[:, 1])
    if not np.all(np.maximum(abs_minus, abs_plus) > 0):
        raise ContractError("eigenframe undefined: nu_plus and nu_minus both vanish")
    plus = abs_plus > abs_minus
    sw = np.flatnonzero(np.diff(plus)) + 1
    e0 = _keyed_e0(traj.nu, plus)
    z = _overlap(e0[sw], _keyed_e0(traj.nu[sw], ~plus[sw]))
    patch_phase = np.cumprod(np.concatenate(([1.0], z / np.abs(z))))
    e0 *= np.repeat(patch_phase, np.diff(np.concatenate(([0], sw, [len(plus)]))))[:, None]
    e1 = np.stack((-np.conj(e0[:, 1]), np.conj(e0[:, 0])), axis=1)
    return LRFrame(e0=e0, e1=e1, plus=plus, switches=sw)


@dataclass
class PhaseTrajectory:
    """H0's phases (e0 carries phi0, e1 -phi0); H's are those minus theta."""

    phi0: np.ndarray
    theta: np.ndarray
    phi_geometric: np.ndarray
    phi_dynamical: np.ndarray
    consistency_residual: float
    frame: LRFrame


def _connection(nu: np.ndarray, nu_dot: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Analytic Berry connection a0 = Im<e0|e0'> of the keyed vectors of ``_keyed_e0``.

    With r = nu_3/(2x) for the key x, a0 = Im(conj(r) r')/(1 + |r|^2), and
    r' comes from nu' (``nu_dot``, the coefficient system's right-hand
    side), so no finite differencing is involved.  A transition phase is
    constant on its patch and adds nothing; e1's connection is -a0.
    """
    x = np.where(plus, nu[:, 1], nu[:, 0])
    xd = np.where(plus, nu_dot[:, 1], nu_dot[:, 0])
    r = 0.5 * nu[:, 2] / x
    rd = (0.5 * nu_dot[:, 2] - r * xd) / x
    return np.imag(np.conj(r) * rd) / (1.0 + abs2(r))


def _energy(samples: Samples, e: np.ndarray) -> np.ndarray:
    """<e|H0|e> = omega (|e_1|^2 - 1/2) + 2 Re(f e_0 conj(e_1)) per point, e unit (K, 2)."""
    cross = np.real(samples.f * e[:, 0] * np.conj(e[:, 1]))
    return samples.omega * (abs2(e[:, 1]) - 0.5) + 2.0 * cross


def lr_phases(traj: NuTrajectory) -> PhaseTrajectory:
    """Lewis-Riesenfeld phases of H0 and the geometric/dynamical split.

    phi_n(t) = int_0^t <n~|(i d_tau - H0)|n~> in the patched frame of
    ``lr_frame``.  phi0's connection part is analytic, from the coefficient
    system's right-hand side, and cumulative Simpson integrates it one patch
    at a time: it restarts at each switch node, where the connection jumps
    by the rate of the transition function, and closes the patch before on
    that patch's own connection there.  e1 has connection -a0 and, H0 being
    traceless, energy -<e0|H0|e0>, so phi1 = -phi0 and phi = phi1 - phi0 =
    -2 phi0.  The geometric phase is Pancharatnam's overlap sum
    -sum_k arg<e_k|e_{k+1}> of e1 minus that of e0, from the frame vectors
    alone; phi plus the energy-gap integral must reproduce it, to
    ``consistency_residual``.  g enters theta = int_0^t (g + omega/2) alone.
    """
    samples, frame = traj.samples, lr_frame(traj)
    dt, sw = samples.dt, frame.switches
    nu_dot = np.column_stack(_nu_dot(samples, traj.nu))
    a0 = _connection(traj.nu, nu_dot, frame.plus)
    a0_end = _connection(traj.nu[sw], nu_dot[sw], ~frame.plus[sw])
    en0 = _energy(samples, frame.e0)
    y, y_end = -a0 - en0, -a0_end - en0[sw]
    phi0 = np.zeros(len(y))
    bounds = np.concatenate(([0], sw, [len(y) - 1]))
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        seg = y[a:b + 1] if j == len(sw) else np.append(y[a:b], y_end[j])
        phi0[a:b + 1] = phi0[a] + cumsimpson_grid(seg, dt)
    phi = -2.0 * phi0

    # e1 = (-conj e0_1, conj e0_0) makes each overlap of e1 the conjugate of e0's
    phi_g = np.zeros(len(phi))
    phi_g[1:] = 2.0 * np.cumsum(np.angle(_overlap(frame.e0[:-1], frame.e0[1:])))
    phi_g_alt = phi - 2.0 * cumsimpson_grid(en0, dt)
    consistency = float(np.max(np.abs(phi_g - phi_g_alt)))

    theta = cumsimpson_grid(samples.g + 0.5 * samples.omega, dt)
    return PhaseTrajectory(phi0=phi0, theta=theta,
                           phi_geometric=phi_g, phi_dynamical=phi - phi_g,
                           consistency_residual=consistency, frame=frame)


def lr_ladder_fit(phases: PhaseTrajectory, traj: NuTrajectory):
    """Fit the single phase in B~(t) = exp(i chi(t)) B(t).

    B~ = |0~><1~| from the gauge-fixed frame, B from the nu coefficients
    (normalized by sqrt(lambda2)).  Returns (chi, max fit residual);
    chi(t) - chi(0) tracks phi(t) - phi(0) = -2 phi0(t) up to
    quadrature accuracy.
    """
    frame = phases.frame
    b_tilde = frame.e0[:, :, None] * np.conj(frame.e1)[:, None, :]
    b_nu = build_B_array(traj.nu) / np.sqrt(traj.lambda2)[:, None, None]
    inner = np.sum(np.conj(b_nu) * b_tilde, axis=(1, 2))
    chi = np.angle(inner)
    fit = b_tilde - np.exp(1j * chi)[:, None, None] * b_nu
    return np.unwrap(chi), float(np.max(np.abs(fit)))

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffo.algebra import hamiltonian_matrix, ladder_operators, max_abs
from ffo.config import DEFAULT_TOL
from ffo.errors import ContractError
from ffo.grassmann import GrassmannOperator
from ffo.grid import GridSamples, Samples, cumsimpson_grid, cumtrapz_grid
from ffo.invariants import (NuTrajectory, build_B_array, build_B_dagger, integrate_nu,
                            invariance_residual_max)
from ffo.propagator import PropagatorConfig, evolve_unitary
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Polynomial,
                         Sinusoid, constant_spec)
from ffo.states import (_cn_step, _null_direction, coherence_check,
                        coherent_state, cs_eigen_residual, lr_frame, lr_ladder_fit,
                        lr_phases, schrodinger_residual_max, vacuum_trajectory)
from ffo.sweeps import random_spec

CFG = PropagatorConfig(dt=1e-3)
README_SPEC = HamiltonianSpec(omega=Sinusoid(0.3, 1.0, 0.0, offset=1.0),
                              f=ComplexSignal(Constant(0.5), Constant(0.1)),
                              g=Polynomial((0.2, 0.01)))


# -- evolved vacuum ------------------------------------------------------------

def _vacuum_reference(traj, spec, tol=DEFAULT_TOL):
    """Point-by-point evolved vacuum: closed form, or fallback below the floor.

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
            pred = _cn_step(h[k - 1], h[k], psi[k - 1], dt)
        if abs(vm) >= tol.vacuum_nu_min:
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
            d = _null_direction(vm, vp, v3)
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


def _nullspace_fallback(b_matrix: np.ndarray, previous: np.ndarray | None,
                        spec: HamiltonianSpec, t: float, dt: float) -> np.ndarray:
    """Unit null vector of one B matrix with phase fixed by continuity.

    An independent one-point route to the vacuum, cross-checked against
    ``vacuum_trajectory`` below.  With ``previous`` given, the phase comes
    from one implicit (Crank-Nicolson) Schrodinger step of the previous
    state; without it, the largest component is made real positive.  Raises
    if B has no null space (ladder conditions violated).
    """
    b = np.asarray(b_matrix, dtype=complex)
    if abs(np.linalg.det(b)) > 1e-8 * max(1.0, max_abs(b) ** 2):
        raise ContractError("matrix has trivial null space; not a ladder operator")
    # null direction from the adjugate structure: B (b01, -b00)^T = (0, det)^T
    d1 = np.array([b[0, 1], -b[0, 0]], dtype=complex)
    d2 = np.array([b[1, 1], -b[1, 0]], dtype=complex)
    d = d1 if np.linalg.norm(d1) >= np.linalg.norm(d2) else d2
    nrm = np.linalg.norm(d)
    if nrm == 0.0:
        raise ContractError("zero matrix has no preferred vacuum")
    d /= nrm
    if previous is None:
        j = int(np.argmax(np.abs(d)))
        return d * np.exp(-1j * np.angle(d[j]))
    h_prev, h_now = hamiltonian_matrix(Samples(spec, np.array([t - dt, t])))
    pred = _cn_step(h_prev, h_now, previous, dt)
    ov = np.vdot(d, pred)
    if abs(ov) > 0:
        d = d * ov / abs(ov)
    return d


# (spec, nu0, t_final, number of fallback gaps)
VACUUM_CASES = {
    "readme": (README_SPEC, (1, 0, 0), 10.0, 0),
    "one_pinch": (constant_spec(f=0.5), (1, 0, 0), 8.0, 1),
    "three_gaps": (constant_spec(f=1.0), (1, 0, 0), 10.0, 3),
    "starts_in_gap": (constant_spec(f=0.5), (0, 1, 0), 4.0, 1),
    "ends_in_gap": (constant_spec(f=0.5), (1, 0, 0), 3.142, 1),
}


@pytest.mark.parametrize("case", sorted(VACUUM_CASES))
def test_vacuum_trajectory_matches_reference(case):
    spec, nu0, t_final, gaps = VACUUM_CASES[case]
    traj = integrate_nu(GridSamples(spec, t_final, CFG.dt), nu0)
    psi, mask = vacuum_trajectory(traj, Samples(spec, traj.times))
    want_psi, want_mask = _vacuum_reference(traj, spec)
    assert np.array_equal(mask, want_mask)
    assert np.count_nonzero(np.diff(mask.astype(int)) == 1) + int(mask[0]) == gaps
    assert np.max(np.abs(psi - want_psi)) <= 1e-14


def test_vacuum_branch_keeps_principal_root_on_exact_tie():
    # sqrt(-1 + 0j) = i, sqrt(-1 - 0j) = -i: the branch flips to +i; the next
    # root 1 is then exactly as far from +i as from -i and stays principal
    nu = np.zeros((4, 3), dtype=complex)
    nu[:, 0] = [complex(-1.0, 0.0), complex(-1.0, -0.0), 1.0, 1.0]
    traj = NuTrajectory(times=np.arange(4) * 1e-3, nu=nu, lambda1=np.zeros(4),
                        lambda2=np.ones(4))
    spec = constant_spec(omega=0.0)
    psi, mask = vacuum_trajectory(traj, Samples(spec, traj.times))
    want_psi, _ = _vacuum_reference(traj, spec)
    assert not mask.any()
    assert np.array_equal(psi, want_psi)
    assert psi[1, 0] == 1j and psi[2, 0] == 1.0


def test_vacuum_trajectory_silent_where_nu_minus_vanishes():
    # nu_minus is exactly 0 at t = 0; the closed form must not be evaluated there
    spec, nu0, t_final, _ = VACUUM_CASES["starts_in_gap"]
    traj = integrate_nu(GridSamples(spec, t_final, CFG.dt), nu0)
    assert traj.nu[0, 0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, mask = vacuum_trajectory(traj, Samples(spec, traj.times))
    assert mask[0] and np.all(np.isfinite(psi))


@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_vacuum_trajectory_random_specs(seed):
    spec = random_spec(np.random.default_rng(seed))
    traj = integrate_nu(GridSamples(spec, 2.0, CFG.dt), (1, 0, 0))
    psi, _ = vacuum_trajectory(traj, Samples(spec, traj.times))
    bpsi = np.einsum("kij,kj->ki", build_B_array(traj.nu), psi)
    assert np.max(np.linalg.norm(bpsi, axis=1)) <= 1e-6
    assert np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) <= 1e-10
    assert np.max(np.abs(psi - _vacuum_reference(traj, spec)[0])) <= 1e-14


def test_vacuum_double_contract(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    psi, mask = vacuum_trajectory(traj, Samples(forced_spec, traj.times))
    bpsi = np.einsum("kij,kj->ki", build_B_array(traj.nu), psi)
    assert np.max(np.linalg.norm(bpsi, axis=1)) <= 1e-6
    assert schrodinger_residual_max(Samples(forced_spec, traj.times), psi) <= 1e-5
    norms = np.linalg.norm(psi, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_samples_on_another_grid_are_rejected(forced_spec, calibrated_trajectory):
    # the same length with another dt, and one point fewer: neither pairs with traj
    traj, _, _ = calibrated_trajectory
    t_final, dt = float(traj.times[-1]), traj.dt
    unitary = evolve_unitary(forced_spec, t_final, PropagatorConfig(dt=dt))
    psi, _ = vacuum_trajectory(traj, GridSamples(forced_spec, t_final, dt))
    for samples in (GridSamples(forced_spec, 2.0 * t_final, 2.0 * dt),
                    GridSamples(forced_spec, t_final - dt, dt)):
        for call in (lambda: vacuum_trajectory(traj, samples),
                     lambda: lr_phases(traj, samples),
                     lambda: coherence_check(samples, unitary),
                     lambda: invariance_residual_max(samples, traj)):
            with pytest.raises(ContractError, match="different time grids"):
                call()
    with pytest.raises(ContractError, match="different time grids"):
        schrodinger_residual_max(GridSamples(forced_spec, t_final - dt, dt), psi)


def test_vacuum_trajectory_flags_and_values(forced_spec, calibrated_trajectory):
    # the fallback flag marks exactly the points below the nu_minus floor
    traj, _, _ = calibrated_trajectory
    psi, mask = vacuum_trajectory(traj, Samples(forced_spec, traj.times))
    assert np.array_equal(mask, np.abs(traj.nu[:, 0]) < DEFAULT_TOL.vacuum_nu_min)
    assert abs(np.linalg.norm(psi[1234]) - 1.0) < 1e-12


def test_vacuum_canonical_start_is_ground_state():
    spec = constant_spec(omega=1.0, f=0.4, g=0.2)
    traj = integrate_nu(GridSamples(spec, 1.0, CFG.dt), (1, 0, 0))
    psi, mask = vacuum_trajectory(traj, Samples(spec, traj.times))
    assert psi[0, 0] == pytest.approx(1.0)
    assert psi[0, 1] == pytest.approx(0.0)
    assert not mask[0]


def test_vacuum_tracks_true_evolution_through_pinch():
    # constant real forcing flips the state completely: nu_minus = cos^2(f t)
    # touches zero, so the closed form hands over to the fallback and back
    f0 = 0.5
    spec = constant_spec(f=f0)
    t_final = 8.0
    traj = integrate_nu(GridSamples(spec, t_final, CFG.dt), (1, 0, 0))
    psi, mask = vacuum_trajectory(traj, Samples(spec, traj.times))
    assert mask.any()  # the pinch at t = pi/(2 f0) activates the fallback
    u = evolve_unitary(spec, t_final, CFG)
    true_vac = u.U[:, :, 0]  # U |0>
    overlap = np.abs(np.sum(np.conj(true_vac) * psi, axis=1))
    assert np.min(overlap) >= 1.0 - 1e-8
    assert schrodinger_residual_max(Samples(spec, traj.times), psi) <= 1e-5
    bpsi = np.einsum("kij,kj->ki", build_B_array(traj.nu), psi)
    assert np.max(np.linalg.norm(bpsi, axis=1)) <= 1e-6


def test_nullspace_fallback_examples():
    b, _, _ = ladder_operators()
    vac = _nullspace_fallback(b, None, constant_spec(omega=1.0), 0.0, 1e-3)
    assert vac[0] == pytest.approx(1.0) and vac[1] == pytest.approx(0.0)
    with pytest.raises(ContractError):
        _nullspace_fallback(np.eye(2), None, constant_spec(), 0.0, 1e-3)


def test_nullspace_fallback_cross_validates_with_formula(forced_spec,
                                                         calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    psi, mask = vacuum_trajectory(traj, Samples(forced_spec, traj.times))
    for k in (800, 2400, 4000):
        if mask[k] or abs(traj.nu[k, 0]) < 1e-3:
            continue
        fb = _nullspace_fallback(build_B_array(traj.nu[k]), psi[k - 1], forced_spec,
                                 float(traj.times[k]), traj.dt)
        overlap = abs(np.conj(fb) @ psi[k])
        assert overlap >= 1.0 - 1e-8


# -- coherent states ---------------------------------------------------------------

def test_coherent_state_reduces_to_vacuum_at_zero():
    ket = coherent_state(0.0, (0.6, 0.8j), (1, 0, 0))
    assert ket.a0.c[0] == 0.6 and ket.a1.c[0] == 0.8j
    assert np.max(np.abs(ket.coeff_array()[:, 1:])) == 0.0


def test_coherent_state_canonical_at_t0():
    from ffo.grassmann import coherent_ket
    ket = coherent_state(1.0, (1.0, 0.0), (1, 0, 0))
    want = coherent_ket(1.0)
    assert np.allclose(ket.coeff_array(), want.coeff_array())


def test_cs_eigen_relation_is_exact(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    psi, _ = vacuum_trajectory(traj, Samples(forced_spec, traj.times))
    for k in (0, 1111, 3210, 5000):
        for scale in (1.0, 0.4 - 0.6j):
            assert cs_eigen_residual(traj.nu[k], psi[k], scale) <= 1e-12


def test_overlap_matrix_is_identity(forced_spec, calibrated_trajectory):
    # {|0;t>, B'(t)|0;t>} is an orthonormal moving frame
    traj, _, _ = calibrated_trajectory
    psi, _ = vacuum_trajectory(traj, Samples(forced_spec, traj.times))
    for k in (123, 2500, 4999):
        v = psi[k]
        w = build_B_dagger(traj.nu[k]) @ v
        gram = np.array([[np.vdot(v, v), np.vdot(v, w)],
                         [np.vdot(w, v), np.vdot(w, w)]])
        assert max_abs(gram - np.eye(2)) <= 1e-8


# -- coherence of the canonical CS ---------------------------------------------------

def test_coherence_stationary_family():
    w0, g0 = 1.2, 0.4
    spec = constant_spec(omega=w0, g=g0)
    rep = coherence_check(GridSamples(spec, 5.0, CFG.dt), evolve_unitary(spec, 5.0, CFG))
    assert np.max(rep.eigen_residual) <= 1e-8
    want = np.exp(-1j * w0 * rep.times)
    assert np.max(np.abs(rep.zeta_ratio - want)) <= 1e-8
    assert np.max(np.abs(rep.beta - np.exp(1j * w0 * rep.times))) <= 1e-10


def test_coherence_sinusoidal_frequency():
    spec = HamiltonianSpec(omega=Sinusoid(0.7, 0.9, 0.2, offset=1.1),
                           f=ComplexSignal(Constant(0.0)),
                           g=Sinusoid(0.3, 0.4))
    rep = coherence_check(GridSamples(spec, 5.0, CFG.dt), evolve_unitary(spec, 5.0, CFG))
    assert np.max(rep.eigen_residual) <= 1e-7
    # zeta(t)/zeta must match conj(beta) = exp(-i int omega)
    assert np.max(np.abs(rep.zeta_ratio - np.conj(rep.beta))) <= 1e-7


def test_coherence_broken_by_forcing():
    spec = constant_spec(f=1.0)
    rep = coherence_check(GridSamples(spec, 2.0, CFG.dt), evolve_unitary(spec, 2.0, CFG))
    k = int(round(np.pi / 4 / 1e-3))
    assert rep.eigen_residual[k] >= 0.1
    assert np.max(rep.eigen_residual) >= 1e-3


# -- Lewis-Riesenfeld phases -----------------------------------------------------------

def test_lr_phases_stationary():
    w0, g0 = 1.3, 0.7
    spec = constant_spec(omega=w0, g=g0)
    traj = integrate_nu(GridSamples(spec, 5.0, CFG.dt), (1, 0, 0))
    ph = lr_phases(traj, Samples(spec, traj.times))
    t = traj.times
    assert np.max(np.abs(ph.phi0 + g0 * t)) <= 1e-6
    assert np.max(np.abs(ph.phi1 + (g0 + w0) * t)) <= 1e-6
    assert np.max(np.abs(ph.phi_geometric)) <= 1e-6
    assert ph.consistency_residual <= 1e-10
    assert ph.phi_geometric[-1] == pytest.approx(0.0, abs=1e-6)
    assert ph.phi_dynamical[-1] == pytest.approx(-w0 * 5.0, abs=1e-6)


def test_phased_states_solve_schrodinger(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj, Samples(forced_spec, traj.times))
    psi0 = np.exp(1j * ph.phi0)[:, None] * ph.frame.e0
    psi1 = np.exp(1j * ph.phi1)[:, None] * ph.frame.e1
    assert schrodinger_residual_max(Samples(forced_spec, traj.times), psi0) <= 1e-5
    assert schrodinger_residual_max(Samples(forced_spec, traj.times), psi1) <= 1e-5


def test_phase_split_is_additive(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj, Samples(forced_spec, traj.times))
    assert np.max(np.abs((ph.phi_geometric + ph.phi_dynamical)
                         - (ph.phi1 - ph.phi0))) <= 1e-12
    rec = ph.record_at(100)
    assert rec.phi == pytest.approx(ph.phi1[100] - ph.phi0[100])


def test_lr_frame_orthonormal(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    frame = lr_frame(traj)
    dots = np.sum(np.conj(frame.e0) * frame.e1, axis=1)
    assert np.max(np.abs(dots)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(frame.e0, axis=1) - 1.0)) <= 1e-12


def test_lr_frame_requires_calibration(forced_spec):
    traj = integrate_nu(GridSamples(forced_spec, 1.0, CFG.dt), (0.9, 0.7, 0.1))  # lambda1 != 0
    with pytest.raises(ContractError):
        lr_frame(traj)


def test_phased_cs_is_eigenstate_of_lr_ladder(forced_spec, calibrated_trajectory):
    # the normalized-frame CS carries eigenvalue zeta * exp(i phi(t))
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj, Samples(forced_spec, traj.times))
    k = 2048
    x = np.exp(1j * ph.phi0[k]) * ph.frame.e0[k]
    y = np.exp(1j * ph.phi1[k]) * ph.frame.e1[k]
    from ffo.grassmann import GrassmannElement, GrassmannKet
    a0 = GrassmannElement([x[0], -y[0], 0.0, -0.5 * x[0]])
    a1 = GrassmannElement([x[1], -y[1], 0.0, -0.5 * x[1]])
    ket = GrassmannKet(a0, a1)
    b_tilde = np.outer(ph.frame.e0[k], np.conj(ph.frame.e1[k]))
    lhs = GrassmannOperator(b_tilde).apply(ket)
    phi = ph.phi1[k] - ph.phi0[k]
    rhs = ket.left_mul(GrassmannElement([0.0, np.exp(1j * phi), 0.0, 0.0]))
    assert (lhs - rhs).max_abs() <= 1e-7


def test_lr_ladder_phase_fit(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj, Samples(forced_spec, traj.times))
    theta, fit_residual = lr_ladder_fit(ph, traj)
    assert fit_residual <= 1e-7
    dphi = ph.phi1 - ph.phi0
    drift = np.max(np.abs((theta - theta[0]) - (dphi - dphi[0])))
    assert drift <= 5e-5


def test_geometric_phase_gauge_independence(forced_spec, calibrated_trajectory):
    # multiplying the frame by a smooth test phase with chi(0) = chi(T) = 0
    # must leave the endpoint geometric phase unchanged
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj, Samples(forced_spec, traj.times))
    t = traj.times
    chi = 0.1 * np.sin(np.pi * t / t[-1]) ** 2
    e1 = np.exp(1j * chi)[:, None] * ph.frame.e1
    dt = traj.dt

    def connection(e):
        d = np.empty_like(e)
        d[1:-1] = (e[2:] - e[:-2]) / (2 * dt)
        d[0] = (-3 * e[0] + 4 * e[1] - e[2]) / (2 * dt)
        d[-1] = (3 * e[-1] - 4 * e[-2] + e[-3]) / (2 * dt)
        return np.sum(np.conj(e) * d, axis=1)

    phi_g_mod = cumtrapz_grid(-np.imag(connection(e1) - connection(ph.frame.e0)), dt)
    assert abs(phi_g_mod[-1] - ph.phi_geometric[-1]) <= 1e-6


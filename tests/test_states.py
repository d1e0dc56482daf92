import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffo.algebra import hamiltonian_matrix, ladder_operators, max_abs
from ffo.errors import ContractError
from ffo.grassmann import ZETA, GrassmannElement, coherent_ket, graded_apply
from ffo.grid import GridSamples, Samples, cumsimpson_grid
from ffo.invariants import (NuTrajectory, build_B_array, build_B_dagger, integrate_nu,
                            invariance_residual_max)
from ffo.propagator import evolve_unitary
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Polynomial, Signal,
                         Sinusoid, constant_spec)
from ffo.states import (coherence_check, coherent_state, cs_eigen_residual, lr_frame,
                        lr_ladder_fit, lr_phases, schrodinger_residual_max, vacuum_trajectory)
from ffo.sweeps import random_spec
from random_inputs import random_plus_keyed_nu0
from vacuum_reference import VACUUM_NU_MIN, closed_form_deviation, rk4_step, vacuum_reference

DT = 1e-3
README_SPEC = HamiltonianSpec(omega=Sinusoid(0.3, 1.0, 0.0, offset=1.0),
                              f=ComplexSignal(Constant(0.5), Constant(0.1)),
                              g=Polynomial((0.2, 0.01)))


# -- evolved vacuum ------------------------------------------------------------

def _vacuum(traj):
    """psi of ``vacuum_trajectory`` on the phases of ``traj``: the vacuum of H0."""
    return vacuum_trajectory(lr_phases(traj))[0]


def _physical_vacuum(ph):
    """exp(-i theta) exp(i phi0) e0: the vacuum of H itself, trace phase included."""
    return np.exp(-1j * ph.theta)[:, None] * vacuum_trajectory(ph)[0]


def _phase_aligned(psi, ref):
    """psi times the one constant phase that matches it to ``ref`` at t = 0."""
    z = np.vdot(psi[0], ref[0])
    return psi * (z / abs(z))


def _nullspace_fallback(b_matrix: np.ndarray, previous: np.ndarray | None,
                        spec: HamiltonianSpec, t: float, dt: float) -> np.ndarray:
    """Unit null vector of one B matrix with phase fixed by continuity.

    An independent one-point route to the vacuum, cross-checked against
    ``vacuum_trajectory`` below.  With ``previous`` given, the phase comes
    from one classical RK4 Schrodinger step of the previous state; without
    it, the largest component is made real positive.  Raises if B has no
    null space (ladder conditions violated).
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
    h_prev, h_mid, h_now = hamiltonian_matrix(Samples(spec, np.array([t - dt, t - 0.5 * dt, t])))
    pred = rk4_step(h_prev, h_mid, h_now, previous, dt)
    ov = np.vdot(d, pred)
    if abs(ov) > 0:
        d = d * ov / abs(ov)
    return d


# (spec, nu0, t_final, number of gaps below VACUUM_NU_MIN)
VACUUM_CASES = {
    "readme": (README_SPEC, (1, 0, 0), 10.0, 0),
    "one_pinch": (constant_spec(f=0.5), (1, 0, 0), 8.0, 1),
    "three_gaps": (constant_spec(f=1.0), (1, 0, 0), 10.0, 3),
    "starts_in_gap": (constant_spec(f=0.5), (0, 1, 0), 4.0, 1),
    "ends_in_gap": (constant_spec(f=0.5), (1, 0, 0), 3.142, 1),
}


@pytest.mark.parametrize("case", sorted(VACUUM_CASES))
def test_vacuum_trajectory_matches_reference(case):
    # two independent routes: one constant phase at t = 0 apart
    spec, nu0, t_final, gaps = VACUUM_CASES[case]
    traj = integrate_nu(GridSamples(spec, t_final, DT), nu0)
    psi = _physical_vacuum(lr_phases(traj))
    want_psi, want_mask = vacuum_reference(traj, spec)
    assert np.count_nonzero(np.diff(want_mask.astype(int)) == 1) + int(want_mask[0]) == gaps
    assert np.max(np.abs(_phase_aligned(psi, want_psi) - want_psi)) <= 1e-10


def test_vacuum_trajectory_silent_where_nu_minus_vanishes():
    # nu_minus is exactly 0 at t = 0
    spec, nu0, t_final, _ = VACUUM_CASES["starts_in_gap"]
    traj = integrate_nu(GridSamples(spec, t_final, DT), nu0)
    assert traj.nu[0, 0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = _vacuum(traj)
    assert np.all(np.isfinite(psi))


@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
# seeds whose gaps a one-step Crank-Nicolson prediction bridged with 2e-9 to 1.5e-8 phase error
@example(seed=1679802727)
@example(seed=2751328124)
@example(seed=238811247)
def test_vacuum_trajectory_random_specs(seed):
    # from the canonical start, and from a ladder-shell nu0 keyed on nu_plus
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    samples = GridSamples(spec, 2.0, DT)
    for nu0 in ((1, 0, 0), random_plus_keyed_nu0(rng)):
        traj = integrate_nu(samples, nu0)
        ph = lr_phases(traj)
        assert ph.frame.plus[0] == (nu0 != (1, 0, 0))
        psi, _ = vacuum_trajectory(ph)
        bpsi = np.einsum("kij,kj->ki", build_B_array(traj.nu), psi)
        assert np.max(np.linalg.norm(bpsi, axis=1)) <= 1e-6
        assert np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) <= 1e-10
        want = vacuum_reference(traj, spec)[0]
        psi = _physical_vacuum(ph)
        assert np.max(np.abs(_phase_aligned(psi, want) - want)) <= 1e-10


def test_vacuum_double_contract(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    psi = _vacuum(traj)
    bpsi = np.einsum("kij,kj->ki", build_B_array(traj.nu), psi)
    assert np.max(np.linalg.norm(bpsi, axis=1)) <= 1e-6
    assert schrodinger_residual_max(traj.samples, psi) <= 1e-5
    norms = np.linalg.norm(psi, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_samples_on_another_grid_are_rejected(forced_spec, calibrated_trajectory):
    # psi is a bare array, so its samples are passed on their own: one point
    # fewer does not pair with it
    traj, _, _ = calibrated_trajectory
    t_final, dt = float(traj.times[-1]), traj.samples.dt
    with pytest.raises(ContractError, match="different time grids"):
        schrodinger_residual_max(GridSamples(forced_spec, t_final - dt, dt), _vacuum(traj))


def test_vacuum_trajectory_flags_and_values(forced_spec, calibrated_trajectory):
    # the mask flags no point: every point is exp(i phi0) e0
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj)
    psi, mask = vacuum_trajectory(ph)
    assert mask.shape == (len(traj.times),) and not mask.any()
    assert np.array_equal(psi, np.exp(1j * ph.phi0)[:, None] * ph.frame.e0)
    assert abs(np.linalg.norm(psi[1234]) - 1.0) < 1e-12


def test_vacuum_canonical_start_is_ground_state():
    spec = constant_spec(omega=1.0, f=0.4, g=0.2)
    traj = integrate_nu(GridSamples(spec, 1.0, DT), (1, 0, 0))
    psi = _vacuum(traj)
    assert psi[0, 0] == pytest.approx(1.0)
    assert psi[0, 1] == pytest.approx(0.0)


def test_vacuum_tracks_true_evolution_through_pinch():
    # constant real forcing flips the state completely: nu_minus = cos^2(f t)
    # touches zero at t = pi/(2 f0)
    f0 = 0.5
    spec = constant_spec(f=f0)
    t_final = 8.0
    traj = integrate_nu(GridSamples(spec, t_final, DT), (1, 0, 0))
    assert np.min(np.abs(traj.nu[:, 0])) < VACUUM_NU_MIN
    psi = _vacuum(traj)
    u = evolve_unitary(traj.samples)
    true_vac = u.U[:, :, 0]  # U |0>
    overlap = np.abs(np.sum(np.conj(true_vac) * psi, axis=1))
    assert np.min(overlap) >= 1.0 - 1e-8
    assert schrodinger_residual_max(traj.samples, psi) <= 1e-5
    bpsi = np.einsum("kij,kj->ki", build_B_array(traj.nu), psi)
    assert np.max(np.linalg.norm(bpsi, axis=1)) <= 1e-6


def test_vacuum_through_sweep_pinches_matches_the_oracle():
    # sweep seed 0, scenario 000: nu_minus pinches to 2e-6, below 1e-4 on 32 points
    spec = random_spec(np.random.default_rng(0))
    traj = integrate_nu(GridSamples(spec, 10.0, DT), (1, 0, 0))
    assert np.count_nonzero(np.abs(traj.nu[:, 0]) < VACUUM_NU_MIN) == 32
    psi = _physical_vacuum(lr_phases(traj))
    u = evolve_unitary(traj.samples)
    assert np.max(np.abs(psi - u.U[:, :, 0])) <= 1e-10
    assert closed_form_deviation(traj, traj.samples, psi) <= 1e-10


def _h0_state(samples, psi):
    """exp(i theta) psi: a state of H, the oracle's, as a state of H0."""
    theta = cumsimpson_grid(samples.g + 0.5 * samples.omega, DT)
    return np.exp(1j * theta)[:, None] * psi


@pytest.mark.parametrize("g", [10.0, 100.0])
def test_schrodinger_residual_under_a_large_constant_g(g):
    # the residual is that of H0 and does not read g; a phase rate of 1e-3
    # that psi does not have must still show as a residual of 1e-3
    spec = constant_spec(f=0.5, g=g)
    samples = GridSamples(spec, 1.0, DT)
    psi = _h0_state(samples, evolve_unitary(samples).U[:, :, 0])
    assert schrodinger_residual_max(samples, psi) <= 1e-7
    off = np.exp(1e-3j * samples.times)[:, None] * psi
    assert schrodinger_residual_max(samples, off) >= 0.9e-3


def test_residual_maxima_keep_a_nan():
    # a finite residual seeded or met first used to hide a nan one: a nan
    # amplitude read 0.0 and passed the schrodinger check
    from ffo.cli import _check

    spec = constant_spec(omega=1.0, f=0.5)
    samples = GridSamples(spec, 1.0, DT)
    psi = _h0_state(samples, evolve_unitary(samples).U[:, :, 0])
    assert schrodinger_residual_max(samples, psi) <= 1e-5
    for k in (0, 1):  # a nan in either component
        bad = psi.copy()
        bad[500, k] = np.nan
        value = schrodinger_residual_max(samples, bad)
        assert np.isnan(value)
        checks: list = []
        _check(checks, "schrodinger", value, 1e-5)
        assert not checks[0]["passed"]
    # a nan omega spoils only the second and third invariance residuals
    traj = integrate_nu(samples, (1, 0, 0))
    assert invariance_residual_max(traj) <= 1e-5
    samples.omega = samples.omega.copy()
    samples.omega[500] = np.nan
    assert np.isnan(invariance_residual_max(traj))


def test_nullspace_fallback_examples():
    b, _, _ = ladder_operators()
    vac = _nullspace_fallback(b, None, constant_spec(omega=1.0), 0.0, 1e-3)
    assert vac[0] == pytest.approx(1.0) and vac[1] == pytest.approx(0.0)
    with pytest.raises(ContractError):
        _nullspace_fallback(np.eye(2), None, constant_spec(), 0.0, 1e-3)


def test_nullspace_fallback_cross_validates_with_formula(forced_spec,
                                                         calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    psi = _vacuum(traj)
    for k in (800, 2400, 4000):
        if abs(traj.nu[k, 0]) < 1e-3:
            continue
        fb = _nullspace_fallback(build_B_array(traj.nu[k]), psi[k - 1], forced_spec,
                                 float(traj.times[k]), traj.samples.dt)
        overlap = abs(np.conj(fb) @ psi[k])
        assert overlap >= 1.0 - 1e-8


# -- coherent states ---------------------------------------------------------------

def test_coherent_state_reduces_to_vacuum_at_zero():
    ket = coherent_state(0.0, (0.6, 0.8j), (1, 0, 0))
    assert ket.c.shape == (2, 4)
    assert ket.c[0, 0] == 0.6 and ket.c[1, 0] == 0.8j
    assert np.max(np.abs(ket.c[:, 1:])) == 0.0


def test_coherent_state_canonical_at_t0():
    ket = coherent_state(1.0, (1.0, 0.0), (1, 0, 0))
    want = coherent_ket(1.0)
    assert np.allclose(ket.c, want.c)


def test_cs_eigen_relation_is_exact(forced_spec, calibrated_trajectory):
    # every grid point in one stacked call
    traj, _, _ = calibrated_trajectory
    psi = _vacuum(traj)
    for scale in (1.0, 0.4 - 0.6j):
        assert cs_eigen_residual(traj.nu, psi, scale) <= 1e-12


def test_stacked_coherent_states_are_each_state_bit_for_bit(forced_spec,
                                                            calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ks = [0, 1111, 3210, 5000]
    nu, psi = traj.nu[ks], _vacuum(traj)[ks]
    for scale in (1.0, 0.4 - 0.6j):
        stacked = coherent_state(scale, psi, nu)
        assert stacked.c.shape == (len(ks), 2, 4)
        singles = [cs_eigen_residual(nu[i], psi[i], scale) for i in range(len(ks))]
        for i in range(len(ks)):
            assert np.array_equal(stacked.c[i], coherent_state(scale, psi[i], nu[i]).c)
        assert cs_eigen_residual(nu, psi, scale) == max(singles)


def test_overlap_matrix_is_identity(forced_spec, calibrated_trajectory):
    # {|0;t>, B'(t)|0;t>} is an orthonormal moving frame
    traj, _, _ = calibrated_trajectory
    psi = _vacuum(traj)
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
    unitary = evolve_unitary(GridSamples(spec, 5.0, DT))
    rep = coherence_check(unitary)
    assert np.max(rep.eigen_residual) == 0.0  # |u10|, exactly 0 where f = 0
    want = np.exp(-1j * w0 * unitary.times)
    assert np.max(np.abs(rep.zeta_ratio - want)) <= 1e-8
    assert np.max(np.abs(rep.beta - np.exp(1j * w0 * unitary.times))) <= 1e-10


def test_coherence_sinusoidal_frequency():
    spec = HamiltonianSpec(omega=Sinusoid(0.7, 0.9, 0.2, offset=1.1),
                           f=ComplexSignal(Constant(0.0)),
                           g=Sinusoid(0.3, 0.4))
    rep = coherence_check(evolve_unitary(GridSamples(spec, 5.0, DT)))
    assert np.max(rep.eigen_residual) <= 1e-7
    # zeta(t)/zeta must match conj(beta) = exp(-i int omega)
    assert np.max(np.abs(rep.zeta_ratio - np.conj(rep.beta))) <= 1e-7


def test_coherence_broken_by_forcing():
    spec = constant_spec(f=1.0)
    unitary = evolve_unitary(GridSamples(spec, 2.0, DT))
    rep = coherence_check(unitary)
    assert np.array_equal(rep.eigen_residual, np.abs(unitary.b))
    k = int(round(np.pi / 4 / 1e-3))
    assert rep.eigen_residual[k] >= 0.1
    assert np.max(rep.eigen_residual) >= 1e-3


@pytest.mark.parametrize("t_final", [2.0, 10.0])
def test_coherence_check_matches_the_entries_of_u(t_final):
    # the phase e^{-i theta} cancels: |u10| = |b| and u11/u00 = conj(a)/a
    rng = np.random.default_rng(4242)
    for k in range(4):
        unitary = evolve_unitary(GridSamples(random_spec(rng, f_floor=k % 2 == 1), t_final, DT))
        rep, u = coherence_check(unitary), unitary.U
        assert np.max(np.abs(rep.eigen_residual - np.abs(u[:, 1, 0]))) <= 1e-15
        assert np.min(np.abs(u[:, 0, 0])) > 1e-12
        assert np.max(np.abs(rep.zeta_ratio - u[:, 1, 1] / u[:, 0, 0])) <= 1e-15
    free = HamiltonianSpec(omega=Sinusoid(0.7, 0.9, 0.2, offset=1.1),
                           f=ComplexSignal(Constant(0.0)), g=Sinusoid(0.3, 0.4))
    rep = coherence_check(evolve_unitary(GridSamples(free, t_final, DT)))
    assert not np.any(rep.eigen_residual)  # exactly 0 where f = 0


# -- Lewis-Riesenfeld phases -----------------------------------------------------------

def test_lr_phases_stationary():
    w0, g0 = 1.3, 0.7
    spec = constant_spec(omega=w0, g=g0)
    traj = integrate_nu(GridSamples(spec, 5.0, DT), (1, 0, 0))
    ph = lr_phases(traj)
    t = traj.times
    assert np.max(np.abs(ph.phi0 - ph.theta + g0 * t)) <= 1e-6
    assert np.max(np.abs(-ph.phi0 - ph.theta + (g0 + w0) * t)) <= 1e-6
    assert np.max(np.abs(ph.phi_geometric)) <= 1e-6
    assert ph.consistency_residual <= 1e-10
    assert ph.phi_geometric[-1] == pytest.approx(0.0, abs=1e-6)
    assert ph.phi_dynamical[-1] == pytest.approx(-w0 * 5.0, abs=1e-6)


def test_phased_states_solve_schrodinger(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj)
    psi0 = np.exp(1j * ph.phi0)[:, None] * ph.frame.e0
    psi1 = np.exp(-1j * ph.phi0)[:, None] * ph.frame.e1
    samples = traj.samples
    assert schrodinger_residual_max(samples, psi0) <= 1e-5
    assert schrodinger_residual_max(samples, psi1) <= 1e-5


@pytest.mark.parametrize("which", ["readme", "forced"])
def test_vacuum_partner_has_the_same_residual(which, forced_spec, calibrated_trajectory):
    # psi1 = exp(-i phi0) e1 is psi0's SU(2) partner (-conj psi0_1, conj psi0_0),
    # whose residual rows are psi0's conjugated and swapped: one state checks both
    if which == "readme":
        samples = GridSamples(README_SPEC, 10.0, DT)
        traj = integrate_nu(samples, (1, 0, 0))
    else:
        traj = calibrated_trajectory[0]
        samples = traj.samples
    ph = lr_phases(traj)
    psi0, _ = vacuum_trajectory(ph)
    partner = np.column_stack((-np.conj(psi0[:, 1]), np.conj(psi0[:, 0])))
    psi1 = np.exp(-1j * ph.phi0)[:, None] * ph.frame.e1
    assert np.max(np.abs(psi1 - partner)) <= 1e-15
    assert schrodinger_residual_max(samples, partner) == schrodinger_residual_max(samples, psi0)
    assert schrodinger_residual_max(samples, psi1) == schrodinger_residual_max(samples, psi0)


@dataclasses.dataclass(frozen=True)
class _Shifted(Signal):
    """base + c for a constant c."""

    base: Signal
    c: float

    def value(self, t):
        return self.base.value(t) + self.c

    def d1(self, t):
        return self.base.d1(t)

    def d2(self, t):
        return self.base.d2(t)


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       c=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e8, -1e8, 1e150, -1e150])))
def test_constant_added_to_g_moves_theta_alone(seed, c):
    # g enters only theta = int (g + omega/2): phi0, the two-route residual
    # and the Schrodinger residual belong to H0 and stay bit for bit
    spec = random_spec(np.random.default_rng(seed))
    runs = []
    for s in (spec, dataclasses.replace(spec, g=_Shifted(spec.g, c))):
        samples = GridSamples(s, 2.0, DT)
        ph = lr_phases(integrate_nu(samples, (1, 0, 0)))
        runs.append((ph, schrodinger_residual_max(samples, vacuum_trajectory(ph)[0])))
    (ph, res), (ph_c, res_c) = runs
    assert np.array_equal(ph_c.phi0, ph.phi0)
    assert ph_c.consistency_residual == ph.consistency_residual
    assert res_c == res
    assert np.allclose(ph_c.theta - ph.theta, c * samples.times, rtol=0.0,
                       atol=1e-11 * (1.0 + abs(c)))


def test_phase_split_is_additive(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj)
    assert np.max(np.abs((ph.phi_geometric + ph.phi_dynamical) - (-2.0 * ph.phi0))) <= 1e-12


def test_lr_frame_orthonormal(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    frame = lr_frame(traj)
    dots = np.sum(np.conj(frame.e0) * frame.e1, axis=1)
    assert np.max(np.abs(dots)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(frame.e0, axis=1) - 1.0)) <= 1e-12


def test_lr_frame_requires_calibration(forced_spec):
    traj = integrate_nu(GridSamples(forced_spec, 1.0, DT), (0.9, 0.7, 0.1))  # lambda1 != 0
    with pytest.raises(ContractError):
        lr_frame(traj)


def test_lr_frame_is_continuous_across_key_switches():
    traj = integrate_nu(GridSamples(README_SPEC, 10.0, DT), (1, 0, 0))
    frame = lr_frame(traj)
    assert np.array_equal(frame.plus, np.abs(traj.nu[:, 1]) > np.abs(traj.nu[:, 0]))
    assert np.allclose(traj.times[frame.switches], [5.788, 6.801, 9.76])
    assert np.array_equal(frame.e1[:, 0], -np.conj(frame.e0[:, 1]))
    assert np.array_equal(frame.e1[:, 1], np.conj(frame.e0[:, 0]))
    step = np.linalg.norm(np.diff(frame.e0, axis=0), axis=1)
    across = step[frame.switches - 1]
    assert np.max(across) <= 2.0 * np.max(np.delete(step, frame.switches - 1))
    # without the transition phases, each keyed component real positive, e0 jumps
    keyed = np.where(frame.plus, frame.e0[:, 1], frame.e0[:, 0])
    bare = frame.e0 * (np.abs(keyed) / keyed)[:, None]
    assert np.min(np.linalg.norm(np.diff(bare, axis=0), axis=1)[frame.switches - 1]) >= 0.1


def test_lr_frame_rejects_vanishing_nu():
    traj = NuTrajectory(GridSamples(constant_spec(), 4 * DT, DT), np.zeros((5, 3), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="vanish"):
            lr_frame(traj)


def test_phased_cs_is_eigenstate_of_lr_ladder(forced_spec, calibrated_trajectory):
    # the normalized-frame CS carries eigenvalue zeta * exp(i phi(t))
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj)
    k = 2048
    x = np.exp(1j * ph.phi0[k]) * ph.frame.e0[k]
    y = np.exp(-1j * ph.phi0[k]) * ph.frame.e1[k]
    # rows (x_n, -y_n zeta, 0, -x_n/2 zeta*zeta): x - zeta y - (1/2) zeta*zeta x
    ket = GrassmannElement(np.stack([x, -y, np.zeros(2), -0.5 * x], axis=-1))
    b_tilde = np.outer(ph.frame.e0[k], np.conj(ph.frame.e1[k]))
    lhs = graded_apply(b_tilde, ket)
    phi = -2.0 * ph.phi0[k]
    rhs = (np.exp(1j * phi) * ZETA) * ket
    assert (lhs - rhs).max_abs() <= 1e-7


def test_lr_ladder_phase_fit(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj)
    theta, fit_residual = lr_ladder_fit(ph, traj)
    assert fit_residual <= 1e-7
    dphi = -2.0 * ph.phi0
    drift = np.max(np.abs((theta - theta[0]) - (dphi - dphi[0])))
    assert drift <= 5e-5


def test_geometric_phase_gauge_independence(forced_spec, calibrated_trajectory):
    # multiplying the frame by a smooth test phase with chi(0) = chi(T) = 0
    # must leave the endpoint geometric phase unchanged
    traj, _, _ = calibrated_trajectory
    ph = lr_phases(traj)
    t = traj.times
    chi = 0.1 * np.sin(np.pi * t / t[-1]) ** 2
    e1 = np.exp(1j * chi)[:, None] * ph.frame.e1
    dt = traj.samples.dt

    def connection(e):
        d = np.empty_like(e)
        d[1:-1] = (e[2:] - e[:-2]) / (2 * dt)
        d[0] = (-3 * e[0] + 4 * e[1] - e[2]) / (2 * dt)
        d[-1] = (3 * e[-1] - 4 * e[-2] + e[-3]) / (2 * dt)
        return np.sum(np.conj(e) * d, axis=1)

    phi_g_mod = cumsimpson_grid(-np.imag(connection(e1) - connection(ph.frame.e0)), dt)
    assert abs(phi_g_mod[-1] - ph.phi_geometric[-1]) <= 1e-6


import numpy as np
import pytest

from ffo.algebra import I2, ladder_operators, max_abs
from ffo.errors import ContractError, IntegrationError
from ffo.invariants import (NuVector, build_B, build_B_array, build_B_dagger,
                            build_B_so, free_oscillator_nu,
                            free_oscillator_trajectory, hermitian_invariant,
                            integrate_nu, invariance_residual,
                            invariance_residual_max, ladder_conditions_check,
                            motion_constants, nu_rhs)
from ffo.propagator import PropagatorConfig, evolve_unitary, heisenberg_oracle
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Sinusoid,
                         constant_spec)
from ffo.sweeps import random_nu0, random_spec

CFG = PropagatorConfig(dt=1e-3)


# -- right-hand side ----------------------------------------------------------

def test_rhs_free_oscillator():
    d = nu_rhs(constant_spec(omega=1.5), 0.0, NuVector(1, 0, 0))
    assert d.nu_minus == pytest.approx(1.5j)
    assert d.nu_plus == 0 and d.nu_3 == 0


def test_rhs_linear_homogeneous():
    spec = constant_spec(omega=0.7, f=0.3 + 0.1j, g=0.2)
    d = nu_rhs(spec, 1.0, NuVector(0, 0, 0))
    assert d == NuVector(0, 0, 0)


def test_rhs_pure_forcing():
    d = nu_rhs(constant_spec(f=1.0), 0.0, NuVector(0, 0, 1))
    assert d.nu_plus == pytest.approx(1j)
    assert d.nu_minus == pytest.approx(-1j)
    assert d.nu_3 == 0


# -- constants of motion --------------------------------------------------------

def test_motion_constants_values():
    assert motion_constants(NuVector(1, 0, 0)) == (0, 1)
    lam1, lam2 = motion_constants(NuVector(0, 0, 2j))
    assert lam1 == pytest.approx(-1.0)
    assert lam2 == pytest.approx(2.0)


def test_ladder_link_lambda1_zero():
    # lambda1 = 0 forces lambda2 = (|nu_minus| + |nu_plus|)^2
    rng = np.random.default_rng(8)
    for _ in range(20):
        vm = rng.normal() + 1j * rng.normal()
        vp = rng.normal() + 1j * rng.normal()
        v3 = 2j * np.sqrt(vm * vp)
        lam1, lam2 = motion_constants(NuVector(vm, vp, v3))
        assert abs(lam1) < 1e-14
        assert lam2 == pytest.approx((abs(vm) + abs(vp)) ** 2, abs=1e-12)


# -- integration -----------------------------------------------------------------

def test_free_oscillator_phase():
    w0 = 1.1
    traj = integrate_nu(constant_spec(omega=w0), (1, 0, 0), 5.0, CFG)
    want = np.exp(1j * w0 * traj.times)
    assert np.max(np.abs(traj.nu[:, 0] - want)) < 1e-8
    assert np.max(np.abs(traj.nu[:, 1:])) == 0.0


def test_canonical_start_conserves_ladder_shell():
    spec = random_spec(np.random.default_rng(3))
    traj = integrate_nu(spec, (1, 0, 0), 10.0, CFG)
    assert np.max(np.abs(traj.lambda1)) <= 1e-8
    assert np.max(np.abs(traj.lambda2 - 1.0)) <= 1e-8


def test_nonfinite_signal_names_grid_time(nan_forcing_spec):
    # NaN forcing from t = 1.2504 first poisons the step ending at t = 1.251
    with pytest.raises(IntegrationError) as err:
        integrate_nu(nan_forcing_spec, (1, 0, 0), 2.0, CFG)
    assert err.value.t == pytest.approx(1.251)
    assert "t=1.251" in str(err.value)


def test_random_spec_constants_drift():
    rng = np.random.default_rng(4)
    spec = random_spec(rng)
    traj = integrate_nu(spec, random_nu0(rng), 10.0, CFG)
    assert np.max(np.abs(traj.lambda1 - traj.lambda1[0])) <= 1e-7
    assert np.max(np.abs(traj.lambda2 - traj.lambda2[0])) <= 1e-7


def test_trajectory_accessors():
    traj = integrate_nu(constant_spec(omega=1.0), (1, 0, 0), 1.0, CFG)
    assert traj.nu_at(0) == NuVector(1, 0, 0)
    assert traj.constants_at(0) == (0, 1)
    assert traj.dt == pytest.approx(1e-3)


# -- operator assembly -------------------------------------------------------------

def test_build_B_reproduces_bare_operators():
    b, bd, _ = ladder_operators()
    assert max_abs(build_B((1, 0, 0)) - b) == 0.0
    assert max_abs(build_B((0, 1, 0)) - bd) == 0.0
    assert max_abs(build_B_dagger((1, 0, 0)) - bd) == 0.0


def test_build_B_matches_heisenberg_oracle_free_case():
    w0 = 0.9
    spec = constant_spec(omega=w0)
    traj = integrate_nu(spec, (1, 0, 0), 3.0, CFG)
    u = evolve_unitary(spec, 3.0, CFG)
    b, _, _ = ladder_operators()
    k = 3000
    got = build_B(traj.nu_at(k))
    want = heisenberg_oracle(u.U[k], b)
    assert max_abs(got - want) < 1e-8
    assert max_abs(got - np.exp(1j * w0 * 3.0) * b) < 1e-8


def test_ladder_conditions_check_values():
    assert ladder_conditions_check((1, 0, 0)) == (0.0, 0.0)
    res_b2, res_anti = ladder_conditions_check((1, 1, 0))
    assert res_b2 == pytest.approx(1.0)
    # matrix residuals equal the |lambda| formulas identically
    rng = np.random.default_rng(6)
    for _ in range(20):
        nu = NuVector(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        lam1, lam2 = motion_constants(nu)
        rb2, ranti = ladder_conditions_check(nu)
        assert rb2 == pytest.approx(abs(lam1), abs=1e-13)
        assert ranti == pytest.approx(abs(lam2 - 1.0), abs=1e-13)


def test_ladder_residuals_small_on_calibrated_trajectory(calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    for k in range(0, len(traj.times), 500):
        rb2, ranti = ladder_conditions_check(traj.nu_at(k))
        assert rb2 <= 1e-8 and ranti <= 1e-8


def test_hermitian_invariant():
    got = hermitian_invariant((1, 0, 0))
    assert max_abs(got - np.diag([-0.5, 0.5])) == 0.0
    assert max_abs(got - got.conj().T) == 0.0


def test_hermitian_invariant_spectrum_constancy(calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    for k in range(0, len(traj.times), 617):
        ev = np.linalg.eigvalsh(hermitian_invariant(traj.nu_at(k)))
        assert np.max(np.abs(np.sort(ev) - np.array([-0.5, 0.5]))) <= 1e-8


def test_hermitian_invariant_satisfies_invariance_equation(forced_spec,
                                                           calibrated_trajectory):
    # Eq.-of-invariance residual applied to I = B'B - 1/2 via central FD
    traj, _, _ = calibrated_trajectory
    dt = traj.dt
    from ffo.algebra import hamiltonian_matrix
    worst = 0.0
    for k in range(1, len(traj.times) - 1, 499):
        ik = [hermitian_invariant(traj.nu_at(k + s)) for s in (-1, 0, 1)]
        di = (ik[2] - ik[0]) / (2 * dt)
        h = hamiltonian_matrix(forced_spec, float(traj.times[k]))
        worst = max(worst, max_abs(di - 1j * (ik[1] @ h - h @ ik[1])))
    assert worst <= 1e-6


# -- invariance equation -------------------------------------------------------------

def test_invariance_residual_free_closed_form():
    spec = HamiltonianSpec(omega=Sinusoid(0.3, 1.0, 0.0, offset=1.0),
                           f=ComplexSignal(Constant(0.0)), g=Constant(0.0))
    nus = free_oscillator_trajectory((1, 0, 0), spec.omega,
                                     np.arange(0, 5001) * 1e-3)
    from ffo.invariants import NuTrajectory, _constants_arrays
    lam1, lam2 = _constants_arrays(nus)
    traj = NuTrajectory(times=np.arange(0, 5001) * 1e-3, nu=nus,
                        lambda1=lam1, lambda2=lam2)
    assert invariance_residual(spec, traj, 2500) <= 1e-6
    assert invariance_residual_max(spec, traj) <= 1e-6


def test_invariance_residual_on_random_spec():
    rng = np.random.default_rng(13)
    spec = random_spec(rng)
    traj = integrate_nu(spec, (1, 0, 0), 10.0, CFG)
    assert invariance_residual_max(spec, traj) <= 1e-5


def test_invariance_residual_detects_wrong_forcing_sign():
    spec = constant_spec(omega=0.8, f=0.5)
    flipped = constant_spec(omega=0.8, f=-0.5)
    bad = integrate_nu(flipped, (1, 0, 0), 2.0, CFG)
    assert invariance_residual_max(spec, bad) >= 1e-2


def test_invariance_residual_boundary_raises():
    traj = integrate_nu(constant_spec(omega=1.0), (1, 0, 0), 1.0, CFG)
    with pytest.raises(IndexError):
        invariance_residual(constant_spec(omega=1.0), traj, 0)
    with pytest.raises(IndexError):
        invariance_residual(constant_spec(omega=1.0), traj, len(traj.times) - 1)


# -- free-oscillator closed forms ------------------------------------------------------

def test_free_oscillator_nu_examples():
    w0 = 1.3
    got = free_oscillator_nu((1, 0, 0), Constant(w0), 2.0)
    assert got.nu_minus == pytest.approx(np.exp(1j * w0 * 2.0), abs=1e-12)
    got3 = free_oscillator_nu((0, 0, 1), Constant(w0), 2.0)
    assert got3 == NuVector(0, 0, 1)


def test_free_oscillator_nu_matches_integrator_sinusoid():
    omega = Sinusoid(0.8, 1.1, 0.4, offset=1.0)
    spec = HamiltonianSpec(omega=omega, f=ComplexSignal(Constant(0.0)), g=Constant(0.0))
    nu0 = (0.6, 0.4j, 2 * np.sqrt(-0.6 * 0.4j))
    traj = integrate_nu(spec, nu0, 5.0, CFG)
    closed = free_oscillator_trajectory(nu0, omega, traj.times)
    assert np.max(np.abs(closed - traj.nu)) <= 1e-8


def test_free_oscillator_nu_guards_forcing():
    with pytest.raises(ContractError):
        free_oscillator_nu((1, 0, 0), Constant(1.0), 1.0,
                           f=ComplexSignal(Constant(0.5)))


# -- B_so ---------------------------------------------------------------------------

def test_build_B_so_degenerate_case_phase_orientation():
    # with nu0 = (1, 0) the operator is exp(+i phi) b: the sign pairing the
    # coefficient system itself produces (and the Heisenberg oracle confirms)
    w0 = 1.0
    b, _, _ = ladder_operators()
    got = build_B_so(1.0, 0.0, Constant(w0), 2.0)
    assert max_abs(got - np.exp(1j * w0 * 2.0) * b) < 1e-12


def test_build_B_so_ladder_conditions():
    omega = Constant(0.9)
    got = build_B_so(0.5, 0.5, omega, 1.7)
    assert max_abs(got @ got) <= 1e-12
    anti = got @ got.conj().T + got.conj().T @ got
    assert max_abs(anti - I2) <= 1e-12


def test_build_B_so_both_branches_are_ladder():
    for branch in (+1, -1):
        got = build_B_so(0.3, 0.7, Constant(0.5), 0.8, branch=branch)
        assert max_abs(got @ got) <= 1e-12


def test_build_B_so_invariance():
    omega = Sinusoid(0.3, 1.0, 0.0, offset=1.0)
    spec = HamiltonianSpec(omega=omega, f=ComplexSignal(Constant(0.0)), g=Constant(0.0))
    dt = 2e-4
    times = np.arange(0, int(round(2.0 / dt)) + 1) * dt
    mats = np.array([build_B_so(0.5, 0.5, omega, float(t)) for t in times[::1]])
    from ffo.algebra import hamiltonian_matrix
    worst = 0.0
    for k in range(1, len(times) - 1, 173):
        db = (mats[k + 1] - mats[k - 1]) / (2 * dt)
        h = hamiltonian_matrix(spec, float(times[k]))
        worst = max(worst, max_abs(db - 1j * (mats[k] @ h - h @ mats[k])))
    assert worst <= 1e-6


def test_build_B_so_normalization_guard():
    with pytest.raises(ContractError):
        build_B_so(1.0, 0.5, Constant(1.0), 1.0)
    with pytest.raises(ValueError):
        build_B_so(1.0, 0.0, Constant(1.0), 1.0, branch=2)

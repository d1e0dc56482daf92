import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffo.algebra import I2, hamiltonian_matrix, ladder_operators, max_abs
from ffo.errors import ContractError, IntegrationError
from ffo.grid import BLOCK_STEPS, CHUNK_STEPS, GridSamples, Samples, linear_rk4, time_grid
from ffo.invariants import (NuTrajectory, _bloch_generator, build_B_array, build_B_dagger,
                            build_B_so, free_oscillator_nu, hermitian_invariant,
                            integrate_nu, invariance_residual_max,
                            ladder_conditions_check, motion_constants, nu_generator)
from ffo.propagator import evolve_unitary
from ffo.reduction import integrate_epsilon
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Signal, Sinusoid,
                         constant_spec)
from ffo.sweeps import random_spec
from random_inputs import random_nu0

DT = 1e-3


# -- right-hand side ----------------------------------------------------------

def _rhs(spec, t, nu):
    """d(nu_minus, nu_plus, nu_3)/dt at one time t."""
    return nu_generator(Samples(spec, t)) @ np.asarray(nu, dtype=complex)


def test_rhs_free_oscillator():
    vm, vp, v3 = _rhs(constant_spec(omega=1.5), 0.0, (1, 0, 0))
    assert vm == pytest.approx(1.5j)
    assert vp == 0 and v3 == 0


def test_rhs_linear_homogeneous():
    spec = constant_spec(omega=0.7, f=0.3 + 0.1j, g=0.2)
    assert _rhs(spec, 1.0, (0, 0, 0)).tolist() == [0, 0, 0]


def test_rhs_pure_forcing():
    vm, vp, v3 = _rhs(constant_spec(f=1.0), 0.0, (0, 0, 1))
    assert vp == pytest.approx(1j)
    assert vm == pytest.approx(-1j)
    assert v3 == 0


# -- constants of motion --------------------------------------------------------

def test_motion_constants_values():
    assert motion_constants((1, 0, 0)) == (0, 1)
    lam1, lam2 = motion_constants((0, 0, 2j))
    assert lam1 == pytest.approx(-1.0)
    assert lam2 == pytest.approx(2.0)


def test_ladder_link_lambda1_zero():
    # lambda1 = 0 forces lambda2 = (|nu_minus| + |nu_plus|)^2
    rng = np.random.default_rng(8)
    vm = rng.normal(size=20) + 1j * rng.normal(size=20)
    vp = rng.normal(size=20) + 1j * rng.normal(size=20)
    lam1, lam2 = motion_constants(np.stack([vm, vp, 2j * np.sqrt(vm * vp)], axis=-1))
    assert np.max(np.abs(lam1)) < 1e-14
    assert lam2 == pytest.approx((np.abs(vm) + np.abs(vp)) ** 2, abs=1e-12)


def _nu_stacks(lead):
    """Complex coefficient arrays of shape lead + (3,), entries up to 3 in modulus."""
    n = 3 * int(np.prod(lead))
    return st.lists(st.complex_numbers(max_magnitude=3.0, allow_subnormal=False),
                    min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=complex).reshape(lead + (3,)))


@settings(max_examples=60, deadline=None, database=None)
@given(nu=st.integers(1, 5).flatmap(lambda k: st.sampled_from([(), (k,), (2, k)]))
       .flatmap(_nu_stacks))
def test_array_first_operators_on_any_stack(nu):
    # B^2 = lambda1 * 1 on any (..., 3) stack, and each slice is the
    # function applied to that row alone
    lead = nu.shape[:-1]
    tol = 1e-14 * max(1.0, float(np.max(np.abs(nu))) ** 2)
    b = build_B_array(nu)
    lam1, lam2 = motion_constants(nu)
    rb2, ranti = ladder_conditions_check(nu)
    herm = hermitian_invariant(nu)
    assert b.shape == herm.shape == lead + (2, 2)
    assert lam1.shape == lam2.shape == rb2.shape == ranti.shape == lead
    assert np.max(np.abs(b @ b - lam1[..., None, None] * I2)) <= tol
    for idx in np.ndindex(*lead):
        row = nu[idx]
        assert np.array_equal(b[idx], build_B_array(row))
        for got, want in ((motion_constants(row), (lam1[idx], lam2[idx])),
                          (ladder_conditions_check(row), (rb2[idx], ranti[idx])),
                          ((hermitian_invariant(row),), (herm[idx],))):
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= tol


# -- integration -----------------------------------------------------------------

def test_free_oscillator_phase():
    w0 = 1.1
    traj = integrate_nu(GridSamples(constant_spec(omega=w0), 5.0, DT), (1, 0, 0))
    want = np.exp(1j * w0 * traj.times)
    assert np.max(np.abs(traj.nu[:, 0] - want)) < 1e-8
    assert np.max(np.abs(traj.nu[:, 1:])) == 0.0


def test_canonical_start_conserves_ladder_shell():
    spec = random_spec(np.random.default_rng(3))
    traj = integrate_nu(GridSamples(spec, 10.0, DT), (1, 0, 0))
    assert np.max(np.abs(traj.lambda1)) <= 1e-8
    assert np.max(np.abs(traj.lambda2 - 1.0)) <= 1e-8


def test_nonfinite_signal_names_grid_time(nan_forcing_spec):
    # NaN forcing from t = 1.2504 first poisons the step ending at t = 1.251
    with pytest.raises(IntegrationError) as err:
        integrate_nu(GridSamples(nan_forcing_spec, 2.0, DT), (1, 0, 0))
    assert err.value.t == pytest.approx(1.251)
    assert "t=1.251" in str(err.value)


def test_random_spec_constants_drift():
    rng = np.random.default_rng(4)
    spec = random_spec(rng)
    traj = integrate_nu(GridSamples(spec, 10.0, DT), random_nu0(rng))
    assert np.max(np.abs(traj.lambda1 - traj.lambda1[0])) <= 1e-7
    assert np.max(np.abs(traj.lambda2 - traj.lambda2[0])) <= 1e-7


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 2000),
       family=st.sampled_from(["generic", "f_zero", "f_floor"]))
def test_constants_of_motion_conserved_over_random_specs(seed, steps, family):
    # every family random_spec documents, nu0 from random_nu0, t_final <= 2
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, f_zero=family == "f_zero", f_floor=family == "f_floor")
    traj = integrate_nu(GridSamples(spec, steps * DT, DT), random_nu0(rng))
    for lam in (traj.lambda1, traj.lambda2):
        assert np.max(np.abs(lam - lam[0])) <= 1e-12 * max(1.0, abs(lam[0]))


# -- the Bloch basis and the sampled coefficients --------------------------------

# nu = S b: nu_minus = b_x - i b_y, nu_plus = b_x + i b_y, nu_3 = -2 b_z
_S = np.array([[1, -1j, 0], [1, 1j, 0], [0, 0, -2]])
_S_INV = np.array([[0.5, 0.5, 0], [0.5j, -0.5j, 0], [0, 0, -0.5]])


def test_bloch_generator_is_nu_generator_in_bloch_basis():
    spec = random_spec(np.random.default_rng(11))
    ts = np.linspace(0.0, 10.0, 41)
    assert np.ptp(spec.omega.value(ts)) > 0.1 and np.ptp(np.abs(spec.f.value(ts))) > 0.1
    got = np.moveaxis(_bloch_generator(spec.omega.value(ts), spec.f.value(ts)), -1, 0)
    assert got.dtype == float
    assert np.max(np.abs(_S_INV @ nu_generator(Samples(spec, ts)) @ _S - got)) <= 1e-15


def _complex_basis_nu(spec, nu0, times):
    """RK4 on nu_generator's complex paper-basis matrix, sampled at the times themselves."""
    dt = times[1] - times[0]
    return linear_rk4(lambda ts: np.moveaxis(nu_generator(Samples(spec, ts)), 0, -1),
                      (times,), (times[:-1] + 0.5 * dt,), dt, nu0)


def _check_complex_basis(steps):
    rng = np.random.default_rng(steps)
    spec, nu0 = random_spec(rng), random_nu0(rng)
    traj = integrate_nu(GridSamples(spec, steps * DT, DT), nu0)
    want = _complex_basis_nu(spec, nu0, time_grid(steps * DT, DT))
    assert traj.nu.shape == want.shape == (steps + 1, 3)
    assert np.max(np.abs(traj.nu - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("steps", [1, 1023, 1024, 1025, 2053])
def test_integrate_nu_matches_complex_basis_reference(steps):
    _check_complex_basis(steps)


@pytest.mark.parametrize("steps", [BLOCK_STEPS - 1, BLOCK_STEPS + 1, BLOCK_STEPS ** 2 - 1,
                                   BLOCK_STEPS ** 2 + 1, CHUNK_STEPS - 1, CHUNK_STEPS + 1,
                                   2 * CHUNK_STEPS + 5])
def test_integrate_nu_matches_complex_basis_reference_at_block_boundaries(steps):
    _check_complex_basis(steps)


class _Counted(Signal):
    """Wraps a signal and records every evaluation in ``calls``.

    A record is (name, method, grid), the grid being the bytes of the
    evaluation times, so evaluations on equal grids compare equal.
    """

    def __init__(self, inner: Signal, calls: list, name: str = ""):
        self.inner, self.calls, self.name = inner, calls, name

    def _record(self, method: str, t):
        self.calls.append((self.name, method, np.asarray(t, dtype=float).tobytes()))
        return getattr(self.inner, method)(t)

    def value(self, t):
        return self._record("value", t)

    def d1(self, t):
        return self._record("d1", t)

    def d2(self, t):
        return self._record("d2", t)


@pytest.mark.parametrize("integrate, y0", [(integrate_nu, (1, 0, 0)),
                                           (integrate_epsilon, (1.0, 0.3j))])
def test_integrators_sample_each_signal_once_per_integration(integrate, y0):
    # evaluations do not grow with the number of 1024-step chunks
    counts = []
    for t_final in (1.024, 10.0):
        calls: list = []
        spec = HamiltonianSpec(
            omega=_Counted(Sinusoid(0.3, 1.0, offset=1.0), calls),
            f=ComplexSignal(_Counted(Sinusoid(0.1, 0.7, offset=0.8), calls),
                            _Counted(Sinusoid(0.2, 0.5), calls)))
        assert len(integrate(GridSamples(spec, t_final, DT), y0).times) == \
            round(t_final / DT) + 1
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_trajectory_accessors():
    traj = integrate_nu(GridSamples(constant_spec(omega=1.0), 1.0, DT), (1, 0, 0))
    assert traj.nu[0].tolist() == [1, 0, 0]
    assert (traj.lambda1[0], traj.lambda2[0]) == (0, 1)
    assert traj.times is traj.samples.times and traj.samples.dt == 1e-3


# -- operator assembly -------------------------------------------------------------

def test_build_B_reproduces_bare_operators():
    b, bd, _ = ladder_operators()
    assert max_abs(build_B_array((1, 0, 0)) - b) == 0.0
    assert max_abs(build_B_array((0, 1, 0)) - bd) == 0.0
    assert max_abs(build_B_dagger((1, 0, 0)) - bd) == 0.0


def test_build_B_matches_heisenberg_oracle_free_case():
    w0 = 0.9
    spec = constant_spec(omega=w0)
    traj = integrate_nu(GridSamples(spec, 3.0, DT), (1, 0, 0))
    u = evolve_unitary(traj.samples)
    b, _, _ = ladder_operators()
    k = 3000
    got = build_B_array(traj.nu[k])
    want = u.U[k] @ b @ u.U[k].conj().T
    assert max_abs(got - want) < 1e-8
    assert max_abs(got - np.exp(1j * w0 * 3.0) * b) < 1e-8


def test_ladder_conditions_check_values():
    assert ladder_conditions_check((1, 0, 0)) == (0.0, 0.0)
    res_b2, res_anti = ladder_conditions_check((1, 1, 0))
    assert res_b2 == pytest.approx(1.0)
    # matrix residuals equal the |lambda| formulas identically
    rng = np.random.default_rng(6)
    nu = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    lam1, lam2 = motion_constants(nu)
    rb2, ranti = ladder_conditions_check(nu)
    assert rb2 == pytest.approx(np.abs(lam1), abs=1e-13)
    assert ranti == pytest.approx(np.abs(lam2 - 1.0), abs=1e-13)


def test_ladder_residuals_small_on_calibrated_trajectory(calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    rb2, ranti = ladder_conditions_check(traj.nu)
    assert np.max(rb2) <= 1e-8 and np.max(ranti) <= 1e-8


def test_hermitian_invariant():
    got = hermitian_invariant((1, 0, 0))
    assert max_abs(got - np.diag([-0.5, 0.5])) == 0.0
    assert max_abs(got - got.conj().T) == 0.0


def test_hermitian_invariant_spectrum_constancy(calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    ev = np.linalg.eigvalsh(hermitian_invariant(traj.nu[::617]))
    assert np.max(np.abs(np.sort(ev, axis=-1) - np.array([-0.5, 0.5]))) <= 1e-8


def test_hermitian_invariant_satisfies_invariance_equation(forced_spec,
                                                           calibrated_trajectory):
    # Eq.-of-invariance residual applied to I = B'B - 1/2 via central FD
    traj, _, _ = calibrated_trajectory
    k = np.arange(1, len(traj.times) - 1, 499)
    i_prev, i_now, i_next = (hermitian_invariant(traj.nu[k + s]) for s in (-1, 0, 1))
    di = (i_next - i_prev) / (2 * traj.samples.dt)
    h = hamiltonian_matrix(Samples(forced_spec, traj.times[k]))
    assert max_abs(di - 1j * (i_now @ h - h @ i_now)) <= 1e-6


# -- invariance equation -------------------------------------------------------------

def test_invariance_residual_free_closed_form():
    spec = HamiltonianSpec(omega=Sinusoid(0.3, 1.0, 0.0, offset=1.0),
                           f=ComplexSignal(Constant(0.0)), g=Constant(0.0))
    samples = GridSamples(spec, 5.0, 1e-3)
    traj = NuTrajectory(samples, free_oscillator_nu((1, 0, 0), samples))
    assert _matrix_residuals(spec, traj)[2499] <= 1e-6
    assert invariance_residual_max(traj) <= 1e-6


def test_invariance_residual_on_random_spec():
    rng = np.random.default_rng(13)
    spec = random_spec(rng)
    traj = integrate_nu(GridSamples(spec, 10.0, DT), (1, 0, 0))
    assert invariance_residual_max(traj) <= 1e-5


def _matrix_residuals(spec, traj):
    """||dB/dt - i[B, H]||_max at each interior point, by 2x2 matrix products.

    An independent route to ``invariance_residual_max``: the commutator is
    formed from the assembled B and H matrices, not entrywise.
    """
    b = build_B_array(traj.nu)
    db = (b[2:] - b[:-2]) / (2.0 * traj.samples.dt)
    h = hamiltonian_matrix(Samples(spec, traj.times[1:-1]))
    return np.max(np.abs(db - 1j * (b[1:-1] @ h - h @ b[1:-1])), axis=(1, 2))


def test_invariance_residual_max_matches_matrix_form():
    # arbitrary coefficients on three-point grids, so that each entry of
    # dB/dt - i[B, H] is the largest one in some draw
    rng = np.random.default_rng(5)
    spec = random_spec(rng)
    samples = GridSamples(spec, 0.2, 0.1)
    for _ in range(40):
        nu = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        traj = NuTrajectory(samples, nu)
        assert invariance_residual_max(traj) == pytest.approx(
            float(_matrix_residuals(spec, traj)[0]), rel=1e-14)


def test_invariance_residual_detects_wrong_forcing_sign():
    spec = constant_spec(omega=0.8, f=0.5)
    flipped = constant_spec(omega=0.8, f=-0.5)
    bad = integrate_nu(GridSamples(flipped, 2.0, DT), (1, 0, 0))
    assert invariance_residual_max(NuTrajectory(GridSamples(spec, 2.0, DT), bad.nu)) >= 1e-2



# -- free-oscillator closed forms ------------------------------------------------------

def test_free_oscillator_nu_examples():
    w0 = 1.3
    s = Samples(constant_spec(omega=w0), np.linspace(0.0, 2.0, 129))
    got = free_oscillator_nu((1, 0, 0), s)
    assert got[:, 0] == pytest.approx(np.exp(1j * w0 * s.times), abs=1e-12)
    assert np.max(np.abs(got[:, 1:])) == 0.0
    got3 = free_oscillator_nu((0, 0, 1), s)
    assert (got3 == (0, 0, 1)).all()


def test_free_oscillator_nu_matches_integrator_sinusoid():
    omega = Sinusoid(0.8, 1.1, 0.4, offset=1.0)
    spec = HamiltonianSpec(omega=omega, f=ComplexSignal(Constant(0.0)), g=Constant(0.0))
    nu0 = (0.6, 0.4j, 2 * np.sqrt(-0.6 * 0.4j))
    samples = GridSamples(spec, 5.0, DT)
    closed = free_oscillator_nu(nu0, samples)
    assert np.max(np.abs(closed - integrate_nu(samples, nu0).nu)) <= 1e-8


def test_free_oscillator_nu_guards_forcing():
    cases = [(Constant(0.5), np.linspace(0.0, 1.0, 11)),
             # zero at every t = k/32, so at each of the 33 points of
             # linspace(0, 1, 33), yet |f| reaches 0.49996 on this grid
             (Sinusoid(0.5, 32 * np.pi), np.linspace(0.0, 1.0, 1001))]
    for f, times in cases:
        spec = HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(f), g=Constant(0.0))
        with pytest.raises(ContractError):
            free_oscillator_nu((1, 0, 0), Samples(spec, times))


# -- B_so ---------------------------------------------------------------------------

def _free_samples(omega, t_final, points=129):
    """Samples of the f = 0 spec with this omega on linspace(0, t_final, points)."""
    spec = HamiltonianSpec(omega=omega, f=ComplexSignal(Constant(0.0)), g=Constant(0.0))
    return Samples(spec, np.linspace(0.0, t_final, points))


def test_build_B_so_degenerate_case_phase_orientation():
    # with nu0 = (1, 0) the operator is exp(+i phi) b: the sign pairing the
    # coefficient system itself produces (and the Heisenberg oracle confirms)
    w0 = 1.0
    b, _, _ = ladder_operators()
    s = _free_samples(Constant(w0), 2.0)
    got = build_B_so(1.0, 0.0, s)
    assert max_abs(got - np.exp(1j * w0 * s.times)[:, None, None] * b) < 1e-12


def test_build_B_so_ladder_conditions():
    got = build_B_so(0.5, 0.5, _free_samples(Constant(0.9), 1.7))
    assert max_abs(got @ got) <= 1e-12
    got_dag = got.conj().swapaxes(1, 2)
    assert max_abs(got @ got_dag + got_dag @ got - I2) <= 1e-12


def test_build_B_so_both_branches_are_ladder():
    for branch in (+1, -1):
        got = build_B_so(0.3, 0.7, _free_samples(Constant(0.5), 0.8), branch=branch)
        assert max_abs(got @ got) <= 1e-12


def test_build_B_so_invariance():
    omega = Sinusoid(0.3, 1.0, 0.0, offset=1.0)
    spec = HamiltonianSpec(omega=omega, f=ComplexSignal(Constant(0.0)), g=Constant(0.0))
    dt = 2e-4
    times = np.arange(0, int(round(2.0 / dt)) + 1) * dt
    mats = build_B_so(0.5, 0.5, Samples(spec, times))
    k = np.arange(1, len(times) - 1, 173)
    db = (mats[k + 1] - mats[k - 1]) / (2 * dt)
    h = hamiltonian_matrix(Samples(spec, times[k]))
    assert max_abs(db - 1j * (mats[k] @ h - h @ mats[k])) <= 1e-6


def test_build_B_so_normalization_guard():
    s = _free_samples(Constant(1.0), 1.0)
    with pytest.raises(ContractError):
        build_B_so(1.0, 0.5, s)
    with pytest.raises(ValueError):
        build_B_so(1.0, 0.0, s, branch=2)

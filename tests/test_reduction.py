import math

import numpy as np
import pytest

from ffo.algebra import I2, hamiltonian_matrix, max_abs
from ffo.errors import IntegrationError, SingularReductionError
from ffo.grid import GridSamples, Samples
from ffo.invariants import build_B_array, integrate_nu, motion_constants, nu_generator
from ffo.reduction import (_epsilon_generator, _gamma_omega, build_B_normalized,
                           epsilon_prime_transform, first_integral_lambda,
                           integrate_epsilon, lambda2_from_epsilon, nu3_from_nu_plus,
                           nu_from_epsilon_arrays, nu_minus_compact,
                           nu_minus_from_nu_plus_2nd, nu_plus_jets, third_order_residual)
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Polynomial,
                         Sinusoid, constant_spec)

DT = 1e-3


def _jets_traj(spec, t_final=5.0, nu0=(0.3 + 0.1j, 0.2 - 0.4j, 0.5 + 0.2j)):
    return integrate_nu(GridSamples(spec, t_final, DT), nu0)


# -- first reduction formulas ----------------------------------------------------

def _strided(spec, traj, step, start=0):
    """Samples and coefficients on every ``step``-th grid point of ``traj`` from ``start``."""
    rows = slice(start, None, step)
    return Samples(spec, traj.times[rows]), traj.nu[rows]


def test_nu3_direct_substitution():
    spec = constant_spec(omega=0.0, f=0.7)
    # nu_plus' = i f and nu_plus = 0 force nu_3 = 1
    assert nu3_from_nu_plus(Samples(spec, 0.0), 0.0, 0.7j) == pytest.approx(1.0)


def test_nu3_consistency_along_trajectory(forced_spec):
    s, nu = _strided(forced_spec, _jets_traj(forced_spec), 250)
    vp, vpd, _, _ = nu_plus_jets(s, nu)
    assert np.max(np.abs(nu3_from_nu_plus(s, vp, vpd) - nu[:, 2])) <= 1e-6


def test_nu3_singular_guard():
    with pytest.raises(SingularReductionError):
        nu3_from_nu_plus(Samples(constant_spec(omega=1.0, f=0.0), 0.0), 1.0, 0.0)


def test_nu_minus_second_derivative_route(forced_spec):
    s, nu = _strided(forced_spec, _jets_traj(forced_spec), 250)
    vp, vpd, vpdd, _ = nu_plus_jets(s, nu)
    assert np.max(np.abs(nu_minus_from_nu_plus_2nd(s, vp, vpd, vpdd) - nu[:, 0])) <= 1e-5


def test_nu_minus_constant_coefficient_closed_form():
    # omega, f constant real: eps = exp(i mu t) with mu^2 = f^2 + omega^2/4
    # solves the eps equation; nu_plus = eps^2/2 then pins nu_minus
    w0, f0 = 0.8, 0.6
    s = Samples(constant_spec(omega=w0, f=f0), np.array([0.0, 0.7, 2.1]))
    mu = np.sqrt(f0 ** 2 + 0.25 * w0 * w0)
    eps = np.exp(1j * mu * s.times)
    epsd = 1j * mu * eps
    vp = 0.5 * eps * eps
    vpd = eps * epsd
    vpdd = epsd * epsd + eps * (-mu * mu * eps)
    got = nu_minus_from_nu_plus_2nd(s, vp, vpd, vpdd)
    want = nu_from_epsilon_arrays(s, eps, epsd)[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_nu_minus_zero_jet():
    spec = constant_spec(omega=0.5, f=0.4)
    assert nu_minus_from_nu_plus_2nd(Samples(spec, 0.0), 0.0, 0.0, 0.0) == 0.0


# -- third-order equation -----------------------------------------------------------

def test_third_order_residual_vanishes_on_valid_jets(forced_spec):
    s, nu = _strided(forced_spec, _jets_traj(forced_spec), 200)
    assert np.max(third_order_residual(s, nu_plus_jets(s, nu))) <= 1e-4


def test_third_order_residual_zero_jet(forced_spec):
    assert third_order_residual(Samples(forced_spec, 0.3), (0, 0, 0, 0)) == 0.0


def test_third_order_residual_detects_perturbation(forced_spec):
    traj = _jets_traj(forced_spec)
    k = 1700
    s = Samples(forced_spec, float(traj.times[k]))
    vp, vpd, vpdd, vpddd = nu_plus_jets(s, traj.nu[k])
    assert third_order_residual(s, (vp, vpd, 1.1 * vpdd, vpddd)) >= 1e-3


# -- first integral -------------------------------------------------------------------

def test_lambda_constant_and_linked_to_lambda1(forced_spec):
    traj = _jets_traj(forced_spec, t_final=10.0)
    s, nu = _strided(forced_spec, traj, 200)
    lams = first_integral_lambda(s, *nu_plus_jets(s, nu)[:3])
    assert np.max(np.abs(lams - lams[0])) <= 1e-5
    assert np.max(np.abs(lams - 16.0 * traj.lambda1[::200])) <= 1e-6


def test_lambda_zero_on_ladder_calibrated(forced_spec, calibrated_trajectory):
    s, nu = _strided(forced_spec, calibrated_trajectory[0], 333)
    assert np.max(np.abs(first_integral_lambda(s, *nu_plus_jets(s, nu)[:3]))) <= 1e-6


# -- compact nu_minus ------------------------------------------------------------------

def _jets_where_nu_plus_clear(spec, times, nu, floor=1e-3):
    """Samples and nu_plus jets at those of ``times`` where |nu_plus| >= floor."""
    keep = np.abs(nu[:, 1]) >= floor
    s = Samples(spec, times[keep])
    return s, nu_plus_jets(s, nu[keep])


def test_nu_minus_compact_agrees_with_second_derivative_route(forced_spec):
    traj = _jets_traj(forced_spec)
    s, (vp, vpd, vpdd, _) = _jets_where_nu_plus_clear(forced_spec, traj.times[::250],
                                                      traj.nu[::250])
    lam = first_integral_lambda(s, vp, vpd, vpdd)
    a = nu_minus_compact(s, vp, vpd, lam)
    b = nu_minus_from_nu_plus_2nd(s, vp, vpd, vpdd)
    assert np.max(np.abs(a - b)) <= 1e-6


def test_nu_minus_compact_direct_substitution():
    # lam = 0 with nu_plus' = +i omega nu_plus makes the core 2 omega nu_plus,
    # so nu_minus = -(2 omega nu_plus)^2/(4 f^2 nu_plus) = -omega^2 nu_plus/f^2
    w0, f0, vp = 0.9, 0.5, 0.3 + 0.2j
    spec = constant_spec(omega=w0, f=f0)
    got = nu_minus_compact(Samples(spec, 0.0), vp, 1j * w0 * vp, 0.0)
    assert got == pytest.approx(-w0 ** 2 * vp / f0 ** 2, abs=1e-14)


def test_nu_minus_compact_guard():
    spec = constant_spec(omega=1.0, f=0.5)
    with pytest.raises(SingularReductionError):
        nu_minus_compact(Samples(spec, 0.0), 0.0, 1.0, 0.0)


# -- normalized ladder operator ----------------------------------------------------------

def test_build_B_normalized_is_ladder_and_matches_direct(forced_spec,
                                                         calibrated_trajectory):
    s, nu = _strided(forced_spec, calibrated_trajectory[0], 444, start=1)
    vp, vpd, _, _ = nu_plus_jets(s, nu)
    bn = build_B_normalized(s, vp, vpd)
    bn_dag = np.conj(bn).swapaxes(1, 2)
    assert max(max_abs(bn @ bn), max_abs(bn @ bn_dag + bn_dag @ bn - I2)) <= 1e-8
    # agreement with the direct-route operator up to a unit phase
    bd = build_B_array(nu)
    inner = np.sum(np.conj(bd) * bn, axis=(1, 2))
    assert max_abs(bn - (inner / np.abs(inner))[:, None, None] * bd) <= 1e-6


def test_build_B_normalized_invariance(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    dt = traj.samples.dt
    k = np.arange(1, len(traj.times) - 1, 367)
    mats = []
    for shift in (-1, 0, 1):
        s = Samples(forced_spec, traj.times[k + shift])
        vp, vpd, _, _ = nu_plus_jets(s, traj.nu[k + shift])
        mats.append(build_B_normalized(s, vp, vpd))
    db = (mats[2] - mats[0]) / (2 * dt)
    h = hamiltonian_matrix(Samples(forced_spec, traj.times[k]))
    assert max_abs(db - 1j * (mats[1] @ h - h @ mats[1])) <= 1e-5


def test_build_B_normalized_guards():
    s = Samples(constant_spec(omega=1.0, f=0.5), 0.0)
    with pytest.raises(SingularReductionError):
        build_B_normalized(s, 0.0, 1.0)
    with pytest.raises(SingularReductionError):
        build_B_normalized(Samples(constant_spec(omega=1.0, f=0.0), 0.0), 1.0, 0.0)


# -- one function of time on a grid or at one time -------------------------------------

# each function of the reduction chain, called on samples, coefficients nu
# and the nu_plus jets at the same times, with its result's grid axis first
CHAIN = {
    "nu_plus_jets": lambda s, nu, jets: np.stack(jets, axis=-1),
    "nu3_from_nu_plus": lambda s, nu, jets: nu3_from_nu_plus(s, jets[0], jets[1]),
    "nu_minus_from_nu_plus_2nd": lambda s, nu, jets: nu_minus_from_nu_plus_2nd(s, *jets[:3]),
    "third_order_residual": lambda s, nu, jets: third_order_residual(s, jets),
    "first_integral_lambda": lambda s, nu, jets: first_integral_lambda(s, *jets[:3]),
    "nu_minus_compact": lambda s, nu, jets: nu_minus_compact(
        s, jets[0], jets[1], 16.0 * motion_constants(nu).lambda1),
    "build_B_normalized": lambda s, nu, jets: build_B_normalized(s, jets[0], jets[1]),
    # the gauge is an integral along the grid (1 at one time); omega_prime is pointwise
    "epsilon_prime_transform": lambda s, nu, jets: epsilon_prime_transform(s)[0],
}


@pytest.mark.parametrize("name", CHAIN)
@pytest.mark.parametrize("which", ["forced", "calibrated"])
def test_reduction_chain_grid_call_matches_one_point_calls(name, which, forced_spec,
                                                           calibrated_trajectory):
    traj = _jets_traj(forced_spec) if which == "forced" else calibrated_trajectory[0]
    s, nu = _strided(forced_spec, traj, 250)
    call = CHAIN[name]
    grid = call(s, nu, nu_plus_jets(s, nu))
    assert grid.shape[0] == len(s.times)
    for k, t in enumerate(s.times.tolist()):
        one_point = Samples(forced_spec, t)
        got = call(one_point, nu[k], nu_plus_jets(one_point, nu[k]))
        assert np.shape(got) == grid.shape[1:]
        # relative to max(1, |value|): numpy rounds complex products of scalars
        # differently from its array loops, which shows in rounding-level residuals
        assert np.all(np.abs(got - grid[k]) <= 1e-14 * np.maximum(1.0, np.abs(grid[k])))


@pytest.mark.parametrize("name", [n for n in CHAIN if n != "nu_plus_jets"])
def test_reduction_chain_guards_forcing_at_one_interior_time(name):
    # f = t - 0.5 vanishes at the sixth of eleven grid times and nowhere else on the grid
    spec = HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(Polynomial((-0.5, 1.0))),
                           g=Constant(0.0))
    s = Samples(spec, np.linspace(0.0, 1.0, 11))
    assert np.count_nonzero(np.abs(s.f) < 1e-9) == 1
    nu = np.tile([0.3 + 0.1j, 0.4 - 0.2j, 0.5j], (11, 1))
    with pytest.raises(SingularReductionError, match="violated at t=0.5$"):
        CHAIN[name](s, nu, nu_plus_jets(s, nu))


# -- epsilon equation ---------------------------------------------------------------------

def test_epsilon_constant_coefficients_closed_form():
    w0, f0 = 0.8, 0.6
    spec = constant_spec(omega=w0, f=f0)
    mu = np.sqrt(f0 ** 2 + 0.25 * w0 * w0)
    et = integrate_epsilon(GridSamples(spec, 5.0, DT), (1.0, 1j * mu))
    want = np.exp(1j * mu * et.times)
    assert np.max(np.abs(et.eps - want)) <= 1e-8


def test_epsilon_zero_solution():
    et = integrate_epsilon(GridSamples(constant_spec(omega=1.0, f=0.5), 1.0, DT),
                           (0.0, 0.0))
    assert np.max(np.abs(et.eps)) == 0.0
    assert np.max(np.abs(et.eps_dot)) == 0.0


def _capital_omega(spec, times):
    """Omega = |f|^2 + omega^2/4 + i omega'/2 - i omega f'/(2f) at ``times``."""
    return _gamma_omega(Samples(spec, times))[1]


def _eps_derivative(spec, times, eps, eps_dot):
    """(eps', eps'') at ``times`` from the generator of the eps equation."""
    a = _epsilon_generator(*_gamma_omega(Samples(spec, times)))
    return a[:, 0] * eps + a[:, 1] * eps_dot


def test_epsilon_generator_definition():
    spec = constant_spec(omega=0.8, f=0.6)
    d_eps, d_eps_dot = _eps_derivative(spec, 0.0, 1.0, 0.5j)
    # Omega = f^2 + omega^2/4 for constant real omega and f
    assert _capital_omega(spec, 0.0) == pytest.approx(0.6 ** 2 + 0.25 * 0.8 ** 2, abs=1e-15)
    assert d_eps == 0.5j
    assert d_eps_dot == pytest.approx(-_capital_omega(spec, 0.0) * 1.0)


def test_epsilon_requires_forcing_floor():
    spec = HamiltonianSpec(omega=Constant(1.0),
                           f=ComplexSignal(Sinusoid(0.5, 1.0)),  # crosses zero
                           g=Constant(0.0))
    with pytest.raises(SingularReductionError, match="violated at t=0.0$"):
        integrate_epsilon(GridSamples(spec, 5.0, DT), (1.0, 0.0))


def test_epsilon_forcing_floor_checked_on_midpoints():
    # f = t - 0.0015 clears the floor on every grid node but vanishes at the
    # RK4 stage midpoint between t = 0.001 and t = 0.002
    spec = HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(Polynomial((-0.0015, 1.0))),
                           g=Constant(0.0))
    with pytest.raises(SingularReductionError, match="violated at t=0.0015$"):
        integrate_epsilon(GridSamples(spec, 1.0, DT), (1.0, 0.0))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_epsilon_nonfinite_signal_names_grid_time(nan_forcing_spec):
    # NaN forcing from t = 1.2504 first poisons the step ending at t = 1.251
    with pytest.raises(IntegrationError) as err:
        integrate_epsilon(GridSamples(nan_forcing_spec, 2.0, DT), (1.0, 0.3j))
    assert err.value.t == pytest.approx(1.251)
    assert "t=1.251" in str(err.value)


def test_lambda2_first_integral_along_epsilon(forced_spec, calibrated_trajectory):
    traj, eps, eps_dot = calibrated_trajectory
    lam2 = traj.lambda2
    assert np.max(np.abs(lam2 - lam2[0])) <= 1e-7


# -- nu from epsilon -----------------------------------------------------------------------

def test_nu_from_epsilon_lambda1_identity(forced_spec, calibrated_trajectory):
    traj, _, _ = calibrated_trajectory
    assert np.max(np.abs(traj.lambda1)) <= 1e-12


def test_nu_from_epsilon_solves_direct_system(forced_spec, calibrated_trajectory):
    # analytic t-derivative of nu(eps) must match the direct right-hand side
    traj, eps, eps_dot = calibrated_trajectory
    h = 1e-6
    ts, eps, eps_dot = traj.times[::500], eps[::500], eps_dot[::500]
    d_eps, d_eps_dot = _eps_derivative(forced_spec, ts, eps, eps_dot)
    nu_now = nu_from_epsilon_arrays(Samples(forced_spec, ts), eps, eps_dot)
    nu_next = nu_from_epsilon_arrays(Samples(forced_spec, ts + h),
                                     eps + h * d_eps, eps_dot + h * d_eps_dot)
    want = (nu_generator(Samples(forced_spec, ts)) @ nu_now[:, :, None])[:, :, 0]
    assert np.max(np.abs((nu_next - nu_now) / h - want)) <= 1e-5


def test_nu_from_epsilon_zero():
    spec = constant_spec(omega=1.0, f=0.5)
    assert nu_from_epsilon_arrays(Samples(spec, 0.0), 0.0, 0.0).tolist() == [0, 0, 0]
    zeros = np.zeros((2, 3), dtype=complex)
    assert (nu_from_epsilon_arrays(Samples(spec, np.zeros((2, 3))), zeros, zeros)
            == np.zeros((2, 3, 3))).all()


def test_nu_from_epsilon_array_guard():
    # one grid point below the forcing floor rejects the whole array call,
    # rather than dividing by ~0
    spec = HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(Polynomial((-0.1, 1.0))),
                           g=Constant(0.0))
    ones = np.ones(3, dtype=complex)
    with pytest.raises(SingularReductionError):
        nu_from_epsilon_arrays(Samples(spec, np.array([0.0, 0.1, 0.2])), ones, ones)
    with pytest.raises(SingularReductionError):
        nu_from_epsilon_arrays(Samples(constant_spec(f=0.0), 0.0), 1.0, 0.0)


def test_closure_against_direct_integration(forced_spec, calibrated_trajectory):
    traj, eps, eps_dot = calibrated_trajectory
    direct = integrate_nu(GridSamples(forced_spec, 5.0, DT), tuple(traj.nu[0]))
    assert np.max(np.abs(direct.nu - traj.nu)) <= 1e-5


# -- lambda2 from epsilon ---------------------------------------------------------------------

def test_lambda2_two_routes_agree(forced_spec, calibrated_trajectory):
    traj, eps, eps_dot = calibrated_trajectory
    grid = lambda2_from_epsilon(Samples(forced_spec, traj.times), (eps, eps_dot))
    assert grid.shape == traj.times.shape
    for k in range(0, len(traj.times), 250):
        got = lambda2_from_epsilon(Samples(forced_spec, float(traj.times[k])),
                                   (eps[k], eps_dot[k]))
        assert np.ndim(got) == 0
        assert got == pytest.approx(grid[k], rel=1e-15)
    assert np.max(np.abs(grid - motion_constants(traj.nu).lambda2)) <= 1e-10


def test_lambda2_from_epsilon_zero():
    spec = constant_spec(omega=1.0, f=0.5)
    assert lambda2_from_epsilon(Samples(spec, 0.0), (0.0, 0.0)) == 0.0
    zeros = np.zeros(3, dtype=complex)
    grid = Samples(spec, np.arange(3) * 0.1)
    assert lambda2_from_epsilon(grid, (zeros, zeros)).tolist() == [0.0] * 3


def test_lambda2_from_epsilon_array_guard():
    # one grid point below the forcing floor rejects the whole array call
    spec = HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(Polynomial((-0.1, 1.0))),
                           g=Constant(0.0))
    ones = np.ones(3, dtype=complex)
    with pytest.raises(SingularReductionError):
        lambda2_from_epsilon(Samples(spec, np.array([0.0, 0.1, 0.2])), (ones, ones))


# -- epsilon-prime transform --------------------------------------------------------------------

def test_epsilon_prime_constant_forcing():
    spec = constant_spec(omega=0.7, f=0.8)
    times = np.arange(0, 1001) * 1e-3
    om_p, gauge = epsilon_prime_transform(Samples(spec, times))
    assert np.max(np.abs(gauge - 1.0)) <= 1e-12
    assert np.max(np.abs(om_p - _capital_omega(spec, 0.0))) <= 1e-12


def test_epsilon_prime_exponential_forcing():
    # f = exp(alpha t): Omega' = Omega - alpha^2/4
    alpha = 0.3
    times = np.arange(0, 2001) * 1e-3
    f_re = Polynomial(tuple(alpha ** k / math.factorial(k) for k in range(12)))
    spec = HamiltonianSpec(omega=Constant(0.9), f=ComplexSignal(f_re), g=Constant(0.0))
    om_p, gauge = epsilon_prime_transform(Samples(spec, times))
    qs = _capital_omega(spec, times[::100])
    assert np.max(np.abs(om_p[::100] - (qs - alpha ** 2 / 4.0))) <= 1e-6
    # gauge = exp(alpha t / 2) for this forcing
    assert np.max(np.abs(gauge - np.exp(0.5 * alpha * times))) <= 1e-6


def test_epsilon_prime_round_trip(forced_spec):
    dt = 1e-3
    et = integrate_epsilon(GridSamples(forced_spec, 5.0, DT), (1.0 + 0.2j, 0.1 - 0.3j))
    om_p, gauge = epsilon_prime_transform(et.samples)
    # integrate the primed equation with matched initial conditions
    f0 = complex(forced_spec.f.value(0.0))
    fd0 = complex(forced_spec.f.d1(0.0))
    e = complex(et.eps[0])
    ed = complex(et.eps_dot[0]) - 0.5 * (fd0 / f0) * complex(et.eps[0])
    tm = et.times[:-1] + 0.5 * dt

    def om_at(ts):
        f = np.asarray(forced_spec.f.value(ts), complex)
        fd = np.asarray(forced_spec.f.d1(ts), complex)
        fdd = np.asarray(forced_spec.f.d2(ts), complex)
        w = np.asarray(forced_spec.omega.value(ts), float)
        wd = np.asarray(forced_spec.omega.d1(ts), float)
        gam = fd / f
        return (np.abs(f) ** 2 + 0.25 * w * w + 0.5j * wd - 0.5j * w * gam
                + 0.5 * fdd / f - 0.75 * gam * gam)

    q0 = om_at(et.times).tolist()
    qm = om_at(tm).tolist()
    eps_p = np.empty_like(et.eps)
    eps_p[0] = e
    for k in range(len(et.times) - 1):
        qa, qb, qc = q0[k], qm[k], q0[k + 1]
        k1 = (ed, -qa * e)
        e2, ed2 = e + 0.5 * dt * k1[0], ed + 0.5 * dt * k1[1]
        k2 = (ed2, -qb * e2)
        e3, ed3 = e + 0.5 * dt * k2[0], ed + 0.5 * dt * k2[1]
        k3 = (ed3, -qb * e3)
        e4, ed4 = e + dt * k3[0], ed + dt * k3[1]
        k4 = (ed4, -qc * e4)
        e += dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        ed += dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        eps_p[k + 1] = e
    assert np.max(np.abs(eps_p * gauge - et.eps)) <= 1e-6


def test_epsilon_prime_guard():
    spec = constant_spec(omega=1.0, f=0.0)
    with pytest.raises(SingularReductionError):
        epsilon_prime_transform(Samples(spec, np.arange(0, 101) * 1e-2))


def test_nu_minus_compact_equals_second_written_form(forced_spec):
    # lam/(16 nu_plus) - core^2/(4 f^2 nu_plus) == (lam/4 - nu_3^2)/(4 nu_plus)
    traj = _jets_traj(forced_spec)
    k = [500, 2100, 4400]
    s, (vp, vpd, vpdd, _) = _jets_where_nu_plus_clear(forced_spec, traj.times[k], traj.nu[k])
    lam = first_integral_lambda(s, vp, vpd, vpdd)
    v3 = nu3_from_nu_plus(s, vp, vpd)
    alt = (lam / 4.0 - v3 * v3) / (4.0 * vp)
    assert np.max(np.abs(nu_minus_compact(s, vp, vpd, lam) - alt)) <= 1e-12

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm

from ffo.algebra import I2, ladder_operators, max_abs
from ffo.errors import ContractError, IntegrationError
from ffo.grid import time_grid
from ffo.propagator import (PropagatorConfig, _magnus_factors, evolve_state, evolve_unitary,
                            exp2x2, heisenberg_oracle)
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Signal,
                         Sinusoid, constant_spec)
from ffo.sweeps import random_spec


@dataclass(frozen=True)
class Shifted(Signal):
    base: Signal
    t0: float

    def value(self, t):
        return self.base.value(np.asarray(t) + self.t0)

    def d1(self, t):
        return self.base.d1(np.asarray(t) + self.t0)

    def d2(self, t):
        return self.base.d2(np.asarray(t) + self.t0)


def shift_spec(spec, t0):
    return HamiltonianSpec(omega=Shifted(spec.omega, t0),
                           f=ComplexSignal(Shifted(spec.f.re, t0), Shifted(spec.f.im, t0)),
                           g=Shifted(spec.g, t0))


def unitarity_drift(U):
    return float(np.max(np.abs(np.conj(np.transpose(U, (0, 2, 1))) @ U - I2)))


# -- exp2x2 ---------------------------------------------------------------------

def test_exp2x2_zero_and_diagonal():
    assert max_abs(exp2x2(np.zeros((2, 2))) - I2) == 0.0
    th = 0.77
    got = exp2x2(np.diag([1j * th, -1j * th]))
    assert np.allclose(got, np.diag([np.exp(1j * th), np.exp(-1j * th)]))


def test_exp2x2_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert max_abs(exp2x2(a) - expm(a)) < 1e-12 * max(1.0, max_abs(expm(a)))


def test_exp2x2_small_mu_series_branch():
    a = np.array([[1e-8, 2e-9], [1e-9, -1e-8]], dtype=complex)
    assert max_abs(exp2x2(a) - expm(a)) < 1e-15


def test_exp2x2_antihermitian_gives_unitary():
    rng = np.random.default_rng(2)
    for _ in range(50):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        u = exp2x2(-1j * 0.01 * h)
        assert max_abs(u.conj().T @ u - I2) <= 1e-14


# -- evolve_unitary --------------------------------------------------------------

def test_zero_hamiltonian_is_identity():
    traj = evolve_unitary(constant_spec(), 1.0, PropagatorConfig(dt=1e-3))
    assert max_abs(traj.U[-1] - I2) < 1e-14


def test_constant_omega_closed_form():
    w0 = 1.3
    traj = evolve_unitary(constant_spec(omega=w0), 5.0, PropagatorConfig(dt=1e-3))
    want = np.diag([1.0, np.exp(-1j * w0 * 5.0)])
    assert max_abs(traj.U[-1] - want) < 1e-8


def test_constant_forcing_closed_form():
    f0 = 0.8
    b, bd, _ = ladder_operators()
    traj = evolve_unitary(constant_spec(f=f0), 5.0, PropagatorConfig(dt=1e-3))
    t = 5.0
    want = np.cos(f0 * t) * I2 - 1j * np.sin(f0 * t) * (bd + b)
    assert max_abs(traj.U[-1] - want) < 1e-8


def test_unitarity_on_smooth_random_specs():
    rng = np.random.default_rng(9)
    for _ in range(3):
        spec = random_spec(rng)
        traj = evolve_unitary(spec, 10.0, PropagatorConfig(dt=1e-3))
        assert unitarity_drift(traj.U) <= 1e-9


def test_fourth_order_convergence():
    spec = HamiltonianSpec(
        omega=Sinusoid(0.9, 1.1, 0.2, offset=0.7),
        f=ComplexSignal(Sinusoid(0.5, 0.8, 0.5, offset=0.1), Constant(0.2)),
        g=Constant(0.1))
    t_final = 2.0
    us = [evolve_unitary(spec, t_final, PropagatorConfig(dt=dt)).U[-1]
          for dt in (0.02, 0.01, 0.005)]
    e1 = max_abs(us[0] - us[1])
    e2 = max_abs(us[1] - us[2])
    assert e1 / e2 == pytest.approx(16.0, abs=2.0)


def test_matches_closed_form_tightly():
    w0 = 0.9
    traj = evolve_unitary(constant_spec(omega=w0), 5.0, PropagatorConfig(dt=1e-3))
    want = np.diag([1.0, np.exp(-1j * w0 * 5.0)])
    assert max_abs(traj.U[-1] - want) < 1e-11


def test_composition_property():
    spec = random_spec(np.random.default_rng(12))
    t1, t2 = 2.0, 5.0
    full = evolve_unitary(spec, t2, PropagatorConfig(dt=1e-3))
    head = evolve_unitary(spec, t1, PropagatorConfig(dt=1e-3))
    tail = evolve_unitary(shift_spec(spec, t1), t2 - t1, PropagatorConfig(dt=1e-3))
    assert max_abs(tail.U[-1] @ head.U[-1] - full.U[-1]) < 1e-10


def _stepwise_reference(spec, t_final, dt):
    """U by the earlier per-step loop: U_{k+1} = E_k U_k, one 2x2 product a step."""
    times = time_grid(t_final, dt)
    e00, e01, e10, e11 = (e.tolist() for e in _magnus_factors(spec, times, dt))
    U = np.empty((len(times), 2, 2), dtype=complex)
    u00, u01, u10, u11 = 1 + 0j, 0j, 0j, 1 + 0j
    U[0] = I2
    for k in range(len(times) - 1):
        a00, a01, a10, a11 = e00[k], e01[k], e10[k], e11[k]
        u00, u01, u10, u11 = (a00 * u00 + a01 * u10, a00 * u01 + a01 * u11,
                              a10 * u00 + a11 * u10, a10 * u01 + a11 * u11)
        U[k + 1] = [[u00, u01], [u10, u11]]
    return U


@pytest.mark.parametrize("steps", [1, 2, 3, 1023, 1024, 1025, 2053])
def test_scan_matches_stepwise_reference(steps):
    # a time-dependent spec: with a constant H the factors commute, so a
    # reversed product order would go unseen
    spec = random_spec(np.random.default_rng(31))
    dt = 1e-2
    got = evolve_unitary(spec, steps * dt, PropagatorConfig(dt=dt)).U
    want = _stepwise_reference(spec, steps * dt, dt)
    assert got.shape == (steps + 1, 2, 2)
    assert max_abs(got - want) <= 1e-13


def test_invalid_config():
    with pytest.raises(ValueError):
        PropagatorConfig(dt=-1.0)


@dataclass(frozen=True)
class NanFrom(Signal):
    t_bad: float

    def value(self, t):
        return np.where(np.asarray(t) >= self.t_bad, np.nan, 0.5)


def test_nonfinite_hamiltonian_names_grid_time():
    spec = HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(NanFrom(1.25)),
                           g=Constant(0.0))
    with pytest.raises(IntegrationError) as err:
        evolve_unitary(spec, 2.0, PropagatorConfig(dt=1e-3))
    assert err.value.t == pytest.approx(1.25)
    assert "t=1.25" in str(err.value)


# -- heisenberg_oracle ------------------------------------------------------------

def test_heisenberg_identity_transport():
    b, _, _ = ladder_operators()
    assert max_abs(heisenberg_oracle(I2, b) - b) == 0.0


def test_heisenberg_diagonal_rotation():
    w0, t = 1.1, 0.9
    b, _, _ = ladder_operators()
    u = np.diag([1.0, np.exp(-1j * w0 * t)])
    got = heisenberg_oracle(u, b)
    assert max_abs(got - np.exp(1j * w0 * t) * b) < 1e-15


def test_heisenberg_preserves_identity_and_energy():
    spec = constant_spec(omega=1.0, f=0.3, g=0.2)
    traj = evolve_unitary(spec, 5.0, PropagatorConfig(dt=1e-3))
    h = np.array([[0.2, 0.3], [0.3, 1.2]], dtype=complex)
    for k in (1000, 5000):
        assert max_abs(heisenberg_oracle(traj.U[k], I2) - I2) < 1e-12
        assert max_abs(heisenberg_oracle(traj.U[k], h) - h) < 1e-9


def test_heisenberg_rejects_non_unitary():
    with pytest.raises(ContractError):
        heisenberg_oracle(1.5 * I2, I2)


# -- evolve_state ------------------------------------------------------------------

def test_state_stays_in_vacuum_without_hamiltonian():
    times, psi = evolve_state(constant_spec(), [1, 0], 1.0, PropagatorConfig(dt=1e-3))
    assert np.max(np.abs(psi - np.array([1.0, 0.0]))) < 1e-14


def test_state_rabi_closed_form():
    f0 = 0.6
    times, psi = evolve_state(constant_spec(f=f0), [1, 0], 5.0, PropagatorConfig(dt=1e-3))
    assert np.max(np.abs(psi[:, 0] - np.cos(f0 * times))) < 1e-8
    assert np.max(np.abs(psi[:, 1] + 1j * np.sin(f0 * times))) < 1e-8


def test_state_norm_preserved_on_random_specs():
    rng = np.random.default_rng(21)
    for _ in range(3):
        spec = random_spec(rng)
        _, psi = evolve_state(spec, [0.6, 0.8j], 10.0, PropagatorConfig(dt=1e-3))
        norms = np.linalg.norm(psi, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import ffo
from ffo.algebra import I2, hamiltonian_matrix, ladder_operators, max_abs
from ffo.errors import IntegrationError
from ffo.grid import GridSamples, Samples, time_grid
from ffo.propagator import _magnus_factors, apply_unitary, evolve_unitary
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


# -- evolve_unitary --------------------------------------------------------------

def test_unitary_entries_are_contiguous_grid_columns():
    # the mode runners read U entry by entry along the grid axis
    traj = evolve_unitary(GridSamples(random_spec(np.random.default_rng(0)), 1.0, 1e-2))
    assert traj.U.shape == (101, 2, 2)
    assert np.moveaxis(traj.U, 0, -1).flags.c_contiguous
    assert traj.U[0].tolist() == I2.tolist()


def test_zero_hamiltonian_is_identity():
    traj = evolve_unitary(GridSamples(constant_spec(), 1.0, 1e-3))
    assert max_abs(traj.U[-1] - I2) < 1e-14


def test_constant_omega_closed_form():
    w0 = 1.3
    traj = evolve_unitary(GridSamples(constant_spec(omega=w0), 5.0, 1e-3))
    want = np.diag([1.0, np.exp(-1j * w0 * 5.0)])
    assert max_abs(traj.U[-1] - want) < 1e-8


def test_constant_forcing_closed_form():
    f0 = 0.8
    b, bd, _ = ladder_operators()
    traj = evolve_unitary(GridSamples(constant_spec(f=f0), 5.0, 1e-3))
    t = 5.0
    want = np.cos(f0 * t) * I2 - 1j * np.sin(f0 * t) * (bd + b)
    assert max_abs(traj.U[-1] - want) < 1e-8


def test_unitarity_on_smooth_random_specs():
    rng = np.random.default_rng(9)
    for _ in range(3):
        spec = random_spec(rng)
        traj = evolve_unitary(GridSamples(spec, 10.0, 1e-3))
        assert unitarity_drift(traj.U) <= 1e-9


def test_fourth_order_convergence():
    spec = HamiltonianSpec(
        omega=Sinusoid(0.9, 1.1, 0.2, offset=0.7),
        f=ComplexSignal(Sinusoid(0.5, 0.8, 0.5, offset=0.1), Constant(0.2)),
        g=Constant(0.1))
    t_final = 2.0
    us = [evolve_unitary(GridSamples(spec, t_final, dt)).U[-1]
          for dt in (0.02, 0.01, 0.005)]
    e1 = max_abs(us[0] - us[1])
    e2 = max_abs(us[1] - us[2])
    assert e1 / e2 == pytest.approx(16.0, abs=2.0)


def test_matches_closed_form_tightly():
    w0 = 0.9
    traj = evolve_unitary(GridSamples(constant_spec(omega=w0), 5.0, 1e-3))
    want = np.diag([1.0, np.exp(-1j * w0 * 5.0)])
    assert max_abs(traj.U[-1] - want) < 1e-11


def test_composition_property():
    spec = random_spec(np.random.default_rng(12))
    t1, t2 = 2.0, 5.0
    full = evolve_unitary(GridSamples(spec, t2, 1e-3))
    head = evolve_unitary(GridSamples(spec, t1, 1e-3))
    tail = evolve_unitary(GridSamples(shift_spec(spec, t1), t2 - t1, 1e-3))
    assert max_abs(tail.U[-1] @ head.U[-1] - full.U[-1]) < 1e-10


@pytest.mark.parametrize("dt", [1e-3, 0.05])
def test_magnus_factors_are_expm_of_the_magnus_exponent(dt):
    # Omega_k = -i dt/2 (H1 + H2) - sqrt(3) dt^2/12 [H2, H1], H at the two Gauss nodes
    rng = np.random.default_rng(47)
    for _ in range(4):
        spec = random_spec(rng)
        times = time_grid(40 * dt, dt)
        h1, h2 = (hamiltonian_matrix(Samples(spec, times[:-1] + (0.5 + c) * dt))
                  for c in (-np.sqrt(3.0) / 6.0, np.sqrt(3.0) / 6.0))
        omega = -0.5j * dt * (h1 + h2) - np.sqrt(3.0) * dt * dt / 12.0 * (h2 @ h1 - h1 @ h2)
        e = np.moveaxis(np.reshape(_factor_entries(spec, times, dt), (2, 2, -1)), -1, 0)
        assert max_abs(e - expm(omega)) <= 1e-14


def _factor_entries(spec, times, dt):
    """The entries e00, e01, e10, e11 of each step factor, rebuilt from (alpha, beta, angle)."""
    alpha, beta, angle = _magnus_factors(spec, times, dt)
    phase = np.exp(-1j * angle)
    return phase * alpha, -phase * np.conj(beta), phase * beta, phase * np.conj(alpha)


def _stepwise_reference(spec, t_final, dt):
    """U by the earlier per-step loop: U_{k+1} = E_k U_k, one 2x2 product a step."""
    times = time_grid(t_final, dt)
    e00, e01, e10, e11 = (e.tolist() for e in _factor_entries(spec, times, dt))
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
    got = evolve_unitary(GridSamples(spec, steps * dt, dt)).U
    want = _stepwise_reference(spec, steps * dt, dt)
    assert got.shape == (steps + 1, 2, 2)
    assert max_abs(got - want) <= 1e-13


def test_invalid_config():
    with pytest.raises(ValueError):
        GridSamples(constant_spec(), 1.0, -1.0)


@dataclass(frozen=True)
class NanFrom(Signal):
    t_bad: float

    def value(self, t):
        return np.where(np.asarray(t) >= self.t_bad, np.nan, 0.5)


def test_nonfinite_hamiltonian_names_grid_time():
    spec = HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(NanFrom(1.25)),
                           g=Constant(0.0))
    with pytest.raises(IntegrationError) as err:
        evolve_unitary(GridSamples(spec, 2.0, 1e-3))
    assert err.value.t == pytest.approx(1.25)
    assert "t=1.25" in str(err.value)


@pytest.mark.parametrize("leg", ["omega", "g"])
def test_nonfinite_omega_or_g_alone_names_grid_time(leg):
    # omega enters the Cayley-Klein pair and the phase angle, g the angle only
    signals = {"omega": Constant(1.0), "g": Constant(0.0), leg: NanFrom(1.25)}
    spec = HamiltonianSpec(omega=signals["omega"], f=ComplexSignal(Constant(0.5)),
                           g=signals["g"])
    with pytest.raises(IntegrationError) as err:
        evolve_unitary(GridSamples(spec, 2.0, 1e-3))
    assert err.value.t == pytest.approx(1.25)
    assert "t=1.25" in str(err.value)


def test_overflowing_running_phase_names_grid_time():
    # each step turns the phase by 1e-3 * 1e308; the running sum passes the
    # largest double after 1798 steps although every step angle is finite
    spec = constant_spec(omega=1.0, f=0.5, g=1e308)
    with pytest.raises(IntegrationError) as err:
        evolve_unitary(GridSamples(spec, 2.0, 1e-3))
    assert err.value.t == pytest.approx(1.797, abs=2e-3)


def test_oracle_samples_each_signal_once_on_both_gauss_nodes():
    from test_invariants import _Counted

    calls: list = []
    spec = random_spec(np.random.default_rng(3))
    counted = HamiltonianSpec(omega=_Counted(spec.omega, calls, "omega"),
                              f=ComplexSignal(_Counted(spec.f.re, calls, "f_re"),
                                              _Counted(spec.f.im, calls, "f_im")),
                              g=_Counted(spec.g, calls, "g"))
    traj = evolve_unitary(GridSamples(counted, 1.0, 1e-2))
    points = 2 * (len(traj.times) - 1)
    assert sorted((name, method, len(grid) // 8) for name, method, grid in calls) == [
        (name, "value", points) for name in ("f_im", "f_re", "g", "omega")]
    assert len({grid for _, _, grid in calls}) == 1
    assert max_abs(traj.U - evolve_unitary(GridSamples(spec, 1.0, 1e-2)).U) == 0.0


def test_oracle_reads_no_shared_sample():
    # the oracle gets the scenario's samples for its grid alone: a signal it
    # took from them would be shared with the integrators it checks
    s = GridSamples(random_spec(np.random.default_rng(3)), 1.0, 1e-2)
    assert evolve_unitary(s).samples is s
    names = {"omega", "omega_d1", "omega_d2", "f", "f_d1", "f_d2", "g"}
    assert not names & set(vars(s)) and not names & set(vars(s.mids))


# -- Heisenberg transport U X U' -------------------------------------------------

def test_heisenberg_preserves_identity_and_energy():
    spec = constant_spec(omega=1.0, f=0.3, g=0.2)
    traj = evolve_unitary(GridSamples(spec, 5.0, 1e-3))
    h = np.array([[0.2, 0.3], [0.3, 1.2]], dtype=complex)
    for k in (1000, 5000):
        u = traj.U[k]
        assert max_abs(u @ I2 @ u.conj().T - I2) < 1e-12
        assert max_abs(u @ h @ u.conj().T - h) < 1e-9


# -- states U psi0 ------------------------------------------------------------------

def test_state_stays_in_vacuum_without_hamiltonian():
    a0, a1 = apply_unitary(evolve_unitary(GridSamples(constant_spec(), 1.0, 1e-3)).U, [1, 0])
    assert np.max(np.abs(a0 - 1.0)) < 1e-14 and np.max(np.abs(a1)) < 1e-14


def test_state_rabi_closed_form():
    f0 = 0.6
    traj = evolve_unitary(GridSamples(constant_spec(f=f0), 5.0, 1e-3))
    a0, a1 = apply_unitary(traj.U, [1, 0])
    assert np.max(np.abs(a0 - np.cos(f0 * traj.times))) < 1e-8
    assert np.max(np.abs(a1 + 1j * np.sin(f0 * traj.times))) < 1e-8


def test_state_norm_preserved_on_random_specs():
    rng = np.random.default_rng(21)
    for _ in range(3):
        u = evolve_unitary(GridSamples(random_spec(rng), 10.0, 1e-3)).U
        norms = np.linalg.norm(np.stack(apply_unitary(u, [0.6, 0.8j]), axis=1), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_integrators_import_nothing_from_the_oracle_module():
    # the oracle must not share its time stepping with the machinery it checks;
    # the integrators take their grid and step from GridSamples
    taken = set()
    for name in ("grid.py", "invariants.py", "reduction.py"):
        tree = ast.parse((Path(ffo.__file__).parent / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("propagator"):
                taken |= {alias.name for alias in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                assert not any(alias.name.endswith("propagator") for alias in node.names), name
    assert taken == set()

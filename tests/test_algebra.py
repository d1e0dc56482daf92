import numpy as np
import pytest

from ffo.algebra import (I2, anticommutator, commutator, hamiltonian_matrix,
                         is_hermitian, is_unitary, ladder_operators, max_abs,
                         spin_operators)
from ffo.grid import Samples
from ffo.signals import constant_spec
from ffo.sweeps import random_spec


def test_ladder_matrices():
    b, bd, n = ladder_operators()
    # b has its single nonzero entry at (row |0>, column |1>)
    assert b[0, 1] == 1.0 and max_abs(b - np.array([[0, 1], [0, 0]])) == 0.0
    assert max_abs(b @ b) == 0.0
    assert max_abs(anticommutator(b, bd) - I2) == 0.0
    assert max_abs(n - np.diag([0.0, 1.0])) == 0.0


def test_transition_actions():
    b, bd, _ = ladder_operators()
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    assert np.allclose(b @ ket1, ket0)
    assert np.allclose(b @ ket0, 0)
    assert np.allclose(bd @ ket0, ket1)
    assert np.allclose(bd @ ket1, 0)


def test_algebra_closure_relations():
    b, bd, n = ladder_operators()
    assert max_abs(commutator(b, n) - b) == 0.0
    assert max_abs(commutator(bd, n) + bd) == 0.0
    assert max_abs(commutator(b, bd) - (I2 - 2 * n)) == 0.0
    assert max_abs(anticommutator(b, b)) == 0.0
    assert max_abs(n @ n - n) == 0.0


def test_spin_operators():
    j1, j2, j3, jp, jm = spin_operators()
    b, bd, _ = ladder_operators()
    assert max_abs(j3 - np.diag([-0.5, 0.5])) == 0.0
    assert max_abs(commutator(j1, j2) - 1j * j3) <= 1e-15
    assert max_abs(commutator(j2, j3) - 1j * j1) <= 1e-15
    assert max_abs(commutator(j3, j1) - 1j * j2) <= 1e-15
    assert max_abs(commutator(jp, jm) - 2 * j3) == 0.0
    assert max_abs(jp - bd) == 0.0 and max_abs(jm - b) == 0.0


def test_hamiltonian_examples():
    assert np.allclose(hamiltonian_matrix(Samples(constant_spec(omega=2.0), 0.3)),
                       np.diag([0.0, 2.0]))
    h = hamiltonian_matrix(Samples(constant_spec(f=1.0), 1.7))
    assert np.allclose(h, np.array([[0, 1], [1, 0]]))
    h2 = hamiltonian_matrix(Samples(constant_spec(omega=1.0, f=1j, g=0.5), 0.0))
    assert h2[1, 1] == pytest.approx(1.5)
    assert h2[0, 0] == pytest.approx(0.5)
    assert h2[1, 0] == pytest.approx(1j)
    assert h2[0, 1] == pytest.approx(-1j)
    assert is_hermitian(h2)
    # on a grid: one matrix per time, each the matrix at that time
    spec, ts = random_spec(np.random.default_rng(1)), np.array([0.0, 0.5, 1.5])
    grid = hamiltonian_matrix(Samples(spec, ts))
    assert grid.shape == (3, 2, 2)
    for k, t in enumerate(ts):
        assert max_abs(grid[k] - hamiltonian_matrix(Samples(spec, t))) <= 1e-15


def test_hamiltonian_hermitian_and_j_form():
    rng = np.random.default_rng(42)
    _, _, j3, jp, jm = spin_operators()
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        t = float(rng.uniform(0.0, 10.0))
        h = hamiltonian_matrix(Samples(spec, t))
        assert is_hermitian(h, tol=1e-14)
        w = float(spec.omega.value(t))
        f = complex(spec.f.value(t))
        g = float(spec.g.value(t))
        hj = w * j3 + f * jp + np.conj(f) * jm + (g + 0.5 * w) * I2
        worst = max(worst, max_abs(h - hj))
    assert worst <= 1e-14


def test_unitary_predicate():
    th = 0.3
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    assert is_unitary(u)
    assert not is_unitary(1.01 * u)


def test_hamiltonian_range_error_from_tabulated_signal():
    from ffo.errors import SignalRangeError
    from ffo.signals import ComplexSignal, Constant, HamiltonianSpec, Tabulated
    ts = np.linspace(0.0, 1.0, 11)
    spec = HamiltonianSpec(omega=Tabulated(tuple(ts), tuple(np.cos(ts))),
                           f=ComplexSignal(Constant(0.1)), g=Constant(0.0))
    assert is_hermitian(hamiltonian_matrix(Samples(spec, 0.5)))
    with pytest.raises(SignalRangeError):
        hamiltonian_matrix(Samples(spec, 1.5))

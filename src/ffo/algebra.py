"""Single-fermion operator algebra on the 2-dimensional Fock space.

Basis ordering is fixed globally as {|0>, |1>} with b'b|n> = n|n>, so the
number operator is diag(0, 1) and state vectors are (amp0, amp1).
Operators are plain 2x2 complex numpy arrays.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)


def ladder_operators():
    """Return (b, b_dag, n) with b|1> = |0>, b'|0> = |1>, n = b'b."""
    b = np.array([[0, 1], [0, 0]], dtype=complex)
    b_dag = b.conj().T
    return b, b_dag, b_dag @ b


def spin_operators():
    """Return the half-spin operators (j1, j2, j3, j_plus, j_minus).

    j1 = (b' + b)/2, j2 = (b' - b)/2i, j3 = b'b - 1/2; j+ = b', j- = b.
    They close su(2): [j_k, j_l] = i eps_klm j_m and [j+, j-] = 2 j3.
    """
    b, b_dag, n = ladder_operators()
    j1 = (b_dag + b) / 2
    j2 = (b_dag - b) / 2j
    j3 = n - I2 / 2
    return j1, j2, j3, b_dag, b


def hamiltonian_matrix(samples) -> np.ndarray:
    """Hamiltonian omega*b'b + f*b' + conj(f)*b + g from the omega, f and g of a ``grid.Samples``.

    Returns (..., 2, 2) over the shape of ``samples.times``, a view of a
    (2, 2, ...) array so each entry is contiguous over the grid.  Hermitian
    for every spec and t; equals the J-basis form
    omega*J3 + f*J+ + conj(f)*J- + (g + omega/2) entrywise.
    """
    w, f, g = samples.omega, samples.f, samples.g
    return np.moveaxis(np.array([[g, np.conj(f)], [f, w + g]]), (0, 1), (-2, -1))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm, the toolkit's default operator distance."""
    return float(np.max(np.abs(a)))


"""Single-fermion operator algebra on the two-state Hilbert space.

The whole toolkit lives in the basis {|0>, |1>} with b'b|n> = n|n>.  This
script walks through the ladder operators, the su(2) structure they
generate, and the two equivalent forms of the forced-oscillator
Hamiltonian.
"""

import numpy as np

from ffo.algebra import (I2, anticommutator, commutator, hamiltonian_matrix,
                         ladder_operators, max_abs, spin_operators)
from ffo.grid import Samples
from ffo.signals import constant_spec

b, b_dag, n = ladder_operators()
print("b =\n", b.real)
print("b'b = diag(0, 1):\n", n.real)

# the fermion algebra: {b, b'} = 1 and nilpotency
print("\n{b, b'} - 1 :", max_abs(anticommutator(b, b_dag) - I2))
print("b^2         :", max_abs(b @ b))

# the commutation relations closing the algebra
print("[b, N] - b        :", max_abs(commutator(b, n) - b))
print("[b', N] + b'      :", max_abs(commutator(b_dag, n) + b_dag))
print("[b, b'] - (1-2N)  :", max_abs(commutator(b, b_dag) - (I2 - 2 * n)))

# half-spin operators and su(2)
j1, j2, j3, jp, jm = spin_operators()
print("\nJ3 =\n", j3.real)
print("[J1, J2] - i J3   :", max_abs(commutator(j1, j2) - 1j * j3))
print("[J+, J-] - 2 J3   :", max_abs(commutator(jp, jm) - 2 * j3))

# the Hamiltonian in ladder form equals its J-basis form entrywise
spec = constant_spec(omega=1.0, f=0.4 + 0.3j, g=0.2)
h = hamiltonian_matrix(Samples(spec, 0.0))
w, f, g = 1.0, 0.4 + 0.3j, 0.2
h_j = w * j3 + f * jp + np.conj(f) * jm + (g + 0.5 * w) * I2
print("\nH =\n", h)
print("ladder form vs J form:", max_abs(h - h_j))
print("hermiticity          :", max_abs(h - h.conj().T))

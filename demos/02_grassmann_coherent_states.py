"""Exact Grassmann algebra and the canonical fermion coherent state.

Everything here is symbolic over the 4-dimensional algebra generated by
zeta, zeta*; there is no numerical approximation anywhere, so deviations
print as exact zeros (up to float rounding).
"""

import numpy as np

from ffo.grassmann import (ONE, ZETA, ZETA_STAR, GrassmannElement,
                           apply_fermion_op, berezin_integrate, coherent_ket,
                           completeness_check, g_mul, outer_integral)

# generator relations: nilpotency and anticommutation
print("zeta * zeta            =", g_mul(ZETA, ZETA).c)
print("zeta * zeta*           =", g_mul(ZETA, ZETA_STAR).c, " (= -zeta*zeta)")
print("(1+zeta)(1+zeta*)      =", ((ONE + ZETA) * (ONE + ZETA_STAR)).c)

# Berezin integration picks out the top monomial
print("\nint zeta zeta*         =", berezin_integrate(g_mul(ZETA, ZETA_STAR)))
print("int 1, zeta, zeta*     =", berezin_integrate(ONE),
      berezin_integrate(ZETA), berezin_integrate(ZETA_STAR))
print("int (3 + 2 zeta*zeta)  =", berezin_integrate(GrassmannElement([3, 0, 0, 2])))

# the coherent state is the b-eigenstate with Grassmann eigenvalue; a ket
# is a (2, 4) element whose row n holds the |n> coefficient
ket = coherent_ket(1.0)
print("\n|zeta> rows |0>:", ket.c[0], " |1>:", ket.c[1])
residual = (apply_fermion_op("b", ket) - ZETA * ket).max_abs()
print("b|zeta> - zeta|zeta>   =", residual)

# overcompleteness: the Berezin-integrated outer product is the identity
print("\nint |zeta><zeta| =\n", outer_integral(ket).real)
print("completeness deviation  =", completeness_check())

# the same integral under a deliberately commuting convention detects the
# wrong grading immediately
print("flipped-convention test =", completeness_check(commuting=True), "(>= 1 flags the error)")

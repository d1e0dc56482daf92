"""Exact algebra over two anticommuting generators zeta, zeta* .

Elements live in the 4-dimensional algebra with ordered monomial basis

    {1, zeta, zeta*, zeta*zeta}

(the quartic monomial is stored with zeta* leftmost, matching the Berezin
measure ordering d zeta* d zeta; zeta zeta* is represented as -zeta*zeta).
All coefficients are complex and every operation is exact up to floating
rounding -- nothing in this module is approximated.

One type carries everything: a ``GrassmannElement`` holds coefficients of
shape (..., 4) and every operation works entrywise over the leading axes.
A ket a0|0> + a1|1> with Grassmann-valued left coefficients is an element
of shape (2, 4), row n holding the |n> coefficient; K kets are (K, 2, 4).

Grading conventions
-------------------
* zeta and zeta* anticommute with each other and square to zero.
* The generators anticommute with fermion ladder operators.  For the bare
  b, b' this is the usual rule "moving the operator past an odd coefficient
  flips its sign".
* A dressed ladder operator (any 2x2 matrix standing for a nu-combination
  that obeys the ladder conditions) is treated as a single odd object: its
  whole matrix action receives the parity flip, including the diagonal
  b'b - 1/2 part.  The coherent-state eigenvalue relation for invariant
  ladder operators holds only under this convention.
"""

from __future__ import annotations

import numpy as np

# basis slots
_ONE, _Z, _ZS, _ZSZ = 0, 1, 2, 3


class GrassmannElement:
    """Elements c0*1 + c1*zeta + c2*zeta* + c3*zeta*zeta, ``c`` of shape (..., 4)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        if c.shape[-1:] != (4,):
            raise ValueError("GrassmannElement needs 4 coefficients on its last axis")
        self.c = c

    def __getitem__(self, index) -> "GrassmannElement":
        """The element with coefficients ``c[index]``: ket rows, stack entries, new axes."""
        return GrassmannElement(self.c[index])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GrassmannElement(self.c + other.c)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GrassmannElement(self.c - other.c)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return GrassmannElement(-self.c)

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return g_mul(self, other)
        return GrassmannElement(self.c * complex(other))

    def __rmul__(self, other):
        # scalars commute with everything in the algebra
        return GrassmannElement(self.c * complex(other))

    # -- structure maps -----------------------------------------------------

    def conjugate(self) -> "GrassmannElement":
        """Conjugation: complex-conjugate scalars, swap zeta <-> zeta*,
        reverse monomial order ((zeta*zeta)* = zeta*zeta)."""
        return GrassmannElement(self.c.conj()[..., [_ONE, _ZS, _Z, _ZSZ]])

    def parity_flip(self) -> "GrassmannElement":
        """Negate the odd (degree-1) part; used when an odd operator moves
        past this coefficient."""
        c = self.c.copy()
        c[..., _Z:_ZSZ] = -c[..., _Z:_ZSZ]
        return GrassmannElement(c)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.c)))

    def __repr__(self):
        return f"GrassmannElement({self.c.tolist()})"


def _coerce(x) -> GrassmannElement:
    """``x`` itself, or the scalar ``x`` as the element x * 1."""
    if isinstance(x, GrassmannElement):
        return x
    return GrassmannElement([complex(x), 0, 0, 0])


ONE = GrassmannElement([1, 0, 0, 0])
ZETA = GrassmannElement([0, 1, 0, 0])
ZETA_STAR = GrassmannElement([0, 0, 1, 0])
ZETA_STAR_ZETA = GrassmannElement([0, 0, 0, 1])
ZERO = GrassmannElement([0, 0, 0, 0])


def g_mul(x: GrassmannElement, y: GrassmannElement, commuting: bool = False) -> GrassmannElement:
    """Graded product of two elements, reduced to the ordered basis.

    The leading axes of ``x`` and ``y`` broadcast against each other.
    ``commuting=True`` is a diagnostic hook that multiplies the generators
    as if they commuted (zeta zeta* = +zeta*zeta); it exists so tests can
    demonstrate that the completeness integral detects wrong grading.
    """
    a, b = x.c, y.c
    sign = 1.0 if commuting else -1.0
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out[..., _ONE] = a[..., _ONE] * b[..., _ONE]
    out[..., _Z] = a[..., _ONE] * b[..., _Z] + a[..., _Z] * b[..., _ONE]
    out[..., _ZS] = a[..., _ONE] * b[..., _ZS] + a[..., _ZS] * b[..., _ONE]
    # zeta* . zeta -> +zeta*zeta ; zeta . zeta* -> -zeta*zeta (graded)
    out[..., _ZSZ] = (a[..., _ONE] * b[..., _ZSZ] + a[..., _ZSZ] * b[..., _ONE]
                      + a[..., _ZS] * b[..., _Z] + sign * a[..., _Z] * b[..., _ZS])
    return GrassmannElement(out)


def berezin_integrate(x: GrassmannElement):
    """Berezin integral d zeta* d zeta, one complex value per element of ``x``.

    zeta zeta* integrates to 1 (so the stored zeta*zeta coefficient picks up
    -1); the lower monomials integrate to 0.
    """
    return -x.c[..., _ZSZ]


def graded_apply(matrix, ket: GrassmannElement) -> GrassmannElement:
    """Graded action of a fermion operator on a ket, or of a stack on a stack.

    ``matrix`` is the operator's 2x2 matrix in the {|0>, |1>} basis, (..., 2, 2),
    and ``ket`` a (..., 2, 4) element; the leading axes broadcast.  The
    operator is treated as odd as a whole: every ket coefficient receives a
    parity flip before the matrix acts (see module docstring).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-2:] != (2, 2) or ket.c.shape[-2:-1] != (2,):
        raise ValueError("graded_apply needs 2x2 matrices and kets of two rows")
    f, m = ket.parity_flip().c, m[..., None]
    rows = [m[..., i, 0, :] * f[..., 0, :] + m[..., i, 1, :] * f[..., 1, :] for i in (0, 1)]
    return GrassmannElement(np.stack(rows, axis=-2))


_BARE = {"b": [[0, 1], [0, 0]], "b_dag": [[0, 0], [1, 0]]}


def apply_fermion_op(op: str, ket: GrassmannElement) -> GrassmannElement:
    """Act with 'b' or 'b_dag' on a ket under the graded sign rule."""
    if op not in _BARE:
        raise ValueError(f"unknown fermion operator {op!r}")
    return graded_apply(_BARE[op], ket)


def coherent_ket(scale: complex = 1.0) -> GrassmannElement:
    """Canonical coherent state for eigenvalue scale*zeta, a (2, 4) ket.

    exp(-|scale|^2 zeta*zeta / 2) (|0> - scale*zeta |1>); the exponential
    truncates exactly by nilpotency.
    """
    s = complex(scale)
    return GrassmannElement([[1.0, 0, 0, -0.5 * (s.conjugate() * s)], [0, -s, 0, 0]])


def outer_integral(ket: GrassmannElement, commuting: bool = False) -> np.ndarray:
    """Berezin-integrate the operator |ket><ket| entry by entry.

    The bra coefficients are the conjugates of the ket's; each operator
    entry is ket_m * conj(ket_n) in that order, all four in one product of
    the rows with the conjugated rows.  Returns the integrated 2x2 complex
    matrix ((..., 2, 2) for a stack of kets).
    """
    rows, bras = ket[..., :, None, :], ket.conjugate()[..., None, :, :]
    return berezin_integrate(g_mul(rows, bras, commuting=commuting))


def completeness_check(commuting: bool = False) -> float:
    """Max-abs deviation of integral d zeta* d zeta |zeta><zeta| from 1.

    Exact zero (to rounding) under the graded convention; the ``commuting``
    hook recomputes with commuting generators and then deviates by 2 on the
    |1><1| entry, which is how tests detect a wrong sign convention.
    """
    mat = outer_integral(coherent_ket(1.0), commuting=commuting)
    return float(np.max(np.abs(mat - np.eye(2))))

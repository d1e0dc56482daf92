"""Time-dependent coefficient signals and the oscillator specification.

A :class:`Signal` is a real-valued function of time with analytically
consistent first and second derivatives.  The Hamiltonian

    H(t) = omega(t) b'b + f(t) b' + conj(f(t)) b + g(t)

carries three of them: omega and g are real, f is a pair (Re, Im) wrapped in
:class:`ComplexSignal` so that f-dot and f-ddot stay exact for parametric
forms.  Tabulated signals fall back to cubic-spline derivatives, which is a
declared approximation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SignalRangeError

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline


class Signal:
    """Real function of time with value/d1/d2 accessors.

    Subclasses must be evaluable on scalars and numpy arrays alike.
    """

    def value(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError

    def d2(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Signal):
    c: float = 0.0

    def value(self, t):
        return self.c + 0.0 * np.asarray(t) if np.ndim(t) else self.c

    def d1(self, t):
        return 0.0 * np.asarray(t) if np.ndim(t) else 0.0

    d2 = d1


@dataclass(frozen=True)
class Sinusoid(Signal):
    """amplitude * sin(frequency * t + phase) + offset."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    offset: float = 0.0

    def value(self, t):
        return self.amplitude * np.sin(self.frequency * np.asarray(t) + self.phase) + self.offset

    def d1(self, t):
        w = self.frequency
        return self.amplitude * w * np.cos(w * np.asarray(t) + self.phase)

    def d2(self, t):
        w = self.frequency
        return -self.amplitude * w * w * np.sin(w * np.asarray(t) + self.phase)


def _horner(c: np.ndarray, t):
    """sum_k c[k] t**k by Horner's rule, in ``polyval``'s order of operations."""
    x = np.asarray(t) if np.ndim(t) else t
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def _derivative(c: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative by ``polyder``'s rule j * c[j]."""
    return np.array([j * c[j] for j in range(1, len(c))]) if len(c) > 1 else c[:1] * 0


@dataclass(frozen=True)
class Polynomial(Signal):
    """Polynomial in t with ascending coefficients (coeffs[k] * t**k).

    Value and derivatives are bit for bit ``np.polynomial.polynomial``'s
    ``polyval`` of the coefficients and of their ``polyder``, without
    importing ``numpy.polynomial``.
    """

    coeffs: tuple[float, ...]
    _series: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.coeffs):
            raise ValueError("polynomial needs at least one coefficient")
        c = np.array(self.coeffs, dtype=float)
        d1 = _derivative(c)
        # polyder of order m >= len(c) is c[:1] * 0, not m single steps
        d2 = _derivative(d1) if len(c) > 2 else c[:1] * 0
        object.__setattr__(self, "_series", (c, d1, d2))

    def value(self, t):
        return _horner(self._series[0], t)

    def d1(self, t):
        return _horner(self._series[1], t)

    def d2(self, t):
        return _horner(self._series[2], t)


@dataclass(frozen=True)
class Tabulated(Signal):
    """Cubic-spline interpolant through (times, values); strictly in-range.

    Derivatives come from the spline, not from the underlying data.  The
    spline is scipy's ``CubicSpline``, imported here on construction, so a
    run without tabulated signals never imports scipy.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    _spline: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.size != v.size:
            raise ValueError("tabulated signal needs matching 1-d times/values, len >= 2")
        if not np.all(np.diff(t) > 0):
            raise ValueError("tabulated signal times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("tabulated signal times and values must be finite")
        from scipy.interpolate import CubicSpline
        from scipy.linalg import LinAlgWarning

        # values too steep for their spacing overflow the spline: scipy then
        # refuses its own slopes or returns coefficients that are not finite;
        # times spaced over many orders of magnitude make its solve warn that
        # the system is ill-conditioned, and the spline is not trusted either
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            try:
                spline = CubicSpline(t, v)
            except (ValueError, LinAlgWarning):
                spline = None
        if spline is None or not np.all(np.isfinite(spline.c)):
            raise ValueError("the cubic spline through the tabulated values is not finite or "
                             "ill-conditioned; the values change too steeply for their times, "
                             "or the times are spaced too unevenly")
        object.__setattr__(self, "_spline", spline)

    def _check_range(self, t):
        lo, hi = self.times[0], self.times[-1]
        tm = np.asarray(t)
        if np.any(tm < lo) or np.any(tm > hi):
            bad = float(np.min(tm)) if np.any(tm < lo) else float(np.max(tm))
            raise SignalRangeError(
                f"t={bad} outside tabulated range [{lo}, {hi}]"
            )

    def _eval(self, t, order):
        self._check_range(t)
        out = self._spline(t, order)
        return out if np.ndim(t) else float(out)

    def value(self, t):
        return self._eval(t, 0)

    def d1(self, t):
        return self._eval(t, 1)

    def d2(self, t):
        return self._eval(t, 2)


@dataclass(frozen=True)
class ComplexSignal:
    """Complex function of time as a pair of real signals (Re, Im)."""

    re: Signal
    im: Signal = Constant(0.0)

    def value(self, t):
        return self.re.value(t) + 1j * self.im.value(t)

    def d1(self, t):
        return self.re.d1(t) + 1j * self.im.d1(t)

    def d2(self, t):
        return self.re.d2(t) + 1j * self.im.d2(t)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Coefficients of the forced fermion oscillator Hamiltonian.

    omega and g are real signals; f is complex.  Immutable after
    construction; all evaluation is pure.
    """

    omega: Signal
    f: ComplexSignal
    g: Signal = Constant(0.0)


def constant_spec(omega: float = 0.0, f: complex = 0.0, g: float = 0.0) -> HamiltonianSpec:
    """Spec with constant coefficients, handy for closed-form checks."""
    f = complex(f)
    return HamiltonianSpec(
        omega=Constant(float(omega)),
        f=ComplexSignal(Constant(f.real), Constant(f.imag)),
        g=Constant(float(g)),
    )

"""Seeded random families of bounded oscillator specs for property sweeps.

Bounds (documented here because tolerance budgets depend on them):

* sinusoid legs: |amplitude| <= 1, |offset| <= 1, frequency in [0.2, 1.2],
  so every signal stays within [-2, 2] and its second derivative within
  ~1.5;
* polynomial legs: cubic with coefficients scaled so |value| <= 2 on
  t in [0, 10];
* forcing legs are drawn at half amplitude so ||H|| stays moderate;
* the f-floor family keeps Re f offset-dominated with |f| >= 0.3
  everywhere, as the epsilon machinery requires.

Everything is driven by a caller-supplied numpy Generator, so sweeps are
reproducible from an explicit seed.
"""

from __future__ import annotations

import numpy as np

from .signals import ComplexSignal, Constant, HamiltonianSpec, Polynomial, Sinusoid


def _sinusoid(rng: np.random.Generator, amp: float, off: float) -> Sinusoid:
    return Sinusoid(amplitude=float(rng.uniform(0.1, amp)),
                    frequency=float(rng.uniform(0.2, 1.2)),
                    phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                    offset=float(rng.uniform(-off, off)))


def _polynomial(rng: np.random.Generator, scale: float, horizon: float = 10.0) -> Polynomial:
    coeffs = [float(rng.uniform(-0.5, 0.5)) * scale / ((k + 1) * horizon ** k)
              for k in range(4)]
    return Polynomial(tuple(coeffs))


def _leg(rng: np.random.Generator, amp: float, off: float):
    if rng.uniform() < 0.5:
        return _sinusoid(rng, amp, off)
    return _polynomial(rng, amp + off)


def random_spec(rng: np.random.Generator, f_zero: bool = False,
                f_floor: bool = False) -> HamiltonianSpec:
    """One bounded random spec.

    ``f_zero`` draws the free-oscillator family (f = 0); ``f_floor`` draws
    forcing with |f| >= 0.3 everywhere (for the reduction chain).
    """
    omega = _leg(rng, 1.0, 1.0)
    g = _leg(rng, 0.5, 0.5)
    if f_zero:
        f = ComplexSignal(Constant(0.0), Constant(0.0))
    elif f_floor:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        f_re = Sinusoid(amplitude=float(rng.uniform(0.05, 0.2)),
                        frequency=float(rng.uniform(0.2, 1.2)),
                        phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                        offset=sign * float(rng.uniform(0.5, 1.0)))
        f_im = Sinusoid(amplitude=float(rng.uniform(0.05, 0.3)),
                        frequency=float(rng.uniform(0.2, 1.2)),
                        phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                        offset=float(rng.uniform(-0.3, 0.3)))
        f = ComplexSignal(f_re, f_im)
    else:
        f = ComplexSignal(_leg(rng, 0.5, 0.5), _leg(rng, 0.5, 0.5))
    return HamiltonianSpec(omega=omega, f=f, g=g)


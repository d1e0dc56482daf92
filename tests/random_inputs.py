"""Seeded random initial vectors and forced specs for the property tests."""

import numpy as np

from ffo.signals import ComplexSignal, Constant, HamiltonianSpec, Sinusoid
from ffo.sweeps import random_spec


def random_forced_spec(rng: np.random.Generator, min_peak: float = 0.1) -> HamiltonianSpec:
    """Spec whose forcing reaches at least ``min_peak`` somewhere."""
    spec = random_spec(rng)
    probe = np.linspace(0.0, 10.0, 257)
    if float(np.max(np.abs(spec.f.value(probe)))) >= min_peak:
        return spec
    return HamiltonianSpec(
        omega=spec.omega,
        f=ComplexSignal(Sinusoid(amplitude=float(rng.uniform(2 * min_peak, 0.5)),
                                 frequency=float(rng.uniform(0.2, 1.2)),
                                 phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                                 offset=0.0),
                        Constant(0.0)),
        g=spec.g,
    )


def random_nu0(rng: np.random.Generator):
    """Random complex coefficient triple with O(1) magnitude."""
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    return tuple((z / np.sqrt(2.0)).tolist())


def random_plus_keyed_nu0(rng: np.random.Generator):
    """Random nu0 on the ladder shell (lambda1 = 0, lambda2 = 1) with |nu_plus| > |nu_minus|.

    B0 = |u><v| for a unit u and v = (-conj u1, conj u0)/c: nu_minus = c u0^2,
    nu_plus = -c u1^2 and nu_3 = 2 c u0 u1, |c| = 1; |u1| > |u0| keys it on nu_plus.
    """
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    u = u[::-1] if abs(u[0]) > abs(u[1]) else u
    u = u / np.linalg.norm(u)
    c = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return (c * u[0] ** 2, -c * u[1] ** 2, 2.0 * c * u[0] * u[1])


def random_epsilon0(rng: np.random.Generator):
    """Random (eps, eps') initial pair away from the trivial solution."""
    ang = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (float(rng.uniform(0.7, 1.3)) * np.exp(1j * ang[0]),
            float(rng.uniform(0.1, 0.6)) * np.exp(1j * ang[1]))

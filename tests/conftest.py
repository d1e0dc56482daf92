"""Shared fixtures: reference specs and calibrated trajectory builders."""

from dataclasses import dataclass

import numpy as np
import pytest

from ffo.grid import GridSamples
from ffo.invariants import NuTrajectory, motion_constants
from ffo.reduction import integrate_epsilon, nu_from_epsilon_arrays
from ffo.signals import ComplexSignal, Constant, HamiltonianSpec, Signal, Sinusoid


@pytest.fixture(scope="session")
def forced_spec():
    """Smooth forced spec with |f| bounded well away from zero."""
    return HamiltonianSpec(
        omega=Sinusoid(0.8, 0.9, 0.3, offset=0.6),
        f=ComplexSignal(Sinusoid(0.15, 0.7, 1.1, offset=0.8),
                        Sinusoid(0.2, 1.1, 0.2, offset=-0.1)),
        g=Sinusoid(0.3, 0.5, 0.0, offset=0.4),
    )


@dataclass(frozen=True)
class _NanFrom(Signal):
    """0.5 before t_bad, NaN from t_bad on."""

    t_bad: float

    def value(self, t):
        return np.where(np.asarray(t) >= self.t_bad, np.nan, 0.5)

    def d1(self, t):
        return 0.0 * np.asarray(t)

    d2 = d1


@pytest.fixture(scope="session")
def nan_forcing_spec():
    """Forcing that turns NaN at t = 1.2504, between grid nodes for dt = 1e-3."""
    return HamiltonianSpec(omega=Constant(1.0), f=ComplexSignal(_NanFrom(1.2504)),
                           g=Constant(0.0))


def calibrated_epsilon_trajectory(spec, e0, t_final, dt=1e-3):
    """Integrate the eps equation and rescale to lambda2 = 1.

    nu scales as eps^2, so lambda2 scales as |scale|^4; the quarter-power
    rescale lands the trajectory exactly on the ladder shell.
    """
    samples = GridSamples(spec, t_final, dt)
    et = integrate_epsilon(samples, e0)
    nus = nu_from_epsilon_arrays(samples, et.eps, et.eps_dot)
    scale = float(motion_constants(nus[0]).lambda2) ** (-0.25)
    eps, eps_dot = et.eps * scale, et.eps_dot * scale
    nus = nu_from_epsilon_arrays(samples, eps, eps_dot)
    traj = NuTrajectory(et.times, nus)
    return traj, eps, eps_dot


@pytest.fixture(scope="session")
def calibrated_trajectory(forced_spec):
    """Ladder-calibrated trajectory (lambda1 = 0, lambda2 = 1) over t <= 5."""
    return calibrated_epsilon_trajectory(forced_spec, (1.0 + 0.2j, 0.1 - 0.3j), 5.0)

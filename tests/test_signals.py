import warnings

import numpy as np
import pytest

from ffo.errors import SignalRangeError
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Polynomial,
                         Sinusoid, Tabulated, constant_spec)


def central_diff(sig, t, h):
    return (sig.value(t + h) - sig.value(t - h)) / (2 * h)


@pytest.mark.parametrize("sig", [
    Constant(1.7),
    Sinusoid(1.2, 0.8, 0.3, offset=-0.4),
    Polynomial((0.2, -1.0, 0.3, 0.05)),
])
def test_first_derivative_consistency(sig):
    # |d1 - central difference| <= C h^2 for the parametric variants
    ts = np.linspace(-2.0, 3.0, 11)
    for h in (1e-3, 5e-4):
        err = np.max(np.abs(sig.d1(ts) - central_diff(sig, ts, h)))
        assert err <= 5.0 * h ** 2


@pytest.mark.parametrize("sig", [
    Sinusoid(0.9, 1.4, 0.0, offset=0.2),
    Polynomial((1.0, 0.5, -0.2, 0.1)),
])
def test_second_derivative_consistency(sig):
    ts = np.linspace(-1.0, 2.0, 7)
    h = 1e-3
    dd = (sig.d1(ts + h) - sig.d1(ts - h)) / (2 * h)
    assert np.max(np.abs(sig.d2(ts) - dd)) <= 5.0 * h ** 2


def test_derivative_scaling_is_quadratic():
    sig = Sinusoid(1.0, 2.0)
    t = 0.7
    e1 = abs(sig.d1(t) - central_diff(sig, t, 1e-2))
    e2 = abs(sig.d1(t) - central_diff(sig, t, 5e-3))
    assert e1 / e2 == pytest.approx(4.0, rel=0.1)


def test_tabulated_requires_increasing_times():
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Tabulated((0.0, -1.0), (0.0, 1.0))


def test_tabulated_rejects_a_spline_that_is_not_finite():
    with pytest.raises(ValueError, match="finite"):
        Tabulated((0.0, 1.0), (np.nan, 1.0))
    # 1e10 over a 1e-300 step: the spline's slopes overflow, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too steeply"):
            Tabulated((0.0, 1e-300, 1.0), (0.0, 1e10, 0.0))


def test_tabulated_range_error_carries_time():
    ts = np.linspace(0.0, 2.0, 21)
    sig = Tabulated(tuple(ts), tuple(np.sin(ts)))
    with pytest.raises(SignalRangeError):
        sig.value(2.5)
    with pytest.raises(SignalRangeError):
        sig.d1(-0.1)
    with pytest.raises(SignalRangeError):
        sig.d2(2.5)


def test_tabulated_tracks_smooth_function():
    ts = np.linspace(0.0, 2.0, 201)
    sig = Tabulated(tuple(ts), tuple(np.sin(ts)))
    probe = np.linspace(0.05, 1.95, 37)
    assert np.max(np.abs(sig.value(probe) - np.sin(probe))) < 1e-7
    assert np.max(np.abs(sig.d1(probe) - np.cos(probe))) < 1e-4
    assert np.max(np.abs(sig.d2(probe) + np.sin(probe))) < 1e-4
    # a scalar time gives a float from each accessor, not a 0-d array
    assert all(type(get(1.0)) is float for get in (sig.value, sig.d1, sig.d2))


def test_complex_signal_assembles_pair():
    f = ComplexSignal(Sinusoid(0.5, 1.0), Constant(0.25))
    assert f.value(0.3) == pytest.approx(0.5 * np.sin(0.3) + 0.25j)
    assert f.d1(0.3) == pytest.approx(0.5 * np.cos(0.3))


def test_complex_signal_keeps_each_part():
    # re + 1j * im put 0 * inf = nan into the real part where im is inf
    f = ComplexSignal(Constant(0.5), Sinusoid(1e308, 1.0, 1.3, offset=1e308))
    with np.errstate(over="ignore"):
        scalar, array = f.value(0.0), f.value(np.zeros(3))
    assert array.dtype == complex and array.shape == (3,)
    for z in (scalar, *array):
        assert z.real == 0.5 and z.imag == np.inf


def test_constant_spec_evaluates():
    spec = constant_spec(omega=1.0, f=0.5 + 0.2j, g=-0.3)
    assert spec.omega.value(3.0) == 1.0
    assert spec.f.value(1.0) == 0.5 + 0.2j
    assert spec.g.value(0.0) == -0.3
    assert isinstance(spec, HamiltonianSpec)


def test_spec_is_immutable():
    spec = constant_spec(omega=1.0)
    with pytest.raises(Exception):
        spec.omega = Constant(2.0)


def test_polynomial_is_numpy_polyval_bit_for_bit():
    from numpy.polynomial import polynomial as P

    rng = np.random.default_rng(17)
    for n in range(1, 7):
        for _ in range(20):
            c = tuple(float(x) for x in rng.normal(size=n) * 10.0 ** rng.integers(-4, 4, size=n))
            t = rng.uniform(-20.0, 20.0, size=33)
            sig = Polynomial(c)
            for m, method in enumerate((sig.value, sig.d1, sig.d2)):
                want = P.polyder(c, m)
                assert method(t).tobytes() == P.polyval(t, want).tobytes()
                got, ref = method(float(t[0])), P.polyval(float(t[0]), want)
                assert type(got) is type(ref) and got.tobytes() == ref.tobytes()


def test_polynomial_needs_a_coefficient():
    with pytest.raises(ValueError):
        Polynomial(())

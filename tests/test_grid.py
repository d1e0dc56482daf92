import numpy as np
import pytest
from scipy.integrate import simpson

from ffo.grid import cumsimpson_grid, cumtrapz_grid, linear_rk4, time_grid


def test_time_grid_basic():
    g = time_grid(1.0, 0.25)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_validation():
    with pytest.raises(ValueError):
        time_grid(1.0, -0.1)
    with pytest.raises(ValueError):
        time_grid(0.05, 0.1)
    with pytest.raises(ValueError):
        time_grid(1.05, 0.1)


def test_cumsimpson_exact_on_cubics():
    # Simpson integrates cubics exactly
    ts = time_grid(2.0, 0.01)
    y = 3.0 * ts ** 3 - ts ** 2 + 0.5 * ts - 2.0
    exact = 0.75 * ts ** 4 - ts ** 3 / 3 + 0.25 * ts ** 2 - 2.0 * ts
    assert np.max(np.abs(cumsimpson_grid(y, 0.01) - exact)) < 1e-12


def test_cumsimpson_accuracy_on_sin():
    dt = 1e-3
    ts = time_grid(5.0, dt)
    got = cumsimpson_grid(np.sin(3.0 * ts), dt)
    exact = (1.0 - np.cos(3.0 * ts)) / 3.0
    assert np.max(np.abs(got - exact)) < 1e-12


def test_cumsimpson_matches_scipy_full_interval():
    dt = 0.01
    ts = time_grid(3.0, dt)
    y = np.exp(-0.3 * ts) * np.cos(2.0 * ts)
    assert cumsimpson_grid(y, dt)[-1] == pytest.approx(simpson(y, x=ts), abs=1e-10)


def test_cumsimpson_complex_values():
    dt = 0.002
    ts = time_grid(1.0, dt)
    y = np.exp(1j * ts)
    exact = -1j * (np.exp(1j * ts) - 1.0)
    assert np.max(np.abs(cumsimpson_grid(y, dt) - exact)) < 1e-12


def test_cumtrapz_second_order():
    ts = time_grid(1.0, 1e-3)
    got = cumtrapz_grid(np.cos(ts), 1e-3)
    assert np.max(np.abs(got - np.sin(ts))) < 1e-7


def test_cumsimpson_short_arrays():
    assert np.allclose(cumsimpson_grid(np.array([2.0]), 0.1), [0.0])
    assert np.allclose(cumsimpson_grid(np.array([1.0, 1.0]), 0.1), [0.0, 0.1])
    got = cumsimpson_grid(np.array([0.0, 1.0, 2.0]), 1.0)
    assert got[-1] == pytest.approx(2.0)  # exact for linear data


# -- linear RK4 kernel ----------------------------------------------------------

def _generator(n, seed):
    """A(t) = -i H(t) - 0.1 D(t): a smooth, non-normal, time-dependent matrix."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    h = m + np.conj(np.transpose(m, (0, 2, 1)))
    d = rng.normal(size=(n, n))

    def generator(ts):
        ts = np.asarray(ts)[:, None, None]
        return (-1j * (h[0] + h[1] * np.sin(1.3 * ts) + h[2] * np.cos(0.4 * ts))
                - 0.1 * d * np.cos(ts))

    return generator


def _rk4_reference(generator, times, y0):
    """State-by-state classical RK4, one scalar step at a time."""
    dt = times[1] - times[0]
    out = [np.asarray(y0, dtype=complex)]
    for t in times[:-1]:
        a0, am, a1 = generator(np.array([t, t + 0.5 * dt, t + dt]))
        y = out[-1]
        k1 = a0 @ y
        k2 = am @ (y + 0.5 * dt * k1)
        k3 = am @ (y + 0.5 * dt * k2)
        k4 = a1 @ (y + dt * k3)
        out.append(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("steps", [1, 2, 3, 1023, 1024, 1025, 2053])
def test_linear_rk4_matches_stepwise_rk4(n, steps):
    # step counts straddle the 1024-step chunks and the sqrt-sized blocks
    gen = _generator(n, seed=steps + n)
    times = np.arange(steps + 1) * 0.01
    y0 = np.linspace(1.0, 0.2, n) + 0.3j
    got = linear_rk4(gen, times, y0)
    want = _rk4_reference(gen, times, y0)
    assert got.shape == (steps + 1, n)
    assert got[0].tolist() == want[0].tolist()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_linear_rk4_fourth_order():
    # y' = i t y has y = exp(i t^2 / 2); halving dt cuts the error 16-fold
    def gen(ts):
        return (1j * np.asarray(ts))[:, None, None]

    errors = []
    for dt in (0.02, 0.01):
        times = time_grid(4.0, dt)
        y = linear_rk4(gen, times, [1.0])[:, 0]
        errors.append(np.max(np.abs(y - np.exp(0.5j * times ** 2))))
    assert errors[0] / errors[1] == pytest.approx(16.0, abs=1.0)

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from ffo import grid
from ffo.grid import Samples, cumsimpson_grid, linear_rk4, time_grid
from ffo.invariants import build_B_so, free_oscillator_nu
from ffo.signals import ComplexSignal, Constant, HamiltonianSpec, Sinusoid

# step counts at the kernel's block, block-of-blocks and chunk boundaries
_B, _C = grid.BLOCK_STEPS, grid.CHUNK_STEPS
BOUNDARY_STEPS = [_B - 1, _B + 1, _B * _B - 1, _B * _B + 1, _C - 1, _C + 1, 2 * _C + 5]


def test_time_grid_basic():
    g = time_grid(1.0, 0.25)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_ends_at_t_final():
    # 3 * 0.1 is 0.30000000000000004 in floating point
    g = time_grid(0.3, 0.1)
    assert len(g) == 4 and g[-1] == 0.3
    assert time_grid(10.0, 1e-3).tolist() == (np.arange(10001) * 1e-3).tolist()


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


@pytest.mark.parametrize("t", [1e-3, 0.8, 2.0, 7.3])
def test_free_oscillator_phase_matches_scipy_simpson(t):
    omega = Sinusoid(0.3, 1.0, offset=1.0)
    n = 2 * max(32, int(np.ceil(t / 2e-3)))
    ts = np.linspace(0.0, t, n + 1)
    phi = simpson(omega.value(ts), x=ts)
    vm, vp = 0.6, 0.4
    samples = Samples(HamiltonianSpec(omega=omega, f=ComplexSignal(Constant(0.0)),
                                      g=Constant(0.0)), ts)
    got = free_oscillator_nu((vm, vp, 0.3), samples)[-1]
    assert abs(got[0] - vm * np.exp(1j * phi)) <= 1e-12
    assert abs(got[1] - vp * np.exp(-1j * phi)) <= 1e-12
    # phi sits in the off-diagonal entries, nu_minus and nu_plus
    mat = build_B_so(vm, vp, samples)[-1]
    assert abs(mat[0, 1] - vm * np.exp(1j * phi)) <= 1e-12
    assert abs(mat[1, 0] - vp * np.exp(-1j * phi)) <= 1e-12


def test_cumsimpson_short_arrays():
    assert np.allclose(cumsimpson_grid(np.array([2.0]), 0.1), [0.0])
    assert np.allclose(cumsimpson_grid(np.array([1.0, 1.0]), 0.1), [0.0, 0.1])
    got = cumsimpson_grid(np.array([0.0, 1.0, 2.0]), 1.0)
    assert got[-1] == pytest.approx(2.0)  # exact for linear data


# -- linear RK4 kernel ----------------------------------------------------------

def _system(n, seed):
    """A(t) = -i H(t) - 0.1 D(t): a smooth, non-normal, time-dependent matrix.

    Returns (sample, assemble, generator): ``sample(ts)`` gives the three
    scalar coefficients of A at ts, ``assemble`` builds A grid-last from
    them, as the kernel wants, and ``generator(ts)`` gives A as (K, n, n)
    for the stepwise reference.
    """
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    h = (m + np.conj(np.transpose(m, (0, 2, 1))))[..., None]
    d = rng.normal(size=(n, n))[..., None]

    def sample(ts):
        ts = np.asarray(ts)
        return np.sin(1.3 * ts), np.cos(0.4 * ts), np.cos(ts)

    def assemble(s, c, c1):
        return -1j * (h[0] + h[1] * s + h[2] * c) - 0.1 * d * c1

    return sample, assemble, lambda ts: np.moveaxis(assemble(*sample(ts)), -1, 0)


def _kernel(sample, assemble, times, y0):
    """linear_rk4 with the coefficients sampled on the nodes and midpoints of times."""
    dt = times[1] - times[0]
    return linear_rk4(assemble, sample(times), sample(times[:-1] + 0.5 * dt), dt, y0)


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


def _check_against_stepwise(n, steps):
    sample, assemble, gen = _system(n, seed=steps + n)
    times = np.arange(steps + 1) * 0.01
    y0 = np.linspace(1.0, 0.2, n) + 0.3j
    got = _kernel(sample, assemble, times, y0)
    want = _rk4_reference(gen, times, y0)
    assert got.shape == (steps + 1, n)
    assert got[0].tolist() == want[0].tolist()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("steps", [1, 2, 3, 1023, 1024, 1025, 2053])
def test_linear_rk4_matches_stepwise_rk4(n, steps):
    _check_against_stepwise(n, steps)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("steps", BOUNDARY_STEPS)
def test_linear_rk4_matches_stepwise_rk4_at_block_boundaries(n, steps):
    _check_against_stepwise(n, steps)


def test_linear_rk4_fourth_order():
    # y' = i t y has y = exp(i t^2 / 2); halving dt cuts the error 16-fold
    def assemble(t):
        return (1j * t)[None, None]

    errors = []
    for dt in (0.02, 0.01):
        times = time_grid(4.0, dt)
        y = _kernel(lambda ts: (ts,), assemble, times, [1.0])[:, 0]
        errors.append(np.max(np.abs(y - np.exp(0.5j * times ** 2))))
    assert errors[0] / errors[1] == pytest.approx(16.0, abs=1.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("steps", [1, 1024, 1025, 2053])
def test_linear_rk4_same_result_for_either_generator_layout(n, steps):
    # the kernel works grid-last; an assemble returning a C-contiguous
    # (n, n, m) array and one returning a view of a (m, n, n) array must
    # give the same states
    sample, assemble, _ = _system(n, seed=steps + n)

    def grid_last(*coeffs):
        return np.ascontiguousarray(assemble(*coeffs))

    def grid_first(*coeffs):
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(assemble(*coeffs), -1, 0)), 0, -1)

    times = np.arange(steps + 1) * 0.01
    y0 = np.linspace(1.0, 0.2, n) + 0.3j
    assert grid_last(*sample(times[:2])).flags.c_contiguous
    assert not grid_first(*sample(times[:2])).flags.c_contiguous
    np.testing.assert_array_equal(_kernel(sample, grid_first, times, y0),
                                  _kernel(sample, grid_last, times, y0))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("steps", [1, _B + 1, _C + 1])
def test_linear_rk4_real_columns_match_the_complex_state(n, steps):
    # a real A steps a complex state as two real columns, Re and Im, and
    # stays real; the columns equal the complex call's state
    sample, assemble, _ = _system(n, seed=steps + n)

    def real(*coeffs):
        return np.ascontiguousarray(assemble(*coeffs).real)

    times = np.arange(steps + 1) * 0.01
    y0 = np.linspace(1.0, 0.2, n) + 0.3j
    want = _kernel(sample, real, times, y0)
    got = _kernel(sample, real, times, np.stack([y0.real, y0.imag], axis=1))
    assert want.dtype == complex and got.dtype == float and got.shape == (steps + 1, n, 2)
    assert np.max(np.abs(got[..., 0] + 1j * got[..., 1] - want)) <= 1e-15 * np.max(np.abs(want))


def _sequential_product(steps, y0):
    out, y = [], y0
    for k in range(steps.shape[2]):
        y = steps[:, :, k] @ y
        out.append(y)
    return np.array(out)


@settings(max_examples=25, deadline=None, database=None)
@given(m=st.integers(1, 3 * grid.CHUNK_STEPS), n=st.sampled_from([2, 3]),
       p=st.integers(1, 3), complex_steps=st.booleans(), complex_starts=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_product_matches_sequential_loop(m, n, p, complex_steps, complex_starts, seed):
    # steps I + O(1e-2), the size of an RK4 step matrix; the product grows
    # by a few-fold at most over 3 chunks.  _scan takes them in block
    # layout, the last block padded with identities, and p start columns
    rng = np.random.default_rng(seed)
    steps = np.eye(n)[:, :, None] + 0.01 * rng.normal(size=(n, n, m))
    if complex_steps:
        steps = steps + 0.01j * rng.normal(size=(n, n, m))
    y0 = rng.normal(size=(n, p))
    if complex_starts:
        y0 = y0 + 1j * rng.normal(size=(n, p))
    blocks = -(-m // _B)
    pad = np.broadcast_to(np.eye(n)[:, :, None], (n, n, blocks * _B - m))
    laid_out = np.concatenate([steps, pad], axis=2).reshape(n, n, blocks, _B).swapaxes(2, 3)
    got = grid._scan(laid_out.copy(), y0)
    assert got.shape == (n, p, _B, blocks)
    assert got.dtype == np.result_type(steps, y0)
    got = got.transpose(3, 2, 0, 1).reshape(blocks * _B, n, p)[:m]
    want = _sequential_product(steps, y0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_linear_rk4_makes_no_per_block_python_loop(monkeypatch):
    # On 10,001 points (chunks of 4096, 4096 and 1808 steps, so 256, 256
    # and 113 blocks) the kernel makes per chunk 3 stage products, 15
    # in-block prefix products, one Hillis-Steele level per doubling of the
    # block count (8, 8 and 7), one product for the block starts and one
    # for the states: 28 + 28 + 27 = 83 calls of _mul.  Carrying the state
    # block to block by one matvec each takes ~650 small products on this
    # grid and runs ~1,900 lines of grid.py; counting executed lines
    # catches such a loop whatever it uses to multiply.
    calls, mul = [], grid._mul

    def counted(a, b, out=None):
        calls.append(a.shape)
        return mul(a, b, out=out)

    monkeypatch.setattr(grid, "_mul", counted)
    lines = []

    def trace(frame, event, arg):
        if frame.f_code.co_filename != grid.__file__:
            return None

        def count(frame, event, arg):
            if event == "line":
                lines.append(frame.f_lineno)
            return count
        return count

    sample, assemble, _ = _system(3, seed=0)
    times = np.arange(10001) * 1e-3
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _kernel(sample, assemble, times, [1.0, 0.0, 0.0])
    finally:
        sys.settrace(previous)
    assert len(calls) <= 90
    assert len(lines) <= 1000

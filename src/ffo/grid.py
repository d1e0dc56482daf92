"""Shared uniform time grid, its coefficient samples, quadrature helpers and
the linear RK4 kernel.

All integrators in the toolkit run on one fixed-step grid so trajectories
can be compared index-by-index without interpolation.

Per-point algebra runs along the grid axis: a stack of tiny matrices or
vectors is handled entrywise, each entry one grid column, never by a
complex ``einsum`` or a max, sum or norm over an axis of length 2-4.
Medians in us on one core (Intel Xeon, numpy 2.4), slow form -> entrywise:

    np.max(x, axis=1), x real (10001, 3)                 511 -> 13
    np.linalg.norm(e, axis=1), e complex (10001, 2)      244 -> 66
    np.sum(conj(e) * d, axis=1), complex (10001, 2)      358 -> 63
    U B0 U' by two complex einsum, 10,001 points        5260 -> 1140

The one exception is the RK4 kernel's ``_mul``, which keeps ``einsum`` for
complex operands too.  Summing broadcast products over j is faster in
isolation (67 -> 37 us for complex 2x2 stacks of 2000 points), but not
inside the integrators: equal in ``integrate_epsilon`` and 5-10 % slower
in ``integrate_nu``, whose block-start product then allocates n
temporaries where ``einsum`` makes one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ContractError
from .signals import HamiltonianSpec

# steps whose RK4 step matrices are held in memory at once
CHUNK_STEPS = 4096
# steps per block of _blocked_product: a chunk is three levels of blocks
BLOCK_STEPS = round(CHUNK_STEPS ** (1 / 3))


def linear_rk4(assemble, nodes, mids, dt: float, y0) -> np.ndarray:
    """Classical RK4 for the linear system y' = A(t) y on a uniform grid.

    ``nodes`` holds each coefficient of A sampled at the K grid times,
    ``mids`` at the K - 1 step midpoints; ``assemble(*coeffs)`` builds A
    grid-last, (n, n, m), from one chunk's m samples of each.  For a linear
    system one RK4 step is the matrix

        R_k = I + dt/6 (K1 + 2 K2 + 2 K3 + K4),
        K1 = A(t_k),  K2 = A_mid (I + dt/2 K1),  K3 = A_mid (I + dt/2 K2),
        K4 = A(t_k + dt) (I + dt K3),

    with A_mid = A(t_k + dt/2), so y_{k+1} = R_k y_k reproduces the stage
    arithmetic of the state-by-state loop up to rounding.  The R_k are built
    vectorised, CHUNK_STEPS at a time, and applied by ``_blocked_product``'s
    recursive scan (real if A is), so a chunk costs a few dozen numpy calls
    rather than one per step or per block.  A C-contiguous A runs each
    product of tiny matrices over one contiguous grid axis; a strided one
    gives the same states.  Returns the states on the whole grid, shape
    (K, n).
    """
    y0 = np.asarray(y0, dtype=complex)
    eye = np.eye(len(y0))[:, :, None]
    out = np.empty((len(nodes[0]), len(y0)), dtype=complex)
    out[0] = y0
    for start in range(0, len(out) - 1, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, len(out) - 1)
        a = assemble(*(c[start:stop + 1] for c in nodes))
        a_mid = assemble(*(c[start:stop] for c in mids))
        k1 = a[..., :-1]
        k2 = _stage(a_mid, k1, 0.5 * dt)
        k3 = _stage(a_mid, k2, 0.5 * dt)
        steps = k1 + 2.0 * k2
        steps += 2.0 * k3
        steps += _stage(a[..., 1:], k3, dt)
        steps *= dt / 6.0
        steps += eye
        out[start + 1:stop + 1] = _blocked_product(steps, out[start])
    return out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a[..., k] b[..., k] of grid-last stacks (n, n, ...) and (n, p, ...)."""
    return np.einsum("ij...,jl...->il...", a, b)


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as (conj(z) z).real, bit for bit the square np.linalg.norm sums."""
    return (np.conj(z) * z).real


def _stage(a: np.ndarray, k: np.ndarray, h: float) -> np.ndarray:
    """The RK4 stage a + h a k, built in place on the product a k."""
    out = _mul(a, k)
    out *= h
    out += a
    return out


def _blocked_product(steps: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """y_1..y_m of y_{k+1} = steps[:, :, k] y_k, returned as (m, n).

    The m steps are cut into blocks of BLOCK_STEPS (the last padded with
    identities); prefix products run inside all blocks at once, over a
    contiguous axis of blocks.  The state at each block start comes from the
    block totals, scanned by this same function until one block is left, so
    a chunk of CHUNK_STEPS takes three levels of BLOCK_STEPS products each.
    Every state is then one product of an in-block prefix with its block
    start.
    """
    n, m = steps.shape[0], steps.shape[2]
    blocks = -(-m // BLOCK_STEPS)
    pad = np.broadcast_to(np.eye(n)[:, :, None], (n, n, blocks * BLOCK_STEPS - m))
    prefix = np.concatenate([steps, pad], axis=2).reshape(n, n, blocks, BLOCK_STEPS)
    prefix = prefix.swapaxes(2, 3).copy()
    for i in range(1, BLOCK_STEPS):
        prefix[:, :, i] = _mul(prefix[:, :, i], prefix[:, :, i - 1])
    starts = np.empty((blocks, n), dtype=complex)
    starts[0] = y0
    if blocks > 1:
        starts[1:] = _blocked_product(prefix[:, :, -1, :-1], y0)
    states = _mul(prefix, starts.T[:, None, None])[:, 0]
    return states.transpose(2, 1, 0).reshape(blocks * BLOCK_STEPS, n)[:m]


def time_grid(t_final: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, ..., t_final; t_final must be a multiple of dt.

    The last point is t_final itself, never a rounding step past it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < dt:
        raise ValueError("t_final must be at least dt")
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final={t_final} is not an integer multiple of dt={dt}")
    times = np.arange(steps + 1) * dt
    times[-1] = t_final
    return times


class Samples:
    """omega, f, their first two derivatives and g of ``spec`` at ``times``, each on first use.

    ``times`` may be a grid or a scalar; the samples keep its shape.
    """

    def __init__(self, spec: HamiltonianSpec, times):
        self.spec, self.times = spec, times

    def check_grid(self, times) -> None:
        """Raise ContractError unless ``times`` is the grid these samples were taken on."""
        if not np.array_equal(self.times, times):
            raise ContractError("the samples and the trajectory are on different time grids")

    @cached_property
    def omega(self) -> np.ndarray:
        return np.asarray(self.spec.omega.value(self.times), dtype=float)

    @cached_property
    def omega_d1(self) -> np.ndarray:
        return np.asarray(self.spec.omega.d1(self.times), dtype=float)

    @cached_property
    def omega_d2(self) -> np.ndarray:
        return np.asarray(self.spec.omega.d2(self.times), dtype=float)

    @cached_property
    def f(self) -> np.ndarray:
        return np.asarray(self.spec.f.value(self.times), dtype=complex)

    @cached_property
    def f_d1(self) -> np.ndarray:
        return np.asarray(self.spec.f.d1(self.times), dtype=complex)

    @cached_property
    def f_d2(self) -> np.ndarray:
        return np.asarray(self.spec.f.d2(self.times), dtype=complex)

    @cached_property
    def g(self) -> np.ndarray:
        return np.asarray(self.spec.g.value(self.times), dtype=float)


class GridSamples(Samples):
    """One scenario's samples: on the nodes of ``time_grid(t_final, dt)`` and,
    as ``mids``, on the step midpoints, so no consumer samples a signal again."""

    def __init__(self, spec: HamiltonianSpec, t_final: float, dt: float):
        super().__init__(spec, time_grid(t_final, dt))
        self.dt = dt
        self.mids = Samples(spec, self.times[:-1] + 0.5 * dt)


def cumtrapz_grid(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral of samples y on a uniform grid, F(0)=0.

    Plain numpy in scipy's order of operations, so the result is bit for
    bit ``scipy.integrate.cumulative_trapezoid(y, dx=dt, initial=0.0)``
    without importing scipy.
    """
    y = np.asarray(y)
    out = np.zeros(y.shape[0], dtype=np.result_type(y.dtype, float))
    out[1:] = np.cumsum(dt * (y[1:] + y[:-1]) / 2.0)
    return out


def cumsimpson_grid(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative composite-Simpson integral on a uniform grid, F(0)=0.

    Even indices use the standard pairwise Simpson rule; odd indices close
    the half-panel with cubic (four-point) interpolatory weights, so the
    result is exact for cubics at every index and O(dt^4)-accurate
    generally.  Used where closed forms are compared against integrated
    trajectories at tolerances the trapezoid rule cannot reach.
    """
    y = np.asarray(y)
    n = y.shape[0]
    out = np.zeros(n, dtype=np.result_type(y.dtype, float))
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * dt * (y[0] + y[1])
        return out
    # even targets: F[2m] = F[2m-2] + dt/3 (y[2m-2] + 4 y[2m-1] + y[2m])
    pair = dt / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(pair)
    # odd targets: integrate [t_{k-1}, t_k] through the cubic on the four
    # nearest nodes (quadratic three-point rules where the grid is short)
    if n == 3:
        out[1] = dt / 12.0 * (5.0 * y[0] + 8.0 * y[1] - y[2])
        return out
    k = np.arange(1, n, 2)
    first = k[(k >= 3) & (k + 1 <= n - 1)]
    out[first] = out[first - 1] + dt / 24.0 * (
        -y[first - 2] + 13.0 * y[first - 1] + 13.0 * y[first] - y[first + 1]
    )
    if 1 in k and n >= 4:
        out[1] = dt / 24.0 * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3])
    if (n - 1) % 2 == 1 and n - 1 >= 3:
        last = n - 1
        out[last] = out[last - 1] + dt / 24.0 * (
            y[last - 3] - 5.0 * y[last - 2] + 19.0 * y[last - 1] + 9.0 * y[last]
        )
    return out

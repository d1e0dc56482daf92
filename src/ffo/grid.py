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

The RK4 kernel works in the layout of its scan, (n, n, BLOCK_STEPS,
blocks) per chunk, from the coefficient samples on (``linear_rk4``).  Its
``_mul`` keeps ``einsum`` except for complex whole-chunk stacks, summed as
rows of ufunc products (complex 2x2, 4096 steps: 94 -> 43 us; per-block
stacks of 256 keep einsum, 7.5 against 12.8).  Kernel alone, CPU us per
step, medians of 25 interleaved runs over 4 forced specs, three-level
recursive scan -> this layout:

    nu   (real 3x3, 2 columns)    10,001 points 0.62 -> 0.55   2,001 points 0.48 -> 0.34
    eps  (complex 2x2, 1 column)  10,001 points 0.60 -> 0.50   2,001 points 0.38 -> 0.29
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .signals import HamiltonianSpec

# steps whose RK4 step matrices are held in memory at once
CHUNK_STEPS = 4096
# steps per block of _scan: a chunk is at most 256 blocks
BLOCK_STEPS = 16


def linear_rk4(assemble, nodes, mids, dt: float, y0) -> np.ndarray:
    """Classical RK4 for the linear system y' = A(t) y on a uniform grid.

    ``nodes`` holds each coefficient of A sampled at the K grid times,
    ``mids`` at the K - 1 step midpoints; ``assemble(*coeffs)`` builds A
    grid-last, (n, n, len(c)), from 1-D coefficient arrays c.  For a linear
    system one RK4 step is the matrix

        R_k = I + dt/6 (A0 + 2 (K2 + K3) + K4),
        K2 = Am (I + dt/2 A0),  K3 = Am (I + dt/2 K2),  K4 = A1 (I + dt K3),

    with A0, Am, A1 = A at t_k, t_k + dt/2 and t_k + dt, so y_{k+1} = R_k y_k
    reproduces the stage arithmetic of the state-by-state loop up to
    rounding.  The R_k are built CHUNK_STEPS at a time straight in the block
    layout of ``_scan`` (``assemble`` gets the samples already permuted, so
    there is no concatenate or transposed copy), in three buffers every
    chunk reuses, and composed by ``_scan``: prefix products inside all
    16-step blocks at once, then one Hillis-Steele scan of the block totals
    for the block starts (timings in the module docstring).  ``y0`` is one
    state (n,) or p state columns (n, p); the result, (K, n) or (K, n, p),
    is real when A and y0 are, so a real system steps a complex state as
    two real columns and no product casts a real prefix to complex.  A
    C-contiguous A runs each product of tiny matrices over contiguous grid
    axes; a strided one gives the same states.  The p columns share the step
    matrices and their scan; only the products with the block starts grow
    with p.
    """
    y0 = np.asarray(y0)
    n, total = len(y0), len(nodes[0]) - 1
    out, work = y0[None], None
    # an overflowing step is not warned about: every caller checks the states
    # and reports the first non-finite one
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, CHUNK_STEPS):
            m = min(CHUNK_STEPS, total - start)
            a, a_mid = _block_generators(assemble, [c[start:start + m + 1] for c in nodes],
                                         [c[start:start + m] for c in mids])
            if work is None:
                # fresh stage buffers would cost each chunk a round of page faults
                work = np.empty((3, a_mid.size), dtype=np.result_type(a, a_mid))
                out = np.empty((-(-total // BLOCK_STEPS) * BLOCK_STEPS + 1,) + y0.shape,
                               dtype=np.result_type(work, y0))
                out[0] = y0
            blocks = a_mid.shape[3]
            steps = _rk4_steps(a, a_mid, dt, work[:, :a_mid.size].reshape((3,) + a_mid.shape))
            steps[:, :, m - (blocks - 1) * BLOCK_STEPS:, -1] = np.eye(n)[:, :, None]
            states = _scan(steps, out[start].reshape(n, -1))
            rows = out[start + 1:start + 1 + blocks * BLOCK_STEPS]
            rows.reshape(blocks, BLOCK_STEPS, n, -1)[:] = states.transpose(3, 2, 0, 1)
    return out[:total + 1]


def _mul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Products a[..., k] b[..., k] of grid-last stacks (n, n, ...) and (n, p, ...).

    Written into ``out`` if given.  Complex whole-chunk stacks, (n, n,
    BLOCK_STEPS, blocks), are summed as rows of ufunc products, all others
    go to ``einsum`` (timings in the module docstring).
    """
    if a.ndim < 4 or not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return np.einsum("ij...,jl...->il...", a, b, out=out)
    if out is None:
        out = np.empty(a.shape[:1] + b.shape[1:2] + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                       dtype=np.result_type(a, b))
    for l in range(b.shape[1]):
        o = np.multiply(a[:, 0], b[0, l], out=out[:, l])
        for j in range(1, len(b)):
            o += a[:, j] * b[j, l]
    return out


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as (conj(z) z).real, bit for bit the square np.linalg.norm sums."""
    return (np.conj(z) * z).real


def _plus_identity(x: np.ndarray) -> np.ndarray:
    """x + I for a stack (n, n, ...), added in place on the n diagonal rows."""
    for i in range(len(x)):
        x[i, i] += 1.0
    return x


def _block_generators(assemble, nodes, mids):
    """A on one chunk's nodes, (n, n, BLOCK_STEPS + 1, blocks), and midpoints.

    Step k sits at [..., k % BLOCK_STEPS, k // BLOCK_STEPS]: ``assemble``
    gets the samples permuted into that order, so reshaping A is free, and
    A0, A1 of a step are rows i, i + 1 of A on the nodes.  The last block's
    steps past the chunk read its last samples; the caller makes them
    identities.
    """
    m = len(mids[0])
    blocks = -(-m // BLOCK_STEPS)
    k = np.arange(BLOCK_STEPS + 1)[:, None] + BLOCK_STEPS * np.arange(blocks)
    a = assemble(*(c[np.minimum(k, m)].ravel() for c in nodes))
    a_mid = assemble(*(c[np.minimum(k[:-1], m - 1)].ravel() for c in mids))
    return (a.reshape(a.shape[:2] + k.shape),
            a_mid.reshape(a.shape[:2] + (BLOCK_STEPS, blocks)))


def _rk4_steps(a, a_mid, dt: float, work) -> np.ndarray:
    """The step matrices R_k in the layout of ``a_mid``, built in ``work``.

    ``work`` holds three C-contiguous arrays shaped like ``a_mid``: X = I +
    h K and K2, K3 in turn; K4 goes into K3's and R into K2's, returned.
    """
    x, k2, k3 = work
    a0 = a[:, :, :-1]
    _mul(a_mid, _plus_identity(np.multiply(a0, 0.5 * dt, out=x)), out=k2)
    _mul(a_mid, _plus_identity(np.multiply(k2, 0.5 * dt, out=x)), out=k3)
    k2 += k3
    _mul(a[:, :, 1:], _plus_identity(np.multiply(k3, dt, out=x)), out=k3)
    k2 *= 2.0
    k2 += a0
    k2 += k3
    k2 *= dt / 6.0
    return _plus_identity(k2)


def _scan(steps: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """States y_{k+1} = R_k y_k for the R_k of ``steps`` in block layout.

    ``steps`` is (n, n, BLOCK_STEPS, blocks), step k at [:, :, k %
    BLOCK_STEPS, k // BLOCK_STEPS], the last block padded with identities;
    ``y0`` is (n, p).  The states come back in the same layout, (n, p,
    BLOCK_STEPS, blocks).  Prefix products run inside all blocks at once,
    over the contiguous axis of blocks, overwriting ``steps``.  The block
    starts come from one Hillis-Steele scan of the block totals: ceil(log2
    blocks) products, each of all the totals at once.  Every state is then
    one product of an in-block prefix with its block start.
    """
    for i in range(1, BLOCK_STEPS):
        steps[:, :, i] = _mul(steps[:, :, i], steps[:, :, i - 1])
    totals = steps[:, :, -1, :-1].copy()
    span = 1
    while span < totals.shape[2]:
        totals[:, :, span:] = _mul(totals[:, :, span:], totals[:, :, :-span])
        span *= 2
    starts = np.empty(y0.shape + steps.shape[3:], dtype=np.result_type(steps, y0))
    starts[..., 0] = y0
    starts[..., 1:] = _mul(totals, y0[..., None])
    return _mul(steps, starts[:, :, None])


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
    as ``mids``, on the step midpoints, so no consumer samples a signal again.

    The one owner of the grid: each trajectory holds the samples it was
    computed on, and its consumers read the grid from it."""

    def __init__(self, spec: HamiltonianSpec, t_final: float, dt: float):
        super().__init__(spec, time_grid(t_final, dt))
        self.dt = dt
        self.mids = Samples(spec, self.times[:-1] + 0.5 * dt)


@dataclass
class Trajectory:
    """Values on the grid of ``samples``, the samples they were computed from."""

    samples: GridSamples

    @property
    def times(self) -> np.ndarray:
        return self.samples.times


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

"""Shared uniform time grid, quadrature helpers and the linear RK4 kernel.

All integrators in the toolkit run on one fixed-step grid so trajectories
can be compared index-by-index without interpolation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

# steps whose RK4 step matrices are held in memory at once
CHUNK_STEPS = 1024


def linear_rk4(generator, times: np.ndarray, y0) -> np.ndarray:
    """Classical RK4 for the linear system y' = A(t) y on a uniform grid.

    ``generator(ts)`` returns A at the times ``ts`` with shape
    (len(ts), n, n).  For a linear system one RK4 step is the matrix

        R_k = I + dt/6 (K1 + 2 K2 + 2 K3 + K4),
        K1 = A(t_k),  K2 = A_mid (I + dt/2 K1),  K3 = A_mid (I + dt/2 K2),
        K4 = A(t_k + dt) (I + dt K3),

    with A_mid = A(t_k + dt/2), so y_{k+1} = R_k y_k reproduces the stage
    arithmetic of the state-by-state loop up to rounding.  The R_k are built
    vectorised, CHUNK_STEPS at a time, and applied as a blocked product.
    Returns the states on the whole grid, shape (len(times), n).
    """
    times = np.asarray(times, dtype=float)
    dt = float(times[1] - times[0])
    y0 = np.asarray(y0, dtype=complex)
    eye = np.eye(len(y0))
    out = np.empty((len(times), len(y0)), dtype=complex)
    out[0] = y0
    for start in range(0, len(times) - 1, CHUNK_STEPS):
        ts = times[start:start + CHUNK_STEPS + 1]
        a = generator(ts)
        a_mid = generator(ts[:-1] + 0.5 * dt)
        k1 = a[:-1]
        k2 = a_mid + 0.5 * dt * (a_mid @ k1)
        k3 = a_mid + 0.5 * dt * (a_mid @ k2)
        k4 = a[1:] + dt * (a[1:] @ k3)
        steps = eye + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[start + 1:start + len(ts)] = _blocked_product(steps, out[start])
    return out


def _blocked_product(steps: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """y_1..y_m of y_{k+1} = steps[k] y_k.

    The m steps are cut into blocks of about sqrt(m); prefix products run
    inside all blocks at once, then the state is carried block to block.
    """
    m, n = steps.shape[0], steps.shape[1]
    size = math.isqrt(m - 1) + 1
    blocks = -(-m // size)
    pad = np.broadcast_to(np.eye(n), (blocks * size - m, n, n))
    prefix = np.concatenate([steps, pad]).reshape(blocks, size, n, n)
    for i in range(1, size):
        prefix[:, i] = prefix[:, i] @ prefix[:, i - 1]
    starts = np.empty((blocks, n), dtype=complex)
    starts[0] = y0
    for j in range(1, blocks):
        starts[j] = prefix[j - 1, -1] @ starts[j - 1]
    return (prefix @ starts[:, None, :, None]).reshape(blocks * size, n)[:m]


def time_grid(t_final: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, ..., t_final; t_final must be a multiple of dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < dt:
        raise ValueError("t_final must be at least dt")
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final={t_final} is not an integer multiple of dt={dt}")
    return np.arange(steps + 1) * dt


def cumtrapz_grid(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral of samples y on a uniform grid, F(0)=0."""
    return cumulative_trapezoid(y, dx=dt, initial=0.0)


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

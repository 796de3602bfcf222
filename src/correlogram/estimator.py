"""Cross-correlogram estimation of an impulse-response component.

Given the paired outputs Y and X of one white-noise-driven system, the
estimator is the time-averaged lagged product

    Hhat(tau) = (1/(c T)) int_0^T Y(t + tau) X(t) dt,

discretized as a left-Riemann sum on the simulation lattice. Its mean
(1/c) int g(s) H(s + tau) ds is computed by quadrature, never by Monte
Carlo, so the centered scaled process

    Zhat(tau) = sqrt(T) (Hhat(tau) - E Hhat(tau))

carries no centering noise. Lags are snapped to the lattice instead of
interpolating; the snapped grid is what the estimate reports.

The lagged products are summed over the window [0, T) in blocks of
``_DOT_BLOCK_SAMPLES`` samples up to ``_DOT_MAX_LAGS`` lags and of
``simulate._BLOCK_SAMPLES`` above, from paths that arrive in blocks of
``simulate._BLOCK_SAMPLES`` (``PathBlocks``, or a whole ``SampledPath`` in
views of a block each), so the estimate's working set, which
``_lagged_values`` counts, does not grow with ``T``; a window of at most
one block is summed in one piece.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.fft import irfft, rfft

from .errors import CoverageError
from .kernels import Kernel
from .quadrature import lagged_product
from .simulate import _BLOCK_SAMPLES, TimeGrid, _blocks_in_step, _write_csv, _write_json, next_fast_len

__all__ = [
    "snap_tau_grid",
    "estimation_grid",
    "cross_correlogram",
    "theoretical_bias",
    "estimate_correlogram",
    "write_estimate_csv",
]

#: Lag count up to which the correlogram takes one BLAS dot product per lag
#: (``np.correlate`` over each run of consecutive lags); more lags go through
#: one FFT cross-correlation. The loop's cost grows with the lag count, the
#: FFT's does not; on one thread of a 2-vCPU x86-64 host, with the loop summed
#: in blocks of ``_DOT_BLOCK_SAMPLES``, the two cross at about 460 lags for 5e4
#: samples in the window [0, T) and about 360 for 5e5. The value stays at 256,
#: the lag count the output bytes of every config were written with.
_DOT_MAX_LAGS = 256

#: Window samples per block on the dot route. A block's ``Y`` segment and
#: ``X`` block (about 33 KB) stay in a 48 KiB L1d, and OpenBLAS splits no
#: ``ddot`` this short over its threads (it does above 10 000 samples), so the
#: sums, and the bytes written, do not depend on the BLAS thread count.
_DOT_BLOCK_SAMPLES = 2048

#: Window blocks of at most this many samples take ``np.dot`` per lag:
#: ``np.correlate`` sums them in an unrolled loop that rounds differently.
_SMALL_CORRELATE = 11


def snap_tau_grid(tau_grid: Sequence[float], dt: float) -> np.ndarray:
    """Snap lags to the nearest multiple of the lattice spacing."""
    tau = np.asarray(tau_grid, dtype=float)
    return np.round(tau / dt) * dt


def estimation_grid(T: float, dt: float, taus: Sequence[float]) -> TimeGrid:
    """The dt lattice over [min(0, taus[0]), T + max(0, taus[-1])]: every
    sample ``cross_correlogram`` reads for the ascending lags ``taus``,
    snapped to the lattice as it snaps them. ``T`` must be a whole number
    of ``dt`` steps, no count of steps may overflow a float, and no two lags
    may snap to one lattice lag."""
    if not all(math.isfinite(float(tau) / dt) for tau in (taus[0], taus[-1])):
        raise ValueError(f"tau_grid lags {taus[0]}..{taus[-1]} overflow a float in steps of dt={dt}")
    snapped = snap_tau_grid(taus, dt)
    same = np.flatnonzero(np.diff(snapped) == 0)
    if same.size:
        lo, hi = float(taus[same[0]]), float(taus[same[0] + 1])
        raise ValueError(f"tau_grid lags {lo} and {hi} snap to one lattice lag at dt={dt}")
    t_start = min(0.0, float(snapped[0]))
    t_end = T + max(0.0, float(snapped[-1]))
    steps = (t_end - t_start) / dt
    if not math.isfinite(steps):
        raise ValueError(f"T={T} plus the tau_grid span overflows a float in steps of dt={dt}")
    n = int(round(steps)) + 1
    if n < 2:
        raise ValueError("grid needs at least two samples; check T and dt")
    _horizon_steps(T, dt)
    return TimeGrid(t_start=t_start, dt=dt, n=n)


def _horizon_steps(T: float, dt: float) -> int:
    """Lattice steps in the window [0, T), of which T must be a whole number."""
    if not math.isfinite(T / dt):
        raise ValueError(f"T={T} overflows a float in steps of dt={dt}")
    n_T = round(T / dt)
    if n_T < 1 or abs(T / dt - n_T) > 1e-6:
        raise ValueError(f"T={T} must be a positive multiple of dt={dt}")
    return n_T


def cross_correlogram(Y, X, c: float, T: float, tau_grid: Sequence[float]) -> np.ndarray:
    """Left-Riemann lagged products ``(1/(cT)) sum_j Y(t_j+tau) X(t_j) dt``.

    ``Y`` and ``X`` are ``SampledPath``s or ``PathBlocks`` on one grid. The
    integration window is ``t_j in [0, T)``; each requested lag is snapped
    to the lattice first. Raises when the shared grid does not cover every
    shifted window.

    Up to ``_DOT_MAX_LAGS`` lags take one BLAS dot product per lag and
    window block of at most ``_DOT_BLOCK_SAMPLES`` (2048) samples, each run
    of consecutive lags in one GIL-free ``np.correlate`` call that takes the
    dots of ``np.dot`` byte for byte; blocks of at most ``_SMALL_CORRELATE``
    (11) samples take ``np.dot`` per lag. No dot is long enough for OpenBLAS
    to split it over threads, so these sums do not depend on the BLAS thread
    count; they still depend on the ``ddot`` kernel OpenBLAS picks for the
    CPU. More lags take, per block of ``m`` samples, one zero-padded real FFT
    cross-correlation of the ``m + hi - lo`` ``Y`` samples that the shifts
    ``lo..hi`` reach against the block of ``X``, at the first fast length
    that holds them, so nothing wraps into a kept shift; the requested
    shifts are then picked out. Either way the block sums differ from one
    dot product per lag over the whole window by rounding only, at most
    ``1e-12 * dt/(cT) * |Y segment|_2 * |X window|_2`` per lag (the test
    suite checks this bound); a window of one block takes the same dot
    products, or the same transform, as that one piece.
    """
    if Y.grid != X.grid:
        raise ValueError("Y and X must share one sampling grid")
    grid = Y.grid
    dt = grid.dt
    if not c > 0:
        raise ValueError("c must be positive")
    n_T = _horizon_steps(T, dt)

    tau = snap_tau_grid(tau_grid, dt)
    shifts = np.round(tau / dt).astype(int)

    j0 = round(-grid.t_start / dt)  # the lattice index of t = 0
    if abs(grid.t_start + j0 * dt) > 1e-9 * dt:
        raise ValueError("grid does not contain t=0 on its lattice")

    lo_shift = int(shifts.min()) if shifts.size else 0
    hi_shift = int(shifts.max()) if shifts.size else 0
    need_lo = min(j0, j0 + lo_shift)
    need_hi = max(j0 + n_T - 1, j0 + n_T - 1 + hi_shift)
    if need_lo < 0 or need_hi > grid.n - 1:
        span = (min(0.0, float(tau.min())) if tau.size else 0.0,
                T + max(0.0, float(tau.max())) if tau.size else T)
        raise CoverageError(
            f"grid [{grid.t_start:g}, {grid.t_end:g}] does not cover the "
            f"required span [{span[0]:g}, {span[1]:g}] for T={T:g} and the "
            f"requested lags",
            required_span=span,
        )
    sums = _lagged_sums(_blocks_in_step((Y, X)), j0, n_T, shifts)
    return dt / (c * T) * sums


def _lagged_sums(blocks, j0: int, n_T: int, shifts: np.ndarray) -> np.ndarray:
    """``sum_{j < n_T} y[j0 + k + j] x[j0 + j]`` for each shift ``k`` of
    ``shifts``, from the ``(j, (y, x))`` grid blocks of ``_blocks_in_step``.

    The buffers ``y`` and ``x`` hold the grid samples from ``start`` on; a
    window block is summed once ``y`` reaches its largest shift and ``x``
    the block's end, and the samples before the next window block's
    smallest shift are dropped. On the loop route a window block holds at
    most ``_DOT_BLOCK_SAMPLES`` samples and takes one ``np.correlate`` per
    run of consecutive shifts, byte for byte one BLAS dot per shift, or
    ``np.dot`` per shift at <= ``_SMALL_CORRELATE`` samples; the block parts
    are added in window order."""
    lo, hi = (int(shifts.min()), int(shifts.max())) if shifts.size else (0, 0)
    dots = shifts.size <= _DOT_MAX_LAGS
    block = min(n_T, _BLOCK_SAMPLES, _DOT_BLOCK_SAMPLES) if dots else min(n_T, _BLOCK_SAMPLES)
    runs = np.split(shifts, np.flatnonzero(np.diff(shifts) != 1) + 1) if shifts.size else []
    size = None if dots else next_fast_len(block + hi - lo)
    y = x = np.empty(0)
    start = done = 0
    total = None
    for _, (y_new, x_new) in blocks:
        if done == n_T:
            continue
        y = y_new if not y.size else np.concatenate((y, y_new))
        x = x_new if not x.size else np.concatenate((x, x_new))
        while done < n_T:
            m = min(block, n_T - done)
            a = j0 + done - start
            if a + max(hi, 0) + m > y.size:  # x grows with y
                break
            x_win = x[a : a + m]
            if dots and (m <= _SMALL_CORRELATE or not runs):
                part = np.array([np.dot(y[a + k : a + k + m], x_win) for k in shifts])
            elif dots:
                part = np.concatenate([np.correlate(y[a + r[0] : a + r[-1] + m], x_win, "valid")
                                       for r in runs])
            else:
                # corr[i] = sum_j y[a + lo + i + j] x_win[j] for every shift lo + i:
                # at a length >= m + hi - lo no product wraps into them.
                spectrum = rfft(y[a + lo : a + hi + m], size)
                spectrum *= rfft(x_win, size).conj()
                part = irfft(spectrum, size)[shifts - lo]
            total = part if total is None else total + part
            done += m
        drop = min(max(j0 + done + min(lo, 0) - start, 0), y.size)
        y, x, start = y[drop:], x[drop:], start + drop
    return total


def _lagged_values(n_T: int, span: int, block: int, lags: int) -> tuple:
    """``(buffer, values)`` of ``_lagged_sums`` over ``n_T`` window samples
    and ``lags`` lags ``span`` lag steps wide from paths in blocks of
    ``block``: the most its ``y`` or ``x`` holds, two blocks and the
    look-ahead, and the most float64 values it holds: both buffers, a block's
    sums, its runs' sums and their total, and on the FFT route its three transforms."""
    buffer = 2 * block + span
    values = 2 * buffer + 3 * lags
    if lags > _DOT_MAX_LAGS:
        values += 3 * (next_fast_len(min(n_T, _BLOCK_SAMPLES) + span) + 2)
    return buffer, values


def theoretical_bias(h: Kernel, g: Kernel, c: float, tau):
    """Mean of the estimator, ``(1/c) int g(s) H(s + tau) ds``, at a lag or
    a lag array.

    Integrated over the window support when the window decays fast enough
    for truncation, otherwise through the Plancherel dual
    ``(1/(2 pi c)) int g*(lam) conj(H*(lam)) exp(-i lam tau) dlam``; the
    two routes are cross-checked in the test suite.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    return lagged_product(g, h, tau, +1) / c


def estimate_correlogram(
    h: Kernel,
    g: Kernel,
    c: float,
    Y,
    X,
    T: float,
    tau_grid: Sequence[float],
) -> dict:
    """Run one full estimate from the paths ``Y`` and ``X`` (``SampledPath``s
    or ``PathBlocks``): the columns ``tau`` (the snapped lags), ``h_hat``,
    ``h_mean`` (its quadrature mean) and ``z_hat = sqrt(T) (h_hat - h_mean)``,
    in that order."""
    tau = snap_tau_grid(tau_grid, Y.grid.dt)
    h_hat = cross_correlogram(Y, X, c, T, tau)
    h_mean = theoretical_bias(h, g, c, tau)
    z_hat = math.sqrt(T) * (h_hat - h_mean)
    return {"tau": tau, "h_hat": h_hat, "h_mean": h_mean, "z_hat": z_hat}


def write_estimate_csv(columns: dict, sidecar: dict, file) -> None:
    """Write the named ``columns`` as CSV, the names as its header, and
    ``sidecar`` next to it as JSON with extension ``.json``."""
    _write_csv([file], list(columns), [list(columns.values())])
    _write_json(Path(file).with_suffix(".json"), sidecar, sort_keys=True)

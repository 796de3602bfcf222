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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import CoverageError
from .kernels import Kernel
from .simulate import SampledPath, _write_csv

__all__ = [
    "CorrelogramEstimate",
    "snap_tau_grid",
    "cross_correlogram",
    "theoretical_bias",
    "centered_process",
    "estimate_correlogram",
    "write_estimate_csv",
    "read_estimate_csv",
]


@dataclass(frozen=True)
class CorrelogramEstimate:
    """Estimator output on a lag grid, with its mean and fluctuation.

    ``z_hat`` equals ``sqrt(T) * (h_hat - h_mean)`` by construction.
    """

    tau_grid: np.ndarray
    h_hat: np.ndarray
    h_mean: np.ndarray
    z_hat: np.ndarray
    T: float
    delta: float
    c: float
    dt: Optional[float] = None
    seed: Optional[dict] = None

    def __post_init__(self):
        for name in ("tau_grid", "h_hat", "h_mean", "z_hat"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            object.__setattr__(self, name, arr)
        n = self.tau_grid.size
        if not all(getattr(self, f).size == n for f in ("h_hat", "h_mean", "z_hat")):
            raise ValueError("arrays must share tau_grid length")
        if np.any(np.diff(self.tau_grid) < 0):
            raise ValueError("tau_grid must be ascending")
        if not self.T > 0:
            raise ValueError("T must be positive")


def snap_tau_grid(tau_grid: Sequence[float], dt: float) -> np.ndarray:
    """Snap lags to the nearest multiple of the lattice spacing."""
    tau = np.asarray(tau_grid, dtype=float)
    return np.round(tau / dt) * dt


def _lattice_index(t: float, grid) -> int:
    j = (t - grid.t_start) / grid.dt
    return int(round(j))


def cross_correlogram(
    Y: SampledPath,
    X: SampledPath,
    c: float,
    T: float,
    tau_grid: Sequence[float],
) -> np.ndarray:
    """Left-Riemann lagged products ``(1/(cT)) sum_j Y(t_j+tau) X(t_j) dt``.

    The integration window is ``t_j in [0, T)``; each requested lag is
    snapped to the lattice first. Raises when the shared grid does not
    cover every shifted window.
    """
    if Y.grid != X.grid:
        raise ValueError("Y and X must share one sampling grid")
    grid = Y.grid
    dt = grid.dt
    if not c > 0:
        raise ValueError("c must be positive")
    n_T = round(T / dt)
    if n_T < 1 or abs(T / dt - n_T) > 1e-6:
        raise ValueError(f"T={T} must be a positive multiple of dt={dt}")

    tau = snap_tau_grid(tau_grid, dt)
    shifts = np.round(tau / dt).astype(int)

    j0 = _lattice_index(0.0, grid)
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

    x_win = X.values[j0 : j0 + n_T]
    scale = dt / (c * T)
    out = np.empty(tau.size)
    for i, k in enumerate(shifts):
        out[i] = scale * float(np.dot(Y.values[j0 + k : j0 + k + n_T], x_win))
    return out


#: Kernels whose stored support tail is at most this integrate in the
#: time domain; beyond it (sinc family) the spectral route is used.
_TIME_ROUTE_TOL = 1e-8


def theoretical_bias(
    h: Kernel,
    g: Kernel,
    c: float,
    tau: float,
    route: str = "auto",
) -> float:
    """Mean of the estimator, ``(1/c) int g(s) H(s + tau) ds``.

    ``route`` selects the quadrature representation: ``"time"`` integrates
    over the window support, ``"frequency"`` uses the Plancherel dual
    ``(1/(2 pi c)) int g*(lam) conj(H*(lam)) exp(-i lam tau) dlam``, and
    ``"auto"`` picks time when the window decays fast enough. The two
    routes agree within quadrature tolerance and are cross-checked in the
    test suite.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    tau = float(tau)
    if route == "auto":
        route = "time" if g.support_tol <= _TIME_ROUTE_TOL else "frequency"
    if route == "time":
        r = g.effective_support if g.support_tol == 0.0 else 1.5 * g.effective_support
        kinks = [p for p in (0.0, -tau) if -r < p < r]
        val, _ = quad(
            lambda s: float(g.time_eval(s)) * float(h.time_eval(s + tau)),
            -r,
            r,
            points=sorted(kinks) if kinks else None,
            limit=400,
        )
        return val / c
    if route == "frequency":
        L = h.band_limit
        if L is None:
            L = g.band_limit
        if L is None:
            L = 400.0

        def integrand(lam):
            f = g.ftf_eval(lam) * np.conj(h.ftf_eval(lam)) * np.exp(-1j * lam * tau)
            return f.real

        # integrand is the real part of a Hermitian-symmetric function,
        # so the two-sided integral is twice the one-sided one
        val, _ = quad(integrand, 0.0, L, limit=400)
        return val / (math.pi * c)
    raise ValueError(f"unknown route {route!r}")


def centered_process(est: CorrelogramEstimate) -> np.ndarray:
    """``sqrt(T) (h_hat - h_mean)`` per lag."""
    return math.sqrt(est.T) * (est.h_hat - est.h_mean)


def estimate_correlogram(
    h: Kernel,
    g: Kernel,
    c: float,
    Y: SampledPath,
    X: SampledPath,
    T: float,
    tau_grid: Sequence[float],
    seed_info: Optional[dict] = None,
) -> CorrelogramEstimate:
    """Run one full estimate: snapped lags, Hhat, quadrature mean, Zhat."""
    dt = Y.grid.dt
    tau = snap_tau_grid(tau_grid, dt)
    h_hat = cross_correlogram(Y, X, c, T, tau)
    h_mean = np.array([theoretical_bias(h, g, c, t) for t in tau])
    z_hat = math.sqrt(T) * (h_hat - h_mean)
    return CorrelogramEstimate(
        tau_grid=tau,
        h_hat=h_hat,
        h_mean=h_mean,
        z_hat=z_hat,
        T=float(T),
        delta=float(g.params.get("delta", math.nan)),
        c=float(c),
        dt=dt,
        seed=dict(seed_info) if seed_info else None,
    )


def write_estimate_csv(est: CorrelogramEstimate, file) -> None:
    """CSV columns (tau, h_hat, h_mean, z_hat) plus a JSON sidecar.

    The sidecar, written next to the CSV with extension ``.json``, holds
    {T, delta, c, dt, seed}.
    """
    file = Path(file)
    columns = [est.tau_grid, est.h_hat, est.h_mean, est.z_hat]
    _write_csv(file, ["tau", "h_hat", "h_mean", "z_hat"], columns)
    sidecar = {
        "T": est.T,
        "delta": est.delta,
        "c": est.c,
        "dt": est.dt,
        "seed": est.seed,
    }
    with open(file.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_estimate_csv(file) -> CorrelogramEstimate:
    file = Path(file)
    cols = {"tau": [], "h_hat": [], "h_mean": [], "z_hat": []}
    with open(file, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            for k in cols:
                cols[k].append(float(row[k]))
    with open(file.with_suffix(".json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    return CorrelogramEstimate(
        tau_grid=np.array(cols["tau"]),
        h_hat=np.array(cols["h_hat"]),
        h_mean=np.array(cols["h_mean"]),
        z_hat=np.array(cols["z_hat"]),
        T=float(meta["T"]),
        delta=float(meta["delta"]),
        c=float(meta["c"]),
        dt=meta.get("dt"),
        seed=meta.get("seed"),
    )

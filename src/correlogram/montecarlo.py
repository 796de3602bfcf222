"""Replication harness for the correlogram error process.

Runs M independent simulate-estimate cycles, then aggregates what the
limit theory predicts: per-lag normality of Zhat, the empirical
covariance against its finite-horizon truth, supremum tails for the
interval bounds, and modulus-of-continuity tables for tightness.

Replication i always draws from stream ``base_seed.spawn(i)``. With
``w`` processes, process p runs replications p, p + w, p + 2w, ... with
one ``PairSimulator`` (tap plans and buffers built once), which gives
every replication the same bits as ``simulate_pair`` alone with that
stream. Results are assembled by replication index, so output is
byte-identical for any worker count (aggregation uses numpy's pairwise
summation over a fixed ordering).
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import ConsistencyError
from .estimator import cross_correlogram, snap_tau_grid, theoretical_bias
from .kernels import Kernel, family_from_name, kernel_from_spec
from .simulate import NoiseSeed, PairSimulator, TimeGrid, _write_csv, simulate_pair
from .spectral import autocovariance_Y, cov_limit

__all__ = [
    "ExperimentConfig",
    "MonteCarloResult",
    "run_replications",
    "normality_test",
    "sample_limit_Z",
    "sample_stationary_Y",
    "empirical_sup_tail",
    "ci_coverage",
    "modulus_of_continuity",
    "jackknife_se",
    "write_result_csv",
    "write_result_json",
    "write_trajectories_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One replication experiment, fully specified by plain data.

    Kernels are carried as spec mappings (name + parameters) rather
    than objects so configs can cross process boundaries.
    """

    h_spec: dict
    g_family_spec: dict
    T: float
    delta: float
    c: float
    dt: float
    tau_grid: tuple
    replications: int
    base_seed: NoiseSeed
    interval: tuple

    def __post_init__(self):
        if not (self.T > 0 and self.delta > 0 and self.c > 0 and self.dt > 0):
            raise ValueError("T, delta, c and dt must all be positive")
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 2):
            raise ValueError("need at least 2 replications")
        a, b = self.interval
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        taus = np.asarray(self.tau_grid, dtype=float)
        if taus.size == 0:
            raise ValueError("tau_grid must be nonempty")
        if np.any(taus < a - 1e-12) or np.any(taus > b + 1e-12):
            raise ValueError("tau_grid must lie inside the interval")

    def kernels(self) -> tuple:
        h = kernel_from_spec(self.h_spec)
        fam = family_from_name(self.g_family_spec["name"], self.c)
        return h, fam(self.delta)


def _lattice(cfg: ExperimentConfig) -> np.ndarray:
    a, b = cfg.interval
    k0 = int(round(a / cfg.dt))
    k1 = int(round(b / cfg.dt))
    return cfg.dt * np.arange(k0, k1 + 1)


def _sim_grid(cfg: ExperimentConfig, taus: np.ndarray) -> TimeGrid:
    t_start = min(0.0, float(taus[0]))
    t_stop = cfg.T + max(0.0, float(taus[-1]))
    n = int(round((t_stop - t_start) / cfg.dt))
    return TimeGrid(t_start=t_start, dt=cfg.dt, n=n + 1)


def _replicate_share(args) -> np.ndarray:
    """Zhat rows of replications ``first, first + step, ...``, simulated with
    one PairSimulator; module-level so process pools can pickle it."""
    cfg, taus, bias, first, step = args
    rows = []
    i = first
    try:
        h, g = cfg.kernels()
        sim = PairSimulator(h, g, _sim_grid(cfg, taus))
        for i in range(first, cfg.replications, step):
            Y, X = simulate_pair(h, g, sim.grid, cfg.base_seed.spawn(i), simulator=sim)
            rows.append(math.sqrt(cfg.T) * (cross_correlogram(Y, X, cfg.c, cfg.T, taus) - bias))
    except Exception as exc:
        raise RuntimeError(f"replication {i} failed: {exc}") from exc
    return np.vstack(rows)


@dataclass
class MonteCarloResult:
    """Aggregates over the replication ensemble.

    ``z_fine`` holds every replication's Zhat on the dt lattice of the
    interval (rows = replications); ``z_samples`` is its restriction to
    the configured tau_grid. ``coverage`` and ``moduli`` start empty and
    are attached by ci_coverage / modulus_of_continuity.
    """

    config: ExperimentConfig
    tau_grid: np.ndarray
    z_samples: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    variance_se: np.ndarray
    empirical_cov: np.ndarray
    ks_results: list
    fine_taus: np.ndarray
    z_fine: np.ndarray
    sup_samples: np.ndarray
    lattice_spacing: float
    coverage: Optional[list] = None
    moduli: Optional[list] = None

    def __post_init__(self):
        if np.any(self.variance < 0):
            raise ValueError("variances must be nonnegative")
        for _, _, p in self.ks_results:
            if not 0.0 <= p <= 1.0:
                raise ValueError("p-values must lie in [0, 1]")

    def sup_survival(self, x: float) -> float:
        """Empirical P{sup over the lattice of |Zhat| > x}."""
        return float(np.mean(self.sup_samples > x))


def jackknife_se(samples: np.ndarray, stat_fn: Callable[[np.ndarray], float]) -> float:
    """Leave-one-out standard error of a statistic of the replication axis."""
    samples = np.asarray(samples)
    n = samples.shape[0]
    if n < 2:
        raise ValueError("jackknife needs at least 2 samples")
    loo = np.array(
        [stat_fn(np.delete(samples, i, axis=0)) for i in range(n)], dtype=float
    )
    return float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def run_replications(cfg: ExperimentConfig, workers: int = 1) -> MonteCarloResult:
    """Simulate-estimate M times and aggregate.

    Deterministic in ``cfg.base_seed``; the worker count only changes
    wall time, never output bytes.
    """
    h, g = cfg.kernels()
    taus = _lattice(cfg)
    bias = theoretical_bias(h, g, cfg.c, taus)
    # Under fork every pool process starts up front, so never ask for more
    # than there are replications. Process w runs replications w, w + procs, ...
    procs = max(1, min(workers, cfg.replications))
    jobs = [(cfg, taus, bias, w, procs) for w in range(procs)]
    if procs == 1:
        done = map(_replicate_share, jobs)
    else:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            done = list(pool.map(_replicate_share, jobs))
    Z = np.empty((cfg.replications, taus.size))
    for w, z in enumerate(done):
        Z[w::procs] = z

    tau_req = snap_tau_grid(cfg.tau_grid, cfg.dt)
    cols = np.array([int(round((t - taus[0]) / cfg.dt)) for t in tau_req])
    Ztau = Z[:, cols]
    variance = Ztau.var(axis=0, ddof=1)
    variance_se = np.array(
        [jackknife_se(Ztau[:, j], lambda s: s.var(ddof=1)) for j in range(cols.size)]
    )
    emp_cov = np.atleast_2d(np.cov(Ztau.T, ddof=1))
    targets = cov_limit(h, tau_req, tau_req)
    ks = []
    for j, t in enumerate(tau_req):
        stat, p = normality_test(Ztau[:, j], max(float(targets[j]), 0.0))
        ks.append((float(t), stat, p))
    return MonteCarloResult(
        config=cfg,
        tau_grid=tau_req,
        z_samples=Ztau,
        mean=Ztau.mean(axis=0),
        variance=variance,
        variance_se=variance_se,
        empirical_cov=emp_cov,
        ks_results=ks,
        fine_taus=taus,
        z_fine=Z,
        sup_samples=np.max(np.abs(Z), axis=1),
        lattice_spacing=cfg.dt,
    )


# ---------------------------------------------------------------------------
# distributional checks


def _kolmogorov_sf(t: float) -> float:
    # asymptotic Kolmogorov survival 2 sum (-1)^(k-1) exp(-2 k^2 t^2),
    # truncated at 100 terms; terms decay in k so truncation is safe for
    # any statistic a sample of size >= 2 can produce
    if t <= 0.0:
        return 1.0
    k = np.arange(1, 101)
    s = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * t * t))
    return float(min(max(s, 0.0), 1.0))


def normality_test(samples, variance0: float) -> tuple:
    """Kolmogorov-Smirnov test of the samples against N(0, variance0).

    Fully specified null, so no parameter-estimation correction is
    needed. ``variance0 = 0`` degenerates to a threshold test on
    max |sample|. The p-value uses the asymptotic law; take it
    seriously only for 50+ samples.
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    if variance0 < 0:
        raise ValueError("variance0 must be nonnegative")
    if variance0 == 0.0:
        stat = float(np.max(np.abs(s)))
        return stat, (1.0 if stat <= 1e-8 else 0.0)
    xs = np.sort(s) / math.sqrt(variance0)
    cdf = ndtr(xs)
    n = s.size
    grid = np.arange(n + 1) / n
    d = float(max(np.max(grid[1:] - cdf), np.max(cdf - grid[:-1])))
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def sample_limit_Z(
    h: Kernel, tau_grid: Sequence[float], M: int, seed: NoiseSeed
) -> np.ndarray:
    """M exact draws of the limit Gaussian process on a lag grid.

    Uses the symmetric eigenroot of the limiting covariance Gram
    matrix; tiny negative eigenvalues (within -1e-8) are clipped,
    larger ones mean the covariance routine is inconsistent.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau_grid must be a nonempty 1-d array")
    i, j = np.triu_indices(taus.size)
    G = np.empty((taus.size, taus.size))
    G[i, j] = G[j, i] = cov_limit(h, taus[i], taus[j])
    return _gram_draws(G, M, seed, "limit")


def sample_stationary_Y(
    h: Kernel, tau_grid: Sequence[float], M: int, seed: NoiseSeed
) -> np.ndarray:
    """M exact draws of the stationary output Y on a time grid.

    Same eigenroot construction as sample_limit_Z but with the
    stationary autocovariance E Y(t+u) Y(t); used to calibrate the
    sup-of-Y tail callables that the concentration corollaries take
    as input.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau_grid must be a nonempty 1-d array")
    lags = np.abs(taus[:, None] - taus[None, :])
    uniq, inv = np.unique(lags.round(12), return_inverse=True)
    G = autocovariance_Y(h, uniq)[inv].reshape(lags.shape)
    return _gram_draws(G, M, seed, "stationary")


def _gram_draws(G: np.ndarray, M: int, seed: NoiseSeed, what: str) -> np.ndarray:
    w, V = np.linalg.eigh(G)
    if float(w.min()) < -1e-8:
        raise ConsistencyError(
            f"{what} covariance Gram matrix has eigenvalue {w.min():.3e} < -1e-8"
        )
    root = V * np.sqrt(np.clip(w, 0.0, None))
    draws = seed.generator().standard_normal(size=(int(M), G.shape[0]))
    return draws @ root.T


def empirical_sup_tail(samples: np.ndarray) -> "Callable[[float], float]":
    """Survival function x -> P{max of a row > x} from sample rows.

    Returns a callable suitable as the y_tail argument of the
    corollary bound builders. Rows are path draws; the statistic is
    the per-row maximum.
    """
    sups = np.sort(np.max(np.asarray(samples, dtype=float), axis=-1))
    n = sups.size

    def tail(x: float) -> float:
        return float(n - np.searchsorted(sups, x, side="right")) / n

    return tail


# ---------------------------------------------------------------------------
# bound validation tables


def ci_coverage(
    result: MonteCarloResult,
    reports: Sequence,
    pointwise_variances: Optional[Sequence[float]] = None,
) -> list:
    """Empirical exceedance against each bound, with binomial errors.

    Pointwise reports compare |Zhat(tau)| > x * sqrt(var(tau)) per
    configured lag (variance defaults to the empirical one); supremum
    reports compare the lattice sup. valid means empirical <= bound
    + 3 standard errors.
    """
    M = result.z_samples.shape[0]
    rows = []
    for rep in reports:
        if rep.method == "theorem3_pointwise":
            for j, tau in enumerate(result.tau_grid):
                var = (
                    float(pointwise_variances[j])
                    if pointwise_variances is not None
                    else float(result.variance[j])
                )
                scale = math.sqrt(max(var, 0.0))
                for x, bound in zip(rep.x_values, rep.bound_values):
                    emp = float(np.mean(np.abs(result.z_samples[:, j]) > x * scale))
                    se = math.sqrt(emp * (1.0 - emp) / M)
                    rows.append(
                        {
                            "method": rep.method,
                            "tau": float(tau),
                            "x": float(x),
                            "empirical": emp,
                            "bound": float(bound),
                            "mc_se": se,
                            "valid": bool(emp <= bound + 3.0 * se),
                        }
                    )
        else:
            for x, bound in zip(rep.x_values, rep.bound_values):
                emp = result.sup_survival(float(x))
                se = math.sqrt(emp * (1.0 - emp) / M)
                rows.append(
                    {
                        "method": rep.method,
                        "tau": None,
                        "x": float(x),
                        "empirical": emp,
                        "bound": float(bound),
                        "mc_se": se,
                        "valid": bool(emp <= bound + 3.0 * se),
                    }
                )
    result.coverage = rows
    return rows


def modulus_of_continuity(
    result: MonteCarloResult,
    h_ladder: Sequence[float],
    delta_thresholds: Sequence[float],
) -> list:
    """Empirical P{sup over |t2-t1| < h of |Zhat(t2)-Zhat(t1)| > delta}.

    Needs the lag lattice to resolve the smallest h with at least four
    points; coarser lattices are rejected instead of silently reporting
    zeros.
    """
    hs = sorted(float(x) for x in h_ladder)
    if not hs or hs[0] <= 0:
        raise ValueError("h ladder must be positive")
    s = result.lattice_spacing
    if s > hs[0] / 4.0:
        raise ValueError(
            f"lag lattice spacing {s:g} too coarse for h={hs[0]:g}; need <= h/4"
        )
    Z = result.z_fine
    M = Z.shape[0]
    rows = []
    for h in hs:
        k_max = int(math.ceil(h / s - 1e-9)) - 1
        sup = np.zeros(M)
        for k in range(1, k_max + 1):
            inc = np.max(np.abs(Z[:, k:] - Z[:, :-k]), axis=1)
            sup = np.maximum(sup, inc)
        for d in delta_thresholds:
            p = float(np.mean(sup > float(d)))
            rows.append(
                {
                    "h": h,
                    "delta": float(d),
                    "probability": p,
                    "mc_se": math.sqrt(p * (1.0 - p) / M),
                }
            )
    result.moduli = rows
    return rows


# ---------------------------------------------------------------------------
# serialization


def write_result_csv(result: MonteCarloResult, path) -> None:
    """Long-format dump, one row per statistic."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["statistic", "key1", "key2", "value", "se"])
        for j, t in enumerate(result.tau_grid):
            wr.writerow(["mean_Z", repr(float(t)), "", repr(float(result.mean[j])), ""])
            wr.writerow(
                [
                    "var_Z",
                    repr(float(t)),
                    "",
                    repr(float(result.variance[j])),
                    repr(float(result.variance_se[j])),
                ]
            )
        for i, t1 in enumerate(result.tau_grid):
            for j, t2 in enumerate(result.tau_grid):
                if j < i:
                    continue
                wr.writerow(
                    [
                        "cov_Z",
                        repr(float(t1)),
                        repr(float(t2)),
                        repr(float(result.empirical_cov[i, j])),
                        "",
                    ]
                )
        for t, stat, p in result.ks_results:
            wr.writerow(["ks_stat", repr(float(t)), "", repr(float(stat)), ""])
            wr.writerow(["ks_p", repr(float(t)), "", repr(float(p)), ""])
        for q in (0.5, 0.75, 0.9, 0.95, 0.99):
            x = float(np.quantile(result.sup_samples, q))
            wr.writerow(["sup_quantile", repr(q), "", repr(x), ""])
        for row in result.coverage or ():
            wr.writerow(
                [
                    f"coverage_{row['method']}",
                    "" if row["tau"] is None else repr(row["tau"]),
                    repr(row["x"]),
                    repr(row["empirical"]),
                    repr(row["mc_se"]),
                ]
            )
        for row in result.moduli or ():
            wr.writerow(
                [
                    "modulus",
                    repr(row["h"]),
                    repr(row["delta"]),
                    repr(row["probability"]),
                    repr(row["mc_se"]),
                ]
            )


def write_result_json(result: MonteCarloResult, path) -> None:
    cfg = result.config
    payload = {
        "config": {
            "h_spec": cfg.h_spec,
            "g_family_spec": cfg.g_family_spec,
            "T": cfg.T,
            "delta": cfg.delta,
            "c": cfg.c,
            "dt": cfg.dt,
            "tau_grid": [float(t) for t in cfg.tau_grid],
            "replications": int(cfg.replications),
            "seed": int(cfg.base_seed.seed),
            "stream_id": int(cfg.base_seed.stream_id),
            "interval": [float(v) for v in cfg.interval],
        },
        "lattice_spacing": result.lattice_spacing,
        "tau_grid": [float(t) for t in result.tau_grid],
        "mean": [float(v) for v in result.mean],
        "variance": [float(v) for v in result.variance],
        "variance_se": [float(v) for v in result.variance_se],
        "empirical_cov": [[float(v) for v in row] for row in result.empirical_cov],
        "ks": [
            {"tau": t, "stat": s, "p": p} for (t, s, p) in result.ks_results
        ],
        "sup_samples_mean": float(result.sup_samples.mean()),
        "coverage": result.coverage,
        "moduli": result.moduli,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_trajectories_csv(result: MonteCarloResult, path, max_reps: Optional[int] = None) -> None:
    """Plot-ready long format: one row per (replication, lag)."""
    z = np.asarray(result.z_fine, dtype=float)[: None if max_reps is None else max(max_reps, 0)]
    taus = np.asarray(result.fine_taus, dtype=float)
    reps = np.repeat(np.arange(len(z)), taus.size)
    _write_csv(path, ["replication", "tau", "z"], [reps, np.tile(taus, len(z)), z.ravel()])

"""Replication harness for the correlogram error process.

Runs M independent simulate-estimate cycles, then aggregates what the
limit theory predicts: per-lag normality of Zhat, the empirical
covariance against its finite-horizon truth, supremum tails for the
interval bounds, and modulus-of-continuity tables for tightness.

Replication i always draws from stream ``base_seed.spawn(i)``. With
``w`` processes, process p runs replications p, p + w, p + 2w, ...
through one ``Simulator`` (tap plans built once), which gives every
replication the same bits as a fresh ``Simulator`` with that stream.
Each process splits its share the same way over threads, one per CPU
its affinity set gives it once the processes have divided them, and no
more than its replications: numpy's FFTs, Philox fills and dot products
release the GIL, so the threads' draws can run at once; the CLI's
allocator policy (``config._keep_freed_memory``), which pool processes
also start under, keeps the FFTs from faulting in fresh scratch on every
call, which made the threads queue on their process's memory map. The
threads share the Simulator, which no draw writes. Results are
assembled by replication index, so output is byte-identical for any
process or thread count (aggregation uses numpy's pairwise summation
over a fixed ordering). The process pool is imported only when
``workers > 1`` and the thread pool only when a process runs more than
one thread, so no other run loads ``multiprocessing`` or
``concurrent.futures``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import _keep_freed_memory, _share_threads, view_kernels
from .errors import ConsistencyError, ReplicationError
from .estimator import cross_correlogram, estimation_grid, snap_tau_grid, theoretical_bias
from .kernels import Kernel
from .simulate import NoiseSeed, Simulator, _write_csv, simulate_pair
from .spectral import autocovariance_Y, cov_limit

__all__ = [
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


def _kernels(view: dict) -> tuple:
    """The kernel h and the window g_delta of a montecarlo view."""
    h, family = view_kernels(view)
    return h, family(view["delta"])


def _lattice(view: dict) -> np.ndarray:
    (a, b), dt = view["interval"], view["dt"]
    return dt * np.arange(int(round(a / dt)), int(round(b / dt)) + 1)


def _replicate_share(args) -> np.ndarray:
    """Zhat rows of replications ``first, first + step, ...`` (the share of
    one of ``step`` processes), drawn from one Simulator by
    ``config._share_threads`` threads, the calling one among them: thread
    ``t`` of ``k`` runs the share's replications ``t, t + k, ...``.
    Module-level so process pools can pickle it."""
    view, taus, bias, first, step = args
    T, seed = view["T"], NoiseSeed(**view["base_seed"])
    share = range(first, view["replications"], step)
    try:
        sim = Simulator(_kernels(view), estimation_grid(T, view["dt"], taus))
    except Exception as exc:
        raise ReplicationError(f"replication {first} failed: {exc}") from exc

    def rows(reps) -> np.ndarray:
        out = []
        try:
            for i in reps:
                Y, X = simulate_pair(sim, seed.spawn(i))
                out.append(math.sqrt(T) * (cross_correlogram(Y, X, view["c"], T, taus) - bias))
        except Exception as exc:
            raise ReplicationError(f"replication {i} failed: {exc}") from exc
        return np.vstack(out)

    threads = _share_threads(len(share), step)
    if threads == 1:
        return rows(share)
    from concurrent.futures import ThreadPoolExecutor

    Z = np.empty((len(share), taus.size))
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        helpers = [pool.submit(rows, share[t::threads]) for t in range(1, threads)]
        Z[::threads] = rows(share[::threads])
        for t, helper in enumerate(helpers, 1):
            Z[t::threads] = helper.result()
    return Z


@dataclass
class MonteCarloResult:
    """Aggregates over the replication ensemble.

    ``z_fine`` holds every replication's Zhat on the dt lattice of the
    interval (rows = replications); ``z_samples`` is its restriction to
    the configured tau_grid.
    """

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


def run_replications(view: dict, workers: int = 1) -> MonteCarloResult:
    """Simulate-estimate the replications of a montecarlo view
    (``config.command_view(cfg, "montecarlo")``) and aggregate.

    Deterministic in the view's ``base_seed``; the worker count, which
    counts processes, and the thread count of each process (from its CPU
    affinity) only change wall time, never output bytes. The processes get
    the view, plain data, and build the kernels from it.
    """
    M, dt = view["replications"], view["dt"]
    h, g = _kernels(view)
    taus = _lattice(view)
    bias = theoretical_bias(h, g, view["c"], taus)
    # Under fork every pool process starts up front, so never ask for more
    # than there are replications. Process w runs replications w, w + procs, ...
    procs = max(1, min(workers, M))
    jobs = [(view, taus, bias, w, procs) for w in range(procs)]
    if procs == 1:
        done = map(_replicate_share, jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        # a spawned or forkserver worker does not inherit the allocator policy
        with ProcessPoolExecutor(max_workers=procs, initializer=_keep_freed_memory) as pool:
            done = list(pool.map(_replicate_share, jobs))
    Z = np.empty((M, taus.size))
    for w, z in enumerate(done):
        Z[w::procs] = z

    tau_req = snap_tau_grid(view["tau_grid"], dt)
    cols = np.array([int(round((t - taus[0]) / dt)) for t in tau_req])
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


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF ``erfc(-x / sqrt 2) / 2`` of each entry."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.ravel(x)])


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
    cdf = normal_cdf(xs)
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
    + 3 standard errors. Returns the rows and leaves the result as it is.
    """
    M = result.z_samples.shape[0]

    def row(method, tau, x, emp, bound) -> dict:
        se = math.sqrt(emp * (1.0 - emp) / M)
        return {"method": method, "tau": tau, "x": float(x), "empirical": emp,
                "bound": float(bound), "mc_se": se, "valid": bool(emp <= bound + 3.0 * se)}

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
                    rows.append(row(rep.method, float(tau), x, emp, bound))
        else:
            for x, bound in zip(rep.x_values, rep.bound_values):
                rows.append(row(rep.method, None, x, result.sup_survival(float(x)), bound))
    return rows


def modulus_of_continuity(
    result: MonteCarloResult,
    h_ladder: Sequence[float],
    delta_thresholds: Sequence[float],
) -> list:
    """Empirical P{sup over |t2-t1| < h of |Zhat(t2)-Zhat(t1)| > delta}.

    Needs the lag lattice ``fine_taus`` to resolve the smallest h with at
    least four points; coarser lattices, and a lattice of one lag, are
    rejected instead of silently reporting zeros. Returns the rows and
    leaves the result as it is.
    """
    hs = sorted(float(x) for x in h_ladder)
    if not hs or hs[0] <= 0:
        raise ValueError("h ladder must be positive")
    taus = result.fine_taus
    s = float(taus[1] - taus[0]) if taus.size > 1 else math.inf
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
        sups = np.sort(result.sup_samples)
        for q in (0.5, 0.75, 0.9, 0.95, 0.99):
            wr.writerow(["sup_quantile", repr(q), "", repr(_quantile(sups, q)), ""])


def _quantile(sorted_values: np.ndarray, q: float) -> float:
    """``np.quantile(sorted_values, q)`` by its default linear rule, to the
    bit for values with no ``-0.0`` (whose place among zeros differs between
    sorts), without the ``numpy.ma`` import its first call makes: the
    values ``a`` and ``b`` around the index ``(n - 1) q`` blended as
    ``a + (b - a) t`` by its fraction ``t``, or as ``b - (b - a)(1 - t)`` for
    ``t >= 0.5``."""
    last = sorted_values.size - 1
    index = last * q
    i = math.floor(index)
    a, b = float(sorted_values[min(i, last)]), float(sorted_values[min(i + 1, last)])
    t = index - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def write_result_json(result: MonteCarloResult, config: dict, path) -> None:
    """The aggregates as JSON, after the caller's ``config`` block."""
    payload = {
        "config": config,
        "tau_grid": [float(t) for t in result.tau_grid],
        "mean": [float(v) for v in result.mean],
        "variance": [float(v) for v in result.variance],
        "variance_se": [float(v) for v in result.variance_se],
        "empirical_cov": [[float(v) for v in row] for row in result.empirical_cov],
        "ks": [
            {"tau": t, "stat": s, "p": p} for (t, s, p) in result.ks_results
        ],
        "sup_samples_mean": float(result.sup_samples.mean()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_trajectories_csv(result: MonteCarloResult, path, max_reps: Optional[int] = None) -> None:
    """Plot-ready long format: one row per (replication, lag)."""
    z = np.asarray(result.z_fine, dtype=float)[: None if max_reps is None else max(max_reps, 0)]
    taus = np.asarray(result.fine_taus, dtype=float)
    reps = np.repeat(np.arange(len(z)), taus.size)
    _write_csv([path], ["replication", "tau", "z"], [[reps, np.tile(taus, len(z)), z.ravel()]])

"""Workload configs, the CLI calls that run them, and their output checks.

All three use the acceptance model: h = sinc, triangular window, c = 1,
delta = 100, T = 500 over the lag interval [0, 1]. The seed only keys the
noise streams, so the work done is the same for every seed.

- ``mc``: ``montecarlo`` with M = 400 at dt = 0.01 (a 101-lag lattice).
  800 ``fftconvolve`` calls on a 62k-sample padded lattice dominate, and
  no covariance quadrature runs. A batched replication engine should
  move it; quadrature work should not.
- ``bounds``: ``bounds`` with all four methods and the default grids. Pure
  quadrature (``cov_finite``, covering numbers, ``autocorrelation``), no
  path simulation: the opposite split from ``mc``.
- ``paths``: ``simulate`` over the delta ladder [10, 100], then
  ``estimate`` on 1001 lags, at dt = 1e-3. One long path with a working
  set ten times that of ``mc``, mostly spent writing ~54 MB of path files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

NAMES = ("mc", "bounds", "paths")

MODEL = {
    "h": {"name": "sinc"},
    "g_family": {"name": "triangular"},
    "c": 1.0,
    "delta": 100.0,
    "dt": 0.01,
    "T": 500.0,
    "interval": [0.0, 1.0],
    "tau_grid": [0.0, 0.5, 1.0],
}

MC_REPLICATIONS = 400
FINE_TAUS = [i / 1000 for i in range(1001)]

REFERENCES = Path(__file__).with_name("references.json")

# Loosest tolerance of the quadrature behind each reference: scipy quad's
# default 1.5e-8 for the 1-d integrals, 1e-6 for cov_finite.
TOL_1D = 1e-7
TOL_2D = 1e-6
# Monte Carlo moments may miss their exact value by this many standard errors.
MC_SE = 5.0


def config(workload: str, seed: int) -> dict:
    """The config document of one workload."""
    base = dict(MODEL, base_seed={"seed": int(seed), "stream_id": 0})
    if workload == "mc":
        base["command_defaults"] = {"montecarlo": {"replications": MC_REPLICATIONS}}
    elif workload == "paths":
        base.update(dt=1e-3, tau_grid=FINE_TAUS)
        base["command_defaults"] = {"simulate": {"deltas": [10.0, 100.0]}}
    elif workload != "bounds":
        raise ValueError(f"unknown workload {workload!r}")
    return base


def write_config(workload: str, seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}.json"
    path.write_text(json.dumps(config(workload, seed), indent=2) + "\n", encoding="utf-8")
    return path


def cli_calls(workload: str, config: Path, out: Path) -> list:
    """argv lists for ``correlogram.cli.main``; outputs go under ``out``."""
    if workload == "mc":
        return [["montecarlo", "--config", str(config), "--out", str(out / "mc"),
                 "--workers", "1"]]
    if workload == "bounds":
        return [["bounds", "--config", str(config), "--out", str(out / "bounds")]]
    return [
        ["simulate", "--config", str(config), "--out", str(out / "simulate")],
        ["estimate", "--config", str(config), "--out", str(out / "estimate")],
    ]


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isclose(value, ref, rel_tol=tol, abs_tol=tol)


def _check_mc(out: Path, refs: dict) -> list:
    res = json.loads((out / "mc" / "result.json").read_text(encoding="utf-8"))
    cov = np.asarray(refs["cov_finite"])
    M = res["config"]["replications"]
    errors = []
    if res["tau_grid"] != refs["tau_grid"] or M != MC_REPLICATIONS:
        errors.append("mc: unexpected tau grid or replication count")
        return errors
    emp = np.asarray(res["empirical_cov"])
    for j, tau in enumerate(res["tau_grid"]):
        se_mean = math.sqrt(cov[j, j] / M)
        if abs(res["mean"][j]) > MC_SE * se_mean:
            errors.append(f"mc: mean Z({tau}) = {res['mean'][j]:.4g}, "
                          f"beyond {MC_SE} SE ({se_mean:.3g}) of 0")
        gap = abs(res["variance"][j] - cov[j, j])
        if gap > MC_SE * res["variance_se"][j]:
            errors.append(f"mc: var Z({tau}) = {res['variance'][j]:.4g} vs "
                          f"cov_finite {cov[j, j]:.4g}, beyond {MC_SE} jackknife SE")
        for k in range(j + 1, len(res["tau_grid"])):
            # Gaussian standard error of a sample covariance
            se = math.sqrt((cov[j, j] * cov[k, k] + cov[j, k] ** 2) / (M - 1))
            if abs(emp[j, k] - cov[j, k]) > MC_SE * se:
                errors.append(f"mc: cov Z({tau}, {res['tau_grid'][k]}) = "
                              f"{emp[j, k]:.4g} vs cov_finite {cov[j, k]:.4g}")
    return errors


def _check_bounds(out: Path, refs: dict) -> list:
    d = out / "bounds"
    errors = []
    if (d / "bounds_signals.json").exists():
        errors.append("bounds: degenerate bound signalled")
    constants = {}
    for method in ("theorem3_pointwise", "theorem4_sup", "corollary1", "corollary2"):
        report = json.loads((d / f"bound_{method}.json").read_text(encoding="utf-8"))
        values = report["bound"]
        if any(not 0.0 <= v <= 1.0 for v in values) or any(
            b > a for a, b in zip(values, values[1:])
        ):
            errors.append(f"bounds: {method} is not a nonincreasing probability")
        constants.update(report["constants"])
    for name, tol in (("A_TD", TOL_2D), ("inf_varZ", TOL_2D),
                      ("sup_b", TOL_1D), ("B_ab", TOL_1D)):
        if not _close(constants[name], refs[name], tol):
            errors.append(f"bounds: {name} = {constants[name]!r}, "
                          f"reference {refs[name]!r}")
    return errors


_BIN_HEADER = struct.Struct("<Qdd")


def _read_binary(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    n, _, _ = _BIN_HEADER.unpack_from(raw)
    values = np.frombuffer(raw, dtype="<f8", offset=_BIN_HEADER.size)
    if values.size != n:
        raise ValueError(f"{path.name}: header says {n} samples, found {values.size}")
    return values


def read_csv_columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_paths(out: Path, refs: dict) -> list:
    errors = []
    sim = out / "simulate"
    stems = ["path_Y", "path_X_delta10", "path_X_delta100"]
    for stem in stems:
        csv_values = read_csv_columns(sim / f"{stem}.csv")[:, 1]
        if not np.array_equal(_read_binary(sim / f"{stem}.bin"), csv_values):
            errors.append(f"paths: {stem}.bin differs from {stem}.csv")
    est = read_csv_columns(out / "estimate" / "estimate.csv")
    tau, h_hat, h_mean, z_hat = est.T
    if not np.allclose(tau, refs["tau"], rtol=0.0, atol=1e-12):
        errors.append("paths: estimate lags differ from the reference grid")
    elif not np.allclose(h_mean, refs["h_mean"], rtol=TOL_1D, atol=TOL_1D):
        worst = float(np.max(np.abs(h_mean - refs["h_mean"])))
        errors.append(f"paths: h_mean off its reference by up to {worst:.3g}")
    z_expected = math.sqrt(MODEL["T"]) * (h_hat - h_mean)
    if not np.allclose(z_hat, z_expected, rtol=1e-12, atol=1e-12):
        errors.append("paths: z_hat is not sqrt(T) * (h_hat - h_mean)")
    return errors


_CHECKS = {"mc": _check_mc, "bounds": _check_bounds, "paths": _check_paths}


def check_outputs(workload: str, out: Path) -> list:
    """Problems found in one run's outputs; empty when all checks pass."""
    from correlogram.config import verify_manifest

    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload]
    manifests = sorted(out.glob("*/run_manifest.json"))
    expected = len(cli_calls(workload, Path("cfg"), out))
    errors = [] if len(manifests) == expected else [
        f"{workload}: {len(manifests)} run manifests, expected {expected}"]
    for manifest in manifests:
        errors += [f"{manifest.parent.name}: {p}" for p in verify_manifest(manifest)]
    try:
        errors += _CHECKS[workload](out, refs)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        errors.append(f"{workload}: unreadable output: {exc!r}")
    return errors


def output_digests(out: Path) -> dict:
    """sha256 of every data file, as recorded in the run manifests."""
    digests = {}
    for manifest in sorted(out.glob("*/run_manifest.json")):
        for entry in json.loads(manifest.read_text(encoding="utf-8"))["outputs"]:
            digests[f"{manifest.parent.name}/{entry['name']}"] = entry["sha256"]
    return digests

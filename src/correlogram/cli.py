"""Command-line front end.

Five subcommands wire the library to files: ``check-kernel`` verifies
window-family conditions, ``simulate`` writes output paths over a delta
ladder, ``estimate`` runs one simulate-estimate cycle, ``bounds`` emits
tail-bound reports, and ``montecarlo`` runs the replication harness.

Exit codes: 0 on success, 1 for a domain-level failure (a condition
check fails, an estimator lacks coverage, a bound degenerates), 2 for
usage or configuration errors. All randomness flows from the config's
base_seed; nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .bounds import (
    corollary1_report,
    corollary2_report,
    theorem3_report,
    theorem4_detail,
    theorem4_report,
)
from .config import (
    COMMANDS,
    ConfigError,
    RunManifest,
    command_view,
    load_config,
    resolve_out_dir,
)
from .errors import (
    BoundUnavailable,
    ConsistencyError,
    CoverageError,
    InfiniteMassiveness,
    PadError,
)
from .estimator import estimate_correlogram, estimation_grid, write_estimate_csv
from .kernels import (
    check_family_conditions,
    check_weighted_spectral,
    family_from_name,
    kernel_from_spec,
)
from .montecarlo import (
    ExperimentConfig,
    empirical_sup_tail,
    run_replications,
    sample_stationary_Y,
    write_result_csv,
    write_result_json,
    write_trajectories_csv,
)
from .simulate import (
    NoiseSeed,
    TimeGrid,
    required_pad,
    simulate_output,
    simulate_pair,
    wiener_increments,
    write_path_binary,
    write_path_csv,
)
from .spectral import CovarianceModel

__all__ = ["main", "build_parser"]

# Stream offset reserved for auxiliary draws (sup-of-Y calibration), far
# above any plausible replication count so streams never collide.
_AUX_STREAM_OFFSET = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="correlogram",
        description="Cross-correlogram estimation experiments for Wiener-driven LTI systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check-kernel": "verify window-family conditions and the weighted spectral integral",
        "simulate": "simulate and write output paths over a delta ladder",
        "estimate": "run one simulate-estimate cycle and write the estimate",
        "bounds": "compute tail-bound reports over a threshold grid",
        "montecarlo": "run the replication harness and write aggregate results",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides env and config)")
        if name == "montecarlo":
            p.add_argument("--workers", type=int, default=1,
                           help="replication worker processes (outputs invariant to N)")
            p.add_argument("--emit-paths", action="store_true",
                           help="also write Z trajectories and the first replication's paths")
    return parser


def _cfg_float(view: dict, key: str, positive: bool = True) -> float:
    try:
        value = float(view[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} must be a number") from exc
    if positive and not value > 0:
        raise ConfigError(f"config key {key!r} must be positive, got {value}")
    return value


def _cfg_count(view: dict, key: str) -> int:
    value = view[key]
    if type(value) is not int or value < 1:
        raise ConfigError(f"config key {key!r} must be a positive integer, got {value!r}")
    return value


def _cfg_positives(view: dict, key: str) -> list:
    try:
        values = [float(v) for v in view[key]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a list of numbers") from exc
    if not values or not all(v > 0 for v in values):
        raise ConfigError(f"{key} must be a non-empty list of positive numbers")
    return values


def _cfg_seed(view: dict) -> NoiseSeed:
    raw = view.get("base_seed")
    if not isinstance(raw, dict) or "seed" not in raw:
        raise ConfigError('base_seed must be an object like {"seed": 0, "stream_id": 0}')
    try:
        return NoiseSeed(int(raw["seed"]), int(raw.get("stream_id", 0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid base_seed: {exc}") from exc


def _cfg_kernel(view: dict):
    spec = view.get("h")
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError('h must be an object like {"name": "sinc"}')
    try:
        return kernel_from_spec(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid kernel h: {exc}") from exc


def _cfg_family(view: dict):
    spec = view.get("g_family")
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError('g_family must be an object like {"name": "triangular"}')
    try:
        return family_from_name(spec["name"], _cfg_float(view, "c"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid g_family: {exc}") from exc


def _cfg_taus(view: dict, key: str = "tau_grid") -> tuple:
    raw = view.get(key)
    try:
        taus = tuple(float(t) for t in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a list of numbers") from exc
    if not taus or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError(f"{key} must be non-empty and strictly ascending")
    return taus


def _cfg_interval(view: dict) -> tuple:
    raw = view.get("interval")
    try:
        a, b = (float(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("interval must be a two-number list [a, b]") from exc
    if not b > a:
        raise ConfigError(f"interval must satisfy a < b, got [{a}, {b}]")
    return a, b


def cmd_check_kernel(cfg: dict, out_dir: Path, args) -> int:
    view = command_view(cfg, "check-kernel")
    family = _cfg_family(view)
    h = _cfg_kernel(view)
    deltas = view.get("deltas", [10.0, 100.0, 1000.0, 10000.0, 100000.0])
    lambda_window = float(view.get("lambda_window", 1.0))
    tol = float(view.get("tol", 1e-9))
    exponent = float(view.get("hunt_exponent", 2.0))
    lambda_max = float(view.get("lambda_max", 200.0))

    manifest = RunManifest.start("check-kernel", cfg)
    try:
        report = check_family_conditions(family, deltas, lambda_window, tol=tol)
        hunt = check_weighted_spectral(h, exponent, lambda_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    passed = report.passed and hunt.converged
    payload = {
        "family": report.as_dict(),
        "hunt": {
            "kernel": view["h"],
            "exponent": exponent,
            "lambda_max": lambda_max,
            "value": hunt.value,
            "relative_change": hunt.relative_change,
            "converged": hunt.converged,
        },
        "passed": passed,
    }
    target = out_dir / "conditions.json"
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    manifest.add_output(target)
    manifest.finish(out_dir)

    for name, ok in (
        ("square-integrable", report.l2_ok),
        ("even", report.even_ok),
        ("transform sup bounded", report.sup_bounded),
        ("compact limit -> c", report.limit_ok),
        ("weighted spectral integral finite", hunt.converged),
    ):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"wrote {target}")
    return 0 if passed else 1


def cmd_simulate(cfg: dict, out_dir: Path, args) -> int:
    view = command_view(cfg, "simulate")
    family = _cfg_family(view)
    h = _cfg_kernel(view)
    seed = _cfg_seed(view)
    dt = _cfg_float(view, "dt")
    T = _cfg_float(view, "T")
    t_start = float(view.get("t_start", 0.0))
    deltas = _cfg_positives({"deltas": [1.0, 10.0, 100.0, 1000.0], **view}, "deltas")

    n = int(round(T / dt)) + 1
    if n < 2:
        raise ConfigError("grid needs at least two samples; check T and dt")
    grid = TimeGrid(t_start=t_start, dt=dt, n=n)

    windows = [family(d) for d in deltas]
    # One increment array padded for every kernel at once, so the same
    # Wiener path drives Y and each X_delta.
    pad = max(required_pad(k, dt) for k in [h, *windows])
    increments = wiener_increments(grid, pad, seed)

    manifest = RunManifest.start("simulate", cfg)
    written = []
    y_path = simulate_output(h, increments, grid, pad)
    for suffix, writer in ((".csv", write_path_csv), (".bin", write_path_binary)):
        target = out_dir / f"path_Y{suffix}"
        writer(y_path, target)
        manifest.add_output(target)
        written.append(target)
    for d, g in zip(deltas, windows):
        x_path = simulate_output(g, increments, grid, pad)
        for suffix, writer in ((".csv", write_path_csv), (".bin", write_path_binary)):
            target = out_dir / f"path_X_delta{d:g}{suffix}"
            writer(x_path, target)
            manifest.add_output(target)
            written.append(target)
    manifest.finish(out_dir)
    for target in written:
        print(f"wrote {target}")
    return 0


def cmd_estimate(cfg: dict, out_dir: Path, args) -> int:
    view = command_view(cfg, "estimate")
    family = _cfg_family(view)
    h = _cfg_kernel(view)
    seed = _cfg_seed(view)
    c = _cfg_float(view, "c")
    delta = _cfg_float(view, "delta")
    dt = _cfg_float(view, "dt")
    T = _cfg_float(view, "T")
    taus = _cfg_taus(view)
    g = family(delta)
    try:
        grid = estimation_grid(T, dt, taus)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    manifest = RunManifest.start("estimate", cfg)
    y_path, x_path = simulate_pair(h, g, grid, seed)
    est = estimate_correlogram(
        h, g, c, y_path, x_path, T, taus,
        seed_info={"seed": seed.seed, "stream_id": seed.stream_id},
    )
    target = out_dir / "estimate.csv"
    write_estimate_csv(est, target)
    manifest.add_output(target)
    manifest.add_output(target.with_suffix(".json"))
    manifest.finish(out_dir)
    print(f"wrote {target}")
    print(f"wrote {target.with_suffix('.json')}")
    return 0


_DEFAULT_METHODS = ("theorem3_pointwise", "theorem4_sup", "corollary1", "corollary2")
_BOUNDS_DEFAULTS = {
    "methods": list(_DEFAULT_METHODS),
    "x_grid": [1.0, 2.0, 3.0, 4.0, 6.0, 8.0],
    "theorem4_x_multipliers": [1.5, 2.0, 3.0],
    "r": 0.5,
    "gamma": 0.5,
    "y_tail_M": 2000,
    "y_tail_points": 101,
}


def cmd_bounds(cfg: dict, out_dir: Path, args) -> int:
    view = {**_BOUNDS_DEFAULTS, **command_view(cfg, "bounds")}
    family = _cfg_family(view)
    h = _cfg_kernel(view)
    seed = _cfg_seed(view)
    c = _cfg_float(view, "c")
    delta = _cfg_float(view, "delta")
    T = _cfg_float(view, "T")
    a, b = _cfg_interval(view)
    methods = view["methods"]
    unknown = set(methods) - set(_DEFAULT_METHODS)
    if unknown:
        raise ConfigError(f"unknown bound methods: {sorted(unknown)}")
    xs = sorted(set(_cfg_positives(view, "x_grid")))
    multipliers = sorted(set(_cfg_positives(view, "theorem4_x_multipliers")))
    r = _cfg_float(view, "r")
    if not r < 1.0:
        raise ConfigError(f"config key 'r' must lie in (0, 1), got {r}")
    gamma = _cfg_float(view, "gamma", positive=False)
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"config key 'gamma' must lie in [0, 1], got {gamma}")
    y_tail_M = _cfg_count(view, "y_tail_M")
    y_tail_points = _cfg_count(view, "y_tail_points")

    model = CovarianceModel(h=h, g=family(delta), c=c)
    shared = {"T": T, "interval": [a, b], "r": r, "delta": delta, "c": c}

    manifest = RunManifest.start("bounds", cfg)
    signals: dict = {}
    written = []

    y_tail = None
    if "corollary1" in methods or "corollary2" in methods:
        draws = sample_stationary_Y(
            h, np.linspace(a, b, y_tail_points), y_tail_M, seed.spawn(_AUX_STREAM_OFFSET)
        )
        y_tail = empirical_sup_tail(draws)

    for method in methods:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if method == "theorem3_pointwise":
                    report = theorem3_report(xs, settings=shared)
                elif method == "theorem4_sup":
                    # Thresholds are multiples of the constant A, so the
                    # expensive entropy optimization runs exactly once.
                    report = theorem4_report(
                        theorem4_detail(model, T, a, b, r), multipliers,
                        settings=dict(shared, x_multipliers=multipliers),
                    )
                elif method == "corollary1":
                    report = corollary1_report(
                        h, a, b, xs, gamma, y_tail,
                        settings=dict(shared, gamma=gamma, y_tail_M=y_tail_M),
                    )
                else:
                    report = corollary2_report(
                        h, a, b, xs, y_tail,
                        settings=dict(shared, y_tail_M=y_tail_M),
                    )
            except (BoundUnavailable, InfiniteMassiveness) as exc:
                signals.setdefault(method, []).append(str(exc))
                continue
        degenerate = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if degenerate:
            signals.setdefault(method, []).extend(degenerate)
        target = out_dir / f"bound_{method}.json"
        report.to_json(target)
        manifest.add_output(target)
        written.append(target)

    if signals:
        target = out_dir / "bounds_signals.json"
        with open(target, "w", encoding="utf-8") as fh:
            json.dump({"signals": signals}, fh, indent=2)
            fh.write("\n")
        manifest.add_output(target)
        written.append(target)
    manifest.finish(out_dir)
    for target in written:
        print(f"wrote {target}")
    if signals:
        for method, msgs in signals.items():
            for msg in msgs:
                print(f"degenerate [{method}]: {msg}", file=sys.stderr)
        return 1
    return 0


def cmd_montecarlo(cfg: dict, out_dir: Path, args) -> int:
    view = command_view(cfg, "montecarlo")
    _cfg_family(view)  # fail fast on an unknown window name
    _cfg_kernel(view)
    seed = _cfg_seed(view)
    try:
        experiment = ExperimentConfig(
            h_spec=view["h"],
            g_family_spec=view["g_family"],
            T=_cfg_float(view, "T"),
            delta=_cfg_float(view, "delta"),
            c=_cfg_float(view, "c"),
            dt=_cfg_float(view, "dt"),
            tau_grid=_cfg_taus(view),
            replications=int(view.get("replications", 200)),
            base_seed=seed,
            interval=_cfg_interval(view),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    max_reps = None if view.get("emit_max_reps") is None else _cfg_count(view, "emit_max_reps")
    workers = max(1, int(getattr(args, "workers", 1) or 1))
    manifest = RunManifest.start("montecarlo", cfg)
    result = run_replications(experiment, workers=workers)

    written = []
    target = out_dir / "result.csv"
    write_result_csv(result, target)
    manifest.add_output(target)
    written.append(target)
    target = out_dir / "result.json"
    write_result_json(result, target)
    manifest.add_output(target)
    written.append(target)

    if getattr(args, "emit_paths", False):
        target = out_dir / "trajectories.csv"
        write_trajectories_csv(result, target, max_reps=max_reps)
        manifest.add_output(target)
        written.append(target)
        # First replication's paths, re-simulated from its own stream.
        h, g = experiment.kernels()
        grid = estimation_grid(experiment.T, experiment.dt, result.fine_taus)
        y_path, x_path = simulate_pair(h, g, grid, experiment.base_seed.spawn(0))
        for label, path in (("Y", y_path), ("X", x_path)):
            target = out_dir / f"path_rep0_{label}.csv"
            write_path_csv(path, target)
            manifest.add_output(target)
            written.append(target)

    manifest.finish(out_dir)
    for target in written:
        print(f"wrote {target}")
    return 0


_HANDLERS = {
    "check-kernel": cmd_check_kernel,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "bounds": cmd_bounds,
    "montecarlo": cmd_montecarlo,
}

_DOMAIN_ERRORS = (
    PadError,
    CoverageError,
    ConsistencyError,
    InfiniteMassiveness,
    BoundUnavailable,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = resolve_out_dir(args.out, cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot prepare output directory: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # Replication failures arrive here tagged with their index.
        if "replication" in str(exc):
            print(f"domain failure: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())

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
import functools
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
    ConfigError,
    RunManifest,
    command_view,
    load_config,
    resolve_out_dir,
    view_kernels,
)
from .errors import BoundUnavailable, DomainError, InfiniteMassiveness
from .estimator import _horizon_steps, estimate_correlogram, estimation_grid, write_estimate_csv
from .kernels import check_family_conditions, check_weighted_spectral
from .montecarlo import (
    empirical_sup_tail,
    run_replications,
    sample_stationary_Y,
    write_result_csv,
    write_result_json,
    write_trajectories_csv,
)
from .simulate import (
    NoiseSeed,
    Simulator,
    TimeGrid,
    simulate_pair,
    write_path_csvs,
    write_path_files,
)
from .spectral import CovarianceModel

__all__ = ["main", "build_parser"]

# Stream offset reserved for auxiliary draws (sup-of-Y calibration), far
# above any plausible replication count so streams never collide.
_AUX_STREAM_OFFSET = 1_000_000


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="correlogram",
        description="Cross-correlogram estimation experiments for Wiener-driven LTI systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides env and config)")
        if name == "montecarlo":
            p.add_argument("--workers", type=_positive_int, default=1,
                           help="replication worker processes (outputs invariant to N)")
            p.add_argument("--emit-paths", action="store_true",
                           help="also write Z trajectories and the first replication's paths")
    return parser


# Each handler takes the command's checked view, the output directory, the
# run's manifest (where it records every file it writes) and the parsed
# arguments, and returns the exit code; its docstring is its --help text.


def cmd_check_kernel(view: dict, out_dir: Path, manifest: RunManifest, args) -> int:
    """verify window-family conditions and the weighted spectral integral"""
    h, family = view_kernels(view)
    report = check_family_conditions(family, view["deltas"], view["lambda_window"], tol=view["tol"])
    hunt = {
        "kernel": view["h"],
        "exponent": view["hunt_exponent"],
        "lambda_max": view["lambda_max"],
        **check_weighted_spectral(h, view["hunt_exponent"], view["lambda_max"]),
    }
    passed = report["passed"] and hunt["converged"]
    target = out_dir / "conditions.json"
    with open(target, "w", encoding="utf-8") as fh:
        json.dump({"family": report, "hunt": hunt, "passed": passed}, fh, indent=2)
        fh.write("\n")
    manifest.add_output(target)

    oks = [check["passed"] for check in report["checks"].values()] + [hunt["converged"]]
    for name, ok in zip(("square-integrable", "even", "transform sup bounded",
                         "compact limit -> c", "weighted spectral integral finite"), oks):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if passed else 1


def cmd_simulate(view: dict, out_dir: Path, manifest: RunManifest, args) -> int:
    """simulate and write output paths over a delta ladder"""
    h, family = view_kernels(view)
    dt, deltas = view["dt"], view["deltas"]
    grid = TimeGrid(t_start=view["t_start"], dt=dt, n=_horizon_steps(view["T"], dt) + 1)
    # One draw, so the same Wiener path drives Y and each X_delta; each
    # block goes to every file as it is made.
    paths = Simulator([h, *map(family, deltas)], grid).stream(NoiseSeed(**view["base_seed"]))
    stems = [f"path_{name}" for name in ["Y", *(f"X_delta{d:g}" for d in deltas)]]
    csvs, bins = ([out_dir / f"{stem}{ext}" for stem in stems] for ext in (".csv", ".bin"))
    write_path_files(paths, csvs, bins)
    for csv_file, bin_file in zip(csvs, bins):
        manifest.add_output(csv_file)
        manifest.add_output(bin_file)
    return 0


def cmd_estimate(view: dict, out_dir: Path, manifest: RunManifest, args) -> int:
    """run one simulate-estimate cycle and write the estimate"""
    h, family = view_kernels(view)
    g = family(view["delta"])
    grid = estimation_grid(view["T"], view["dt"], view["tau_grid"])
    y_path, x_path = simulate_pair(Simulator((h, g), grid), NoiseSeed(**view["base_seed"]))
    columns = estimate_correlogram(h, g, view["c"], y_path, x_path, view["T"], view["tau_grid"])
    sidecar = dict({k: view[k] for k in ("T", "delta", "c", "dt")}, seed=view["base_seed"])
    target = out_dir / "estimate.csv"
    write_estimate_csv(columns, sidecar, target)
    manifest.add_output(target)
    manifest.add_output(target.with_suffix(".json"))
    return 0


def cmd_bounds(view: dict, out_dir: Path, manifest: RunManifest, args) -> int:
    """compute tail-bound reports over a threshold grid"""
    h, family = view_kernels(view)
    a, b = view["interval"]
    T, r, gamma, M = (view[k] for k in ("T", "r", "gamma", "y_tail_M"))
    xs = sorted(set(view["x_grid"]))
    multipliers = sorted(set(view["theorem4_x_multipliers"]))
    model = CovarianceModel(h=h, g=family(view["delta"]), c=view["c"])
    # the corollaries share one set of stationary draws of Y, made on first use
    seed = NoiseSeed(**view["base_seed"]).spawn(_AUX_STREAM_OFFSET)
    ys = np.linspace(a, b, view["y_tail_points"])
    draws = functools.cache(lambda: sample_stationary_Y(h, ys, M, seed))
    # method -> (report builder, the config values written beside its report).
    # Theorem 4's thresholds are multiples of its constant A, so its entropy
    # optimization runs once; corollary 1 takes the tail of sup Y, corollary 2
    # that of sup |Y|.
    shared = {k: view[k] for k in ("T", "interval", "r", "delta", "c")}
    table = {
        "theorem3_pointwise": (lambda: theorem3_report(xs), shared),
        "theorem4_sup": (lambda: theorem4_report(theorem4_detail(model, T, a, b, r), multipliers),
                         dict(shared, x_multipliers=multipliers)),
        "corollary1": (lambda: corollary1_report(h, a, b, xs, gamma, empirical_sup_tail(draws())),
                       dict(shared, gamma=gamma, y_tail_M=M)),
        "corollary2": (lambda: corollary2_report(h, a, b, xs, empirical_sup_tail(np.abs(draws()))),
                       dict(shared, y_tail_M=M)),
    }
    signals: dict = {}
    for method in view["methods"]:
        build, settings = table[method]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report = build()
            except (BoundUnavailable, InfiniteMassiveness) as exc:
                signals[method] = [str(exc)]
                continue
        degenerate = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if degenerate:
            signals[method] = degenerate
        target = out_dir / f"bound_{method}.json"
        report.to_json(target, settings)
        manifest.add_output(target)

    if signals:
        target = out_dir / "bounds_signals.json"
        with open(target, "w", encoding="utf-8") as fh:
            json.dump({"signals": signals}, fh, indent=2)
            fh.write("\n")
        manifest.add_output(target)
        for method, msgs in signals.items():
            for msg in msgs:
                print(f"degenerate [{method}]: {msg}", file=sys.stderr)
        return 1
    return 0


def cmd_montecarlo(view: dict, out_dir: Path, manifest: RunManifest, args) -> int:
    """run the replication harness and write aggregate results"""
    result = run_replications(view, workers=args.workers)
    target = out_dir / "result.csv"
    write_result_csv(result, target)
    manifest.add_output(target)
    # result.json's config block: the view's values, h and g_family under
    # their result.json names and base_seed as two keys
    config = dict(
        h_spec=view["h"],
        g_family_spec=view["g_family"],
        **{k: view[k] for k in ("T", "delta", "c", "dt", "tau_grid", "replications")},
        **view["base_seed"],
        interval=view["interval"],
    )
    target = out_dir / "result.json"
    write_result_json(result, config, target)
    manifest.add_output(target)

    if args.emit_paths:
        target = out_dir / "trajectories.csv"
        write_trajectories_csv(result, target, max_reps=view["emit_max_reps"])
        manifest.add_output(target)
        # First replication's paths, re-simulated from its own stream.
        h, family = view_kernels(view)
        grid = estimation_grid(view["T"], view["dt"], result.fine_taus)
        seed = NoiseSeed(**view["base_seed"]).spawn(0)
        paths = simulate_pair(Simulator((h, family(view["delta"])), grid), seed)
        targets = [out_dir / f"path_rep0_{label}.csv" for label in ("Y", "X")]
        write_path_csvs(paths, targets)
        for target in targets:
            manifest.add_output(target)
    return 0


_HANDLERS = {
    "check-kernel": cmd_check_kernel,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "bounds": cmd_bounds,
    "montecarlo": cmd_montecarlo,
}


def main(argv=None) -> int:
    """Run one command: parse and check its config view, which is where
    every usage error exits 2, before the output directory exists; run its
    handler, then write the run manifest and print one ``wrote`` line per
    output file."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        view = command_view(cfg, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = resolve_out_dir(args.out, cfg)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot prepare output directory: {exc}", file=sys.stderr)
        return 2
    manifest = RunManifest.start(args.command, cfg)
    try:
        code = _HANDLERS[args.command](view, out_dir, manifest, args)
    except DomainError as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return 1
    manifest.finish(out_dir)
    for output in manifest.outputs:
        print(f"wrote {out_dir / output['name']}")
    return code


if __name__ == "__main__":
    sys.exit(main())

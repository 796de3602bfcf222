"""Command-line front end.

Five subcommands wire the library to files: ``check-kernel`` verifies
window-family conditions, ``simulate`` writes output paths over a delta
ladder, ``estimate`` runs one simulate-estimate cycle, ``bounds`` emits
tail-bound reports, and ``montecarlo`` runs the replication harness.

Each handler writes its command's files and returns them with its exit
code; ``main`` records them in the run manifest, in that order.

Exit codes: 0 on success, 1 for a domain-level failure (a condition
check fails, an estimator lacks coverage, a bound degenerates), 2 for
usage or configuration errors. All randomness flows from the config's
base_seed; nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .bounds import (
    corollary1_report,
    corollary2_report,
    rice_sup_tail,
    theorem3_report,
    theorem4_detail,
    theorem4_report,
)
from .config import (
    ConfigError,
    RunManifest,
    _keep_freed_memory,
    _path_procs,
    command_view,
    load_config,
    resolve_out_dir,
    view_kernels,
)
from .errors import BoundUnavailable, DomainError
from .estimator import _horizon_steps, estimate_correlogram, estimation_grid, write_estimate_csv
from .kernels import check_family_conditions, check_weighted_spectral
from .montecarlo import run_replications, write_result_csv, write_result_json, write_trajectories_csv
from .simulate import (
    NoiseSeed,
    Simulator,
    TimeGrid,
    _append_files,
    _block_ranges,
    _write_draw_range,
    _write_json,
    simulate_pair,
)
from .spectral import CovarianceModel

__all__ = ["main", "build_parser"]


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
                           help="replication worker processes, each running its replications "
                                "on threads, one per CPU of its share of the CPU affinity "
                                "(outputs invariant to N and to the thread count)")
            p.add_argument("--emit-paths", action="store_true",
                           help="also write Z trajectories and the first replication's paths")
    return parser


# Each handler takes the command's checked view, the output directory and the
# parsed arguments, and returns the exit code and the files it wrote, in the
# order written; its docstring is its --help text.


def cmd_check_kernel(view: dict, out_dir: Path, args) -> tuple:
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
    _write_json(target, {"family": report, "hunt": hunt, "passed": passed})

    oks = [check["passed"] for check in report["checks"].values()] + [hunt["converged"]]
    for name, ok in zip(("square-integrable", "even", "transform sup bounded",
                         "compact limit -> c", "weighted spectral integral finite"), oks):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return (0 if passed else 1), [target]


def cmd_simulate(view: dict, out_dir: Path, args) -> tuple:
    """simulate and write output paths over a delta ladder, in contiguous
    block ranges written at once, one process per CPU of the affinity as
    memory allows (output bytes invariant to the process count)"""
    # One draw, so the same Wiener path drives Y and each X_delta
    h, family = view_kernels(view)
    procs = _path_procs([h, *map(family, view["deltas"])],
                        _horizon_steps(view["T"], view["dt"]) + 1, view["dt"])
    stems = [f"path_{name}" for name in ["Y", *(f"X_delta{d:g}" for d in view["deltas"])]]
    csvs, bins = ([out_dir / f"{stem}{ext}" for stem in stems] for ext in (".csv", ".bin"))
    _write_draw(view, NoiseSeed(**view["base_seed"]), csvs, bins, procs)
    return 0, [f for pair in zip(csvs, bins) for f in pair]


def _simulator_of(view: dict) -> Simulator:
    """The Simulator of a simulate view: ``h`` and each ``g_delta`` on its grid."""
    h, family = view_kernels(view)
    grid = TimeGrid(t_start=view["t_start"], dt=view["dt"],
                    n=_horizon_steps(view["T"], view["dt"]) + 1)
    return Simulator([h, *map(family, view["deltas"])], grid)


def _write_draw(view: dict, seed: NoiseSeed, csvs, bins, procs: int) -> None:
    """Write every path of the draw of ``_simulator_of(view)`` from ``seed``
    to the CSV of ``csvs`` and the binary file of ``bins`` at its index, in
    the block ranges of ``_block_ranges`` for ``procs`` at once: this
    process writes the first into the files, a pool process each other into
    part files beside them, appended in order and deleted, so the bytes do
    not depend on ``procs``. On failure the pool is joined and the part
    files deleted before the error is raised."""
    simulator = _simulator_of(view)
    first, *rest = _block_ranges(simulator.grid.n, procs)
    if not rest:
        _write_draw_range(simulator, seed, first, csvs, bins)
        return
    from concurrent.futures import ProcessPoolExecutor

    files = [*csvs, *bins]
    parts = [[f.with_name(f"{f.name}.part{i}") for f in files] for i in range(1, len(rest) + 1)]
    try:
        # a spawned or forkserver worker does not inherit the allocator policy
        with ProcessPoolExecutor(len(rest), initializer=_keep_freed_memory) as pool:
            done = [pool.submit(_write_part, view, seed, blocks, part[: len(csvs)],
                                part[len(csvs) :]) for blocks, part in zip(rest, parts)]
            _write_draw_range(simulator, seed, first, csvs, bins)
            for future in done:
                future.result()
        for file, *pieces in zip(files, *parts):
            _append_files(file, pieces)
    finally:
        for part in parts:
            for file in part:
                file.unlink(missing_ok=True)


def _write_part(view: dict, seed: NoiseSeed, blocks: tuple, csvs, bins) -> None:
    """A pool process's range of ``_write_draw``; the Simulator's warnings
    were shown when the calling process built it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        simulator = _simulator_of(view)
    _write_draw_range(simulator, seed, blocks, csvs, bins)


def cmd_estimate(view: dict, out_dir: Path, args) -> tuple:
    """run one simulate-estimate cycle and write the estimate"""
    h, family = view_kernels(view)
    g = family(view["delta"])
    grid = estimation_grid(view["T"], view["dt"], view["tau_grid"])
    y_path, x_path = simulate_pair(Simulator((h, g), grid), NoiseSeed(**view["base_seed"]))
    columns = estimate_correlogram(h, g, view["c"], y_path, x_path, view["T"], view["tau_grid"])
    sidecar = dict({k: view[k] for k in ("T", "delta", "c", "dt")}, seed=view["base_seed"])
    target = out_dir / "estimate.csv"
    write_estimate_csv(columns, sidecar, target)
    return 0, [target, target.with_suffix(".json")]


def cmd_bounds(view: dict, out_dir: Path, args) -> tuple:
    """compute tail-bound reports over a threshold grid"""
    h, family = view_kernels(view)
    a, b = view["interval"]
    T, r, gamma = (view[k] for k in ("T", "r", "gamma"))
    xs = sorted(set(view["x_grid"]))
    multipliers = sorted(set(view["theorem4_x_multipliers"]))
    model = CovarianceModel(h=h, g=family(view["delta"]), c=view["c"])
    shared = {k: view[k] for k in ("T", "interval", "r", "delta", "c")}

    def corollary(report, sides, *args, **settings):  # Rice's tail of sup Y (1 side), sup |Y| (2)
        tail = rice_sup_tail(h, a, b, sides)
        return report(h, a, b, xs, *args, tail), dict(shared, **settings, lambda2=tail.lambda2)

    # method -> builder of its report and the settings written beside it; theorem
    # 4's thresholds are multiples of its constant A, so its optimization runs once
    table = {
        "theorem3_pointwise": lambda: (theorem3_report(xs), shared),
        "theorem4_sup": lambda: (theorem4_report(theorem4_detail(model, T, a, b, r), multipliers),
                                 dict(shared, x_multipliers=multipliers)),
        "corollary1": lambda: corollary(corollary1_report, 1, gamma, gamma=gamma),
        "corollary2": lambda: corollary(corollary2_report, 2),
    }
    signals: dict = {}
    written = []
    for method in view["methods"]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report, settings = table[method]()
            except BoundUnavailable as exc:
                signals[method] = [str(exc)]
                continue
        degenerate = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if degenerate:
            signals[method] = degenerate
        target = out_dir / f"bound_{method}.json"
        report.to_json(target, settings)
        written.append(target)

    if signals:
        target = out_dir / "bounds_signals.json"
        _write_json(target, {"signals": signals})
        written.append(target)
        for method, msgs in signals.items():
            for msg in msgs:
                print(f"degenerate [{method}]: {msg}", file=sys.stderr)
    return (1 if signals else 0), written


def cmd_montecarlo(view: dict, out_dir: Path, args) -> tuple:
    """run the replication harness and write aggregate results"""
    result = run_replications(view, workers=args.workers)
    csv_file, json_file = out_dir / "result.csv", out_dir / "result.json"
    write_result_csv(result, csv_file)
    # result.json's config block: the view's values, h and g_family under
    # their result.json names and base_seed as two keys
    config = dict(
        h_spec=view["h"],
        g_family_spec=view["g_family"],
        **{k: view[k] for k in ("T", "delta", "c", "dt", "tau_grid", "replications")},
        **view["base_seed"],
        interval=view["interval"],
    )
    write_result_json(result, config, json_file)
    if not args.emit_paths:
        return 0, [csv_file, json_file]

    target = out_dir / "trajectories.csv"
    write_trajectories_csv(result, target, max_reps=view["emit_max_reps"])
    # First replication's paths, re-simulated from its own stream.
    h, family = view_kernels(view)
    grid = estimation_grid(view["T"], view["dt"], result.fine_taus)
    targets = [out_dir / f"path_rep0_{label}.csv" for label in ("Y", "X")]
    _write_draw_range(Simulator((h, family(view["delta"])), grid),
                      NoiseSeed(**view["base_seed"]).spawn(0), (0, None), targets)
    return 0, [csv_file, json_file, target, *targets]


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
    handler, record the files it returns in the run manifest, in order,
    then write the manifest and print one ``wrote`` line per output file.
    First it sets the process's allocator policy
    (``config._keep_freed_memory``), so FFT scratch is reused, not faulted
    in afresh on every call."""
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        view = command_view(cfg, args.command, workers=getattr(args, "workers", 1))
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
        code, written = _HANDLERS[args.command](view, out_dir, args)
    except DomainError as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return 1
    for path in written:
        manifest.add_output(path)
    manifest.finish(out_dir)
    for output in manifest.outputs:
        print(f"wrote {out_dir / output['name']}")
    return code


if __name__ == "__main__":
    sys.exit(main())

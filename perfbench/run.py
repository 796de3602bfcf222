"""Benchmark of the correlogram CLI: one workload per call, from a seed.

    python3 perfbench/run.py --workload mc|bounds|paths|all --seed N \
        --seconds S --trace 0|1

Each iteration is a fresh child process (``child.py``) with BLAS/OpenMP
pinned to one thread. Iterations repeat until ``--seconds`` have passed
and at least ``MIN_RUNS`` have run; every one checks its outputs, and all
iterations of a run must write byte-identical data files.

``--trace 0`` reports the end-to-end metrics: medians of ``wall_s`` (the
CLI calls), ``setup_s`` (process start to CLI imported and config loaded)
and ``peak_rss_mb``. ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics of the traced iteration with
the median wall time, plus ``trace.overhead_s``, the difference of the
traced and untraced median wall times.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any iteration failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

MIN_RUNS = 3          # measured iterations per untraced run
MIN_TRACE_PAIRS = 2   # untraced + traced iterations per traced run
MIN_SETUPS = 5        # set-up samples behind the setup_s median
DEADLINE_S = 165.0    # the whole run stays under the 180 s limit


class Run:
    """Child processes of one benchmark run, against one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.config = workloads.write_config(workload, seed, self.work)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def child(self, mode: str) -> dict:
        """Run one child; returns its result with an ``errors`` list."""
        self.count += 1
        it = self.work / f"iter{self.count:03d}"
        it.mkdir()
        result_file = it / "result.json"
        cmd = [sys.executable, str(CHILD), "--workload", self.workload,
               "--config", str(self.config), "--out", str(it / "out"),
               "--result", str(result_file), "--mode", mode]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"errors": ["deadline passed before the iteration started"]}
        started = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd + ["--started-ns", str(started)], cwd=ROOT,
                                  env=dict(os.environ, **PINS), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"errors": [f"{mode} iteration timed out"]}
        finally:
            shutil.rmtree(it / "out", ignore_errors=True)
        if proc.returncode != 0 or not result_file.exists():
            return {"errors": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result.setdefault("errors", [])
        return result

    def iterations(self, modes, minimum: int, seconds: float) -> list:
        """Cycle through ``modes`` until time is up and each ran ``minimum`` times."""
        results = {mode: [] for mode in modes}
        start = time.monotonic()
        while (min(len(r) for r in results.values()) < minimum
               or time.monotonic() - start < seconds):
            if time.monotonic() > self.deadline:
                break
            for mode in modes:
                result = self.child(mode)
                results[mode].append(result)
                _say(f"  {mode} {len(results[mode])}: "
                     + (f"wall {result['wall_s']:.3f} s, set-up {result['setup_s']:.3f} s"
                        if "wall_s" in result else "")
                     + ("" if not result["errors"] else f" FAILED {result['errors'][0]}"))
        return [results[mode] for mode in modes]


def _say(line: str) -> None:
    print(line, flush=True)


def _require_same_outputs(results: list) -> None:
    """Fail iterations whose data files differ from the first iteration's."""
    first = next((r["digests"] for r in results if "digests" in r), None)
    for r in results:
        if "digests" in r and r["digests"] != first:
            r["errors"].append("data files differ from the first iteration's")


def _median(results: list, key: str):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float) -> tuple:
    run = Run(workload, seed)
    (results,) = run.iterations(["run"], MIN_RUNS, seconds)
    setups = [r["setup_s"] for r in results if not r["errors"]]
    while len(setups) < MIN_SETUPS and time.monotonic() < run.deadline:
        extra = run.child("setup")
        if not extra["errors"]:
            setups.append(extra["setup_s"])
    _require_same_outputs(results)
    ok = [r for r in results if not r["errors"]]
    metrics = {"wall_s": _median(ok, "wall_s"),
               "setup_s": statistics.median(setups) if setups else None,
               "peak_rss_mb": _median(ok, "peak_rss_mb")}
    return results, metrics, END_TO_END


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    run = Run(workload, seed)
    plain, traced = run.iterations(["run", "trace"], MIN_TRACE_PAIRS, seconds)
    results = plain + traced
    _require_same_outputs(results)
    counts = {json.dumps({k: r["layers"][k] for k in layers.COUNTS})
              for r in traced if "layers" in r}
    if len(counts) > 1:
        traced[-1]["errors"].append(f"layer counts differ between traced runs: {counts}")
    ok_traced = [r for r in traced if not r["errors"]]
    metrics = {name: None for name, _ in layers.PER_LAYER}
    if ok_traced:
        median_run = statistics.median_low(r["wall_s"] for r in ok_traced)
        chosen = next(r for r in ok_traced if r["wall_s"] == median_run)
        metrics.update(chosen["layers"])
        plain_wall = _median([r for r in plain if not r["errors"]], "wall_s")
        if plain_wall is not None:
            metrics["trace.overhead_s"] = _median(ok_traced, "wall_s") - plain_wall
    return results, metrics, layers.PER_LAYER


def report(workload: str, results: list, metrics: dict, units: list) -> dict:
    attempted = len(results)
    failed = sum(1 for r in results if r["errors"])
    for r in results:
        for msg in r["errors"]:
            print(msg, file=sys.stderr)
    _say(f"{workload}: {attempted} iterations, {failed} failed")
    _say(f"  {'fail_ratio':34s} {failed / max(attempted, 1):.6g} failed/attempted")
    for name, unit in units:
        value = metrics[name]
        _say(f"  {name:34s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    return {
        "correct": failed == 0 and all(metrics[name] is not None for name, _ in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "correlogram" / "cli.py").is_file():
        print(f"no correlogram sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    _say(f"nproc {os.cpu_count()}, pins {' '.join(f'{k}={v}' for k, v in PINS.items())}, "
         f"python {sys.version.split()[0]}")
    measure_fn = measure_traced if args.trace else measure
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        _say(f"workload {name}, seed {args.seed}")
        summaries[name] = report(name, *measure_fn(name, args.seed, args.seconds))
    if len(names) == 1:
        summary = summaries[names[0]]
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

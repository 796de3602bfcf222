"""One iteration of a workload in a fresh interpreter.

``run.py`` starts this script once per iteration. It imports the CLI and
loads the config (set-up, timed from the parent's clock reading just
before the process was started), then in ``run`` or ``trace`` mode drives
``correlogram.cli.main`` in-process on the workload's calls, checks the
outputs and writes a JSON result file. ``setup`` mode stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--started-ns", required=True, type=int,
                   help="time.monotonic_ns() of the parent just before starting this process")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    import correlogram.cli as cli
    from correlogram.config import load_config

    load_config(args.config)
    result = {"setup_s": (time.monotonic_ns() - args.started_ns) / 1e9}
    if args.mode != "setup":
        result.update(run_workload(cli.main, args.workload, args.config, args.out,
                                   traced=args.mode == "trace"))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_workload(cli_main, workload: str, config: Path, out: Path, traced: bool) -> dict:
    """Time the workload's CLI calls, then check what they wrote."""
    import layers
    import spans
    import workloads

    tracer = spans.Tracer(layers.PROBES).install(layers.PKG) if traced else None
    codes, errors = [], []
    start = time.perf_counter()
    try:
        for argv in workloads.cli_calls(workload, config, out):
            codes.append(cli_main(argv))
    except Exception:
        errors.append(traceback.format_exc())
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    # ru_maxrss is in KiB on Linux; read it before the checks load outputs
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if any(codes):
        errors.append(f"CLI exit codes {codes}")
    if not errors:
        errors = workloads.check_outputs(workload, out)
    result = {"wall_s": wall_s, "peak_rss_mb": rss_mb, "errors": errors,
              "digests": workloads.output_digests(out)}
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, wall_s)
        tracer.dump(out.parent / "spans.json")
    return result


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``references.json``, the stored values the output checks use.

    python3 perfbench/make_references.py

All of them are seed-independent: the finite-horizon covariance of Zhat on
the ``mc`` lag grid, the bound constants of the ``bounds`` workload, and
the smoothed kernel ``h_mean`` on the ``paths`` lag grid. Run it only on
a commit whose numbers are trusted; the checks compare later commits
against what it stores.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from correlogram.cli import main as cli_main  # noqa: E402
from correlogram.kernels import family_from_name, kernel_from_spec  # noqa: E402
from correlogram.spectral import CovarianceModel, cov_finite  # noqa: E402


def _cli_outputs(workload: str, work: Path) -> Path:
    config = workloads.write_config(workload, 0, work)
    for argv in workloads.cli_calls(workload, config, work / "out"):
        if cli_main(argv) != 0:
            raise SystemExit(f"{workload}: {argv[0]} failed")
    return work / "out"


def main() -> None:
    work = ROOT / ".perfbench_work" / "references"
    shutil.rmtree(work, ignore_errors=True)
    m = workloads.MODEL
    model = CovarianceModel(h=kernel_from_spec(m["h"]),
                            g=family_from_name(m["g_family"]["name"], m["c"])(m["delta"]),
                            c=m["c"])
    taus = m["tau_grid"]
    refs = {"mc": {"tau_grid": taus, "cov_finite": [
        [cov_finite(model, m["T"], t1, t2) for t2 in taus] for t1 in taus]}}

    out = _cli_outputs("bounds", work / "bounds")
    constants = {}
    for method in ("theorem4_sup", "corollary1", "corollary2"):
        report = json.loads((out / "bounds" / f"bound_{method}.json").read_text())
        constants.update(report["constants"])
    refs["bounds"] = {k: constants[k] for k in ("A_TD", "inf_varZ", "sup_b", "B_ab")}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = _cli_outputs("paths", work / "paths")
    est = workloads.read_csv_columns(out / "estimate" / "estimate.csv")
    refs["paths"] = {"tau": est[:, 0].tolist(), "h_mean": est[:, 2].tolist()}

    body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items())
    workloads.REFERENCES.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {workloads.REFERENCES}")


if __name__ == "__main__":
    main()

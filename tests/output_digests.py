"""The pinned output set: sha256 digests of every file a fixed set of runs writes.

The set is the test suite's ``BASE_CONFIG`` and its ``hilbert_sinc`` twin,
each through all five commands, with ``montecarlo --emit-paths`` run at
``--workers 1`` on one CPU and on three (so one thread, then three threads,
run its four replications on any host) and at ``--workers 2``, and
``simulate`` run again at T = 1400: 70 001 samples at dt 0.02, two blocks
through the sinc kernel's FFT plan by overlap-save, on the host's CPUs, on
one (one process writes both blocks) and on three (two processes write a
block each). Each data file is pinned by the sha256
of its bytes and each ``run_manifest.json`` by the sha256 of its canonical
JSON less ``timestamps``. FFT routes pin platform bits, so the digest file
also records the numpy version they were taken on.

``tests/test_output_digests.py`` reruns the set and compares. A change that
means to change output bytes rewrites the digest file in the same commit:

    PYTHONPATH=src python tests/output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

DIGESTS = Path(__file__).with_name("output_digests.json")

#: (run name, command, extra CLI arguments, CPUs the run may use or None
#: for the host's, ``command_defaults`` entries that replace the config's),
#: run on each config in order.
RUNS = (
    ("check-kernel", "check-kernel", (), None, {}),
    ("simulate", "simulate", (), None, {}),
    ("simulate_T1400", "simulate", (), None, {"simulate": {"deltas": [1, 2], "T": 1400.0}}),
    ("simulate_T1400_cpus1", "simulate", (), 1, {"simulate": {"deltas": [1, 2], "T": 1400.0}}),
    ("simulate_T1400_cpus3", "simulate", (), 3, {"simulate": {"deltas": [1, 2], "T": 1400.0}}),
    ("estimate", "estimate", (), None, {}),
    ("bounds", "bounds", (), None, {}),
    ("montecarlo_w1", "montecarlo", ("--workers", "1", "--emit-paths"), 1, {}),
    ("montecarlo_w1_cpus3", "montecarlo", ("--workers", "1", "--emit-paths"), 3, {}),
    ("montecarlo_w2", "montecarlo", ("--workers", "2", "--emit-paths"), None, {}),
)


def _cpus(n):
    """A context in which this process's CPU affinity reads as ``n`` CPUs,
    or the host's when ``n`` is None."""
    if n is None:
        return contextlib.nullcontext()
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True)


def configs() -> dict:
    """The pinned configs by name: BASE_CONFIG and its hilbert_sinc twin."""
    from test_cli import BASE_CONFIG

    return {"sinc": BASE_CONFIG, "hilbert_sinc": dict(BASE_CONFIG, h={"name": "hilbert_sinc"})}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    """sha256 of a data file's bytes; of a manifest's canonical JSON less
    ``timestamps``, the one field that differs between runs."""
    from correlogram.config import MANIFEST_NAME, canonical_json

    if path.name != MANIFEST_NAME:
        return _sha256(path.read_bytes())
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["timestamps"]
    return _sha256(canonical_json(manifest).encode("utf-8"))


def run_set(work: Path) -> dict:
    """Run the pinned set under ``work`` and return ``{"config/run/file": sha256}``;
    a run that exits nonzero raises."""
    from correlogram.cli import main

    digests = {}
    for name, cfg in configs().items():
        for run, command, extra, cpus, defaults in RUNS:
            config = work / f"{name}_{run}.json"
            config.write_text(json.dumps(dict(cfg, command_defaults={**cfg["command_defaults"],
                                                                     **defaults})),
                              encoding="utf-8")
            out = work / name / run
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), _cpus(cpus):
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main([command, "--config", str(config), "--out", str(out), *extra])
            if code != 0:
                raise RuntimeError(f"{name}/{run} exited {code}")
            for path in sorted(out.iterdir()):
                digests[f"{name}/{run}/{path.name}"] = file_digest(path)
    return digests


def main() -> int:
    """Rewrite the digest file, then print what moved against the file it
    replaced: the changed, missing and new entries, and the numpy version
    if that changed."""
    import tempfile

    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        digests = run_set(Path(work))
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    if old.get("numpy", np.__version__) != np.__version__:
        print(f"numpy: {old['numpy']} -> {np.__version__}")
    before = old.get("digests", {})
    for label, keys in (
        ("changed", [k for k in digests.keys() & before.keys() if digests[k] != before[k]]),
        ("missing", before.keys() - digests.keys()),
        ("new", digests.keys() - before.keys()),
    ):
        for key in sorted(keys):
            print(f"{label}: {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

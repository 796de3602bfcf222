"""The pinned output set: sha256 digests of every file a fixed set of runs writes.

The set is the test suite's ``BASE_CONFIG`` and its ``hilbert_sinc`` twin,
each through all five commands, with ``montecarlo --emit-paths`` run at
``--workers 1`` and ``--workers 2``. Each data file is pinned by the sha256
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
import sys
import warnings
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("output_digests.json")

#: (run name, command, extra CLI arguments), run on each config in order.
RUNS = (
    ("check-kernel", "check-kernel", ()),
    ("simulate", "simulate", ()),
    ("estimate", "estimate", ()),
    ("bounds", "bounds", ()),
    ("montecarlo_w1", "montecarlo", ("--workers", "1", "--emit-paths")),
    ("montecarlo_w2", "montecarlo", ("--workers", "2", "--emit-paths")),
)


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
        config = work / f"{name}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        for run, command, extra in RUNS:
            out = work / name / run
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main([command, "--config", str(config), "--out", str(out), *extra])
            if code != 0:
                raise RuntimeError(f"{name}/{run} exited {code}")
            for path in sorted(out.iterdir()):
                digests[f"{name}/{run}/{path.name}"] = file_digest(path)
    return digests


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests = run_set(Path(work))
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

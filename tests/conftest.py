"""Shared fixtures.

The replication ensembles cost tens of seconds each, so they are built
once per session and shared; tests that need a smaller M slice the
leading rows, which is exact because replication i always runs on
stream base_seed.spawn(i) regardless of the total count.
"""

import csv
import io
import warnings

import numpy as np
import pytest

from correlogram.montecarlo import ExperimentConfig, run_replications
from correlogram.simulate import NoiseSeed

ACCEPTANCE_SEED = 20260813


def acceptance_experiment(h_name: str, replications: int) -> ExperimentConfig:
    return ExperimentConfig(
        h_spec={"name": h_name},
        g_family_spec={"name": "triangular"},
        T=500.0,
        delta=100.0,
        c=1.0,
        dt=0.01,
        tau_grid=(0.0, 0.5, 1.0),
        replications=replications,
        base_seed=NoiseSeed(ACCEPTANCE_SEED, 0),
        interval=(0.0, 1.0),
    )


def _run_quietly(cfg: ExperimentConfig):
    # delta=100 at dt=0.01 deliberately trips the resolution advisory;
    # the ensembles are still the configuration the validation targets.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_replications(cfg, workers=1)


@pytest.fixture(scope="session")
def sinc_tri_ensemble():
    """M=1000 replications, h=sinc, triangular window, T=500."""
    return _run_quietly(acceptance_experiment("sinc", 1000))


@pytest.fixture(scope="session")
def hilbert_tri_ensemble():
    """M=500 replications, h=hilbert_sinc, triangular window, T=500."""
    return _run_quietly(acceptance_experiment("hilbert_sinc", 500))


@pytest.fixture
def csv_edge_column():
    """``column(n, shift)``: ``n`` floats cycling through both signs of every
    ``repr`` form (signed zero, the fixed/exponent switches at 1e-4 and 1e16,
    the smallest subnormal, the largest double, a 17-digit fraction)."""
    edge = [0.0, -0.0, 1e-5, 1e-4, 1e16, 5e-324, 1.7976931348623157e308, 1 / 3]
    values = np.array(edge + [-v for v in edge])
    return lambda n, shift=0: np.resize(np.roll(values, shift), n)


@pytest.fixture
def csv_writer_bytes():
    """Reference serialiser: the bytes ``csv.writer`` gives for a header and rows.

    The CSV writers once built every file this way, one ``writerow`` per
    sample with ``repr(float(x))`` cells, so their output must match it.
    """

    def render(header, rows):
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
        return buf.getvalue().encode("utf-8")

    return render

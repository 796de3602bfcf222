"""Layer probes of the traced run and the per-layer metrics they give.

Each probe's self time goes to one ``<module>.<what>_s`` metric. Time in
no span at all is ``cli.self_s``, so the self times plus ``cli.self_s`` add
up to the traced wall time. Counts repeat exactly for a fixed config.
"""

from __future__ import annotations

import os

from spans import Probe

PKG = "correlogram"


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["file"])


def _correlogram_macs(args, kwargs, result):
    # lags x samples in the [0, T) window, i.e. multiply-adds of the dots
    Y = args[0] if args else kwargs["Y"]
    T = args[3] if len(args) > 3 else kwargs["T"]
    return len(result) * round(T / Y.grid.dt)


def _sample_count(args, kwargs, result):
    return len(result)


PROBES = [
    Probe(f"{PKG}.simulate:simulate_pair", None, count_key="simulate.calls"),
    Probe(f"{PKG}.simulate:wiener_increments", "simulate.rng_s",
          amount_key="simulate.samples", amount=_sample_count),
    Probe(f"{PKG}.simulate:simulate_output", "simulate.conv_s"),
    Probe(f"{PKG}.simulate:write_path_csv", "simulate.io_s",
          amount_key="simulate.io_bytes", amount=_file_bytes),
    Probe(f"{PKG}.simulate:write_path_binary", "simulate.io_s",
          amount_key="simulate.io_bytes", amount=_file_bytes),
    Probe(f"{PKG}.estimator:cross_correlogram", "estimator.correlogram_s",
          amount_key="estimator.correlogram_macs", amount=_correlogram_macs),
    Probe(f"{PKG}.estimator:theoretical_bias", "estimator.bias_s",
          count_key="estimator.bias_calls"),
    Probe(f"{PKG}.estimator:write_estimate_csv", "estimator.io_s"),
    Probe(f"{PKG}.spectral:cov_finite", "spectral.cov_finite_s",
          count_key="spectral.cov_finite_calls"),
    Probe(f"{PKG}.spectral:cov_limit", "spectral.cov_limit_s"),
    Probe(f"{PKG}.spectral:autocovariance_Y", "spectral.autocov_s"),
    Probe(f"{PKG}.entropy:covering_number", "entropy.covering_s",
          count_key="entropy.covering_calls"),
    Probe(f"{PKG}.kernels:autocorrelation", "kernels.autocorrelation_s",
          count_key="kernels.autocorrelation_calls"),
    *(Probe(f"{PKG}.bounds:{name}", "bounds.self_s") for name in (
        "theorem4_detail", "b_sup", "acf2_interval_min",
        "theorem3_report", "corollary1_report", "corollary2_report")),
    Probe(f"{PKG}.montecarlo:run_replications", "montecarlo.aggregate_s"),
    Probe(f"{PKG}.montecarlo:sample_stationary_Y", "montecarlo.sampler_s"),
    *(Probe(f"{PKG}.montecarlo:{name}", "montecarlo.io_s") for name in (
        "write_result_csv", "write_result_json", "write_trajectories_csv")),
    Probe(f"{PKG}.config:RunManifest.add_output", "config.manifest_s"),
    Probe(f"{PKG}.config:RunManifest.finish", "config.manifest_s"),
]

SELF_TIMES = [
    "simulate.conv_s", "simulate.rng_s", "simulate.io_s",
    "estimator.correlogram_s", "estimator.bias_s", "estimator.io_s",
    "spectral.cov_finite_s", "spectral.cov_limit_s", "spectral.autocov_s",
    "entropy.covering_s", "kernels.autocorrelation_s", "bounds.self_s",
    "montecarlo.aggregate_s", "montecarlo.sampler_s", "montecarlo.io_s",
    "config.manifest_s",
]

COUNTS = [
    "simulate.calls",
    "simulate.samples",
    "estimator.correlogram_macs",
    "estimator.bias_calls",
    "spectral.cov_finite_calls",
    "entropy.covering_calls",
    "kernels.autocorrelation_calls",
]

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(key, "s") for key in SELF_TIMES]
    + [("simulate.io_mb", "MB")]
    + [(key, "count") for key in COUNTS]
    + [("cli.self_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")]
)


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer values of one traced run whose CLI calls took ``wall_s``."""
    times = tracer.self_times()
    out = {key: times.get(key, (0.0, 0))[0] for key in SELF_TIMES}
    out["simulate.io_mb"] = tracer.counters["simulate.io_bytes"] / 1e6
    for key in COUNTS:
        out[key] = tracer.counters[key]
    out["cli.self_s"] = wall_s - tracer.root_time()
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(tracer.spans)
    return out

"""Tests of the benchmark's tracer and its traced runs.

The traced runs use small configs (T = 20, M = 4) so the tests stay fast;
they drive the same CLI entry point and probes as the benchmark.
"""

from __future__ import annotations

import json
import math
import sys
import textwrap
import time

import pytest

import child
import layers
import spans
import workloads

if str(child.SRC) not in sys.path:
    sys.path.insert(0, str(child.SRC))


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """A two-module package whose functions only advance a fake clock."""
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent("""
        CLOCK = None

        def leaf():
            CLOCK.advance(2.0)

        def counted():
            CLOCK.advance(0.5)
            leaf()

        def middle():
            leaf()
            counted()
            CLOCK.advance(1.0)

        def top():
            CLOCK.advance(4.0)
            middle()
    """))
    (pkg / "b.py").write_text(textwrap.dedent("""
        from .a import leaf

        def caller():
            leaf()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg.a
    import toypkg.b

    clock = _Clock()
    monkeypatch.setattr(toypkg.a, "CLOCK", clock)
    yield toypkg, clock
    for name in ("toypkg", "toypkg.a", "toypkg.b"):
        sys.modules.pop(name, None)


def test_self_time_on_toy_nesting(toy):
    toy, clock = toy
    originals = (toy.a.leaf, toy.b.leaf, toy.a.middle)
    probes = [
        spans.Probe("toypkg.a:top", "top"),
        spans.Probe("toypkg.a:middle", "middle"),
        spans.Probe("toypkg.a:leaf", "leaf", count_key="leaf.calls"),
        spans.Probe("toypkg.a:counted", None, count_key="counted.calls"),
    ]
    with spans.Tracer(probes, clock=clock).install("toypkg") as tracer:
        toy.a.top()
        toy.b.caller()  # through b's own binding of leaf
    # top: 4 + middle(leaf 2 + counted 0.5 + leaf 2 + 1); the untraced
    # counted() keeps its 0.5 s in middle's self time
    assert tracer.self_times() == {"top": (4.0, 1), "middle": (1.5, 1), "leaf": (6.0, 3)}
    assert tracer.root_time() == 9.5 + 2.0
    assert tracer.counters == {"leaf.calls": 3, "counted.calls": 1}
    assert (toy.a.leaf, toy.b.leaf, toy.a.middle) == originals


def _small_config(tmp_path):
    cfg = dict(workloads.MODEL, T=20.0, delta=10.0,
               base_seed={"seed": 7, "stream_id": 0},
               command_defaults={
                   "montecarlo": {"replications": 4},
                   "simulate": {"deltas": [10.0]},
                   "bounds": {"methods": ["theorem3_pointwise", "corollary1"],
                              "y_tail_M": 50, "y_tail_points": 11},
               })
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _run(cfg, out, traced):
    from correlogram.cli import main as cli_main

    calls = [[cmd, "--config", str(cfg), "--out", str(out / cmd)]
             for cmd in ("montecarlo", "simulate", "estimate", "bounds")]
    tracer = spans.Tracer(layers.PROBES).install(layers.PKG) if traced else None
    try:
        start = time.perf_counter()
        assert [cli_main(argv) for argv in calls] == [0, 0, 0, 0]
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    metrics = layers.layer_metrics(tracer, wall_s) if traced else None
    return workloads.output_digests(out), metrics


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    cfg = _small_config(tmp)
    return [_run(cfg, tmp / name, traced)
            for name, traced in (("plain", False), ("traced1", True), ("traced2", True))]


def test_traced_run_writes_identical_files(small_runs):
    (plain, _), (traced, _), _ = small_runs
    assert len(plain) == 10
    assert traced == plain


def test_counts_repeat_exactly(small_runs):
    _, (_, first), (_, second) = small_runs
    counts = [{k: m[k] for k in layers.COUNTS} for m in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["simulate.calls"] == 4 + 1
    assert counts[0]["estimator.correlogram_macs"] == 4 * 101 * 2000 + 3 * 2000
    assert counts[0]["kernels.autocorrelation_calls"] > 0


def test_layer_times_add_up_to_wall(small_runs):
    assert set(layers.SELF_TIMES) == {p.key for p in layers.PROBES if p.key}
    _, (_, metrics), _ = small_runs
    total = sum(metrics[k] for k in layers.SELF_TIMES) + metrics["cli.self_s"]
    assert math.isclose(total, metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["cli.self_s"] >= 0.0
    assert {name for name, _ in layers.PER_LAYER} - set(metrics) == {"trace.overhead_s"}

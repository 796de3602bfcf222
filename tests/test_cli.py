"""Command-line front end: exit codes, outputs, manifests, determinism."""

import concurrent.futures.process
import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import correlogram.cli as cli
import correlogram.config as config_mod
import correlogram.montecarlo as montecarlo_mod
from correlogram.config import (
    COMMANDS,
    KEYS,
    ConfigError,
    canonical_json,
    command_view,
    config_digest,
    load_config,
    resolve_out_dir,
    verify_manifest,
    view_kernels,
)
from correlogram.bounds import corollary1_report, corollary2_report, rice_sup_tail
from correlogram.estimator import _horizon_steps, cross_correlogram, estimation_grid
from correlogram.errors import (
    BoundUnavailable,
    ConsistencyError,
    CoverageError,
    InfiniteMassiveness,
    PadError,
    ReplicationError,
)
from correlogram.montecarlo import _lattice, _replicate_share
from correlogram.simulate import (
    NoiseSeed,
    Simulator,
    TimeGrid,
    read_path_binary,
    read_path_csv,
    simulate_pair,
    write_path_csv,
    write_path_files,
)


BASE_CONFIG = {
    "h": {"name": "sinc"},
    "g_family": {"name": "triangular"},
    "c": 1.0,
    "delta": 10.0,
    "dt": 0.02,
    "T": 40.0,
    "interval": [0.0, 1.0],
    "tau_grid": [0.0, 0.5, 1.0],
    "base_seed": {"seed": 42, "stream_id": 0},
    "command_defaults": {
        "simulate": {"deltas": [1, 2], "T": 8.0},
        "bounds": {"y_tail_M": 200, "y_tail_points": 21},
        "montecarlo": {"replications": 4},
    },
}


@pytest.fixture()
def config_path(tmp_path):
    target = tmp_path / "cfg.json"
    target.write_text(json.dumps(BASE_CONFIG))
    return target


def run_cli(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return cli.main(list(argv))


class TestConfigModule:
    def test_load_rejects_unknown_keys(self, tmp_path):
        target = tmp_path / "c.json"
        target.write_text('{"Tee": 5}')
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_config(target)

    def test_load_rejects_unknown_command_section(self, tmp_path):
        target = tmp_path / "c.json"
        target.write_text('{"command_defaults": {"frobnicate": {}}}')
        with pytest.raises(ConfigError, match="unknown commands"):
            load_config(target)

    def test_load_rejects_out_of_range_number(self, tmp_path):
        # Python reads 1e999 as inf, which no config value may be
        target = tmp_path / "c.json"
        target.write_text('{"command_defaults": {"estimate": {"tau_grid": [0, 1e999]}}}')
        with pytest.raises(ConfigError, match="estimate.tau_grid.1 is 1e999"):
            load_config(target)

    def test_command_view_merges_defaults(self):
        cfg = {"T": 99.0, "command_defaults": {"simulate": {"T": 8.0}}}
        assert command_view(cfg, "simulate")["T"] == 8.0
        assert command_view(cfg, "estimate")["T"] == 99.0
        assert command_view(cfg, "estimate")["c"] == 1.0  # global default

    def test_view_kernels_built_from_specs(self):
        view = command_view({"delta": 10.0}, "montecarlo")
        h, family = view_kernels(view)
        assert h.band_limit == pytest.approx(math.pi)
        assert family(view["delta"]).time_eval(0.0) == pytest.approx(10.0)  # c * delta

    @pytest.mark.parametrize("command, section, named", [
        ("montecarlo", {"replications": 2**57}, "(replications x lattice lags)"),
        ("montecarlo", {"interval": [0.0, 1e308]}, "(replications x lattice lags)"),
    ])
    def test_count_no_array_holds_is_rejected(self, monkeypatch, command, section, named):
        # checked in the view only: such a config must never run. Without
        # os.sysconf, numpy's index type bounds the count on any machine.
        monkeypatch.delattr(os, "sysconf")
        with pytest.raises(ConfigError, match=re.escape(named)):
            command_view({"command_defaults": {command: section}}, command)

    @pytest.mark.parametrize("command, section", [
        ("montecarlo", {"replications": (2**60 - 1) // 101 - 10**6}),
    ])
    def test_count_an_array_holds_passes_the_view(self, monkeypatch, command, section):
        monkeypatch.delattr(os, "sysconf")
        command_view({"command_defaults": {command: section}}, command)

    @pytest.mark.parametrize("command, key, named", [
        ("montecarlo", "replications", "(replications x lattice lags)"),
    ])
    def test_memory_bounds_the_count(self, monkeypatch, command, key, named):
        # on a machine of 1 GiB, 2**27 float64 values, a count of 101-value
        # rows fits up to 2**27 // 101 rows; checked in the view only
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}.__getitem__)
        command_view({"command_defaults": {command: {key: 2**27 // 101}}}, command)
        with pytest.raises(ConfigError, match=re.escape(named) + r".*\(1 GiB\)"):
            command_view({"command_defaults": {command: {key: 2**27 // 101 + 1}}}, command)

    def test_view_counts_the_streamed_working_set(self, monkeypatch):
        # estimate on 1001 lags at dt = 1e-3 over T = 1.2e6 streams its 1.2e9
        # samples through a working set of a few MB, so it passes the view of
        # a machine of 8 GiB, 2**30 float64 values, which its whole paths
        # alone would overfill. Checked in the view only: never run it.
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}.__getitem__)
        cfg = {"delta": 100.0, "dt": 1e-3, "T": 1.2e6, "tau_grid": [i / 1000 for i in range(1001)]}
        view = command_view(cfg, "estimate")
        assert estimation_grid(view["T"], view["dt"], view["tau_grid"]).n > 2**30
        # a kernel support whose sampled taps alone exceed that memory
        with pytest.raises(ConfigError, match="sampled kernel taps"):
            command_view(dict(cfg, dt=1e-10, T=1.0), "estimate")

    def test_view_counts_every_draw_at_once(self, monkeypatch, tmp_path, capsys):
        # a montecarlo config whose streamed working set fits a machine once
        # but not for each of the four draws that two processes of two
        # threads hold at once exits 2 before the run, as the view counts
        counts = []
        real = config_mod._fits_array
        monkeypatch.setattr(config_mod, "_fits_array", lambda what, rows, cols=1: (
            counts.append((what, rows * cols)), real(what, rows, cols)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = dict(BASE_CONFIG, command_defaults={"montecarlo": {"replications": 4}})
        command_view(cfg, "montecarlo", workers=1)
        once, = [v for what, v in counts if what.startswith("the streamed working set")]
        monkeypatch.setattr(config_mod, "_memory_values", lambda: once)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("montecarlo", "--config", str(config), "--out", str(out),
                       "--workers", "2") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "streamed working set" in err and "4 draws at once" in err
        assert not out.exists()
        with pytest.raises(ConfigError, match="4 draws at once"):  # four processes of one thread
            command_view(cfg, "montecarlo", workers=4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        command_view(cfg, "montecarlo", workers=1)

    def test_traced_working_set_stays_within_the_view_count(self, monkeypatch, tmp_path):
        # a real simulate, estimate and replication, each in four blocks with
        # a sinc FFT plan, and two replications on two threads of one
        # Simulator allocate no more than the 8 bytes a value of the working
        # set that their view counts; a buffer that grows without its count
        # (say a plan's transforms at twice their length) fails
        counts = []
        real = config_mod._fits_array
        monkeypatch.setattr(config_mod, "_fits_array", lambda what, rows, cols=1: (
            counts.append((what, rows * cols)), real(what, rows, cols)))
        cfg = {"dt": 1e-3, "T": 200.0, "tau_grid": [i / 1000 for i in range(1001)],
               "command_defaults": {
                   "simulate": {"deltas": [10.0]},
                   "montecarlo": {"dt": 0.01, "T": 2000.0, "tau_grid": [0.0, 0.5, 1.0],
                                  "replications": 2}}}

        def simulate(view, h, family):
            # the command's range writer, in this process on one CPU
            cli.cmd_simulate(view, tmp_path, None)

        def estimate(view, h, family):
            grid = estimation_grid(view["T"], view["dt"], view["tau_grid"])
            Y, X = simulate_pair(Simulator((h, family(view["delta"])), grid), NoiseSeed(1))
            cross_correlogram(Y, X, view["c"], view["T"], view["tau_grid"])

        def replications(view, h, family):
            # one process: two replications, one after the other on one CPU,
            # at once on two
            taus = _lattice(view)
            _replicate_share((view, taus, np.zeros(taus.size), 0, 1))

        for command, run, cpus in [("simulate", simulate, 1), ("estimate", estimate, 1),
                                   ("montecarlo", replications, 1), ("montecarlo", replications, 2)]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            counts.clear()
            view = command_view(cfg, command)
            values, = [v for what, v in counts if what.startswith("the streamed working set")]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                tracemalloc.start()
                try:
                    run(view, *view_kernels(view))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 8 * values, (command, peak, 8 * values)

    def test_readme_key_table_matches_keys(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | commands | valid values | default |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            names = None if cells[1] == "all" else (cells[1],)
            rows.append((cells[0], names, json.loads(cells[-1])))
        assert rows == [(k.name, k.commands, k.default) for k in KEYS]

    def test_digest_is_key_order_invariant(self):
        a = {"x": 1, "y": [1.5, 2.5]}
        b = {"y": [1.5, 2.5], "x": 1}
        assert config_digest(a) == config_digest(b)

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_out_dir_precedence(self):
        cfg = {"out_dir": "from_cfg"}
        env = {"CORRELOGRAM_OUT": "from_env"}
        assert str(resolve_out_dir("flag", cfg, env)) == "flag"
        assert str(resolve_out_dir(None, cfg, env)) == "from_env"
        assert str(resolve_out_dir(None, cfg, {})) == "from_cfg"
        assert str(resolve_out_dir(None, {}, {})) == "."


class TestExitCodes:
    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli("check-kernel", "--config", str(bad), "--out", str(tmp_path)) == 2

    def test_unknown_window_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g_family": {"name": "gaussian"}}))
        assert run_cli("check-kernel", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_asymmetric_window_fails_checks(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g_family": {"name": "one_sided_box"}}))
        code = run_cli("check-kernel", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "FAIL  even" in capsys.readouterr().out

    def test_nonpositive_horizon_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"T": -5.0}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_count_no_array_holds_exits_before_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "montecarlo", lambda *args: pytest.fail("montecarlo ran"))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command_defaults": {"montecarlo": {"replications": 2**57}}}))
        assert run_cli("montecarlo", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "replications x lattice lags" in err
        assert not (tmp_path / "o").exists()

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("exc", [
        PadError("pad too short", required_pad=3),
        CoverageError("path too short", required_span=(0.0, 1.0)),
        ConsistencyError("imaginary residue"),
        InfiniteMassiveness("covering radius collapsed"),
        BoundUnavailable("entropy integral diverges"),
        ReplicationError("replication 3 failed: simulated"),
    ], ids=lambda exc: type(exc).__name__)
    def test_replication_failure_maps_to_domain_exit(self, config_path, tmp_path, monkeypatch,
                                                     capsys, exc):
        def boom(cfg, workers=1):
            raise exc

        monkeypatch.setattr(cli, "run_replications", boom)
        code = run_cli("montecarlo", "--config", str(config_path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"domain failure: {exc}" in capsys.readouterr().err

    def test_other_error_propagates(self, config_path, tmp_path, monkeypatch):
        def boom(cfg, workers=1):
            raise ValueError("not a domain failure")

        monkeypatch.setattr(cli, "run_replications", boom)
        with pytest.raises(ValueError, match="not a domain failure"):
            run_cli("montecarlo", "--config", str(config_path), "--out", str(tmp_path / "o"))


class TestCheckKernel:
    def test_passes_and_writes_report(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("check-kernel", "--config", str(config_path), "--out", str(out)) == 0
        payload = json.loads((out / "conditions.json").read_text())
        assert payload["passed"] is True
        assert payload["family"]["checks"]["even"]["passed"] is True
        assert payload["hunt"]["converged"] is True
        assert verify_manifest(out / "run_manifest.json") == []


class TestSimulate:
    def test_writes_shared_noise_ladder(self, config_path, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "path_Y.csv", "path_Y.bin",
            "path_X_delta1.csv", "path_X_delta1.bin",
            "path_X_delta2.csv", "path_X_delta2.bin",
            "run_manifest.json",
        } == names
        y_csv = read_path_csv(out / "path_Y.csv")
        y_bin = read_path_binary(out / "path_Y.bin")
        np.testing.assert_array_equal(y_csv.values, y_bin.values)
        # the ladder shares one Wiener path: with the same seed, a lone
        # delta=1 run reproduces the same X exactly
        assert verify_manifest(out / "run_manifest.json") == []

    def test_identical_rerun_is_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", str(config_path), "--out", str(out1))
        run_cli("simulate", "--config", str(config_path), "--out", str(out2))
        for name in ("path_Y.bin", "path_X_delta1.csv", "path_X_delta2.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        m1.pop("timestamps")
        m2.pop("timestamps")
        assert m1 == m2

    def test_csv_files_equal_one_path_per_file(self, config_path, tmp_path):
        # the one-pass ladder writes each path's bytes as write_path_csv does
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 0
        for stem in ("path_Y", "path_X_delta1", "path_X_delta2"):
            write_path_csv(read_path_binary(out / f"{stem}.bin"), tmp_path / "one.csv")
            assert (out / f"{stem}.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    @staticmethod
    def _run_on(monkeypatch, tmp_path, cpus, T, name) -> tuple:
        """simulate at T on ``cpus`` CPUs, through a pool that records its
        size: the sha256 of each file (of a manifest less its timestamps),
        and the pool sizes."""
        sizes = []

        class RecordingPool(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["command_defaults"]["simulate"]["T"] = T
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / name
        assert run_cli("simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 0
        assert multiprocessing.active_children() == []
        manifest = json.loads((out / "run_manifest.json").read_text())
        del manifest["timestamps"]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        digests["run_manifest.json"] = canonical_json(manifest)
        return digests, sizes

    def test_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path):
        # 135 001 samples at dt 0.02: blocks of 65 536, 65 536 and 3 929
        # samples, in one range a CPU up to one a block
        runs = {cpus: self._run_on(monkeypatch, tmp_path, cpus, 2700.0, f"cpus{cpus}")
                for cpus in (1, 2, 3, 5)}
        assert {cpus: sizes for cpus, (_, sizes) in runs.items()} == {1: [], 2: [1], 3: [2], 5: [2]}
        digests = [d for d, _ in runs.values()]
        assert len(digests[0]) == 7 and all(d == digests[0] for d in digests)
        # a one-block grid starts no pool
        assert self._run_on(monkeypatch, tmp_path, 3, 8.0, "one_block")[1] == []

    def test_as_many_processes_as_memory_holds(self, monkeypatch, tmp_path, capsys):
        # each process that writes a block range holds one Simulator and one
        # draw: a config that fits one draw but not three runs on 3 CPUs in
        # fewer processes, with the same bytes; one that does not fit one
        # draw exits 2 on any CPU count
        counts = []
        real = config_mod._fits_array
        monkeypatch.setattr(config_mod, "_fits_array", lambda what, rows, cols=1: (
            counts.append((what, rows * cols)), real(what, rows, cols)))
        want, sizes = self._run_on(monkeypatch, tmp_path, 3, 2700.0, "fits_all")
        once, = {v for what, v in counts if what.startswith("the streamed working set")}
        assert sizes == [2]
        for memory, pool in [(once, []), (2 * once + 1, [1])]:
            monkeypatch.setattr(config_mod, "_memory_values", lambda: memory)
            assert self._run_on(monkeypatch, tmp_path, 3, 2700.0, f"fits{memory}") == (want, pool)
        monkeypatch.setattr(config_mod, "_memory_values", lambda: once - 1)
        capsys.readouterr()
        out = tmp_path / "fits_none"
        assert run_cli("simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 2
        assert "streamed working set" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["caller", "worker1", "worker2"])
    def test_failing_range_leaves_no_part_file_or_process(self, monkeypatch, tmp_path, failing):
        # a range that raises in its process fails the command with its
        # error; the pool is joined and every part file is deleted
        blocks = Simulator.blocks

        def fail_one(self, seed, start=0, stop=None):
            if start == failing:
                raise RuntimeError(f"range from block {start} failed")
            return blocks(self, seed, start, stop)

        monkeypatch.setattr(Simulator, "blocks", fail_one)
        with pytest.raises(RuntimeError, match=f"range from block {failing} failed"):
            self._run_on(monkeypatch, tmp_path, 3, 2700.0, "out")
        assert multiprocessing.active_children() == []
        assert not [p.name for p in (tmp_path / "out").iterdir() if ".part" in p.name]

    @pytest.mark.parametrize("deltas,named", [
        ([5.0, 5.0000001], "[5.0, 5.0000001]"),
        ([2, 1, 2], "[2.0, 2.0]"),
    ])
    def test_colliding_file_names_are_usage_error(self, tmp_path, capsys, deltas, named):
        # both deltas format as the same {:g} label, so one path file would
        # overwrite the other and the manifest would not verify
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["command_defaults"]["simulate"]["deltas"] = deltas
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "path_X_delta" in err
        assert f"deltas {named} " in err
        assert not out.exists()


class TestEstimate:
    def test_writes_estimate_with_sidecar(self, config_path, tmp_path):
        out = tmp_path / "est"
        assert run_cli("estimate", "--config", str(config_path), "--out", str(out)) == 0
        lines = (out / "estimate.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,h_hat,h_mean,z_hat"
        assert len(lines) == 4  # three lags
        sidecar = json.loads((out / "estimate.json").read_text())
        assert sidecar == {
            "T": 40.0, "delta": 10.0, "c": 1.0, "dt": 0.02, "seed": {"seed": 42, "stream_id": 0}
        }
        assert verify_manifest(out / "run_manifest.json") == []

    def test_one_sample_grid_is_usage_error(self, tmp_path, capsys):
        # T and the lags span a fiftieth of dt: round() leaves one sample
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(BASE_CONFIG, T=0.02, dt=1.0, tau_grid=[0.0])))
        assert run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "two samples" in capsys.readouterr().err

    def test_negative_lag_off_the_lattice_is_snapped(self, tmp_path):
        # -0.015 snaps to -0.02, where the simulated grid must start
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(BASE_CONFIG, dt=0.01, tau_grid=[-0.015, 0.5])))
        out = tmp_path / "est"
        assert run_cli("estimate", "--config", str(cfg), "--out", str(out)) == 0
        taus = np.loadtxt(out / "estimate.csv", delimiter=",", skiprows=1)[:, 0]
        np.testing.assert_allclose(taus, [-0.02, 0.5], rtol=0, atol=1e-12)


class TestBounds:
    def test_all_methods_written(self, config_path, tmp_path):
        out = tmp_path / "bnd"
        assert run_cli("bounds", "--config", str(config_path), "--out", str(out)) == 0
        shared = {"T": 40.0, "interval": [0.0, 1.0], "r": 0.5, "delta": 10.0, "c": 1.0}
        settings = {
            "theorem3_pointwise": shared,
            "theorem4_sup": dict(shared, x_multipliers=[1.5, 2.0, 3.0]),
            # lambda2 of the unit band [0, pi], by the general quadrature
            "corollary1": dict(shared, gamma=0.5, lambda2=pytest.approx(math.pi**2 / 3, rel=1e-15)),
            "corollary2": dict(shared, lambda2=pytest.approx(math.pi**2 / 3, rel=1e-15)),
        }
        for m in ("theorem3_pointwise", "theorem4_sup", "corollary1", "corollary2"):
            payload = json.loads((out / f"bound_{m}.json").read_text())
            assert payload["method"] == m
            assert all(0.0 <= v <= 1.0 for v in payload["bound"])
            assert payload["settings"] == settings[m]
        t4 = json.loads((out / "bound_theorem4_sup.json").read_text())
        # thresholds are stored as absolute values, multiples of A
        A = t4["constants"]["A_TD"]
        np.testing.assert_allclose(t4["x"], [1.5 * A, 2.0 * A, 3.0 * A], rtol=1e-12)
        assert verify_manifest(out / "run_manifest.json") == []

    def test_unknown_method_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command_defaults": {"bounds": {"methods": ["theorem5"]}}}))
        assert run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_degenerate_bound_exits_one_with_payload(self, config_path, tmp_path, monkeypatch,
                                                     capsys):
        def unavailable(*args, **kwargs):
            raise BoundUnavailable("entropy integral diverges")

        monkeypatch.setattr(cli, "theorem4_detail", unavailable)
        out = tmp_path / "deg"
        code = run_cli("bounds", "--config", str(config_path), "--out", str(out))
        assert code == 1
        payload = json.loads((out / "bounds_signals.json").read_text())
        assert "theorem4_sup" in payload["signals"]
        # the healthy methods still produced their reports; the manifest
        # records them and then the signals, in write order, and verifies
        methods = command_view(load_config(config_path), "bounds")["methods"]
        outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
        assert [entry["name"] for entry in outputs] == [
            f"bound_{m}.json" for m in methods if m != "theorem4_sup"
        ] + ["bounds_signals.json"]
        assert verify_manifest(out / "run_manifest.json") == []
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
        assert wrote == [f"wrote {out / entry['name']}" for entry in outputs]

    def test_corollary2_takes_the_tail_of_sup_abs_Y(self, config_path, tmp_path):
        # corollary 2 needs P{sup |Y| > u}, the two-sided Rice tail; corollary
        # 1 takes P{sup Y > u}, the one-sided one
        out = tmp_path / "c2"
        assert run_cli("bounds", "--config", str(config_path), "--out", str(out)) == 0
        view = command_view(load_config(config_path), "bounds")
        h, _ = view_kernels(view)
        a, b = view["interval"]
        xs = view["x_grid"]
        for want in (corollary1_report(h, a, b, xs, view["gamma"], rice_sup_tail(h, a, b, 1)),
                     corollary2_report(h, a, b, xs, rice_sup_tail(h, a, b, 2))):
            payload = json.loads((out / f"bound_{want.method}.json").read_text())
            assert payload["constants"]["raw_bounds"] == want.constants["raw_bounds"]

    def test_draws_nothing(self, config_path, tmp_path, monkeypatch):
        # the corollaries' tails are closed-form: no stationary draws of Y,
        # and no LAPACK eigendecomposition behind the bounds' bytes
        def drawn(*args, **kwargs):
            raise AssertionError("bounds drew Y")

        monkeypatch.setattr(montecarlo_mod, "sample_stationary_Y", drawn)
        monkeypatch.setattr(np.linalg, "eigh", drawn)
        assert run_cli("bounds", "--config", str(config_path), "--out", str(tmp_path / "o")) == 0

    def test_no_band_limit_signals_both_corollaries(self, tmp_path, capsys):
        # Rice's tail needs the finite lambda2 of a band-limited h; for the
        # Laplace kernel both corollaries signal, and theorem 3 is written
        cfg = dict(BASE_CONFIG, h={"name": "laplace", "delta": 1, "c": 1}, command_defaults={
            "bounds": {"methods": ["theorem3_pointwise", "corollary1", "corollary2"]}})
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("bounds", "--config", str(config), "--out", str(out)) == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "bound_theorem3_pointwise.json", "bounds_signals.json", "run_manifest.json"]
        signals = json.loads((out / "bounds_signals.json").read_text())["signals"]
        assert sorted(signals) == ["corollary1", "corollary2"]
        assert all("band-limited" in msg for msgs in signals.values() for msg in msgs)
        assert verify_manifest(out / "run_manifest.json") == []


@pytest.mark.parametrize("command, key, bad", [
    ("check-kernel", "tol", "abc"),
    ("check-kernel", "deltas", "12"),
    ("check-kernel", "hunt_exponent", True),
    ("check-kernel", "lambda_max", -5),
    ("simulate", "t_start", "x"),
    ("simulate", "deltas", "12"),
    ("estimate", "tau_grid", "01"),
    ("estimate", "T", True),
    ("estimate", "base_seed", {"seed": 1.7}),
    ("estimate", "base_seed", {"seed": 1, "stream": 2}),
    ("estimate", "h", {"name": "tabulated", "path": "no_such_kernel.csv"}),
    ("montecarlo", "replications", 2.9),
    ("montecarlo", "replications", "3"),
    ("montecarlo", "--workers", "0"),
    ("montecarlo", "--workers", "-3"),
    ("bounds", "interval", "01"),
    ("bounds", "methods", "corollary1"),
    ("bounds", "r", 1.5),
    ("bounds", "gamma", "x"),
    ("bounds", "y_tail_M", 0),
    ("bounds", "x_grid", [-1, 2]),
    ("bounds", "x_grid", "48"),
    ("bounds", "confidence", 0.9),
    # "h.dleta": the config key h, whose spec has the bad parameter dleta
    ("estimate", "h.dleta", {"name": "triangular", "delta": 2, "c": 1, "dleta": 5}),
    ("estimate", "g_family.c", {"name": "triangular", "c": 2.0}),
    ("estimate", "h.delta", {"name": "triangular", "delta": True, "c": 1}),
    ("estimate", "h.delta", {"name": "triangular", "delta": "2", "c": 1}),
    ("estimate", "h.support_radius", {"name": "sinc", "support_radius": 0.5}),
    ("estimate", "h.path", {"name": "tabulated"}),
    ("estimate", "h.path",
     {"name": "tabulated", "path": "k.csv", "times": [0, 1], "values": [1, 0]}),
    ("estimate", "h.path", {"name": "tabulated", "path": 5}),
    ("estimate", "h.times", {"name": "tabulated", "times": ["0", "1"], "values": [1, 0]}),
    ("estimate", "out_dir", 5),
    ("bounds", "out_dir", True),
    # cross-key checks: T a whole number of dt steps, theorem 4 on an even
    # window, montecarlo lags inside the interval
    ("estimate", "T", 40.005),
    ("montecarlo", "T", 40.005),
    ("bounds", "g_family", {"name": "one_sided_box"}),
    ("simulate", "T", 40.005),
    ("montecarlo", "tau_grid", [0.0, 1.5]),
    # methods non-empty and distinct; lags on distinct lattice lags
    ("bounds", "methods", []),
    ("bounds", "methods", ["corollary1", "corollary1"]),
    ("estimate", "tau_grid", [0.0, 0.004, 0.5]),
    ("montecarlo", "tau_grid", [0.0, 0.004, 0.5]),
    # check-kernel's delta ladder ascends; a montecarlo run needs two
    # replications and an interval [a, b] with a < b
    ("check-kernel", "deltas", [100, 10]),
    ("montecarlo", "replications", 1),
    ("montecarlo", "interval", [1.0, 0.0]),
    # JSON has no non-finite numbers: NaN and Infinity fail every command,
    # wherever they stand ("bounds.r.NaN": NaN under key r of bounds' section)
    ("check-kernel", "bounds.r.NaN", math.nan),
    ("estimate", "h.delta.Infinity", {"name": "triangular", "delta": math.inf, "c": 1}),
    ("simulate", "t_start.-Infinity", -math.inf),
    # a lattice whose step count overflows a float
    ("simulate", "dt", 1e-320),
    ("estimate", "dt", 1e-320),
    ("montecarlo", "dt", 1e-320),
    ("estimate", "tau_grid", [0.0, 1e308]),
    # a lattice that fits a float but whose increments no array holds
    ("estimate", "dt", 1e-17),
    ("estimate", "tau_grid", [0.0, 1e300]),
    ("simulate", "T", 1e300),
    # a lattice that fits numpy's index type but not the machine's memory
    ("estimate", "dt", 1e-12),
    ("simulate", "dt", 1e-12),
    ("montecarlo", "dt", 1e-12),
])
def test_invalid_value_is_usage_error(tmp_path, capsys, command, key, bad):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]
    section, _, name = key.partition(".")
    if section not in COMMANDS:  # a key of the command's own section
        section, name = command, key
    if key.startswith("--"):
        argv += [key, bad]
    elif key == "out_dir":  # a top-level key only
        cfg[key] = bad
    else:
        cfg["command_defaults"].setdefault(section, {})[name.split(".")[0]] = bad
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # a bad flag stops argparse
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert all(part in err for part in key.split("."))
    assert ("argument" if key.startswith("--") else "config error") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["check-kernel", "simulate", "estimate", "bounds", "montecarlo"])
def test_wrote_lines_follow_the_manifest(config_path, tmp_path, capsys, command):
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(config_path), "--out", str(out)) == 0
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
    assert wrote == [f"wrote {out / entry['name']}" for entry in outputs]
    assert outputs


class TestMontecarlo:
    def test_outputs_and_manifest(self, config_path, tmp_path):
        out = tmp_path / "mc"
        code = run_cli(
            "montecarlo", "--config", str(config_path), "--out", str(out),
            "--workers", "2", "--emit-paths",
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "result.csv", "result.json", "trajectories.csv",
            "path_rep0_Y.csv", "path_rep0_X.csv", "run_manifest.json",
        } == names
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "montecarlo"
        assert verify_manifest(out / "run_manifest.json") == []

    def test_one_sided_box_kernel(self, tmp_path):
        # |box*|^2 decays like lam^-2, so a spectral limit covariance would
        # need a window of about 2e12 for the KS targets
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg.update(h={"name": "one_sided_box", "delta": 10, "c": 1}, T=20.0, dt=0.01)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        assert run_cli("montecarlo", "--config", str(path), "--out", str(out)) == 0
        assert (out / "result.csv").exists()

    @pytest.mark.parametrize("bad", [-1, 0, 2.5, "x"])
    def test_bad_emit_max_reps_is_usage_error(self, tmp_path, bad):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["command_defaults"]["montecarlo"]["emit_max_reps"] = bad
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        code = run_cli("montecarlo", "--config", str(path), "--out", str(out), "--emit-paths")
        assert code == 2
        assert not (out / "result.csv").exists()

    def test_tampering_is_detected(self, config_path, tmp_path):
        out = tmp_path / "mc2"
        run_cli("montecarlo", "--config", str(config_path), "--out", str(out))
        target = out / "result.csv"
        target.write_text(target.read_text().replace("0", "1", 1))
        problems = verify_manifest(out / "run_manifest.json")
        assert any("result.csv" in p for p in problems)

    def test_manifest_reports_resources(self, config_path, tmp_path):
        out = tmp_path / "mc"
        run_cli("montecarlo", "--config", str(config_path), "--out", str(out), "--workers", "2")
        resources = json.loads((out / "run_manifest.json").read_text())["timestamps"]["resources"]
        assert set(resources) == {"cpu_user_s", "cpu_system_s", "minor_faults", "max_rss_mb"}
        assert all(type(v) in (int, float) and v >= 0 for v in resources.values()), resources
        assert type(resources["minor_faults"]) is int and resources["max_rss_mb"] > 0

    def test_manifest_leaves_out_resources_without_getrusage(self, config_path, tmp_path,
                                                             monkeypatch):
        monkeypatch.setattr(config_mod, "resource", None)
        out = tmp_path / "mc"
        run_cli("montecarlo", "--config", str(config_path), "--out", str(out))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["timestamps"]) == {"started", "finished"}

    def test_manifest_without_a_field_is_a_config_error(self, config_path, tmp_path):
        out = tmp_path / "mc3"
        run_cli("montecarlo", "--config", str(config_path), "--out", str(out))
        target = out / "run_manifest.json"
        manifest = json.loads(target.read_text())
        del manifest["config_digest"]
        target.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="config_digest"):
            verify_manifest(target)

    @pytest.mark.parametrize("name", ["../victim.csv", "{victim}", "sub/../../victim.csv"])
    def test_output_outside_the_manifest_dir_is_a_problem(self, config_path, tmp_path, name):
        # the entry carries the outside file's true digest and size
        victim = tmp_path / "victim.csv"
        victim.write_text("t,value\r\n0.0,1.0\r\n")
        out = tmp_path / "mc4"
        run_cli("montecarlo", "--config", str(config_path), "--out", str(out))
        target = out / "run_manifest.json"
        manifest = json.loads(target.read_text())
        name = name.format(victim=victim)
        manifest["outputs"].append({"name": name, "bytes": victim.stat().st_size,
                                    "sha256": hashlib.sha256(victim.read_bytes()).hexdigest()})
        target.write_text(json.dumps(manifest))
        assert verify_manifest(target) == [f"output {name!r} is not a file name next to the manifest"]

    @pytest.mark.parametrize("field", ["name", "sha256", "bytes"])
    def test_output_entry_without_a_field_is_a_config_error(self, config_path, tmp_path, field):
        out = tmp_path / "mc5"
        run_cli("montecarlo", "--config", str(config_path), "--out", str(out))
        target = out / "run_manifest.json"
        manifest = json.loads(target.read_text())
        del manifest["outputs"][0][field]
        target.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=re.escape(f"missing fields {[field]}")):
            verify_manifest(target)


def test_env_var_sets_out_dir(config_path, tmp_path, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv("CORRELOGRAM_OUT", str(target))
    assert run_cli("check-kernel", "--config", str(config_path)) == 0
    assert (target / "conditions.json").exists()


def _child_env() -> dict:
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_import_leaves_out_scipy():
    # scipy.optimize, scipy.special and scipy.fft cost about 0.65 s of every
    # start and 40 MB of resident memory; numpy and correlogram.quadrature
    # stand in for the five helpers they supplied. The process pool, which
    # only montecarlo --workers N > 1 uses, is imported there.
    probe = (
        "import sys, correlogram.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_BLOCK_SCIPY = """
import sys, warnings


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
warnings.simplefilter("ignore", RuntimeWarning)
from correlogram.cli import main

config, out = sys.argv[1:]
print([main([cmd, "--config", config, "--out", f"{out}/{cmd}", *extra]) for cmd, extra in (
    ("simulate", []), ("estimate", []), ("bounds", []), ("montecarlo", ["--workers", "1"]))])
"""


def test_commands_run_without_scipy(tmp_path):
    cfg = dict(BASE_CONFIG, T=20.0, dt=0.01, command_defaults={
        "simulate": {"deltas": [10.0]},
        "montecarlo": {"replications": 4},
    })
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY, str(config), str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0]"
    assert (tmp_path / "out" / "bounds" / "bound_theorem4_sup.json").exists()


_PEAK_RSS = """
import resource, sys, warnings

warnings.simplefilter("ignore", RuntimeWarning)
from correlogram.cli import main

config, out = sys.argv[1:]
code = main(["estimate", "--config", config, "--out", out])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_estimate_memory_is_flat_in_T(tmp_path):
    # estimate on 1001 lags at dt = 1e-3 streams its paths in blocks, so ten
    # times the horizon leaves the peak resident set where it was; holding
    # whole paths took about 49 bytes a sample (70 MB at T = 500, 280 MB at
    # T = 5000)
    peaks = []
    for T in (500.0, 5000.0):
        cfg = dict(BASE_CONFIG, delta=100.0, dt=1e-3, T=T, tau_grid=[i / 1000 for i in range(1001)])
        config = tmp_path / f"T{T:g}.json"
        config.write_text(json.dumps(cfg))
        out = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(config), str(tmp_path / f"out{T:g}")],
            env=_child_env(), capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        code, peak_kib = map(int, out.stdout.splitlines()[-1].split())
        assert code == 0
        peaks.append(peak_kib)
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


_PROBE_NUMPY_MA = """
import sys, warnings

warnings.simplefilter("ignore", RuntimeWarning)
from correlogram.cli import main

config, out = sys.argv[1:]
codes = [main([cmd, "--config", config, "--out", f"{out}/{cmd}"])
         for cmd in ("bounds", "estimate", "montecarlo")]
print(codes, "numpy.ma" in sys.modules)
"""


def test_bounds_and_estimate_leave_out_numpy_ma(tmp_path):
    # a plain np.unique, or the first np.quantile, imports numpy.ma, about
    # 20 ms of a run; montecarlo's sup quantiles are computed without it
    cfg = dict(BASE_CONFIG, command_defaults={"montecarlo": {"replications": 4}})
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE_NUMPY_MA, str(config), str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False"


def _glibc_malloc_env() -> dict:
    """The child environment without glibc's malloc tunables, so a child that
    skips the allocator policy runs under glibc's defaults."""
    return {k: v for k, v in _child_env().items()
            if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}


_FFT_FAULTS = """
import resource, sys
import numpy as np

if sys.argv[1] == "policy":
    from correlogram.config import _keep_freed_memory

    _keep_freed_memory()
x = np.random.default_rng(0).standard_normal(62208)
np.fft.irfft(np.fft.rfft(x), x.size)  # builds and caches the plan
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    np.fft.irfft(np.fft.rfft(x), x.size)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""

needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                 reason="the allocator policy sets glibc's mallopt")


@needs_glibc
def test_allocator_policy_keeps_fft_scratch_mapped():
    # pocketfft frees its scratch on return; under glibc's defaults each
    # 62 208-point transform pair maps and faults it in afresh (about 420
    # pages here), under the policy the freed block is reused. Each run is a
    # fresh process: the policy holds for the whole process once set.
    faults = {}
    for mode in ("policy", "default"):
        out = subprocess.run([sys.executable, "-c", _FFT_FAULTS, mode], env=_glibc_malloc_env(),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        faults[mode] = float(out.stdout.split()[-1])
    assert faults["policy"] < 8 and faults["default"] >= 100, faults


_DIGESTS = """
import hashlib, json, sys, warnings
from pathlib import Path

warnings.simplefilter("ignore", RuntimeWarning)
from correlogram.cli import main

out = Path(sys.argv[1])
for command, config, extra in json.loads(sys.argv[2]):
    assert main([command, "--config", config, "--out", str(out / command), *extra]) == 0
print(json.dumps({f"{f.parent.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
                  for f in sorted(out.glob("*/*")) if f.name != "run_manifest.json"}))
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a ddot of more than 10 000 samples over its threads,
    # which rounds the sum differently; the correlogram's dot route sums
    # windows of 50 000 (estimate) and 12 500 (montecarlo) samples here in
    # blocks short enough that no ddot is split. The corollary bounds are
    # quadrature only, with no BLAS or LAPACK call, so they keep their bytes
    # under the Prescott kernels too, which estimate and montecarlo do not
    # (they sum with the ddot kernel that OpenBLAS picks for the CPU). The
    # BLAS settings are read when numpy loads, so each runs in its own process.
    runs = {}
    for command, cfg, extra in (
        ("estimate", dict(BASE_CONFIG, T=500.0, dt=0.01), []),
        ("montecarlo", dict(BASE_CONFIG, T=250.0), ["--workers", "1"]),
        ("bounds", dict(BASE_CONFIG, command_defaults={
            "bounds": {"methods": ["corollary1", "corollary2"]}}), []),
    ):
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(cfg))
        runs[command] = (command, str(config), extra)
    digests = {}
    for name, blas, commands in (
        ("1", {"OPENBLAS_NUM_THREADS": "1"}, ("estimate", "montecarlo", "bounds")),
        ("2", {"OPENBLAS_NUM_THREADS": "2"}, ("estimate", "montecarlo", "bounds")),
        ("prescott", {"OPENBLAS_CORETYPE": "Prescott"}, ("bounds",)),
    ):
        out = subprocess.run(
            [sys.executable, "-c", _DIGESTS, str(tmp_path / f"blas_{name}"),
             json.dumps([runs[c] for c in commands])],
            env=dict(_child_env(), **blas), capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        digests[name] = json.loads(out.stdout.splitlines()[-1])
    assert {"estimate/estimate.csv", "montecarlo/result.csv",
            "bounds/bound_corollary1.json", "bounds/bound_corollary2.json"} <= digests["1"].keys()
    assert digests["1"] == digests["2"]
    assert digests["prescott"] == {k: v for k, v in digests["1"].items() if k.startswith("bounds/")}


_RESOURCES = """
import json, sys, warnings

warnings.simplefilter("ignore", RuntimeWarning)
from correlogram.cli import main

command, config, out, *extra = sys.argv[1:]
code = main([command, "--config", config, "--out", out, *extra])
print(code, json.dumps(json.load(open(out + "/run_manifest.json"))["timestamps"]["resources"]))
"""


def _minor_faults(tmp_path, name, cfg, command, *extra):
    """``timestamps.resources.minor_faults`` of the manifest of one CLI run
    of ``command`` on ``cfg``, in a fresh interpreter."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(cfg))
    out = subprocess.run([sys.executable, "-c", _RESOURCES, command, str(config), str(tmp_path / name),
                          *extra], env=_glibc_malloc_env(), capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    code, resources = out.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    return json.loads(resources)["minor_faults"]


@needs_glibc
def test_montecarlo_faults_per_replication_stay_flat(tmp_path):
    # perfbench's mc model (T = 500, dt = 0.01, 101 lags): without the
    # allocator policy each replication faulted in about 470 pages (612 on
    # one thread), nearly all of them pocketfft scratch
    model = dict(BASE_CONFIG, delta=100.0, dt=0.01, T=500.0)
    faults = {M: _minor_faults(tmp_path, f"M{M}",
                               dict(model, command_defaults={"montecarlo": {"replications": M}}),
                               "montecarlo", "--workers", "1")
              for M in (8, 24)}
    assert (faults[24] - faults[8]) / 16 < 16, faults


@needs_glibc
def test_estimate_faults_per_block_stay_flat(tmp_path):
    # a draw makes each FFT block's spectrum and inverse transform afresh
    # (62 208 points here), so under the allocator policy the heap must
    # hand the freed blocks back: one transform faulted in 211 pages
    # without it. T = 2000 and 8000 at dt = 0.01 draw 4 and 13 blocks.
    model = dict(BASE_CONFIG, delta=100.0, dt=0.01)
    faults = {T: _minor_faults(tmp_path, f"T{T}", dict(model, T=T), "estimate") for T in (2000.0, 8000.0)}
    assert (faults[8000.0] - faults[2000.0]) / 9 < 16, faults


@pytest.mark.parametrize("platform_name, libc", [("darwin", None), ("linux", object())])
def test_allocator_policy_is_a_no_op_without_mallopt(monkeypatch, platform_name, libc):
    # off Linux the C library is never opened; on a Linux libc without
    # mallopt (no such attribute) nothing is set
    import ctypes

    def cdll(name):
        assert libc is not None, "opened the C library off Linux"
        return libc

    monkeypatch.setattr(sys, "platform", platform_name)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert config_mod._keep_freed_memory() is None

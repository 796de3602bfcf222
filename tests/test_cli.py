"""Command-line front end: exit codes, outputs, manifests, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import correlogram.cli as cli
from correlogram.config import (
    ConfigError,
    canonical_json,
    command_view,
    config_digest,
    load_config,
    load_manifest,
    resolve_out_dir,
    verify_manifest,
)
from correlogram.errors import BoundUnavailable
from correlogram.simulate import read_path_binary, read_path_csv


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

    def test_command_view_merges_defaults(self):
        cfg = {"T": 99.0, "command_defaults": {"simulate": {"T": 8.0}}}
        assert command_view(cfg, "simulate")["T"] == 8.0
        assert command_view(cfg, "estimate")["T"] == 99.0
        assert command_view(cfg, "estimate")["c"] == 1.0  # global default

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

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    def test_replication_failure_maps_to_domain_exit(self, config_path, tmp_path, monkeypatch):
        def boom(cfg, workers=1):
            raise RuntimeError("replication 3 failed: simulated")

        monkeypatch.setattr(cli, "run_replications", boom)
        code = run_cli("montecarlo", "--config", str(config_path), "--out", str(tmp_path / "o"))
        assert code == 1


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


class TestEstimate:
    def test_writes_estimate_with_sidecar(self, config_path, tmp_path):
        out = tmp_path / "est"
        assert run_cli("estimate", "--config", str(config_path), "--out", str(out)) == 0
        lines = (out / "estimate.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,h_hat,h_mean,z_hat"
        assert len(lines) == 4  # three lags
        sidecar = json.loads((out / "estimate.json").read_text())
        assert sidecar["T"] == 40.0
        assert verify_manifest(out / "run_manifest.json") == []


class TestBounds:
    def test_all_methods_written(self, config_path, tmp_path):
        out = tmp_path / "bnd"
        assert run_cli("bounds", "--config", str(config_path), "--out", str(out)) == 0
        for m in ("theorem3_pointwise", "theorem4_sup", "corollary1", "corollary2"):
            payload = json.loads((out / f"bound_{m}.json").read_text())
            assert payload["method"] == m
            assert all(0.0 <= v <= 1.0 for v in payload["bound"])
        t4 = json.loads((out / "bound_theorem4_sup.json").read_text())
        # thresholds are stored as absolute values, multiples of A
        A = t4["constants"]["A_TD"]
        np.testing.assert_allclose(t4["x"], [1.5 * A, 2.0 * A, 3.0 * A], rtol=1e-12)
        assert verify_manifest(out / "run_manifest.json") == []

    def test_unknown_method_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command_defaults": {"bounds": {"methods": ["theorem5"]}}}))
        assert run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_degenerate_bound_exits_one_with_payload(self, config_path, tmp_path, monkeypatch):
        def unavailable(*args, **kwargs):
            raise BoundUnavailable("entropy integral diverges")

        monkeypatch.setattr(cli, "theorem4_detail", unavailable)
        out = tmp_path / "deg"
        code = run_cli("bounds", "--config", str(config_path), "--out", str(out))
        assert code == 1
        payload = json.loads((out / "bounds_signals.json").read_text())
        assert "theorem4_sup" in payload["signals"]
        # the healthy methods still produced their reports
        assert (out / "bound_corollary2.json").exists()


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
        manifest = load_manifest(out / "run_manifest.json")
        assert manifest.command == "montecarlo"
        assert verify_manifest(out / "run_manifest.json") == []

    def test_tampering_is_detected(self, config_path, tmp_path):
        out = tmp_path / "mc2"
        run_cli("montecarlo", "--config", str(config_path), "--out", str(out))
        target = out / "result.csv"
        target.write_text(target.read_text().replace("0", "1", 1))
        problems = verify_manifest(out / "run_manifest.json")
        assert any("result.csv" in p for p in problems)


def test_env_var_sets_out_dir(config_path, tmp_path, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv("CORRELOGRAM_OUT", str(target))
    assert run_cli("check-kernel", "--config", str(config_path)) == 0
    assert (target / "conditions.json").exists()


def test_import_leaves_out_scipy_signal_and_stats():
    # scipy.signal pulls in scipy.stats; together they cost about 0.8 s of
    # every start and 25 MB of resident memory.
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = (
        "import sys, correlogram.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

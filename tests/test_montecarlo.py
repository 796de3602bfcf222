"""Replication harness: determinism, normality checks, aggregation."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
import scipy.special

import correlogram.montecarlo as mc
from correlogram.errors import ConsistencyError
from correlogram.kernels import make_hilbert_sinc, make_sinc
from correlogram.montecarlo import (
    ExperimentConfig,
    ci_coverage,
    empirical_sup_tail,
    jackknife_se,
    modulus_of_continuity,
    normality_test,
    run_replications,
    sample_limit_Z,
    sample_stationary_Y,
    write_result_csv,
    write_result_json,
    write_trajectories_csv,
)
from correlogram.bounds import theorem3_report
from correlogram.simulate import NoiseSeed


def small_experiment(**overrides):
    base = dict(
        h_spec={"name": "sinc"},
        g_family_spec={"name": "triangular"},
        T=20.0,
        delta=10.0,
        c=1.0,
        dt=0.05,
        tau_grid=(0.0, 0.5),
        replications=6,
        base_seed=NoiseSeed(314, 0),
        interval=(0.0, 0.5),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_quietly(cfg, workers=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_replications(cfg, workers=workers)


class TestConfig:
    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            small_experiment(replications=1)

    def test_interval_ordering(self):
        with pytest.raises(ValueError):
            small_experiment(interval=(1.0, 0.0))

    def test_kernels_built_from_specs(self):
        h, g = small_experiment().kernels()
        assert h.band_limit == pytest.approx(math.pi)
        assert g.time_eval(0.0) == pytest.approx(10.0)  # c * delta


class TestRunReplications:
    def test_shapes_and_aggregates(self):
        res = run_quietly(small_experiment())
        assert res.z_samples.shape == (6, 2)
        assert res.mean.shape == (2,)
        assert res.empirical_cov.shape == (2, 2)
        np.testing.assert_allclose(
            res.variance, np.diag(res.empirical_cov), rtol=1e-12
        )
        np.testing.assert_allclose(
            res.empirical_cov, np.cov(res.z_samples.T, ddof=1), rtol=1e-12
        )
        assert len(res.ks_results) == 2
        assert res.sup_samples.shape == (6,)
        # sup over the fine lattice dominates the coarse grid values
        assert np.all(res.sup_samples >= np.abs(res.z_samples).max(axis=1) - 1e-12)

    def test_worker_count_does_not_change_output(self):
        res1 = run_quietly(small_experiment(), workers=1)
        res3 = run_quietly(small_experiment(), workers=3)
        np.testing.assert_array_equal(res1.z_samples, res3.z_samples)
        np.testing.assert_array_equal(res1.z_fine, res3.z_fine)

    def test_leading_rows_stable_under_extension(self):
        # replication i is pinned to stream spawn(i)
        res6 = run_quietly(small_experiment())
        res3 = run_quietly(small_experiment(replications=3))
        np.testing.assert_array_equal(res6.z_samples[:3], res3.z_samples)


class TestNormalityTest:
    def test_null_draws_pass(self):
        rng = NoiseSeed(8).generator()
        rejections = 0
        for _ in range(40):
            stat, p = normality_test(rng.standard_normal(200), 1.0)
            rejections += p < 0.01
        assert rejections <= 3

    def test_wrong_scale_rejected(self):
        draws = 3.0 * NoiseSeed(9).generator().standard_normal(500)
        _, p = normality_test(draws, 1.0)
        assert p < 1e-6

    def test_matches_scipy_survival(self):
        # the hand-rolled Kolmogorov series against scipy's
        for t in (0.4, 0.8, 1.2, 2.0):
            assert mc._kolmogorov_sf(t) == pytest.approx(
                float(scipy.special.kolmogorov(t)), abs=1e-12
            )

    def test_degenerate_variance_measures_support(self):
        stat, p = normality_test(np.zeros(50), 0.0)
        assert (stat, p) == (0.0, 1.0)
        stat, p = normality_test(np.array([0.0, 1e-3]), 0.0)
        assert p == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normality_test(np.array([]), 1.0)


class TestExactSamplers:
    def test_limit_draws_match_gram(self):
        taus = [0.0, 0.5, 1.0]
        Z = sample_limit_Z(make_sinc(), taus, 20000, NoiseSeed(123))
        emp = np.cov(Z.T, ddof=1)
        want = np.array(
            [
                [2.0, 4.0 / math.pi, 0.0],
                [4.0 / math.pi, 1.0, float(np.sinc(0.5) + np.sinc(1.5))],
                [0.0, float(np.sinc(0.5) + np.sinc(1.5)), 1.0],
            ]
        )
        np.testing.assert_allclose(emp, want, atol=0.06)

    def test_hilbert_origin_is_pinned_to_zero(self):
        Z = sample_limit_Z(make_hilbert_sinc(), [0.0, 0.5], 200, NoiseSeed(5))
        assert np.max(np.abs(Z[:, 0])) < 1e-7

    def test_deterministic(self):
        a = sample_limit_Z(make_sinc(), [0.0, 1.0], 8, NoiseSeed(77))
        b = sample_limit_Z(make_sinc(), [0.0, 1.0], 8, NoiseSeed(77))
        np.testing.assert_array_equal(a, b)

    def test_inconsistent_gram_raises(self, monkeypatch):
        fake = {(0.0, 0.0): 1.0, (1.0, 1.0): 1.0, (0.0, 1.0): 2.0, (1.0, 0.0): 2.0}
        monkeypatch.setattr(mc, "cov_limit", lambda h, a, b: fake[(a, b)])
        with pytest.raises(ConsistencyError):
            sample_limit_Z(make_sinc(), [0.0, 1.0], 4, NoiseSeed(0))

    def test_stationary_draws_have_unit_variance(self):
        Y = sample_stationary_Y(make_sinc(), np.linspace(0, 1, 21), 4000, NoiseSeed(6))
        v = Y.var(axis=0, ddof=1)
        assert np.all(np.abs(v - 1.0) < 0.12)
        corr = np.corrcoef(Y[:, 0], Y[:, 10])[0, 1]
        assert corr == pytest.approx(2.0 / math.pi, abs=0.05)


class TestSupTail:
    def test_step_function_from_known_rows(self):
        tail = empirical_sup_tail(np.array([[0.0, 1.0], [2.0, 0.0], [0.5, 0.5]]))
        assert tail(0.4) == pytest.approx(1.0)
        assert tail(0.5) == pytest.approx(2.0 / 3.0)  # strictly greater than
        assert tail(1.0) == pytest.approx(1.0 / 3.0)
        assert tail(1.99) == pytest.approx(1.0 / 3.0)
        assert tail(2.0) == 0.0


def test_jackknife_of_mean_equals_standard_error():
    x = NoiseSeed(31).generator().standard_normal(40)
    want = x.std(ddof=1) / math.sqrt(40)
    assert jackknife_se(x, np.mean) == pytest.approx(want, rel=1e-9)


@pytest.fixture(scope="module")
def result():
    return run_quietly(small_experiment(replications=12))


class TestDownstreamTables:
    def test_coverage_rows(self, result):
        rep = theorem3_report([5.8067383035758137])
        rows = ci_coverage(
            result, [rep], pointwise_variances=np.ones(len(result.tau_grid))
        )
        assert all(set(r) >= {"method", "x", "empirical", "bound", "valid"} for r in rows)
        assert all(isinstance(r["valid"], bool) for r in rows)
        assert result.coverage is rows

    def test_modulus_rows_monotone_in_threshold(self, result):
        rows = modulus_of_continuity(result, [0.2], [0.5, 1.0, 2.0])
        probs = [r["probability"] for r in rows]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_modulus_requires_fine_lattice(self, result):
        with pytest.raises(ValueError):
            modulus_of_continuity(result, [result.lattice_spacing / 2], [1.0])

    def test_csv_and_json_round_trip(self, result, tmp_path):
        write_result_csv(result, tmp_path / "r.csv")
        write_result_json(result, tmp_path / "r.json")
        write_trajectories_csv(result, tmp_path / "t.csv", max_reps=3)

        payload = json.loads((tmp_path / "r.json").read_text())
        np.testing.assert_allclose(payload["variance"], result.variance, rtol=1e-12)
        assert payload["config"]["replications"] == 12

        header, *rows = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert header.split(",")[0] == "statistic"
        stats = {line.split(",")[0] for line in rows}
        assert {"mean_Z", "var_Z", "cov_Z", "ks_stat", "ks_p"} <= stats

        t_lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        # 3 replications over the fine lattice plus a header
        assert len(t_lines) == 1 + 3 * result.fine_taus.size

    @pytest.mark.parametrize("max_reps", [None, 0, -1, 5, 1000])
    def test_trajectories_bytes_match_csv_writer(
        self, result, tmp_path, csv_edge_column, csv_writer_bytes, max_reps
    ):
        # 90 x 97 = 8730 rows span many chunks, the last one partial
        taus = np.arange(97) / 3.0
        z = csv_edge_column(90 * 97).reshape(90, 97)
        res = dataclasses.replace(result, fine_taus=taus, z_fine=z)
        m = z.shape[0] if max_reps is None else min(max_reps, z.shape[0])
        rows = [[i, repr(float(t)), repr(float(v))] for i in range(m) for t, v in zip(taus, z[i])]
        write_trajectories_csv(res, tmp_path / "t.csv", max_reps=max_reps)
        want = csv_writer_bytes(["replication", "tau", "z"], rows)
        assert (tmp_path / "t.csv").read_bytes() == want

"""Replication harness: determinism, normality checks, aggregation."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

import correlogram.montecarlo as mc
from conftest import acceptance_experiment
from correlogram.errors import ConsistencyError
from correlogram.estimator import cross_correlogram, theoretical_bias
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
from correlogram.simulate import (
    _DIRECT_MAX_TAPS,
    ConvolutionPlan,
    NoiseSeed,
    required_pad,
    simulate_pair,
)


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


class TestReplicationEngine:
    """Each process reuses one PairSimulator for all of its replications."""

    @pytest.mark.parametrize(
        "h_spec, branch",
        [
            ({"name": "sinc"}, "fft"),
            ({"name": "hilbert_sinc"}, "fft"),
            ({"name": "triangular", "delta": 2.0, "c": 1.0}, "direct"),
        ],
        ids=["sinc", "hilbert_sinc", "triangular"],
    )
    def test_rows_equal_single_pair_runs(self, h_spec, branch):
        # M = 9 over two processes' shares: replications 0, 2, ..., 8 and 1, 3, ..., 7
        cfg = small_experiment(h_spec=h_spec, replications=9)
        res = run_quietly(cfg)
        np.testing.assert_array_equal(res.z_fine, run_quietly(cfg, workers=2).z_fine)
        h, g = cfg.kernels()
        taus = mc._lattice(cfg)
        grid = mc._sim_grid(cfg, taus)
        plan = ConvolutionPlan(h, grid, max(required_pad(k, cfg.dt) for k in (h, g)))
        assert ("fft" if plan.taps.size > _DIRECT_MAX_TAPS else "direct") == branch
        bias = theoretical_bias(h, g, cfg.c, taus)
        want = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(cfg.replications):
                Y, X = simulate_pair(h, g, grid, cfg.base_seed.spawn(i))
                want.append(math.sqrt(cfg.T) * (cross_correlogram(Y, X, cfg.c, cfg.T, taus) - bias))
        np.testing.assert_array_equal(res.z_fine, np.vstack(want))

    @pytest.mark.parametrize(
        "h_name, frozen",
        [
            (
                "sinc",
                [
                    [-0.5481752715991899, 0.28155671415655836, 0.9723765027917302],
                    [0.3811808696852314, 0.7056564483636921, 1.3842913882249894],
                    [-0.46834684066580934, -0.10014388200200235, 0.4796558773913323],
                ],
            ),
            (
                "hilbert_sinc",
                [
                    [-0.07616551344942611, -0.8233530554850699, -0.027899666857877523],
                    [0.03762683045225853, -0.37032086963351685, -0.1420094874620308],
                    [0.17606439010637986, -0.4596475061725194, -0.3570527412839025],
                ],
            ),
        ],
    )
    def test_acceptance_model_values_frozen(self, h_name, frozen):
        # Zhat at tau = 0, 0.5, 1 of replications 0, 4 and 8, as the harness
        # that rebuilt the taps for every replication computed them
        res = run_quietly(acceptance_experiment(h_name, 9))
        np.testing.assert_allclose(res.z_samples[[0, 4, 8]], frozen, rtol=1e-12, atol=0.0)

    def test_replication_working_set(self):
        # At the acceptance model one process's PairSimulator (the increment
        # row, the tap spectra and the 62k-point FFT buffers of both plans)
        # plus one replication's paths and window outputs peak at about
        # 3.8 MB, whatever the number of replications. Keeping each
        # replication's paths alive would add 0.8 MB per replication.
        cfg = acceptance_experiment("sinc", 4)
        h, g = cfg.kernels()
        taus = mc._lattice(cfg)
        bias = theoretical_bias(h, g, cfg.c, taus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tracemalloc.start()
            try:
                z = mc._replicate_share((cfg, taus, bias, 0, 1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert z.shape == (4, taus.size)
        assert peak < 4.5e6

    @pytest.mark.parametrize("workers, want", [(64, 12), (2, 2)])
    def test_pool_never_exceeds_replication_count(self, monkeypatch, workers, want):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
        cfg = small_experiment(replications=12)
        res = run_quietly(cfg, workers=workers)
        assert sizes == [want]
        np.testing.assert_array_equal(res.z_fine, run_quietly(cfg).z_fine)

    def test_failure_names_the_replication(self, monkeypatch):
        # also when the simulator cannot be built, before any replication ran
        def fail(*args):
            raise ValueError("no plan")

        monkeypatch.setattr(mc, "PairSimulator", fail)
        with pytest.raises(RuntimeError, match="replication 0 failed: no plan"):
            run_quietly(small_experiment())


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
        fake = np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(mc, "cov_limit", lambda h, a, b: fake[a.astype(int), b.astype(int)])
        with pytest.raises(ConsistencyError):
            sample_limit_Z(make_sinc(), [0.0, 1.0], 4, NoiseSeed(0))

    def test_inconsistent_stationary_gram_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "autocovariance_Y", lambda h, u: np.where(u == 0.0, 1.0, 2.0))
        with pytest.raises(ConsistencyError, match="stationary"):
            sample_stationary_Y(make_sinc(), [0.0, 1.0], 4, NoiseSeed(0))

    def test_gram_is_one_cov_limit_call(self, monkeypatch):
        calls, cov_limit = [], mc.cov_limit

        def counted(h, a, b):
            calls.append(np.shape(a))
            return cov_limit(h, a, b)

        monkeypatch.setattr(mc, "cov_limit", counted)
        Z = sample_limit_Z(make_sinc(), np.linspace(0.0, 2.0, 101), 3, NoiseSeed(1))
        assert Z.shape == (3, 101)
        assert calls == [(101 * 102 // 2,)]

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

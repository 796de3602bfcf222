"""Acceptance suite: one test per shipping criterion.

Every tolerance is pinned in the assertion itself, and each test's
pytest -v line is the pass/fail record for its criterion. The two
replication ensembles (session fixtures) pin base_seed 20260813; the
leading-rows slice of a larger ensemble is exactly the smaller one
because replication i always runs on stream spawn(i).
"""

import json
import math
import warnings

import numpy as np
import pytest

import correlogram.cli as cli
from correlogram.bounds import (
    corollary1_report,
    corollary2_report,
    solve_2k,
    theorem4_detail,
)
from correlogram.estimator import theoretical_bias
from correlogram.kernels import (
    family_from_name,
    make_hilbert_sinc,
    make_sinc,
    make_triangular,
)
from correlogram.montecarlo import (
    empirical_sup_tail,
    jackknife_se,
    normality_test,
    sample_limit_Z,
    sample_stationary_Y,
)
from correlogram.simulate import NoiseSeed
from correlogram.spectral import (
    CovarianceModel,
    cov_finite,
    cov_limit,
    fejer_l1_norm,
    msq_increment_Y,
    rho_exact,
    rho_upper,
    sigma,
)

SINC = make_sinc()
HILBERT = make_hilbert_sinc()


def _sinc(x):
    return float(np.sinc(x))


def test_criterion_01_limit_covariance_closed_forms():
    # C_inf(t1,t2) = sinc(t1-t2) +/- sinc(t1+t2), 9x9 grid over [0,2],
    # absolute tolerance 1e-8; the odd kernel pins C_inf(0,0) to 0.
    taus = np.linspace(0.0, 2.0, 9)
    worst = 0.0
    for t1 in taus:
        for t2 in taus:
            plus = cov_limit(SINC, float(t1), float(t2))
            minus = cov_limit(HILBERT, float(t1), float(t2))
            worst = max(
                worst,
                abs(plus - (_sinc(t1 - t2) + _sinc(t1 + t2))),
                abs(minus - (_sinc(t1 - t2) - _sinc(t1 + t2))),
            )
    assert worst <= 1e-8
    assert abs(cov_limit(HILBERT, 0.0, 0.0)) <= 1e-8


def test_criterion_02_fejer_normalization():
    for T in (1.0, 10.0, 100.0, 1000.0):
        assert abs(fejer_l1_norm(T) - 1.0) < 1e-6


def test_criterion_03_rho_inequality_random_pairs():
    # rho_exact <= rho_upper on 50 uniform pairs in [0,1]^2 at both
    # (T, delta) settings; slack 1e-9 absorbs quadrature noise only.
    rng = np.random.default_rng(20260813)
    pairs = rng.uniform(0.0, 1.0, size=(50, 2))
    for T, delta in ((50.0, 10.0), (500.0, 100.0)):
        model = CovarianceModel(h=SINC, g=make_triangular(delta, 1.0), c=1.0)
        rho = rho_exact(model, T, pairs[:, 0], pairs[:, 1])
        for (t1, t2), re in zip(pairs, rho):
            ru = rho_upper(SINC, 1.0, 1.0, float(t1), float(t2))
            assert re <= ru + 1e-9, (T, delta, t1, t2, re, ru)


def test_criterion_04_increment_majorisation():
    # d_Z^2 <= (4/pi) sigma^2 and E|Z inc|^2 <= 2 E|Y inc|^2 on a
    # 5x4 lag grid for both kernels; violations capped at 1e-8.
    grid = [(t1, t2) for t1 in np.linspace(0.0, 2.0, 5) for t2 in np.linspace(0.1, 1.9, 4)]
    assert len(grid) == 20
    for h in (SINC, HILBERT):
        for t1, t2 in grid:
            d2 = (
                cov_limit(h, t1, t1)
                + cov_limit(h, t2, t2)
                - 2.0 * cov_limit(h, t1, t2)
            )
            s2 = sigma(h, t2 - t1) ** 2
            assert d2 <= (4.0 / math.pi) * s2 + 1e-8
            assert d2 <= 2.0 * msq_increment_Y(h, t1, t2) + 1e-8


def _cov_entry_se(Z, i, j):
    return jackknife_se(Z, lambda rows: float(np.cov(rows[:, i], rows[:, j], ddof=1)[0, 1]))


def test_criterion_05_finite_horizon_covariance(sinc_tri_ensemble):
    # empirical Cov(Z(t1), Z(t2)) over M=500 at T=500, delta=100,
    # dt=0.01 vs cov_finite, within 3 jackknife standard errors.
    Z = sinc_tri_ensemble.z_samples[:500]
    taus = sinc_tri_ensemble.tau_grid
    emp = np.cov(Z.T, ddof=1)
    model = CovarianceModel(h=SINC, g=make_triangular(100.0, 1.0), c=1.0)
    for i in range(3):
        for j in range(i, 3):
            truth = cov_finite(model, 500.0, float(taus[i]), float(taus[j]))
            se = _cov_entry_se(Z, i, j)
            assert abs(emp[i, j] - truth) <= 3.0 * se, (i, j, emp[i, j], truth, se)


def test_criterion_06_normal_limit(sinc_tri_ensemble, hilbert_tri_ensemble):
    Z = sinc_tri_ensemble.z_samples[:500]
    # KS against the limit normal at lags 0 and 0.5; acceptance line
    # is p > 0.01 at M=500
    for j, tau in ((0, 0.0), (1, 0.5)):
        _, p = normality_test(Z[:, j], cov_limit(SINC, tau, tau))
        assert p > 0.01, (tau, p)
    var0 = float(np.var(Z[:, 0], ddof=1))
    assert 1.7 <= var0 <= 2.3
    var0_h = float(np.var(hilbert_tri_ensemble.z_samples[:, 0], ddof=1))
    assert var0_h < 0.15


def test_criterion_07_bias_decay_along_delta():
    taus = np.linspace(0.0, 1.0, 21)
    for family in (family_from_name(name, 1.0) for name in ("triangular", "laplace")):
        sups = []
        for delta in (5.0, 50.0, 500.0):
            g = family(delta)
            sups.append(
                max(
                    abs(theoretical_bias(SINC, g, 1.0, float(t)) - SINC.time_eval(float(t)))
                    for t in taus
                )
            )
        assert sups[0] > sups[1] > sups[2], (family.family_name, sups)


def test_criterion_08_bounds_dominate_empirical_tails(sinc_tri_ensemble):
    res = sinc_tri_ensemble
    M = res.z_samples.shape[0]
    assert M == 1000
    model = CovarianceModel(h=SINC, g=make_triangular(100.0, 1.0), c=1.0)

    # (a) pointwise 90% intervals: violation rate at most 0.10 per lag
    u90 = solve_2k(0.1)
    for j, tau in enumerate(res.tau_grid):
        var = cov_finite(model, 500.0, float(tau), float(tau))
        rate = float(np.mean(np.abs(res.z_samples[:, j]) > u90 * math.sqrt(var)))
        assert rate <= 0.10, (tau, rate)

    # (b) entropy sup bound at x = 1.5A, 2A, 3A
    detail = theorem4_detail(model, 500.0, 0.0, 1.0, 0.5)
    A = detail["A_TD"]
    for m in (1.5, 2.0, 3.0):
        emp = res.sup_survival(m * A)
        se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / M)
        assert 2.0 * math.exp(-m) >= emp - 3.0 * se

    # (c) comparison corollaries at x = 4, 6, 8, with the Y-sup tail
    # calibrated from exact stationary draws
    draws = sample_stationary_Y(
        SINC, np.linspace(0.0, 1.0, 101), 2000, NoiseSeed(20260813, 10**6)
    )
    y_tail = empirical_sup_tail(draws)
    xs = [4.0, 6.0, 8.0]
    for report in (
        corollary1_report(SINC, 0.0, 1.0, xs, 0.5, y_tail),
        corollary2_report(SINC, 0.0, 1.0, xs, y_tail),
    ):
        for x, bound in zip(report.x_values, report.bound_values):
            emp = res.sup_survival(float(x))
            se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / M)
            assert bound >= emp - 3.0 * se, (report.method, x, bound, emp)


def test_criterion_09_exact_limit_sampler():
    taus = [0.0, 0.5, 1.0]
    Z = sample_limit_Z(SINC, taus, 10_000, NoiseSeed(20260813, 7))
    emp = np.cov(Z.T, ddof=1)
    want = np.array(
        [[_sinc(a - b) + _sinc(a + b) for b in taus] for a in taus]
    )
    # "within 5%" reads as relative where the target is away from zero;
    # the C(0,1) = 0 entry uses the same 0.05 slack on an absolute scale
    # (5% of a unit variance), since a relative error at 0 is undefined.
    tol = 0.05 * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(emp - want) <= tol), (emp, want)


def test_criterion_10_worker_count_determinism(tmp_path):
    cfg = {
        "h": {"name": "sinc"},
        "g_family": {"name": "triangular"},
        "c": 1.0,
        "delta": 10.0,
        "dt": 0.02,
        "T": 40.0,
        "interval": [0.0, 1.0],
        "tau_grid": [0.0, 0.5, 1.0],
        "base_seed": {"seed": 20260813, "stream_id": 0},
        "command_defaults": {"montecarlo": {"replications": 12}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main([
                "montecarlo", "--config", str(cfg_path), "--out", str(out),
                "--workers", str(workers), "--emit-paths",
            ])
        assert code == 0
        outs[workers] = out

    data_files = sorted(
        p.name for p in outs[1].iterdir() if p.name != "run_manifest.json"
    )
    assert data_files  # the run produced output
    for name in data_files:
        assert (outs[1] / name).read_bytes() == (outs[4] / name).read_bytes(), name
    m1 = json.loads((outs[1] / "run_manifest.json").read_text())
    m4 = json.loads((outs[4] / "run_manifest.json").read_text())
    m1.pop("timestamps")
    m4.pop("timestamps")
    assert m1 == m4

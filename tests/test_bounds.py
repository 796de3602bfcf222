"""Tail bounds: the K function, interval constants, the chaining bound."""

import json
import math
import warnings

import numpy as np
import pytest

import correlogram.bounds as bounds_mod
from correlogram.bounds import (
    TailBoundReport,
    acf2_interval_min,
    b_function,
    b_sup,
    corollary1_bound,
    corollary1_report,
    corollary2_bound,
    corollary2_report,
    k_of_x,
    pointwise_ci,
    solve_2k,
    theorem3_report,
    theorem4_bound,
    theorem4_detail,
)
from correlogram.entropy import Pseudometric
from correlogram.kernels import make_sinc, make_triangular
from correlogram.spectral import CovarianceModel


def _count_autocorrelation(monkeypatch) -> list:
    calls = []
    real = bounds_mod.autocorrelation

    def counting(h, lag):
        calls.append(lag)
        return real(h, lag)

    monkeypatch.setattr(bounds_mod, "autocorrelation", counting)
    return calls


class TestKFunction:
    def test_frozen_values(self):
        assert k_of_x(0.0) == pytest.approx(1.0, rel=1e-15)
        assert k_of_x(1.0) == pytest.approx(0.76611730009897179, rel=1e-12)
        assert k_of_x(10.0) == pytest.approx(0.0033049723770215043, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 20.0, 401)
        vals = [k_of_x(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            k_of_x(-0.1)

    def test_inverse_frozen_roots(self):
        assert solve_2k(1.0) == pytest.approx(1.9039801346349486, abs=1e-9)
        assert solve_2k(0.1) == pytest.approx(5.8067383035758137, abs=1e-9)

    def test_inverse_round_trip(self):
        for target in (0.05, 0.4, 1.5, 2.0):
            x = solve_2k(target)
            assert 2.0 * k_of_x(x) == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 2.5])
    def test_inverse_domain(self, bad):
        with pytest.raises(ValueError):
            solve_2k(bad)


class TestPointwiseCI:
    def test_half_width_formula(self):
        got = pointwise_ci(2.0, 500.0, 0.9)
        assert got == pytest.approx(solve_2k(0.1) * math.sqrt(2.0 / 500.0), rel=1e-12)

    def test_zero_variance_warns_and_collapses(self):
        with pytest.warns(RuntimeWarning, match="variance vanishes"):
            assert pointwise_ci(0.0, 100.0, 0.9) == 0.0

    def test_confidence_domain(self):
        with pytest.raises(ValueError):
            pointwise_ci(1.0, 10.0, 1.0)


class TestIntervalConstants:
    def test_acf2_minimum_frozen(self):
        # critical point of sinc(2 tau) on [0,1]: 2 tau = 1.4302966531242028
        h = make_sinc()
        tau_star = 1.4302966531242028 / 2.0
        assert acf2_interval_min(h, 0.0, 1.0) == pytest.approx(
            -0.21723362821122166, abs=1e-10
        )
        assert b_function(h, 0.0, 1.0, tau_star) == pytest.approx(0.0, abs=1e-6)

    def test_b_at_zero_frozen(self):
        assert b_function(make_sinc(), 0.0, 1.0, 0.0) == pytest.approx(
            math.sqrt(1.2172336282112217), rel=1e-9
        )

    def test_b_sup_matches_scan(self):
        h = make_sinc()
        m = acf2_interval_min(h, 0.0, 1.0)
        assert b_function(h, 0.0, 1.0, 0.3) == b_function(h, 0.0, 1.0, 0.3, interval_min=m)
        taus = np.linspace(0.0, 1.0, 501)
        scan = max(b_function(h, 0.0, 1.0, float(t), interval_min=m) for t in taus)
        assert b_sup(h, 0.0, 1.0) == pytest.approx(scan, abs=1e-6)

    def test_b_sup_scans_the_interval_once(self, monkeypatch):
        calls = _count_autocorrelation(monkeypatch)
        b_sup(make_sinc(), 0.0, 1.0, grid=801)
        # one 801-point scan plus the two local polishes
        assert 801 < len(calls) < 2 * 801

    def test_tau_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            b_function(make_sinc(), 0.0, 1.0, 1.5)


class TestCorollary2:
    def test_arithmetic(self):
        h = make_sinc()
        y_tail = lambda u: math.exp(-u)
        x = 3.0
        B = 16.0 * h.l2_norm**2 - 16.0 * acf2_interval_min(h, 0.0, 1.0)
        want = 2.0 * math.exp(-x / (2.0 * math.sqrt(2.0))) + 4.0 * math.exp(-x * x / B)
        assert corollary2_bound(h, 0.0, 1.0, x, y_tail) == pytest.approx(want, rel=1e-9)

    def test_nonpositive_gaussian_scale_warns(self, monkeypatch):
        h = make_sinc()
        monkeypatch.setattr(bounds_mod, "acf2_interval_min", lambda *a, **k: h.l2_norm**2 + 1.0)
        with pytest.warns(RuntimeWarning):
            val = corollary2_bound(h, 0.0, 1.0, 2.0, lambda u: 0.5)
        assert val == pytest.approx(1.0)  # only the Y-tail term survives

    def test_report_constants(self):
        h = make_sinc()
        rep = corollary2_report(h, 0.0, 1.0, [4.0, 6.0, 8.0], lambda u: math.exp(-u))
        assert rep.method == "corollary2"
        assert rep.constants["B_ab"] == pytest.approx(19.475738051379547, rel=1e-9)
        assert np.all(rep.bound_values <= 1.0)

    def test_report_scans_the_interval_once(self, monkeypatch):
        calls = _count_autocorrelation(monkeypatch)
        corollary2_report(make_sinc(), 0.0, 1.0, [4.0, 6.0, 8.0], lambda u: math.exp(-u))
        assert 801 < len(calls) < 2 * 801


class TestCorollary1:
    def test_gamma_one_keeps_full_gaussian_term(self):
        # erfc(0) = 1: with all the threshold on the Y part, the
        # comparison term cannot help.
        h = make_sinc()
        val = corollary1_bound(h, 0.0, 1.0, 5.0, 1.0, lambda u: 0.0, sup_b=1.1)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_b_drops_gaussian_term(self):
        h = make_sinc()
        val = corollary1_bound(h, 0.0, 1.0, 5.0, 0.5, lambda u: 0.25, sup_b=0.0)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_formula(self):
        h = make_sinc()
        x, gamma, sup = 4.0, 0.6, 1.2
        y_tail = lambda u: math.exp(-(u**2))
        want = 2.0 * y_tail(gamma * x / math.sqrt(2.0)) + math.erfc(
            (1.0 - gamma) * x / (math.sqrt(2.0) * sup)
        )
        got = corollary1_bound(h, 0.0, 1.0, x, gamma, y_tail, sup_b=sup)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            corollary1_bound(make_sinc(), 0.0, 1.0, 1.0, 1.2, lambda u: 0.0, sup_b=1.0)

    def test_report_computes_sup_b(self):
        h = make_sinc()
        rep = corollary1_report(h, 0.0, 1.0, [4.0, 8.0], 0.5, lambda u: 0.0)
        assert rep.constants["sup_b"] == pytest.approx(b_sup(h, 0.0, 1.0), rel=1e-9)


class TestTheorem4:
    def setup_method(self):
        self.model = CovarianceModel(
            h=make_sinc(), g=make_triangular(10.0, 1.0), c=1.0
        )

    def test_detail_structure(self):
        detail = theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5, var_grid=9)
        for key in ("A_TD", "C_r", "eps_TD", "sup_rho", "inf_varZ", "theta_star"):
            assert key in detail
        assert detail["A_TD"] > 0
        assert 0 < detail["theta_star"] < 1
        assert detail["C_r"] == pytest.approx(0.77258872223978124, rel=1e-12)
        assert detail["inf_varZ"] >= 0

    def test_bound_is_two_exp(self):
        detail = theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5, var_grid=9)
        A = detail["A_TD"]
        got = theorem4_bound(self.model, 50.0, 0.0, 0.4, 0.5, 3.0 * A)
        assert got == pytest.approx(2.0 * math.exp(-3.0), rel=1e-6)

    def test_vanishing_metric_is_unavailable(self):
        from correlogram.errors import BoundUnavailable

        zero = Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: 0.0,
            translation_invariant=True,
            profile_fn=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        )
        with pytest.raises(BoundUnavailable):
            theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5, metric=zero, var_grid=5)

    def test_flat_metric_warns_empty_theta(self):
        # distance jumps to 1 beyond separation 0.1: never more than two
        # balls are needed, so the massiveness constraint has no solution
        def profile(u):
            return (np.asarray(u, dtype=float) >= 0.1).astype(float)

        flat = Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: float(abs(s - t) >= 0.1),
            translation_invariant=True,
            profile_fn=profile,
        )
        with pytest.warns(RuntimeWarning, match="massiveness"):
            detail = theorem4_detail(
                self.model, 50.0, 0.0, 0.4, 0.5, metric=flat, var_grid=5
            )
        assert detail["theta_empty"]
        assert math.isfinite(detail["A_TD"])


class TestReports:
    def test_theorem3_values(self):
        rep = theorem3_report([1.0, 10.0])
        np.testing.assert_allclose(
            rep.bound_values,
            [1.0, 2.0 * 0.0033049723770215043],
            rtol=1e-9,
        )
        assert rep.constants["raw_bounds"][0] == pytest.approx(
            2.0 * 0.76611730009897179, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown bound method"):
            TailBoundReport(
                method="nope", x_values=np.array([1.0]), bound_values=np.array([0.5])
            )
        with pytest.raises(ValueError, match="ascending"):
            TailBoundReport(
                method="corollary2",
                x_values=np.array([2.0, 1.0]),
                bound_values=np.array([0.5, 0.5]),
            )
        with pytest.raises(ValueError, match="lie in"):
            TailBoundReport(
                method="corollary2",
                x_values=np.array([1.0]),
                bound_values=np.array([1.5]),
            )

    def test_json_payload(self, tmp_path):
        rep = theorem3_report([1.0, 2.0], settings={"note": "unit"})
        target = tmp_path / "rep.json"
        rep.to_json(target)
        payload = json.loads(target.read_text())
        assert payload["method"] == "theorem3_pointwise"
        assert payload["settings"]["note"] == "unit"
        assert len(payload["x"]) == len(payload["bound"]) == 2

"""Tail bounds: the K function, interval constants, the chaining bound."""

import json
import math
import warnings

import numpy as np
import pytest

import correlogram.bounds as bounds_mod
import correlogram.entropy as entropy_mod
from correlogram.bounds import (
    TailBoundReport,
    acf2_interval_min,
    b_sup,
    corollary1_bound,
    corollary1_report,
    corollary2_bound,
    corollary2_report,
    k_of_x,
    pointwise_ci,
    rice_sup_tail,
    solve_2k,
    theorem3_report,
    theorem4_detail,
    theorem4_report,
)
from correlogram.entropy import (
    Pseudometric,
    covering_number,
    entropy_integral,
    rho_exact_metric,
    rho_upper_metric,
)
from correlogram.errors import BoundUnavailable
from correlogram.kernels import (
    autocorrelation,
    make_hilbert_sinc,
    make_laplace,
    make_one_sided_box,
    make_sinc,
    make_tabulated,
    make_triangular,
)
from correlogram.montecarlo import sample_stationary_Y
from correlogram.quadrature import sup_ftf
from correlogram.simulate import NoiseSeed
import correlogram.spectral as spectral_mod
from correlogram.spectral import CovarianceModel


def _b(h, a, b, tau):
    """Comparison scale b(tau) = sqrt((h*h)(2 tau) - inf_[a,b] (h*h)(2 .))."""
    sq = autocorrelation(h, 2.0 * np.asarray(tau)) - acf2_interval_min(h, a, b)
    return np.sqrt(np.maximum(sq, 0.0))


def _count_autocorrelation(monkeypatch) -> list:
    calls = []
    real = bounds_mod.autocorrelation

    def counting(h, lag):
        calls.extend(np.ravel(lag))
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
        assert _b(h, 0.0, 1.0, tau_star) == pytest.approx(0.0, abs=1e-6)

    def test_b_at_zero_frozen(self):
        assert _b(make_sinc(), 0.0, 1.0, 0.0) == pytest.approx(
            math.sqrt(1.2172336282112217), rel=1e-9
        )

    def test_b_sup_matches_scan(self):
        h = make_sinc()
        scan = np.max(_b(h, 0.0, 1.0, np.linspace(0.0, 1.0, 501)))
        assert b_sup(h, 0.0, 1.0) == pytest.approx(scan, abs=1e-6)

    def test_b_sup_scans_the_interval_once(self, monkeypatch):
        calls = _count_autocorrelation(monkeypatch)
        b_sup(make_sinc(), 0.0, 1.0)
        # one 801-point scan plus the two local polishes
        assert 801 < len(calls) < 2 * 801

    def test_polish_reaches_smooth_extremum(self):
        # exp(x) - 2x: interior minimum 2 - 2 ln 2 at ln 2, maximum 1 at 0
        f = lambda x: np.exp(x) - 2.0 * x
        xs = np.linspace(0.0, 1.0, 33)
        lo = bounds_mod._polish(f, xs, f(xs), +1.0)
        assert lo == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-9)
        assert lo <= np.min(f(xs))
        assert bounds_mod._polish(f, xs, f(xs), -1.0) == 1.0
        # the least sample is the first, the minimum a third of a step inside
        xs = np.linspace(math.log(2.0) - 0.006, 1.3, 33)
        assert np.argmin(f(xs)) == 0
        lo = bounds_mod._polish(f, xs, f(xs), +1.0)
        assert lo == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-9)


class TestCorollary2:
    def test_arithmetic(self):
        h = make_sinc()
        y_tail = lambda u: math.exp(-u)
        x = 3.0
        B = 16.0 * h.l2_norm**2 - 16.0 * acf2_interval_min(h, 0.0, 1.0)
        want = 2.0 * math.exp(-x / (2.0 * math.sqrt(2.0))) + 4.0 * math.exp(-x * x / B)
        assert corollary2_bound(x, y_tail, B) == pytest.approx(want, rel=1e-9)

    def test_nonpositive_gaussian_scale_warns(self):
        with pytest.warns(RuntimeWarning):
            val = corollary2_bound(2.0, lambda u: 0.5, -16.0)
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
        val = corollary1_bound(5.0, 1.0, lambda u: 0.0, sup_b=1.1)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_b_drops_gaussian_term(self):
        val = corollary1_bound(5.0, 0.5, lambda u: 0.25, sup_b=0.0)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_formula(self):
        x, gamma, sup = 4.0, 0.6, 1.2
        y_tail = lambda u: math.exp(-(u**2))
        want = 2.0 * y_tail(gamma * x / math.sqrt(2.0)) + math.erfc(
            (1.0 - gamma) * x / (math.sqrt(2.0) * sup)
        )
        got = corollary1_bound(x, gamma, y_tail, sup_b=sup)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            corollary1_bound(1.0, 1.2, lambda u: 0.0, sup_b=1.0)

    def test_report_computes_sup_b(self):
        h = make_sinc()
        rep = corollary1_report(h, 0.0, 1.0, [4.0, 8.0], 0.5, lambda u: 0.0)
        assert rep.constants["sup_b"] == pytest.approx(b_sup(h, 0.0, 1.0), rel=1e-9)


class TestRiceTail:
    @pytest.mark.parametrize("make", [make_sinc, make_hilbert_sinc])
    def test_lambda2_of_a_unit_band(self, make):
        # (1/pi) int_0^pi lam^2 dlam, by the general quadrature
        assert rice_sup_tail(make(), 0.0, 1.0, 1).lambda2 == pytest.approx(math.pi**2 / 3, rel=1e-15)

    def test_formula(self):
        a, b, u = 0.2, 3.0, 2.5
        want = 0.5 * math.erfc(u / math.sqrt(2.0)) + (b - a) / (2.0 * math.pi) * math.sqrt(
            math.pi**2 / 3) * math.exp(-u * u / 2.0)
        assert rice_sup_tail(make_sinc(), a, b, 1)(u) == pytest.approx(want, rel=1e-14)
        assert rice_sup_tail(make_sinc(), a, b, 2)(u) == pytest.approx(2.0 * want, rel=1e-14)

    @pytest.mark.parametrize("h", [
        make_laplace(1.0, 1.0),
        make_triangular(10.0, 1.0),
        make_one_sided_box(10.0, 1.0),
        make_tabulated([0.0, 0.5, 1.0], [1.0, 2.0, 0.5]),
    ], ids=lambda h: h.name)
    def test_no_band_limit_is_unavailable(self, h):
        # lam^2 |h*|^2 decays like lam^-2 or not at all, so no truncated
        # integral bounds lambda2
        with pytest.raises(BoundUnavailable, match="band-limited"):
            rice_sup_tail(h, 0.0, 1.0, 2)

    @pytest.mark.parametrize("make", [make_sinc, make_hilbert_sinc])
    def test_bounds_the_tail_of_exact_draws(self, make):
        # 40 000 exact draws of Y on 401 points of [0, 1], in 8 chunks on
        # their own streams; the thresholds are those that the corollaries
        # read at the default x_grid with gamma = 0.5, x / (2 sqrt 2)
        h = make()
        sups, sup_abs = [], []
        for k in range(8):
            Y = sample_stationary_Y(h, np.linspace(0.0, 1.0, 401), 5000, NoiseSeed(20261020).spawn(k))
            sups.append(Y.max(axis=1))
            sup_abs.append(np.abs(Y).max(axis=1))
        for sides, sup in ((1, np.concatenate(sups)), (2, np.concatenate(sup_abs))):
            tail = rice_sup_tail(h, 0.0, 1.0, sides)
            for x in (1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
                u = x / (2.0 * math.sqrt(2.0))
                emp = float(np.mean(sup > u))
                se = math.sqrt(emp * (1.0 - emp) / sup.size)
                assert tail(u) >= emp - 3.0 * se, (sides, u, tail(u), emp)
                if u >= 2.0:  # tight in the far tail
                    assert tail(u) == pytest.approx(emp, rel=0.1), (sides, u, tail(u), emp)


class TestTheorem4:
    def setup_method(self):
        self.model = CovarianceModel(
            h=make_sinc(), g=make_triangular(10.0, 1.0), c=1.0
        )

    def test_detail_structure(self):
        detail = theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5)
        for key in ("A_TD", "C_r", "eps_TD", "sup_rho", "inf_varZ", "theta_star"):
            assert key in detail
        assert detail["A_TD"] > 0
        assert 0 < detail["theta_star"] < 1
        assert detail["C_r"] == pytest.approx(0.77258872223978124, rel=1e-12)
        assert detail["inf_varZ"] >= 0

    def _count_cov_finite(self, monkeypatch) -> list:
        # batch sizes of every cov_finite call, direct or through rho_exact
        calls = []
        real = spectral_mod.cov_finite

        def counting(model, T, tau1, tau2):
            calls.append(np.size(tau1))
            return real(model, T, tau1, tau2)

        monkeypatch.setattr(bounds_mod, "cov_finite", counting)
        monkeypatch.setattr(spectral_mod, "cov_finite", counting)
        return calls

    def test_variance_scan_and_polish_are_two_calls(self, monkeypatch):
        calls = self._count_cov_finite(monkeypatch)
        theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5)
        # the 33-lag scan, then one refinement batch of at most 9 lags
        assert len(calls) == 2
        assert calls[0] == 33 and calls[1] <= 9

    def test_exact_metric_is_three_calls(self, monkeypatch):
        calls = self._count_cov_finite(monkeypatch)
        metric = rho_exact_metric(self.model, 50.0)
        detail = theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5, metric=metric)
        # the distance matrix (the variance of each of the 257 grid points,
        # then every pair), the variance scan and its polish; sup_rho, the
        # entropy table and every theta_bar round read the cached matrix
        assert len(calls) == 3
        assert calls[:2] == [257 + 257 * 256 // 2, 33] and calls[2] <= 9
        assert detail["sup_rho"] == metric.matrix(0.0, 0.4).max()
        assert detail["A_TD"] > 0

    def test_bound_is_two_exp(self):
        detail = theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5)
        rep = theorem4_report(detail, [3.0])
        assert rep.x_values[0] == pytest.approx(3.0 * detail["A_TD"], rel=1e-12)
        assert rep.constants["raw_bounds"][0] == pytest.approx(2.0 * math.exp(-3.0), rel=1e-6)

    def test_vanishing_metric_is_unavailable(self):
        from correlogram.errors import BoundUnavailable

        zero = Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: 0.0 * np.subtract(t, s),
            translation_invariant=True,
        )
        with pytest.raises(BoundUnavailable):
            theorem4_detail(self.model, 50.0, 0.0, 0.4, 0.5, metric=zero)

    def test_flat_metric_warns_empty_theta(self):
        # distance jumps to 1 beyond separation 0.1: never more than two
        # balls are needed, so the massiveness constraint has no solution
        flat = Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: (np.abs(np.subtract(t, s)) >= 0.1).astype(float),
            translation_invariant=True,
        )
        with pytest.warns(RuntimeWarning, match="massiveness"):
            detail = theorem4_detail(
                self.model, 50.0, 0.0, 0.4, 0.5, metric=flat
            )
        assert detail["theta_empty"]
        assert math.isfinite(detail["A_TD"])


# A_TD of the acceptance model (sinc, triangular(100, 1), T=500, [0, 1],
# r=1/2) from the scalar bisections the batched covering numbers replaced
_SCALAR_A_TD = 107.78273583683674


@pytest.fixture(scope="class")
def acceptance_theorem4():
    """theorem4_detail on the acceptance model, with its covering_number and
    dist calls counted."""
    model = CovarianceModel(h=make_sinc(), g=make_triangular(100.0, 1.0), c=1.0)
    metric = rho_upper_metric(model.h, sup_ftf(model.g), model.c)
    dist_calls, covering_calls = [], []

    def dist(t1, t2):
        dist_calls.append(np.size(t2))
        return metric.dist(t1, t2)

    def counting_cover(*args):
        covering_calls.append(np.size(args[3]))
        return covering_number(*args)

    counted = Pseudometric(metric.kind, dist, True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds_mod, "rho_upper_metric", lambda *args: counted)
        mp.setattr(entropy_mod, "covering_number", counting_cover)
        detail = theorem4_detail(model, 500.0, 0.0, 1.0, 0.5)
    return detail, metric, covering_calls, dist_calls


def _warped(s, t):
    # |f(t) - f(s)| for a non-monotone warp f: not translation invariant
    f = lambda x: np.sqrt(x) + 0.3 * np.sin(7.0 * np.asarray(x))
    return np.abs(f(t) - f(s))


class TestTheorem4Acceptance:
    def test_covering_work_is_batched(self, acceptance_theorem4):
        _, _, covering_calls, dist_calls = acceptance_theorem4
        # the 301-radius entropy table is the only covering_number call;
        # theta_bar reads the profile table plus one dist call
        assert covering_calls == [301]
        assert len(dist_calls) <= 62

    def test_no_cos_or_sin_of_an_all_zero_angle_array(self, monkeypatch):
        all_zero = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def cos(self, x, *args, **kwargs):
                all_zero.append(not np.any(x))
                return np.cos(x, *args, **kwargs)

            def sin(self, x, *args, **kwargs):
                all_zero.append(not np.any(x))
                return np.sin(x, *args, **kwargs)

        model = CovarianceModel(h=make_sinc(), g=make_triangular(100.0, 1.0), c=1.0)
        monkeypatch.setattr(spectral_mod, "np", RecordingNumpy())
        theorem4_detail(model, 500.0, 0.0, 1.0, 0.5)
        assert all_zero and not any(all_zero)

    def test_a_td_matches_scalar_bisections(self, acceptance_theorem4):
        detail = acceptance_theorem4[0]
        assert detail["A_TD"] == pytest.approx(_SCALAR_A_TD, rel=1e-9)
        assert not detail["theta_empty"]

    def test_theta_bar_brackets_the_flip(self, acceptance_theorem4):
        model = CovarianceModel(h=make_sinc(), g=make_triangular(100.0, 1.0), c=1.0)
        rho_upper = acceptance_theorem4[1]
        warped = Pseudometric("warped", _warped, translation_invariant=False)
        for metric, a, b in [(rho_upper, 0.0, 1.0), (rho_upper, 0.2, 3.0), (rho_upper, 0.0, 0.4),
                             (warped, 0.0, 1.0), (warped, 0.2, 3.0)]:
            detail = theorem4_detail(model, 500.0, a, b, 0.5, metric=metric)
            theta_bar, eps_TD = detail["theta_bar"], detail["eps_TD"]
            assert not detail["theta_empty"]
            assert detail["theta_star"] <= theta_bar
            assert covering_number(metric, a, b, theta_bar * eps_TD) >= 7, (metric.kind, a, b)
            assert covering_number(metric, a, b, (theta_bar + 1e-10) * eps_TD) <= 6, (metric.kind, a, b)

    def test_table_names_the_largest_blow_up_radius(self):
        # massive below 1: the table's first radius is 1, the second the largest failing one
        jump = Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: np.not_equal(s, t).astype(float),
            translation_invariant=True,
        )
        largest = float(np.geomspace(1.0, 1e-6, 301)[1])
        with pytest.raises(BoundUnavailable, match=f"eps={largest:g} "):
            entropy_integral(jump, 0.0, 1.0, 1.0)


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
        rep = theorem3_report([1.0, 2.0])
        target = tmp_path / "rep.json"
        rep.to_json(target, {"note": "unit"})
        payload = json.loads(target.read_text())
        assert payload["method"] == "theorem3_pointwise"
        assert payload["settings"]["note"] == "unit"
        assert len(payload["x"]) == len(payload["bound"]) == 2

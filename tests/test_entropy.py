"""Pseudometrics, covering numbers, entropy integrals, Orlicz constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from correlogram.entropy import (
    EntropyProfile,
    Pseudometric,
    c_r,
    covering_number,
    entropy_integral,
    entropy_profile,
    epsilon_T_delta,
    greedy_covering_radius,
    pseudometric_axioms,
    rho_exact_metric,
    rho_upper_metric,
    sigma_metric,
    sqrt_sigma_metric,
    uniform_metric,
)
from correlogram.errors import InfiniteMassiveness
from correlogram.kernels import make_sinc, make_triangular
from correlogram.simulate import _CSV_CHUNK_ROWS
from correlogram.spectral import CovarianceModel, sigma


class TestUniformMetric:
    @pytest.mark.parametrize("eps,want", [(0.25, 2), (0.5, 1), (0.1, 5)])
    def test_unit_interval_counts(self, eps, want):
        assert covering_number(uniform_metric(), 0.0, 1.0, eps) == want

    @given(eps=st.floats(0.01, 2.0), span=st.floats(0.1, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_ceiling_formula(self, eps, span):
        n = covering_number(uniform_metric(), 0.0, span, eps)
        assert n == max(1, math.ceil(span / (2.0 * eps) - 1e-9))

    def test_monotone_in_eps(self):
        p = uniform_metric()
        counts = [covering_number(p, 0.0, 3.0, e) for e in (0.1, 0.2, 0.4, 0.8)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestSigmaMetrics:
    def setup_method(self):
        self.h = make_sinc()
        self.p = sigma_metric(self.h)

    def test_profile_agrees_with_direct_distance(self):
        for u in (0.05, 0.3, 0.8):
            assert self.p.dist(0.2, 0.2 + u) == pytest.approx(
                sigma(self.h, u), abs=1e-10
            )

    def test_known_count_on_unit_interval(self):
        eps = sigma(self.h, 0.1)
        assert covering_number(self.p, 0.0, 1.0, eps) == 5

    def test_axioms_hold_numerically(self):
        report = pseudometric_axioms(self.p, 0.0, 1.0, n=20, seed=4)
        assert report["self_distance"] < 1e-12
        assert report["symmetry"] < 1e-12
        assert report["triangle_violation"] < 1e-10

    def test_sqrt_metric_dominates_at_small_scales(self):
        q = sqrt_sigma_metric(self.h)
        # sqrt(x) > x for x < 1
        d, dq = self.p.dist(0.0, 0.01), q.dist(0.0, 0.01)
        assert dq == pytest.approx(math.sqrt(d), rel=1e-9)
        assert dq > d

    def test_rho_upper_metric_scales_sigma_root(self):
        # the envelope metric is a fixed multiple of sqrt(sigma)
        pr = rho_upper_metric(self.h, 1.0, 1.0)
        kappa = pr.dist(0.0, 0.5) / sqrt_sigma_metric(self.h).dist(0.0, 0.5)
        for u in (0.1, 0.9):
            assert pr.dist(0.0, u) == pytest.approx(
                kappa * sqrt_sigma_metric(self.h).dist(0.0, u), rel=1e-6
            )


class TestGreedyFallback:
    def test_exact_metric_covering_is_finite(self):
        model = CovarianceModel(h=make_sinc(), g=make_triangular(10.0, 1.0), c=1.0)
        p = rho_exact_metric(model, 30.0)
        assert not p.translation_invariant
        n = covering_number(p, 0.0, 0.5, 0.8, candidates=33)
        assert 1 <= n <= 33

    def test_greedy_radius_shrinks_with_more_centers(self):
        p = uniform_metric()
        r2 = greedy_covering_radius(p, 0.0, 1.0, 2, candidates=65)
        r5 = greedy_covering_radius(p, 0.0, 1.0, 5, candidates=65)
        assert r5 < r2


class TestDegenerateProfiles:
    def _jump_metric(self):
        def profile(u):
            u = np.asarray(u, dtype=float)
            return (u > 0).astype(float)

        return Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: float(s != t),
            translation_invariant=True,
            profile_fn=profile,
        )

    def test_discrete_metric_has_no_finite_cover(self):
        with pytest.raises(InfiniteMassiveness):
            covering_number(self._jump_metric(), 0.0, 1.0, 0.5)

    def test_integral_flags_divergence(self):
        res = entropy_integral(self._jump_metric(), 0.0, 1.0, 0.9, 0.5)
        assert res.divergent

    def test_zero_metric_gives_single_ball(self):
        p = Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: 0.0,
            translation_invariant=True,
            profile_fn=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        )
        assert covering_number(p, 0.0, 1.0, 0.3) == 1
        assert entropy_integral(p, 0.0, 1.0, 0.5, 1.0).value == 0.0


class TestProfilesAndIntegrals:
    def test_profile_rows_are_consistent(self):
        p = uniform_metric()
        eps = np.array([0.4, 0.2, 0.1])
        prof = entropy_profile(p, 0.0, 1.0, eps)
        np.testing.assert_array_equal(prof.covering_numbers, [2, 3, 5])
        np.testing.assert_allclose(prof.entropies, np.log([2.0, 3.0, 5.0]), rtol=1e-12)

    def test_profile_validates_ordering(self):
        with pytest.raises(ValueError):
            EntropyProfile(
                interval=(0.0, 1.0),
                epsilons=np.array([0.1, 0.4]),
                covering_numbers=np.array([5, 2]),
                entropies=np.log([6.0, 3.0]),
            )

    def test_profile_csv(self, tmp_path):
        p = uniform_metric()
        prof = entropy_profile(p, 0.0, 1.0, np.array([0.4, 0.1]))
        target = tmp_path / "prof.csv"
        prof.to_csv(target)
        rows = target.read_text().strip().splitlines()
        assert rows[0] == "eps,N,H"
        assert len(rows) == 3

    def test_profile_csv_bytes_match_csv_writer(self, tmp_path, csv_edge_column, csv_writer_bytes):
        n = 3 * _CSV_CHUNK_ROWS + 7
        prof = EntropyProfile(
            interval=(0.0, 1.0),
            epsilons=1.0 / (np.arange(n) + 3.0),
            covering_numbers=np.arange(n, dtype=np.int64) * 2**40,
            entropies=csv_edge_column(n),
        )
        rows = [
            [repr(float(e)), int(c), repr(float(hh))]
            for e, c, hh in zip(prof.epsilons, prof.covering_numbers, prof.entropies)
        ]
        prof.to_csv(tmp_path / "prof.csv")
        assert (tmp_path / "prof.csv").read_bytes() == csv_writer_bytes(["eps", "N", "H"], rows)

    def test_uniform_integral_against_direct_sum(self):
        # H(eps) = ln ceil(1/(2 eps)) on [0,1]; fine Riemann reference
        p = uniform_metric()
        res = entropy_integral(p, 0.0, 1.0, 1.0, 0.5)
        eps = np.linspace(1e-6, 1.0, 200001)
        counts = np.maximum(np.ceil(1.0 / (2.0 * eps) - 1e-9), 1.0)
        ref = np.trapezoid(np.sqrt(np.log(counts)), eps)
        assert not res.divergent
        assert res.value == pytest.approx(float(ref), rel=0.05)

    def test_power_validated(self):
        with pytest.raises(ValueError):
            entropy_integral(uniform_metric(), 0.0, 1.0, 1.0, 0.7)


class TestOrliczConstants:
    def test_frozen_values(self):
        assert c_r(0.5) == pytest.approx(0.77258872223978124, rel=1e-12)
        assert c_r(0.9) == pytest.approx(1.7315865345605502, rel=1e-12)

    def test_small_r_limit_is_half(self):
        assert c_r(1e-4) == pytest.approx(0.500033335834, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            c_r(bad)

    def test_epsilon_scale(self):
        # sqrt(C_{1/2} / ln 2) is the frozen multiplier 1.0557508788639833
        assert epsilon_T_delta(0.5, 2.0) == pytest.approx(
            2.0 * 1.0557508788639833, rel=1e-12
        )
        with pytest.raises(ValueError):
            epsilon_T_delta(0.5, -1.0)

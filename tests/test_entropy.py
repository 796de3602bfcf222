"""Pseudometrics, covering numbers, entropy integrals, Orlicz constants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import correlogram.entropy as entropy_mod
from correlogram.entropy import (
    Pseudometric,
    c_r,
    covering_number,
    entropy_integral,
    epsilon_T_delta,
    rho_exact_metric,
    rho_upper_metric,
)
from correlogram.errors import BoundUnavailable, InfiniteMassiveness
from correlogram.kernels import make_hilbert_sinc, make_laplace, make_sinc, make_triangular
import correlogram.spectral as spectral_mod
from correlogram.spectral import CovarianceModel, rho_upper, sigma


def uniform_metric() -> Pseudometric:
    """Plain distance |t - s| on the lag axis, whose covering numbers have
    the closed form ceil(span / (2 eps))."""
    return Pseudometric("uniform", lambda s, t: np.abs(np.subtract(t, s, dtype=float)), True)


def pseudometric_axioms(p: Pseudometric, a: float, b: float, n: int, seed: int) -> dict:
    """Worst self-distance, symmetry defect and triangle-inequality
    violation (positive = violated) of ``p`` on ``n`` random triples in [a, b]."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(a, b, size=(n, 3))
    self_d = max(abs(p.dist(t, t)) for t in pts[:, 0])
    sym = max(abs(p.dist(t1, t2) - p.dist(t2, t1)) for t1, t2, _ in pts)
    tri = max(
        p.dist(t1, t3) - (p.dist(t1, t2) + p.dist(t2, t3)) for t1, t2, t3 in pts
    )
    return {"self_distance": self_d, "symmetry": sym, "triangle_violation": tri}


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


_ARRAY_METRICS = [("uniform", uniform_metric)]
for _name, _make in [
    ("sinc", make_sinc),
    ("hilbert_sinc", make_hilbert_sinc),
    ("laplace", lambda: make_laplace(1.0, 1.0)),
]:
    _ARRAY_METRICS.append(
        (f"rho_upper-{_name}", lambda make=_make: rho_upper_metric(make(), 1.0, 1.0))
    )


def _sixty_step_counts(p: Pseudometric, a: float, b: float, eps: np.ndarray) -> np.ndarray:
    """Covering counts from a full 60-step bisection of every radius, the
    reference for the early-stopping one."""
    u, run_max = p.profile(a, b)
    k = np.searchsorted(run_max, eps, side="right") - 1
    inside = run_max[-1] > eps
    lo, hi, e = u[k[inside]], u[k[inside] + 1], eps[inside]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = np.asarray(p.dist(0.0, mid), dtype=float) > e
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    delta = np.full(eps.size, b - a)
    delta[inside] = lo
    return np.ceil((b - a) / (2.0 * delta) - 1e-9).astype(np.int64)


class TestArrayRadii:
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.2, 3.0)], ids=["unit", "wide"])
    @pytest.mark.parametrize("make", [m for _, m in _ARRAY_METRICS], ids=[n for n, _ in _ARRAY_METRICS])
    def test_array_call_matches_scalar_calls(self, make, interval, monkeypatch, request):
        if "laplace" in request.node.callspec.id:
            # laplace's spectral window (about 1000) makes the 18k scalar
            # reference profile calls of one case take minutes; a window of
            # 20 runs the same batching on a fiftieth of the nodes
            monkeypatch.setattr(spectral_mod, "WINDOW_START", 20.0)
            monkeypatch.setattr(spectral_mod, "_SIGMA_TAIL", 1e-4)
        a, b = interval
        p = make()
        sup = p.sup(a, b)
        eps = np.geomspace(1.01 * sup, 1e-6 * sup, 301)
        deltas = []
        real = entropy_mod._delta_of_eps

        def recording(*args):
            deltas.append(real(*args))
            return deltas[-1]

        monkeypatch.setattr(entropy_mod, "_delta_of_eps", recording)
        counts = covering_number(p, a, b, eps)
        scalar = [covering_number(p, a, b, float(e)) for e in eps]
        assert counts.dtype == np.int64 and counts.shape == eps.shape
        assert all(type(n) is int for n in scalar)
        np.testing.assert_array_equal(counts, scalar)
        np.testing.assert_array_equal(counts, _sixty_step_counts(p, a, b, eps))
        assert len(deltas) == 302
        np.testing.assert_allclose(deltas[0], np.concatenate(deltas[1:]), rtol=0, atol=1e-15 * (b - a))

    def test_bisection_stops_each_radius_when_its_count_is_settled(self):
        calls = []
        base = rho_upper_metric(make_sinc(), 1.0, 1.0)
        p = Pseudometric(
            "rho_upper", lambda t1, t2: calls.append(np.size(t2)) or base.dist(t1, t2), True
        )
        eps = np.geomspace(0.5, 1e-6, 301)
        want = _sixty_step_counts(p, 0.0, 1.0, eps)
        calls.clear()
        np.testing.assert_array_equal(covering_number(p, 0.0, 1.0, eps), want)
        assert 0 < len(calls) <= 60
        assert all(m >= n for m, n in zip(calls, calls[1:]))
        assert sum(calls) <= 0.6 * 301 * 60

    def test_massiveness_names_the_largest_radius(self):
        jump = TestDegenerateProfiles()._jump_metric()
        with pytest.raises(InfiniteMassiveness, match="eps=0.7 "):
            covering_number(jump, 0.0, 1.0, [2.0, 0.7, 0.3])
        np.testing.assert_array_equal(covering_number(jump, 0.0, 1.0, [[2.0, 1.0]]), [[1, 1]])


_CONSTRUCTORS = {
    "rho_upper": lambda: rho_upper_metric(make_sinc(), 1.0, 1.0),
    "rho_exact": lambda: rho_exact_metric(
        CovarianceModel(h=make_sinc(), g=make_triangular(10.0, 1.0), c=1.0), 30.0
    ),
}


class TestDistContract:
    @pytest.mark.parametrize("make", list(_CONSTRUCTORS.values()), ids=list(_CONSTRUCTORS))
    def test_arrays_broadcast_like_scalar_calls(self, make):
        p = make()
        assert type(p.dist(0.1, 0.35)) is float
        t1 = np.array([[0.0], [0.15], [0.45]])
        t2 = np.array([0.05, 0.2, 0.3, 0.5])
        d = p.dist(t1, t2)
        assert isinstance(d, np.ndarray) and d.shape == (3, 4)
        want = [[p.dist(float(s), float(t)) for t in t2] for s in t1[:, 0]]
        np.testing.assert_allclose(d, want, rtol=1e-12)


class TestSigmaMetrics:
    # rho_upper_metric is the sigma-based metric: a fixed multiple of sqrt(sigma)
    def setup_method(self):
        self.h = make_sinc()
        self.p = rho_upper_metric(self.h, 1.0, 1.0)

    def test_profile_agrees_with_direct_distance(self):
        for u in (0.05, 0.3, 0.8):
            assert self.p.dist(0.2, 0.2 + u) == pytest.approx(
                rho_upper(self.h, 1.0, 1.0, 0.2, 0.2 + u), rel=1e-9
            )

    def test_known_count_on_unit_interval(self):
        eps = rho_upper(self.h, 1.0, 1.0, 0.0, 0.1)
        assert covering_number(self.p, 0.0, 1.0, eps) == 5

    def test_axioms_hold_numerically(self):
        report = pseudometric_axioms(self.p, 0.0, 1.0, n=20, seed=4)
        assert report["self_distance"] < 1e-12
        assert report["symmetry"] < 1e-12
        assert report["triangle_violation"] < 1e-10

    def test_rho_upper_metric_scales_sigma_root(self):
        kappa = self.p.dist(0.0, 0.5) / math.sqrt(sigma(self.h, 0.5))
        for u in (0.1, 0.9):
            assert self.p.dist(0.0, u) == pytest.approx(
                kappa * math.sqrt(sigma(self.h, u)), rel=1e-6
            )


class TestSup:
    def test_invariant_metric_takes_the_running_max(self):
        # |sin(pi u)| peaks at u = 1/2 and is back to 0 at the span 3
        p = Pseudometric("periodic", lambda s, t: np.abs(np.sin(np.pi * np.subtract(t, s))), True)
        assert p.dist(0.0, 3.0) < 1e-12
        assert p.sup(0.0, 3.0) == pytest.approx(1.0, abs=1e-6)
        assert p.sup(0.0, 0.25) == pytest.approx(math.sin(np.pi / 4.0), rel=1e-12)

    def test_exact_metric_takes_the_largest_grid_distance(self):
        p = rho_exact_metric(
            CovarianceModel(h=make_sinc(), g=make_triangular(10.0, 1.0), c=1.0), 30.0
        )
        top = p.sup(0.0, 0.5)
        # every pair of a 17-point subgrid of the 257 grid points, and the
        # largest pair itself, evaluated afresh
        coarse = np.linspace(0.0, 0.5, 17)
        assert np.all(p.dist(coarse[:, None], coarse) <= top * (1.0 + 1e-12))
        i, j = np.unravel_index(np.argmax(p.matrix(0.0, 0.5)), (257, 257))
        grid = np.linspace(0.0, 0.5, 257)
        assert p.dist(grid[i], grid[j]) == pytest.approx(top, rel=1e-12)


class TestGreedyFallback:
    def setup_method(self):
        self.model = CovarianceModel(h=make_sinc(), g=make_triangular(10.0, 1.0), c=1.0)

    def test_exact_metric_covering_is_finite(self):
        p = rho_exact_metric(self.model, 30.0)
        assert not p.translation_invariant
        n = covering_number(p, 0.0, 0.5, 0.8)
        assert 1 <= n <= 33

    def test_exact_metric_counts_are_one_batch(self, monkeypatch):
        calls = []
        real = spectral_mod.cov_finite
        monkeypatch.setattr(
            spectral_mod, "cov_finite", lambda *args: calls.append(np.size(args[2])) or real(*args)
        )
        p = rho_exact_metric(self.model, 30.0)
        n = covering_number(p, 0.0, 0.5, [0.8, 0.4, 0.2, 0.1])
        np.testing.assert_array_equal(n, [1, 2, 3, 5])
        # the variance of each of the 257 grid points, then every pair
        assert calls == [257 + 257 * 256 // 2]
        covering_number(p, 0.0, 0.5, 0.05)
        assert len(calls) == 1

    def test_greedy_radius_shrinks_with_more_centers(self):
        # radius after each further center: 2 centers at index 1, 5 at index 4
        radii = list(itertools.islice(entropy_mod._greedy_radii(uniform_metric(), 0.0, 1.0), 5))
        assert radii[4] < radii[1]


class TestDegenerateProfiles:
    def _jump_metric(self):
        return Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: np.not_equal(s, t).astype(float),
            translation_invariant=True,
        )

    def test_discrete_metric_has_no_finite_cover(self):
        with pytest.raises(InfiniteMassiveness):
            covering_number(self._jump_metric(), 0.0, 1.0, 0.5)

    def test_integral_flags_divergence(self):
        with pytest.raises(BoundUnavailable, match="eps=0.9 "):
            entropy_integral(self._jump_metric(), 0.0, 1.0, 0.9)

    def test_zero_metric_gives_single_ball(self):
        p = Pseudometric(
            kind="uniform_d",
            dist=lambda s, t: 0.0 * np.subtract(t, s),
            translation_invariant=True,
        )
        assert covering_number(p, 0.0, 1.0, 0.3) == 1
        # ln(1 + N) = ln 2 all the way down to 0
        assert entropy_integral(p, 0.0, 1.0, 0.5)[1][-1] == pytest.approx(0.5 * math.log(2.0), rel=1e-12)


class TestProfilesAndIntegrals:
    def test_uniform_integral_against_direct_sum(self):
        # N(eps) = ceil(1/(2 eps)) on [0,1]; fine trapezoid reference of ln(1 + N)
        s_asc, cum = entropy_integral(uniform_metric(), 0.0, 1.0, 1.0)
        eps = np.linspace(1e-6, 1.0, 2000001)
        counts = np.maximum(np.ceil(1.0 / (2.0 * eps) - 1e-9), 1.0)
        ref = np.trapezoid(np.log1p(counts), eps)
        assert s_asc[-1] == 1.0
        assert cum[-1] == pytest.approx(float(ref), rel=0.01)


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

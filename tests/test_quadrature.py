"""Composite Gauss-Legendre rule and the one-dimensional integrals on it.

Each integral is checked against scipy's adaptive quadrature over the same
interval with the same breakpoints, at a tolerance far below the rule's
own error.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici, spherical_jn

from correlogram.estimator import theoretical_bias
from correlogram.kernels import (
    autocorrelation,
    check_weighted_spectral,
    make_hilbert_sinc,
    make_laplace,
    make_one_sided_box,
    make_sinc,
    make_tabulated,
    make_triangular,
)
from correlogram.quadrature import (
    integrate,
    lagged_product,
    legendre_moments,
    panel_edges,
    si_tail,
    spectral_window,
)
from correlogram.spectral import autocovariance_Y, cov_limit, fejer_l1_norm, sigma

REF = dict(epsabs=1e-13, epsrel=1e-13, limit=2000)


def _tabulated():
    # asymmetric grid, so the samples are not mirrored through 0
    t = np.linspace(-1.0, 1.5, 26)
    return make_tabulated(t, np.exp(-2.0 * t**2) * (1.0 + 0.5 * t))


KERNELS = {
    "sinc": make_sinc,
    "hilbert_sinc": make_hilbert_sinc,
    "tri2": lambda: make_triangular(2.0, 1.0),
    "tri100": lambda: make_triangular(100.0, 1.0),
    "lap1": lambda: make_laplace(1.0, 1.0),
    "lap20": lambda: make_laplace(20.0, 1.0),
    "lap100": lambda: make_laplace(100.0, 1.0),
    "box10": lambda: make_one_sided_box(10.0, 1.0),
    "tabulated": _tabulated,
}
TIME_KERNELS = ["tri2", "tri100", "lap1", "lap20", "lap100", "box10", "tabulated"]
SPECTRAL_KERNELS = ["sinc", "hilbert_sinc", "tri2", "lap1", "lap20", "lap100"]


class TestPanelRule:
    def test_exact_to_degree_23_on_a_panel(self):
        edges = np.array([-0.7, 1.9])
        m, hw = 0.6, 1.3
        for n in range(24):
            got = integrate(lambda x: ((x - m) / hw) ** n, edges)
            want = hw * (1.0 - (-1.0) ** (n + 1)) / (n + 1)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14), n
        # 12 nodes stop being exact at degree 24
        got = integrate(lambda x: ((x - m) / hw) ** 24, edges)
        assert abs(got - hw * 2.0 / 25.0) > 1e-9

    def test_exact_per_panel_for_a_piecewise_polynomial(self):
        rng = np.random.default_rng(3)
        left = np.polynomial.Polynomial(rng.standard_normal(24))
        right = np.polynomial.Polynomial(rng.standard_normal(24))
        edges = panel_edges(-1.0, 1.0, [0.2], 0.5)
        assert 0.2 in edges and np.all(np.diff(edges) <= 0.5 + 1e-15)
        got = integrate(lambda x: np.where(x < 0.2, left(x), right(x)), edges)
        li, ri = left.integ(), right.integ()
        want = li(0.2) - li(-1.0) + ri(1.0) - ri(0.2)
        assert got == pytest.approx(want, rel=1e-13)

    def test_step_function_exact_at_its_breakpoint(self):
        step = lambda x: np.where(x < 0.3, 1.0, 3.0)
        assert integrate(step, panel_edges(-1.0, 2.0, [0.3], 0.4)) == pytest.approx(
            1.3 + 3.0 * 1.7, rel=1e-15
        )
        # a jump inside a panel is not resolved
        assert abs(integrate(step, panel_edges(-1.0, 2.0, [], 0.4)) - 6.4) > 1e-3


def _radius(k):
    return k.effective_support if k.support_tol == 0.0 else 1.5 * k.effective_support


def _time_routable(k):
    return k.band_limit is None and k.support_tol <= 1e-8


def _kinks(k):
    pts = [0.0]
    if k.support_tol == 0.0:
        pts += [-k.effective_support, k.effective_support]
    if k.name == "tabulated":
        pts += list(k.params["t0"] + k.params["dt"] * np.arange(k.params["n_samples"]))
    return pts


def _time_reference(p, q, lag, sign):
    # int p(s) q(lag + sign s) ds over the hull of p's support and, when q
    # is truncated in time, q's, cut to each exact support, with every kink
    # of either factor as a breakpoint
    lo, hi = -_radius(p), _radius(p)
    if _time_routable(q):
        c = -sign * lag
        lo, hi = min(lo, c - _radius(q)), max(hi, c + _radius(q))
        if p.support_tol == 0.0:
            lo, hi = max(lo, -_radius(p)), min(hi, _radius(p))
        if q.support_tol == 0.0:
            lo, hi = max(lo, c - _radius(q)), min(hi, c + _radius(q))
    if lo >= hi:
        return 0.0
    pts = sorted({b for b in _kinks(p)} | {sign * (b - lag) for b in _kinks(q)})
    pts = [b for b in pts if lo < b < hi]
    val, _ = quad(lambda s: p.time_eval(s) * q.time_eval(lag + sign * s), lo, hi,
                  points=pts or None, **REF)
    return val


def _band_reference(h, lag):
    val, _ = quad(lambda lam: (h.ftf_eval(lam) ** 2 * np.exp(1j * lam * lag)).real,
                  0.0, h.band_limit, **REF)
    return val / math.pi


def _cos_reference(f, L, u):
    # int_0^L f(lam) cos(u lam) dlam through the cosine-weighted rule, on 64
    # pieces so that each holds a few oscillations of f itself
    edges = np.linspace(0.0, L, 65)
    return sum(quad(f, a, b, weight="cos", wvar=u, **REF)[0] for a, b in zip(edges, edges[1:]))


class TestAgainstAdaptiveQuadrature:
    @pytest.mark.parametrize("g_name", TIME_KERNELS)
    @pytest.mark.parametrize("h_name", ["sinc", "hilbert_sinc", "tabulated"])
    def test_bias(self, g_name, h_name):
        g, h = KERNELS[g_name](), KERNELS[h_name]()
        for tau in (0.0, 0.37, -0.8):
            want = _time_reference(g, h, tau, +1) / 2.0
            assert theoretical_bias(h, g, 2.0, tau) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_autocorrelation(self, name):
        h = KERNELS[name]()
        for lag in (0.0, 0.35, -1.0, 2.5):
            if _time_routable(h):
                want = _time_reference(h, h, lag, -1)
            else:
                want = _band_reference(h, lag)
            assert autocorrelation(h, lag) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("name", SPECTRAL_KERNELS)
    def test_spectral_integrals(self, name):
        h = KERNELS[name]()
        sq = lambda lam: np.abs(h.ftf_eval(lam)) ** 2
        re_sq = lambda lam: (h.ftf_eval(lam) ** 2).real
        L = spectral_window(h, 1e-9, 200.0)
        mass = _cos_reference(sq, L, 0.0)
        for u in (0.1, 0.7, 2.0):
            cos_u = _cos_reference(sq, L, u)
            assert sigma(h, u) == pytest.approx(math.sqrt(mass - cos_u), abs=1e-10)
            assert autocovariance_Y(h, u) == pytest.approx(cos_u / math.pi, abs=1e-10)
        L4 = spectral_window(h, 2.5e-10, 200.0)
        for t1, t2 in ((0.0, 0.0), (0.5, 0.25), (1.0, 2.0)):
            a = _cos_reference(sq, L4, t1 - t2)
            b = _cos_reference(re_sq, L4, t1 + t2)
            assert cov_limit(h, t1, t2) == pytest.approx((a + b) / math.pi, abs=1e-10)

    @pytest.mark.parametrize("name", ["sinc", "tri2", "lap1"])
    def test_weighted_spectral(self, name):
        k = KERNELS[name]()
        f = lambda lam: np.abs(k.ftf_eval(lam)) ** 2 * np.log1p(lam) ** 2.0
        pts = [k.band_limit] if k.band_limit is not None else None
        want, _ = quad(f, 0.0, 50.0, points=pts, **REF)
        assert check_weighted_spectral(k, 2.0, 50.0)["value"] == pytest.approx(2.0 * want, abs=1e-10)

    def test_fejer_head(self):
        X = 50.0 * math.pi
        head, _ = quad(lambda x: (math.sin(x) / x) ** 2, 0.0, X, **REF)
        tail = math.sin(X) ** 2 / X + math.pi / 2.0 - sici(2.0 * X)[0]
        assert fejer_l1_norm(3.0) == pytest.approx((2.0 / math.pi) * (head + tail), abs=1e-10)


@pytest.mark.parametrize(
    "name, want",
    [
        ("lap1", (1012.5, 1518.75)),
        ("lap20", (58385.85205078125, 87578.77807617188)),
        ("tri2", (7688.671875, 11533.0078125)),
    ],
)
def test_spectral_window_frozen(name, want):
    # outputs of the adaptive tail-mass integral this rule replaced
    k = KERNELS[name]()
    assert (spectral_window(k, 1e-9, 200.0), spectral_window(k, 2.5e-10, 200.0)) == want


class TestLagArrays:
    def test_bias_array_equals_scalar_calls(self):
        h, g = make_sinc(), make_triangular(100.0, 1.0)
        # enough lags for several blocks
        taus = np.linspace(-3.0, 3.0, 2501).reshape(61, 41)
        got = theoretical_bias(h, g, 1.5, taus)
        assert got.shape == taus.shape
        want = np.array([theoretical_bias(h, g, 1.5, float(t)) for t in taus.ravel()])
        np.testing.assert_array_equal(got.ravel(), want)
        assert isinstance(theoretical_bias(h, g, 1.5, 0.2), float)

    @pytest.mark.parametrize("name", ["sinc", "hilbert_sinc", "tri2", "lap20", "tabulated"])
    def test_autocorrelation_array_equals_scalar_calls(self, name):
        h = KERNELS[name]()
        lags = np.array([0.0, 0.5, -0.9, 1.5, 2.5, 7.2, 0.31])
        want = np.array([autocorrelation(h, float(x)) for x in lags])
        np.testing.assert_array_equal(autocorrelation(h, lags), want)
        assert isinstance(autocorrelation(h, 0.3), float)

    def test_bias_memory_is_blocked(self):
        h, g = make_sinc(), make_triangular(100.0, 1.0)
        taus = np.linspace(0.0, 1.0, 100_001)
        tracemalloc.start()
        try:
            theoretical_bias(h, g, 1.0, taus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # budget 16 MB (measured 11.8 MB; 8.6 MB for 1000 lags): a lag block
        # holds about 2^17 nodes, 1 MB per float array, where one array over
        # all lags would take 211 MB
        assert peak < 16e6


def _laplace_lagged(delta, u):
    # int h(s) h(s + u) ds for h = (delta/2) exp(-delta |s|), c = 1
    return 0.25 * delta**2 * (abs(u) + 1.0 / delta) * math.exp(-delta * abs(u))


class TestLaplaceTailLags:
    # at lags beyond both truncation radii the product of the two tails
    # carries all of the mass, spread over the stretch between the centres
    CASES = [(20.0, 1.0), (20.0, 2.0), (100.0, 0.3)]

    @pytest.mark.parametrize("delta, u", CASES)
    def test_lagged_product(self, delta, u):
        h = make_laplace(delta, 1.0)
        want = _laplace_lagged(delta, u)
        for lag, sign in ((u, +1), (-u, +1), (u, -1), (-u, -1)):
            assert lagged_product(h, h, lag, sign) == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("delta, u", CASES)
    def test_autocovariance_Y(self, delta, u):
        want = _laplace_lagged(delta, u)
        assert autocovariance_Y(make_laplace(delta, 1.0), u) == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("delta, u", CASES)
    def test_cov_limit(self, delta, u):
        # C_inf(t1, t2) = K(t1 - t2) + K(t1 + t2) for an even kernel
        h = make_laplace(delta, 1.0)
        want = 2.0 * _laplace_lagged(delta, u)
        assert cov_limit(h, u, 0.0) == pytest.approx(want, rel=1e-9, abs=0.0)
        want = _laplace_lagged(delta, u) + _laplace_lagged(delta, 2.0 * u)
        assert cov_limit(h, 0.5 * u, 1.5 * u) == pytest.approx(want, rel=1e-9, abs=0.0)


class TestSpecialFunctions:
    def test_si_tail_matches_sici(self):
        x = np.geomspace(1e-3, 1e5, 500)
        np.testing.assert_allclose(si_tail(x), math.pi / 2.0 - sici(x)[0], rtol=0, atol=1e-15)
        assert si_tail(0.0) == math.pi / 2.0

    def test_legendre_moments_match_spherical_bessel(self):
        # both sides of the switch from quadrature to recurrence at c = 16
        c = np.concatenate([np.geomspace(1e-6, 1e7, 400), np.linspace(15.0, 17.0, 41)])
        n = np.arange(12)
        want = 2.0 * (1j**n) * spherical_jn(n, c[:, None])
        np.testing.assert_allclose(legendre_moments(c), want, rtol=0, atol=1e-14)
        assert legendre_moments(np.ones((3, 2))).shape == (3, 2, 12)

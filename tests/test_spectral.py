"""Spectral quantities: Fejér weights, variances, covariances, rho ratios.

The finite-horizon covariance is cross-checked against a time-domain
oracle: by Isserlis' theorem and stationarity,

    Cov(Z(tau1), Z(tau2)) = (1/c^2) int_{-T}^{T} (1 - |u|/T)
        [K_Y(u + tau1 - tau2) K_X(u) + K_YX(u + tau1) K_YX(tau2 - u)] du

with K_Y, K_X, K_YX the stationary auto- and cross-covariances of the
two outputs. For h = sinc, K_Y(u) = sinc(u) exactly, and the window's
tiny support makes the other two kernels cheap Gauss-Legendre sums, so
the oracle shares no code path with the implementation under test.
"""

import math
import tracemalloc

import numpy as np
import pytest

from correlogram.errors import ConsistencyError
from correlogram.kernels import (
    Kernel,
    make_hilbert_sinc,
    make_laplace,
    make_one_sided_box,
    make_sinc,
    make_triangular,
)
import correlogram.spectral as spectral_mod
from correlogram.spectral import (
    CovarianceModel,
    autocovariance_Y,
    cov_finite,
    cov_finite_detail,
    cov_limit,
    cov_matrix,
    fejer,
    fejer_l1_norm,
    msq_increment_Y,
    rho_exact,
    rho_upper,
    sigma,
    _Distinct,
)


class TestFejer:
    def test_value_at_zero(self):
        for T in (1.0, 10.0, 250.0):
            assert fejer(T, 0.0) == pytest.approx(T / (2.0 * math.pi), rel=1e-12)

    def test_nonnegative(self):
        lam = np.linspace(-40.0, 40.0, 1001)
        assert np.all(np.asarray([fejer(7.0, v) for v in lam]) >= 0.0)

    def test_unit_mass(self):
        for T in (0.5, 3.0, 100.0):
            assert fejer_l1_norm(T) == pytest.approx(1.0, abs=1e-7)


class TestSigma:
    def test_frozen_value(self):
        # 2 int_0^pi sin^2(0.05 lam) dlam / pi, via 50-digit arithmetic
        assert sigma(make_sinc(), 0.1) == pytest.approx(0.22676575984993633, abs=1e-10)

    def test_vanishes_at_zero_lag(self):
        assert sigma(make_sinc(), 0.0) == 0.0

    def test_even_and_increasing_near_zero(self):
        h = make_sinc()
        assert sigma(h, -0.3) == pytest.approx(sigma(h, 0.3), rel=1e-12)
        vals = [sigma(h, u) for u in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increment_msq_identity(self):
        h = make_sinc()
        want = (2.0 / math.pi) * sigma(h, 0.7) ** 2
        assert msq_increment_Y(h, 0.1, 0.8) == pytest.approx(want, rel=1e-12)


class TestAutocovarianceY:
    def test_sinc_closed_form(self):
        h = make_sinc()
        for u in (0.0, 0.25, 1.0, 3.5):
            assert autocovariance_Y(h, u) == pytest.approx(float(np.sinc(u)), abs=1e-10)

    def test_odd_kernel_keeps_positive_variance(self):
        # correlation sense: K_Y(0) = ||h||^2 regardless of parity
        assert autocovariance_Y(make_hilbert_sinc(), 0.0) == pytest.approx(1.0, abs=1e-6)


class TestLimitCovariance:
    def test_sinc_closed_form_spot(self):
        h = make_sinc()
        for t1, t2 in ((0.0, 0.0), (0.5, 0.25), (1.0, 2.0)):
            want = float(np.sinc(t1 - t2) + np.sinc(t1 + t2))
            assert cov_limit(h, t1, t2) == pytest.approx(want, abs=1e-9)

    def test_hilbert_sign_flip(self):
        h = make_hilbert_sinc()
        want = float(np.sinc(0.5 - 0.25) - np.sinc(0.75))
        assert cov_limit(h, 0.5, 0.25) == pytest.approx(want, abs=1e-9)
        assert cov_limit(h, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_limit_gram_is_psd(self):
        h = make_sinc()
        taus = np.linspace(0.0, 1.5, 7)
        G = np.array([[cov_limit(h, float(a), float(b)) for b in taus] for a in taus])
        np.testing.assert_allclose(G, G.T, atol=1e-9)
        assert np.linalg.eigvalsh(G).min() > -1e-8

    def test_one_sided_box_closed_form(self):
        # (c delta)^2 [max(0, 1/delta - |a|) + max(0, 1/delta - |b - 1/delta|)]
        # with a = tau1 - tau2, b = tau1 + tau2; |box*|^2 decays like lam^-2
        assert cov_limit(make_one_sided_box(10.0, 1.0), 0.05, 0.1) == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["sinc", "hilbert_sinc", "lap20", "tri100"])
    def test_array_calls_equal_scalar_calls(self, name):
        h = {**_KERNELS, **_WINDOWS}[name]()
        t1 = np.array([[0.0, 0.25, 0.5], [1.0, 0.3, 2.75]])
        t2 = np.array([[0.0, 0.75, 0.5], [0.2, 0.3, 1.0]])
        got = cov_limit(h, t1, t2)
        assert got.shape == t1.shape
        want = [[cov_limit(h, float(a), float(b)) for a, b in zip(r1, r2)]
                for r1, r2 in zip(t1, t2)]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(cov_limit(h, 0.25, t2[0]),
                                      [cov_limit(h, 0.25, float(b)) for b in t2[0]])
        np.testing.assert_array_equal(autocovariance_Y(h, t1),
                                      [[autocovariance_Y(h, float(u)) for u in r] for r in t1])
        assert isinstance(cov_limit(h, 0.2, 0.4), float)
        assert isinstance(autocovariance_Y(h, 0.2), float)

    def test_imaginary_residue_names_the_lag(self):
        h = _one_sided_kernel()
        assert cov_limit(h, 0.0, 0.0) > 0.0
        with pytest.raises(ConsistencyError, match=r"imaginary residue .* lag -0\.4"):
            cov_limit(h, [0.0, 0.3], [0.0, 0.7])


def _window_gl(g, n=64):
    # two Gauss panels over [-r, 0] and [0, r]: the window has a kink at 0
    r = g.effective_support
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = np.concatenate([0.5 * r * x - 0.5 * r, 0.5 * r * x + 0.5 * r])
    weights = np.concatenate([w, w]) * 0.5 * r
    return nodes, weights * g.time_eval(nodes)


def _oracle_cov(h, g, c, T, tau1, tau2, du=0.002):
    nodes, gw = _window_gl(g)
    r = g.effective_support

    def k_yx(u):
        # int g(a) h(a+u) da, vectorized over u
        return (h.time_eval(nodes[None, :] + u[:, None]) * gw[None, :]).sum(axis=1)

    u = np.arange(-T / du, T / du + 1) * du
    tri = 1.0 - np.abs(u) / T

    term1 = np.zeros_like(u)
    inside = np.abs(u + 0.0) <= 2.0 * r
    uu = u[inside]
    kx = (g.time_eval(nodes[None, :] + uu[:, None]) * gw[None, :]).sum(axis=1)
    term1[inside] = np.sinc(uu + tau1 - tau2) * kx

    term2 = k_yx(u + tau1) * k_yx(tau2 - u)
    return float(np.trapezoid(tri * (term1 + term2), u)) / c**2


class TestFiniteCovariance:
    def setup_method(self):
        self.h = make_sinc()
        self.g = make_triangular(10.0, 1.0)
        self.model = CovarianceModel(h=self.h, g=self.g, c=1.0)

    def test_matches_time_domain_oracle(self):
        got = cov_finite(self.model, 50.0, 0.3, 0.7)
        want = _oracle_cov(self.h, self.g, 1.0, 50.0, 0.3, 0.7)
        assert got == pytest.approx(want, abs=5e-4)

    def test_variance_matches_oracle(self):
        got = cov_finite(self.model, 50.0, 0.5, 0.5)
        want = _oracle_cov(self.h, self.g, 1.0, 50.0, 0.5, 0.5)
        assert got == pytest.approx(want, abs=5e-4)

    def test_symmetric_in_lags(self):
        a = cov_finite(self.model, 40.0, 0.2, 0.9)
        b = cov_finite(self.model, 40.0, 0.9, 0.2)
        assert a == pytest.approx(b, abs=1e-8)

    def test_detail_reports_clean_numerics(self):
        detail = cov_finite_detail(self.model, 40.0, 0.2, 0.9)
        assert abs(detail["imag_residue"]) < 1e-7
        assert abs(detail["asymmetry"]) < 1e-7

    def test_approaches_the_limit(self):
        lim = cov_limit(self.h, 0.3, 0.7)
        gap_small_T = abs(cov_finite(self.model, 25.0, 0.3, 0.7) - lim)
        gap_large_T = abs(cov_finite(self.model, 400.0, 0.3, 0.7) - lim)
        assert gap_large_T < gap_small_T
        assert gap_large_T < 0.02

    def test_finite_gram_is_symmetric_psd(self):
        taus = [0.0, 0.4, 1.0]
        G = cov_matrix(self.model, 60.0, taus)
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() > -1e-8


# cov_finite values of the one-u-node-at-a-time evaluation the batched
# (u x lambda) kernel replaced; the quadrature rule is unchanged, so only
# summation order may move them.
FROZEN_COV = [
    ("sinc", "tri100", 500.0, 0.0, 0.0, 1.9979298769446896),
    ("sinc", "tri100", 500.0, 0.3, 0.7, 0.7584077217712778),
    ("sinc", "lap20", 50.0, 0.5, 0.5, 1.003142348582593),
    ("sinc", "lap20", 40.0, 0.2, 0.9, 0.30285612450702176),
    ("hilbert_sinc", "tri100", 40.0, 0.5, 0.5, 1.013616665882708),
    ("hilbert_sinc", "tri100", 50.0, 0.0, 1.0, 0.009909814735005466),
    ("hilbert_sinc", "lap20", 500.0, 0.25, 0.25, 0.3565890778459909),
    ("hilbert_sinc", "lap20", 500.0, 0.1, 0.6, 0.26406749697370624),
]

_KERNELS = {"sinc": make_sinc, "hilbert_sinc": make_hilbert_sinc}
_WINDOWS = {
    "tri100": lambda: make_triangular(100.0, 1.0),
    "lap20": lambda: make_laplace(20.0, 1.0),
}


def _model(h_name: str, g_name: str) -> CovarianceModel:
    return CovarianceModel(h=_KERNELS[h_name](), g=_WINDOWS[g_name](), c=1.0)


def _one_sided_kernel() -> Kernel:
    # transform 1 on [0, pi] only: not conjugate-symmetric, so h is complex
    # and the covariance integral keeps an imaginary part unless all lags
    # vanish
    return Kernel(
        name="one_sided_band",
        time_eval=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        ftf_eval=lambda lam: ((lam >= 0.0) & (lam <= np.pi)).astype(complex),
        parity="none",
        l2_norm=math.sqrt(0.5),
        effective_support=60.0,
        band_limit=math.pi,
        ftf_envelope=lambda lam: (np.abs(lam) <= np.pi).astype(float),
    )


class TestBatchedCovariance:
    @pytest.mark.parametrize("h_name, g_name, T, t1, t2, want", FROZEN_COV)
    def test_frozen_values(self, h_name, g_name, T, t1, t2, want):
        assert cov_finite(_model(h_name, g_name), T, t1, t2) == pytest.approx(want, rel=1e-12)

    def test_array_call_equals_scalar_calls(self):
        model = _model("sinc", "lap20")
        t1 = np.array([[0.0, 0.25, 0.5], [1.0, 0.3, 0.75]])
        t2 = np.array([[0.0, 0.75, 0.5], [0.2, 0.3, 1.0]])
        got = cov_finite(model, 50.0, t1, t2)
        assert got.shape == t1.shape
        want = [[cov_finite(model, 50.0, float(a), float(b)) for a, b in zip(r1, r2)]
                for r1, r2 in zip(t1, t2)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # broadcasting a scalar lag against a lag vector
        row = cov_finite(model, 50.0, 0.25, t2[0])
        np.testing.assert_allclose(row, [cov_finite(model, 50.0, 0.25, float(b)) for b in t2[0]],
                                   rtol=1e-12, atol=0.0)

    def test_scalar_lags_give_float(self):
        model = _model("sinc", "tri100")
        assert isinstance(cov_finite(model, 40.0, 0.2, 0.4), float)
        detail = cov_finite_detail(model, 40.0, 0.2, 0.4)
        assert all(isinstance(detail[k], float) for k in ("value", "imag_residue", "asymmetry"))

    def test_cov_matrix_is_the_array_call(self):
        model = _model("hilbert_sinc", "tri100")
        taus = np.array([0.0, 0.3, 0.6, 1.0])
        i, j = np.triu_indices(taus.size)
        G = cov_matrix(model, 60.0, taus)
        np.testing.assert_array_equal(G[i, j], cov_finite(model, 60.0, taus[i], taus[j]))
        np.testing.assert_array_equal(G, G.T)

    def test_failing_entry_is_named(self):
        model = CovarianceModel(h=_one_sided_kernel(), g=make_triangular(10.0, 1.0), c=1.0)
        assert cov_finite(model, 30.0, 0.0, 0.0) > 0.0
        with pytest.raises(ConsistencyError, match=r"imaginary residue .* taus=\(0\.3, 0\.7\)"):
            cov_finite(model, 30.0, [0.0, 0.3, 0.0], [0.0, 0.7, 0.0])

    def test_peak_memory_is_bounded_and_batch_independent(self):
        model = _model("sinc", "tri100")

        def peak_bytes(n_lags):
            taus = np.linspace(0.0, 1.0, n_lags)
            tracemalloc.start()
            try:
                cov_finite(model, 500.0, taus, taus)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(33), peak_bytes(200)
        assert max(small, large) < 8e6
        assert large < 1.1 * small


class TestDistinctLags:
    """Phase tables over a batch's distinct a = t1 - t2, b = t1 + t2 and t."""

    def test_recurrence_matches_exp_on_a_lattice(self):
        # 450 lattice indices with gaps (every third missing), x0 and d
        # inexact in binary, as from np.linspace
        k = np.setdiff1d(np.arange(675), np.arange(2, 675, 3))
        x = 0.3 + k * (1.0 / 70.0)
        lags = _Distinct(x, 2.0**-46 * 10.0)
        assert lags.lattice and lags.vals.size == k.size == 450
        z = np.linspace(-40.0, 40.0, 301)
        got = np.array([E.copy() for js in lags.blocks for _, E in lags.phases(z, js)])
        np.testing.assert_allclose(got, np.exp(1j * x[:, None] * z), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [0.0, -0.0], ids=["plus_zero", "minus_zero"])
    def test_zero_value_phase_has_the_bits_of_cos_and_sin(self, x):
        z = np.array([-1e300, -3.7, -5e-324, -0.0, 0.0, 5e-324, 2.5, 1e15, 1.7e308])
        theta = x * z
        E = spectral_mod._cis(x, z)
        np.testing.assert_array_equal(E.real.view(np.uint64), np.cos(theta).view(np.uint64))
        np.testing.assert_array_equal(E.imag.view(np.uint64), np.sin(theta).view(np.uint64))

    def test_sparse_lattice_takes_the_exp_route(self):
        # [0, 1e-6, 1] is a lattice of step 1e-6 with 1e6 steps between its
        # last two points: the recurrence must not walk them
        assert not _Distinct(np.array([0.0, 1e-6, 1.0]), 2.0**-46).lattice
        model = _model("sinc", "lap20")
        t1, t2 = np.array([0.0, 1e-6, 1.0]), np.array([0.0, 1e-6, 1e-6])
        detail = cov_finite_detail(model, 50.0, t1, t2)
        assert detail["lattice"] == {"a": False, "b": False, "t": False}
        want = [cov_finite(model, 50.0, float(a), float(b)) for a, b in zip(t1, t2)]
        np.testing.assert_allclose(detail["value"], want, rtol=1e-12, atol=0.0)

    def test_random_batch_beyond_one_block_equals_scalar_calls(self):
        model = _model("sinc", "tri100")
        rng = np.random.default_rng(1307)
        t1, t2 = rng.uniform(0.0, 1.0, (2, 70))
        detail = cov_finite_detail(model, 40.0, t1, t2)
        assert detail["distinct_lags"] == {"a": 70, "b": 70, "t": 140}
        assert detail["lattice"] == {"a": False, "b": False, "t": False}
        want = [cov_finite(model, 40.0, float(a), float(b)) for a, b in zip(t1, t2)]
        np.testing.assert_allclose(detail["value"], want, rtol=1e-12, atol=0.0)

    def test_linspace_gram_is_one_lattice_per_kind(self):
        # np.unique sees float noise in t1 -+ t2; the lattice merges it
        taus = np.linspace(0.0, 1.0, 11)
        i, j = np.triu_indices(taus.size)
        a, b = taus[i] - taus[j], taus[i] + taus[j]
        assert np.unique(a).size > 11 or np.unique(b).size > 21
        detail = cov_finite_detail(_model("sinc", "tri100"), 60.0, taus[i], taus[j])
        assert detail["distinct_lags"] == {"a": 11, "b": 21, "t": 11}
        assert detail["lattice"] == {"a": True, "b": True, "t": True}
        scalar = cov_finite_detail(_model("sinc", "tri100"), 60.0, 0.3, 0.7)
        assert scalar["distinct_lags"] == {"a": 1, "b": 1, "t": 2}
        assert scalar["lattice"] == {"a": False, "b": False, "t": False}


class TestRho:
    def setup_method(self):
        self.h = make_sinc()
        self.model = CovarianceModel(h=self.h, g=make_triangular(100.0, 1.0), c=1.0)

    def test_upper_bound_frozen_value(self):
        assert rho_upper(self.h, 1.0, 1.0, 0.0, 1.0) == pytest.approx(
            2.3784142300054421, abs=1e-9
        )

    def test_exact_below_upper_spot(self):
        for t1, t2 in ((0.0, 0.6), (0.2, 0.9)):
            re = rho_exact(self.model, 100.0, t1, t2)
            ru = rho_upper(self.h, 1.0, 1.0, t1, t2)
            assert re <= ru + 1e-9

    def test_pair_arrays_are_one_batch(self, monkeypatch):
        t1, t2 = np.array([0.0, 0.2, 0.5]), np.array([0.6, 0.9, 0.5])
        scalar = [rho_exact(self.model, 100.0, float(a), float(b)) for a, b in zip(t1, t2)]
        assert all(isinstance(v, float) for v in scalar)
        calls = []
        real = spectral_mod.cov_finite
        monkeypatch.setattr(spectral_mod, "cov_finite", lambda *args: calls.append(args) or real(*args))
        got = rho_exact(self.model, 100.0, t1, t2)
        assert len(calls) == 1 and got.shape == (3,)
        np.testing.assert_allclose(got, scalar, rtol=1e-9, atol=1e-12)

    def test_negative_squared_increment_names_the_first_pair(self, monkeypatch):
        # variances 1, 1 and covariances 0.5, 1.1, 1.2: the second and third
        # pairs have squared increments -0.2 and -0.4
        fake = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.1, 1.2])
        monkeypatch.setattr(spectral_mod, "cov_finite", lambda *args: fake)
        with pytest.raises(ConsistencyError, match=r"-2\.000e-01 at taus=\(0\.2, 0\.7\)"):
            rho_exact(self.model, 100.0, [0.0, 0.2, 0.4], [0.6, 0.7, 0.8])


class TestSettings:
    def test_model_checks_window_constant(self):
        with pytest.raises(ValueError, match="does not match"):
            CovarianceModel(h=make_sinc(), g=make_triangular(5.0, 2.0), c=1.0)

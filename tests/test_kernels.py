"""Kernel constructors, family conditions, and transforms."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from correlogram.kernels import (
    KERNELS,
    autocorrelation,
    check_family_conditions,
    check_weighted_spectral,
    family_from_name,
    kernel_from_spec,
    load_kernel_csv,
    make_hilbert_sinc,
    make_laplace,
    make_one_sided_box,
    make_sinc,
    make_tabulated,
    make_triangular,
)


class TestTriangular:
    def test_time_values(self):
        k = make_triangular(2.0, 3.0)
        # c*delta*(1 - delta*|t|)+ : peak 6 at 0, zero beyond |t|=1/2
        assert k.time_eval(0.0) == pytest.approx(6.0)
        assert k.time_eval(0.25) == pytest.approx(3.0)
        assert k.time_eval(-0.25) == pytest.approx(3.0)
        assert k.time_eval(0.5) == 0.0
        assert k.time_eval(0.7) == 0.0

    def test_transform_value(self):
        k = make_triangular(2.0, 3.0)
        assert k.ftf_eval(4.0) == pytest.approx(2.1242202548207136, abs=1e-12)

    def test_transform_peak_and_positivity(self):
        k = make_triangular(5.0, 2.0)
        lam = np.linspace(-80.0, 80.0, 4001)
        vals = np.real(k.ftf_eval(lam))
        assert vals.max() == pytest.approx(2.0, abs=1e-12)
        assert np.all(vals >= -1e-12)

    def test_l2_norm(self):
        # ||g||_2^2 = (2/3) c^2 delta
        k = make_triangular(4.0, 1.5)
        assert k.l2_norm == pytest.approx(math.sqrt(2.0 / 3.0 * 1.5**2 * 4.0), rel=1e-12)

    @given(
        delta=st.floats(0.1, 50.0),
        c=st.floats(0.1, 10.0),
        t=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_even_in_time(self, delta, c, t):
        k = make_triangular(delta, c)
        assert k.time_eval(t) == pytest.approx(k.time_eval(-t), abs=1e-12)


class TestLaplace:
    def test_time_value(self):
        k = make_laplace(3.0, 2.0)
        assert k.time_eval(1.0) == pytest.approx(0.14936120510359183, abs=1e-15)

    def test_transform_is_lorentzian(self):
        k = make_laplace(3.0, 2.0)
        for lam in (0.0, 1.0, 7.5):
            want = 2.0 * 9.0 / (9.0 + lam**2)
            assert np.real(k.ftf_eval(lam)) == pytest.approx(want, rel=1e-12)

    def test_l2_norm(self):
        # ||g||_2^2 = c^2 delta / 4
        k = make_laplace(5.0, 1.0)
        assert k.l2_norm == pytest.approx(math.sqrt(5.0 / 4.0), rel=1e-12)


class TestSincPair:
    def test_sinc_time_and_band_limit(self):
        h = make_sinc()
        assert h.time_eval(0.0) == pytest.approx(1.0)
        assert h.time_eval(0.5) == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert h.time_eval(1.0) == pytest.approx(0.0, abs=1e-15)
        assert h.band_limit == pytest.approx(math.pi)
        assert abs(h.ftf_eval(3.0)) == pytest.approx(1.0)
        assert abs(h.ftf_eval(3.5)) == 0.0

    def test_hilbert_sinc_is_odd_with_flat_modulus(self):
        h = make_hilbert_sinc()
        t = np.linspace(0.1, 4.0, 17)
        np.testing.assert_allclose(h.time_eval(-t), -h.time_eval(t), atol=1e-14)
        lam = np.array([0.3, 1.0, 3.0])
        np.testing.assert_allclose(np.abs(h.ftf_eval(lam)), 1.0, atol=1e-12)
        # transform of an odd real function is purely imaginary
        assert np.max(np.abs(np.real(h.ftf_eval(lam)))) < 1e-12
        # and its phase is -i sign(lam): int e^{-i lam t} h(t) dt is
        # -2i int_0^inf sin(lam t) h(t) dt for an odd h
        for x in lam:
            want = -2.0 * quad(h.time_eval, 0.0, np.inf, weight="sin", wvar=x)[0]
            assert h.ftf_eval(x).imag == pytest.approx(want, abs=1e-6)
            assert h.ftf_eval(-x).imag == pytest.approx(-want, abs=1e-6)

    def test_unit_l2(self):
        assert make_sinc().l2_norm == pytest.approx(1.0, rel=1e-9)
        assert make_hilbert_sinc().l2_norm == pytest.approx(1.0, rel=1e-6)


class TestAutocorrelation:
    def test_sinc_reproduces_itself(self):
        # |H*|^2 = 1 on the band, so h*h has the same transform as h
        h = make_sinc()
        for lag in (0.0, 0.35, 1.0, 2.5):
            assert autocorrelation(h, lag) == pytest.approx(float(np.sinc(lag)), abs=1e-9)

    def test_odd_kernel_convolution_sign(self):
        # (h*h)^* = (H*)^2 = -1 on the band for the Hilbert pair, so the
        # convolution at lag 0 is -||h||^2, not +||h||^2.
        h = make_hilbert_sinc()
        assert autocorrelation(h, 0.0) == pytest.approx(-1.0, abs=1e-6)

    def test_triangular_matches_time_domain(self):
        g = make_triangular(2.0, 1.0)
        for lag in (0.0, 0.2, 0.45):
            want, _ = quad(
                lambda s: g.time_eval(s) * g.time_eval(lag - s), -0.5, 0.5, limit=200
            )
            assert autocorrelation(g, lag) == pytest.approx(want, abs=1e-8)


class TestFamilies:
    def test_triangular_ladder_passes_conditions(self):
        fam = family_from_name("triangular", 1.0)
        report = check_family_conditions(fam, [10, 100, 1000, 1e4, 1e5], 1.0)
        assert report["passed"]
        assert report["checks"]["ftf_sup_bounded"]["constant"] == pytest.approx(1.0, abs=1e-9)

    def test_laplace_ladder_passes_conditions(self):
        report = check_family_conditions(family_from_name("laplace", 2.0), [10, 100, 1e3, 1e4, 1e5], 1.0)
        assert report["passed"]

    def test_one_sided_box_fails_evenness(self):
        report = check_family_conditions(family_from_name("one_sided_box", 1.0), [10, 100, 1000], 1.0)
        assert not report["checks"]["even"]["passed"]
        assert not report["passed"]

    def test_deltas_must_ascend(self):
        with pytest.raises(ValueError):
            check_family_conditions(family_from_name("triangular", 1.0), [100, 10], 1.0)

    def test_family_lookup(self):
        fam = family_from_name("laplace", 2.0)
        k = fam(3.0)
        assert k.time_eval(1.0) == pytest.approx(0.14936120510359183, abs=1e-15)
        with pytest.raises(ValueError, match="unknown window family"):
            family_from_name("gaussian", 1.0)

    def test_report_dict_round_trips_to_json(self):
        import json

        report = check_family_conditions(family_from_name("triangular", 1.0), [10, 100], 1.0)
        parsed = json.loads(json.dumps(report))
        assert parsed["family"] == "triangular"
        assert set(parsed["checks"]) == {
            "l2_finite", "even", "ftf_sup_bounded", "compact_limit",
        }


class TestWeightedSpectral:
    def test_band_limited_integral_converges(self):
        res = check_weighted_spectral(make_sinc(), 2.0, 50.0)
        assert list(res) == ["value", "relative_change", "converged"]
        assert res["converged"]
        # closed form: 2 * int_0^pi ln(1+lam)^2 dlam
        want, _ = quad(lambda lam: np.log1p(lam) ** 2, 0.0, math.pi)
        assert res["value"] == pytest.approx(2.0 * want, rel=1e-6)

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            check_weighted_spectral(make_sinc(), 1.0, 50.0)


class TestSpecsAndTabulated:
    def test_kernel_from_spec_dispatch(self):
        k = kernel_from_spec({"name": "triangular", "delta": 2.0, "c": 3.0})
        assert k.time_eval(0.0) == pytest.approx(6.0)
        assert kernel_from_spec({"name": "sinc"}).band_limit == pytest.approx(math.pi)
        with pytest.raises(ValueError):
            kernel_from_spec({"name": "nope"})

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_every_kernel_builds_from_a_minimal_spec(self, name):
        params = {
            "triangular": {"delta": 2.0, "c": 1.0},
            "laplace": {"delta": 2.0, "c": 1.0},
            "one_sided_box": {"delta": 2.0, "c": 1.0},
            "tabulated": {"times": [-1.0, 0.0, 1.0], "values": [0.0, 1.0, 0.0]},
        }.get(name, {})
        k = kernel_from_spec({"name": name, **params})
        assert k.name == name
        assert isinstance(k.time_eval(0.5), float)
        assert isinstance(k.ftf_eval(0.5), complex)
        assert k.time_eval(np.zeros(3)).shape == (3,)

    def test_readme_kernel_table_matches_kernels(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index("| name | parameters | kernel |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            name, params, _ = (c.strip() for c in line.strip("|").split("|"))
            rows.append((name.strip("`"), re.findall(r"`(\w+)`", params)))
        assert rows == [
            (name, list(inspect.signature(make).parameters)) for name, make in KERNELS.items()
        ]

    def test_tabulated_round_trip(self, tmp_path):
        base = make_triangular(2.0, 1.0)
        t = np.linspace(-0.6, 0.6, 241)
        target = tmp_path / "kern.csv"
        with open(target, "w") as fh:
            fh.write("t,value\n")
            for ti, vi in zip(t, base.time_eval(t)):
                fh.write(f"{float(ti)!r},{float(vi)!r}\n")
        k = load_kernel_csv(target)
        probe = np.linspace(-0.5, 0.5, 11)
        np.testing.assert_allclose(k.time_eval(probe), base.time_eval(probe), atol=5e-3)

    def test_tabulated_needs_grid(self):
        with pytest.raises(ValueError):
            make_tabulated([0.0, 1.0, 1.5], [1.0, 2.0, 3.0])

    def test_csv_row_without_value_is_rejected(self, tmp_path):
        target = tmp_path / "kern.csv"
        target.write_text("t,value\n0.0,1.0\n0.5\n")
        with pytest.raises(ValueError, match="no value column"):
            load_kernel_csv(target)

    @pytest.mark.parametrize("cell, message", [
        ("abc", r"non-numeric value in row \['0.5', 'abc'\] in .*kern.csv"),
        ("nan", "times and values must be finite in .*kern.csv"),
    ], ids=["text", "nan"])
    def test_csv_bad_value_names_the_file(self, tmp_path, cell, message):
        target = tmp_path / "kern.csv"
        target.write_text(f"t,value\n0.0,1.0\n0.5,{cell}\n")
        with pytest.raises(ValueError, match=message):
            load_kernel_csv(target)

    def test_csv_second_header_row_names_the_file(self, tmp_path):
        # one header row is skipped; a second non-numeric row before the
        # first sample is an error naming its row and the file
        target = tmp_path / "kern.csv"
        target.write_text("t,value\nfoo,bar\nbaz\n-0.5,0.0\n0.0,1.0\n0.5,0.0\n")
        with pytest.raises(ValueError, match=r"non-numeric row 2 \['foo', 'bar'\] in .*kern.csv"):
            load_kernel_csv(target)

    def test_one_sided_box_mass(self):
        k = make_one_sided_box(4.0, 1.0)
        # c*delta on [0, 1/delta]
        assert k.time_eval(0.1) == pytest.approx(4.0)
        assert k.time_eval(-0.1) == 0.0


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, True, "2"])
    def test_positive_parameters_enforced(self, bad):
        with pytest.raises(ValueError):
            make_triangular(bad, 1.0)
        with pytest.raises(ValueError):
            make_laplace(1.0, bad)

    def test_numpy_scalars_are_numbers(self):
        k = make_triangular(np.float64(2.0), np.int64(3))
        assert k.params == {"delta": 2.0, "c": 3.0}

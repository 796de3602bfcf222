"""Cross-correlogram estimator: exact lattice sums, bias, round trips."""

import numpy as np
import pytest
from scipy.integrate import quad

from correlogram.errors import CoverageError
from correlogram.estimator import (
    CorrelogramEstimate,
    centered_process,
    cross_correlogram,
    estimate_correlogram,
    read_estimate_csv,
    snap_tau_grid,
    theoretical_bias,
    write_estimate_csv,
)
from correlogram.kernels import make_laplace, make_sinc, make_triangular
from correlogram.simulate import _CSV_CHUNK_ROWS, NoiseSeed, SampledPath, TimeGrid, simulate_pair


def _const_paths(value_y, value_x, grid):
    y = SampledPath(grid=grid, values=np.full(grid.n, value_y), label="Y")
    x = SampledPath(grid=grid, values=np.full(grid.n, value_x), label="X")
    return y, x


def test_snap_rounds_to_lattice():
    np.testing.assert_allclose(
        snap_tau_grid([0.0, 0.104, 0.25], 0.1), [0.0, 0.1, 0.2], atol=1e-12
    )


class TestCrossCorrelogram:
    def test_constant_paths_give_one_over_c(self):
        grid = TimeGrid(0.0, 0.1, 61)
        y, x = _const_paths(1.0, 1.0, grid)
        vals = cross_correlogram(y, x, c=2.0, T=5.0, tau_grid=[0.0, 0.5, 1.0])
        np.testing.assert_allclose(vals, 0.5, rtol=1e-12)

    def test_linear_path_closed_form(self):
        # Y(t)=t, X=1: left-Riemann sum over [0,T) gives
        # ((T-dt)/2 + tau)/c exactly.
        dt, T, c = 0.05, 4.0, 1.5
        grid = TimeGrid(-1.0, dt, int(round(6.0 / dt)) + 1)
        y = SampledPath(grid=grid, values=grid.times(), label="Y")
        x = SampledPath(grid=grid, values=np.ones(grid.n), label="X")
        taus = np.array([-0.5, 0.0, 0.75])
        vals = cross_correlogram(y, x, c=c, T=T, tau_grid=taus)
        np.testing.assert_allclose(vals, ((T - dt) / 2.0 + taus) / c, rtol=1e-12)

    def test_missing_lead_in_raises_coverage(self):
        grid = TimeGrid(0.0, 0.1, 61)  # starts at 0, negative lag needs more
        y, x = _const_paths(1.0, 1.0, grid)
        with pytest.raises(CoverageError) as info:
            cross_correlogram(y, x, c=1.0, T=5.0, tau_grid=[-0.5, 0.0])
        lo, hi = info.value.required_span
        assert lo == pytest.approx(-0.5)
        assert hi == pytest.approx(5.0)

    def test_missing_tail_raises_coverage(self):
        grid = TimeGrid(0.0, 0.1, 61)
        y, x = _const_paths(1.0, 1.0, grid)
        with pytest.raises(CoverageError):
            cross_correlogram(y, x, c=1.0, T=5.0, tau_grid=[0.0, 1.5])

    def test_grids_must_match(self):
        y, _ = _const_paths(1.0, 1.0, TimeGrid(0.0, 0.1, 61))
        _, x = _const_paths(1.0, 1.0, TimeGrid(0.0, 0.05, 121))
        with pytest.raises(ValueError):
            cross_correlogram(y, x, c=1.0, T=5.0, tau_grid=[0.0])

    def test_T_must_sit_on_lattice(self):
        grid = TimeGrid(0.0, 0.1, 61)
        y, x = _const_paths(1.0, 1.0, grid)
        with pytest.raises(ValueError):
            cross_correlogram(y, x, c=1.0, T=5.03, tau_grid=[0.0])


class TestTheoreticalBias:
    def test_matches_overlap_integral(self):
        # E Hhat(tau) = (1/c) int g(s) H(s+tau) ds
        h, g, c = make_sinc(), make_triangular(10.0, 2.0), 2.0
        for tau in (0.0, 0.3, 1.2):
            want, _ = quad(
                lambda s: g.time_eval(s) * h.time_eval(s + tau) / c,
                -0.1, 0.1, limit=200,
            )
            assert theoretical_bias(h, g, c, tau) == pytest.approx(want, abs=1e-9)

    def test_routes_agree(self):
        h, g, c = make_laplace(1.0, 1.0), make_triangular(5.0, 1.0), 1.0
        for tau in (0.0, 0.7):
            t_route = theoretical_bias(h, g, c, tau, route="time")
            s_route = theoretical_bias(h, g, c, tau, route="frequency")
            assert t_route == pytest.approx(s_route, abs=1e-7)

    def test_concentrates_on_h(self):
        # As delta grows the smoothed mean approaches H(tau) itself.
        h, c = make_sinc(), 1.0
        tau = 0.4
        errs = [
            abs(theoretical_bias(h, make_triangular(d, c), c, tau) - h.time_eval(tau))
            for d in (5.0, 50.0, 500.0)
        ]
        assert errs[0] > errs[1] > errs[2]


class TestEstimate:
    def _run(self, tmp_path=None):
        h, g, c = make_sinc(), make_triangular(2.0, 1.0), 1.0
        dt, T = 0.05, 10.0
        taus = (0.0, 0.5)
        grid = TimeGrid(0.0, dt, int(round((T + 0.5) / dt)) + 1)
        y, x = simulate_pair(h, g, grid, NoiseSeed(99))
        return estimate_correlogram(
            h, g, c, y, x, T, taus, seed_info={"seed": 99, "stream_id": 0}
        )

    def test_fields_are_consistent(self):
        est = self._run()
        np.testing.assert_allclose(
            est.z_hat, np.sqrt(est.T) * (est.h_hat - est.h_mean), rtol=1e-12
        )
        np.testing.assert_allclose(centered_process(est), est.z_hat, rtol=1e-12)
        assert est.h_mean[0] == pytest.approx(
            theoretical_bias(make_sinc(), make_triangular(2.0, 1.0), 1.0, 0.0),
            abs=1e-9,
        )

    def test_csv_round_trip(self, tmp_path):
        est = self._run()
        target = tmp_path / "est.csv"
        write_estimate_csv(est, target)
        back = read_estimate_csv(target)
        np.testing.assert_array_equal(back.tau_grid, est.tau_grid)
        np.testing.assert_array_equal(back.h_hat, est.h_hat)
        np.testing.assert_array_equal(back.z_hat, est.z_hat)
        assert back.T == est.T and back.delta == est.delta
        assert back.seed == {"seed": 99, "stream_id": 0}

    def test_csv_bytes_match_csv_writer(self, tmp_path, csv_edge_column, csv_writer_bytes):
        n = 3 * _CSV_CHUNK_ROWS + 7
        cols = [np.arange(n) / 3.0] + [csv_edge_column(n, shift) for shift in (0, 3, 5)]
        est = CorrelogramEstimate(*cols, T=1.0, delta=1.0, c=1.0)
        rows = [[repr(float(v)) for v in row] for row in zip(*cols)]
        write_estimate_csv(est, tmp_path / "est.csv")
        header = ["tau", "h_hat", "h_mean", "z_hat"]
        assert (tmp_path / "est.csv").read_bytes() == csv_writer_bytes(header, rows)

    def test_sidecar_written(self, tmp_path):
        import json

        est = self._run()
        target = tmp_path / "est.csv"
        write_estimate_csv(est, target)
        sidecar = json.loads((tmp_path / "est.json").read_text())
        assert sidecar["T"] == est.T
        assert sidecar["seed"]["seed"] == 99


def test_estimate_validation():
    with pytest.raises(ValueError):
        CorrelogramEstimate(
            tau_grid=np.array([0.0, 1.0]),
            h_hat=np.zeros(2),
            h_mean=np.zeros(2),
            z_hat=np.zeros(3),
            T=1.0,
            delta=1.0,
            c=1.0,
        )
    with pytest.raises(ValueError):
        CorrelogramEstimate(
            tau_grid=np.array([1.0, 0.0]),
            h_hat=np.zeros(2),
            h_mean=np.zeros(2),
            z_hat=np.zeros(2),
            T=1.0,
            delta=1.0,
            c=1.0,
        )

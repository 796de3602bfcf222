"""Cross-correlogram estimator: exact lattice sums, bias, round trips."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

import correlogram.estimator as estimator_mod
import correlogram.simulate as simulate_mod
from correlogram.errors import CoverageError
from correlogram.estimator import (
    cross_correlogram,
    estimate_correlogram,
    estimation_grid,
    snap_tau_grid,
    theoretical_bias,
    write_estimate_csv,
)
from correlogram.kernels import make_hilbert_sinc, make_laplace, make_sinc, make_triangular
from correlogram.quadrature import lagged_product_frequency, lagged_product_time
from correlogram.simulate import (
    _CSV_CHUNK_ROWS,
    NoiseSeed,
    PathBlocks,
    SampledPath,
    Simulator,
    TimeGrid,
    simulate_pair,
)


def _const_paths(value_y, value_x, grid):
    y = SampledPath(grid=grid, values=np.full(grid.n, value_y))
    x = SampledPath(grid=grid, values=np.full(grid.n, value_x))
    return y, x


def test_snap_rounds_to_lattice():
    np.testing.assert_allclose(
        snap_tau_grid([0.0, 0.104, 0.25], 0.1), [0.0, 0.1, 0.2], atol=1e-12
    )


def test_grid_whose_span_overflows_is_rejected():
    # each lag is a finite float of dt steps, the span between them is not
    with pytest.raises(ValueError, match="overflows a float"):
        estimation_grid(40.0, 0.01, [-1e306, 1e306])


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
        y = SampledPath(grid=grid, values=grid.times())
        x = SampledPath(grid=grid, values=np.ones(grid.n))
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

    @pytest.mark.parametrize("sizes, message", [
        ([5, 5], "hold 10 samples, but their grid has n=21"),
        ([8, 8, 8], "run past their grid's n=21: 24 samples so far"),
    ], ids=["short", "past"])
    def test_blocks_must_fill_the_grid(self, sizes, message):
        # blocks that stop after the window or run past the grid would sum
        # the wrong samples, or only some of them
        grid = TimeGrid(0.0, 0.1, 21)
        Y, X = (PathBlocks(grid, (np.ones(m) for m in sizes)) for _ in range(2))
        with pytest.raises(ValueError, match=message):
            cross_correlogram(Y, X, 1.0, 1.0, [0.0, 0.5, 1.0])

    def test_streamed_pair_is_read_once(self):
        grid = estimation_grid(2.0, 0.05, [0.0, 1.0])
        Y, X = simulate_pair(Simulator((make_sinc(), make_triangular(2.0, 1.0)), grid), NoiseSeed(1))
        cross_correlogram(Y, X, 1.0, 2.0, [0.0, 1.0])
        with pytest.raises(ValueError, match=f"hold 0 samples, but their grid has n={grid.n}"):
            cross_correlogram(Y, X, 1.0, 2.0, [0.0, 1.0])


class TestFFTRoute:
    """cross_correlogram against one dot product per lag: the loop route
    for up to _DOT_MAX_LAGS lags, the FFT route above."""

    DT, C, N_T = 0.01, 1.5, 20000

    def _paths(self, lo, hi, n_T=N_T):
        # noise on a lattice covering the window shifted by every lag in [lo, hi]
        grid = TimeGrid(min(0, lo) * self.DT, self.DT, n_T + max(0, hi) - min(0, lo))
        rng = NoiseSeed(31).generator()
        y = SampledPath(grid=grid, values=rng.standard_normal(grid.n))
        x = SampledPath(grid=grid, values=1.0 + rng.standard_normal(grid.n))
        return y, x

    def _dot_loop(self, y, x, shifts, n_T=N_T, block=N_T):
        """The reference: (dt / (c T)) times the sum over the window blocks
        [b, b + block) of Y[j0+k+b : ...] . X[j0+b : ...] per lag k, and the
        tolerance |fft - loop| <= 1e-12 scale |Y_seg| |x_win| fixed from the
        float64 epsilon times a margin for the transform length."""
        j0 = round(-y.grid.t_start / self.DT)
        scale = self.DT / (self.C * (n_T * self.DT))
        total = None
        for b in range(j0, j0 + n_T, block):
            x_win = x.values[b : min(b + block, j0 + n_T)]
            part = np.array([np.dot(y.values[b + k : b + k + x_win.size], x_win) for k in shifts])
            total = part if total is None else total + part
        x_win = x.values[j0 : j0 + n_T]
        y_seg = y.values[j0 + shifts.min() : j0 + shifts.max() + n_T]
        return scale * total, 1e-12 * scale * np.linalg.norm(y_seg) * np.linalg.norm(x_win)

    @pytest.mark.parametrize(
        "shifts, route, n_T",
        [
            (np.arange(1001), "fft", N_T),
            (np.arange(-600, 401), "fft", N_T),
            (np.sort(np.random.default_rng(3).choice(np.arange(-3000, 9000), 300, replace=False)),
             "fft", N_T),
            (np.arange(-200, 57), "fft", N_T),
            (np.arange(-600, -300), "fft", N_T),
            (np.arange(-200, 56), "loop", N_T),
            (np.array([-3000, 0, 50, 9000]), "loop", N_T),
            # np.correlate rounds windows of up to 11 samples its own way
            (np.arange(4), "loop", 7),
            (np.arange(4), "loop", 12),
        ],
        ids=["dense_1001", "negative_1001", "sparse_300_wide", "one_above", "all_negative_300",
             "at_limit", "sparse_4", "window_7", "window_12"],
    )
    def test_matches_dot_loop(self, monkeypatch, shifts, route, n_T):
        ffts = []
        real_rfft = estimator_mod.rfft

        def counting_rfft(*args, **kwargs):
            ffts.append(args)
            return real_rfft(*args, **kwargs)

        monkeypatch.setattr(estimator_mod, "rfft", counting_rfft)
        assert (shifts.size > estimator_mod._DOT_MAX_LAGS) == (route == "fft")
        y, x = self._paths(int(shifts.min()), int(shifts.max()), n_T)
        got = cross_correlogram(y, x, self.C, n_T * self.DT, shifts * self.DT)
        want, atol = self._dot_loop(y, x, shifts, n_T)
        assert ("fft" if ffts else "loop") == route
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        if route == "loop":
            # the loop route sums the window in blocks of _DOT_BLOCK_SAMPLES
            blocks_want, _ = self._dot_loop(y, x, shifts, n_T, block=estimator_mod._DOT_BLOCK_SAMPLES)
            assert got.tobytes() == blocks_want.tobytes()


    @pytest.mark.parametrize("streamed", [False, True], ids=["whole", "streamed"])
    @pytest.mark.parametrize(
        "shifts, route, block",
        [
            (np.arange(1001), "fft", 333),
            (np.arange(-600, 401), "fft", 333),
            (np.arange(-600, -300), "fft", 333),
            (np.arange(-200, 56), "loop", 333),
            (np.array([-3000, 0, 50, 9000]), "loop", 333),
            (np.array([-500]), "loop", 333),
            # the last block holds 20000 - 10 * 1999 = 10 samples
            (np.arange(-200, 56), "loop", 1999),
        ],
        ids=["dense_1001", "negative_1001", "all_negative_300", "at_limit", "sparse_4",
             "all_negative_1", "short_last_block"],
    )
    def test_window_blocks_match_dot_loop(self, monkeypatch, shifts, route, block, streamed):
        # the 20 000-sample window in blocks of no whole number of them, from
        # whole paths or from paths streamed in uneven blocks
        monkeypatch.setattr(estimator_mod, "_BLOCK_SAMPLES", block)
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", block)
        ffts = []
        real_rfft = estimator_mod.rfft
        monkeypatch.setattr(estimator_mod, "rfft", lambda *a, **k: ffts.append(a) or real_rfft(*a, **k))
        y, x = self._paths(int(shifts.min()), int(shifts.max()))
        want, atol = self._dot_loop(y, x, shifts)
        blocks_want, _ = self._dot_loop(y, x, shifts, block=block)
        if streamed:
            y, x = (PathBlocks(p.grid, iter(np.array_split(p.values, 97))) for p in (y, x))
        got = cross_correlogram(y, x, self.C, self.N_T * self.DT, shifts * self.DT)
        assert len(ffts) == (2 * -(-self.N_T // block) if route == "fft" else 0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        if route == "loop":
            assert got.tobytes() == blocks_want.tobytes()

    @pytest.mark.parametrize(
        "shifts, n_T, block, correlates, dots",
        [
            (np.arange(101), N_T, 333, 61, 0),
            (np.array([-3000, 0, 50, 9000]), N_T, 333, 4 * 61, 0),
            (np.arange(4), 7, 333, 0, 4),
            # 10 window blocks of _DOT_BLOCK_SAMPLES = 2048, the last 1568
            (np.arange(101), N_T, None, 10, 0),
        ],
        ids=["dense_101", "sparse_4", "window_7", "dense_101_dot_blocks"],
    )
    def test_loop_route_sums_each_run_in_one_call(self, monkeypatch, shifts, n_T, block,
                                                  correlates, dots):
        # 61 window blocks of 333 samples, the last 20; a run of consecutive
        # lags takes one np.correlate per block, a window of <= 11 samples
        # one np.dot per lag
        if block is not None:
            monkeypatch.setattr(estimator_mod, "_BLOCK_SAMPLES", block)
        calls = {"correlate": 0, "dot": 0}

        def counting(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        y, x = self._paths(int(shifts.min()), int(shifts.max()), n_T)
        cross_correlogram(y, x, self.C, n_T * self.DT, shifts * self.DT)
        assert calls == {"correlate": correlates, "dot": dots}

    def test_paths_must_come_in_blocks_of_one_size(self):
        y, x = self._paths(0, 10)
        blocks = PathBlocks(x.grid, iter(np.array_split(x.values, 3)))
        with pytest.raises(ValueError, match="blocks of one size"):
            cross_correlogram(y, blocks, self.C, self.N_T * self.DT, [0.0, 0.1])


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
        g, c = make_triangular(5.0, 1.0), 1.0
        # the odd hilbert_sinc also checks the phase of its transform
        for h, taus in ((make_laplace(1.0, 1.0), [0.0, 0.7]),
                        (make_hilbert_sinc(), [-0.7, -0.2, 0.3, 0.9])):
            t_route = lagged_product_time(g, h, np.array(taus), +1) / c
            s_route = lagged_product_frequency(g, h, np.array(taus), +1) / c
            np.testing.assert_allclose(t_route, s_route, rtol=0, atol=1e-7)

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
    def _run(self):
        h, g, c = make_sinc(), make_triangular(2.0, 1.0), 1.0
        dt, T = 0.05, 10.0
        taus = (0.0, 0.5)
        grid = TimeGrid(0.0, dt, int(round((T + 0.5) / dt)) + 1)
        y, x = simulate_pair(Simulator((h, g), grid), NoiseSeed(99))
        return estimate_correlogram(h, g, c, y, x, T, taus)

    def test_fields_are_consistent(self):
        est = self._run()
        assert list(est) == ["tau", "h_hat", "h_mean", "z_hat"]
        np.testing.assert_allclose(
            est["z_hat"], np.sqrt(10.0) * (est["h_hat"] - est["h_mean"]), rtol=1e-12
        )
        assert est["h_mean"][0] == pytest.approx(
            theoretical_bias(make_sinc(), make_triangular(2.0, 1.0), 1.0, 0.0),
            abs=1e-9,
        )

    def test_csv_round_trip(self, tmp_path):
        est = self._run()
        target = tmp_path / "est.csv"
        sidecar = {"T": 10.0, "delta": 2.0, "c": 1.0, "dt": 0.05,
                   "seed": {"seed": 99, "stream_id": 0}}
        write_estimate_csv(est, sidecar, target)
        tau, h_hat, _, z_hat = np.loadtxt(target, delimiter=",", skiprows=1, unpack=True)
        np.testing.assert_array_equal(tau, est["tau"])
        np.testing.assert_array_equal(h_hat, est["h_hat"])
        np.testing.assert_array_equal(z_hat, est["z_hat"])

    def test_sidecar_written(self, tmp_path):
        est = self._run()
        target = tmp_path / "est.csv"
        sidecar = {"T": 10.0, "delta": 2.0, "c": 1.0, "dt": 0.05,
                   "seed": {"seed": 99, "stream_id": 0}}
        write_estimate_csv(est, sidecar, target)
        meta = (tmp_path / "est.json").read_text(encoding="utf-8")
        assert meta == json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        assert json.loads(meta)["seed"]["seed"] == 99

    def test_csv_bytes_match_csv_writer(self, tmp_path, csv_edge_column, csv_writer_bytes):
        n = 3 * _CSV_CHUNK_ROWS + 7
        header = ["tau", "h_hat", "h_mean", "z_hat"]
        cols = [np.arange(n) / 3.0] + [csv_edge_column(n, shift) for shift in (0, 3, 5)]
        rows = [[repr(float(v)) for v in row] for row in zip(*cols)]
        write_estimate_csv(dict(zip(header, cols)), {}, tmp_path / "est.csv")
        assert (tmp_path / "est.csv").read_bytes() == csv_writer_bytes(header, rows)

    def test_short_column_refused(self, tmp_path):
        # the rows once stopped at the shortest column without a word
        columns = {"tau": np.zeros(5), "h_hat": np.ones(5), "h_mean": np.ones(4), "z_hat": np.ones(5)}
        with pytest.raises(ValueError, match=r"one length, got lengths \[5, 5, 4, 5\]"):
            write_estimate_csv(columns, {}, tmp_path / "est.csv")

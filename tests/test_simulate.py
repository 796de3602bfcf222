"""Path simulation: seeding, increments, convolution outputs, file I/O."""

import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import correlogram.simulate as simulate_mod
from correlogram.errors import PadError
from correlogram.kernels import (
    make_hilbert_sinc,
    make_laplace,
    make_one_sided_box,
    make_sinc,
    make_tabulated,
    make_triangular,
)
from correlogram.simulate import (
    ConvolutionPlan,
    NoiseSeed,
    PairSimulator,
    SampledPath,
    TimeGrid,
    read_path_binary,
    read_path_csv,
    required_pad,
    simulate_output,
    simulate_pair,
    wiener_increments,
    write_path_binary,
    write_path_csv,
)


K = simulate_mod._CSV_CHUNK_ROWS


def test_grid_times_are_affine():
    grid = TimeGrid(t_start=-1.0, dt=0.25, n=9)
    np.testing.assert_allclose(grid.times(), -1.0 + 0.25 * np.arange(9))
    assert grid.t_end == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_start": 0.0, "dt": 0.0, "n": 5},
        {"t_start": 0.0, "dt": -0.1, "n": 5},
        {"t_start": 0.0, "dt": 0.1, "n": 0},
        {"t_start": math.inf, "dt": 0.1, "n": 5},
    ],
)
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        TimeGrid(**kwargs)


class TestSeeds:
    def test_same_key_same_stream(self):
        a = NoiseSeed(7, 3).generator().standard_normal(8)
        b = NoiseSeed(7, 3).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_spawned_streams_differ(self):
        base = NoiseSeed(7, 0)
        a = base.spawn(1).generator().standard_normal(8)
        b = base.spawn(2).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_generator_is_philox(self):
        assert isinstance(NoiseSeed(0).generator().bit_generator, np.random.Philox)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSeed(-1)
        with pytest.raises(ValueError):
            NoiseSeed(2**64)

    @given(seed=st.integers(0, 2**64 - 1), offset=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_spawn_wraps_in_uint64(self, seed, offset):
        s = NoiseSeed(seed, 2**64 - 1).spawn(offset)
        assert 0 <= s.stream_id < 2**64


class TestIncrements:
    def test_shape_and_scale(self):
        grid = TimeGrid(0.0, 0.01, 2001)
        inc = wiener_increments(grid, 100, NoiseSeed(5))
        assert inc.shape == (2001 + 200,)
        # Var dW = dt
        assert inc.var() == pytest.approx(0.01, rel=0.1)
        # 3 standard errors of the mean at Var = dt
        assert abs(inc.mean()) < 3.0 * math.sqrt(0.01 / inc.size)

    def test_draws_equal_scaled_normal_stream(self):
        # the same bits as Generator.normal(0, sqrt(dt)), also when drawn in place
        grid = TimeGrid(0.0, 0.01, 2001)
        want = NoiseSeed(5, 3).generator().normal(0.0, 0.1, size=2201)
        np.testing.assert_array_equal(wiener_increments(grid, 100, NoiseSeed(5, 3)), want)
        rows = np.zeros((2, 2201))
        row = rows[1]
        assert wiener_increments(grid, 100, NoiseSeed(5, 3), out=row) is row
        np.testing.assert_array_equal(rows, [np.zeros(2201), want])
        with pytest.raises(ValueError):
            wiener_increments(grid, 100, NoiseSeed(5, 3), out=rows)

    def test_pad_must_be_nonnegative_int(self):
        grid = TimeGrid(0.0, 0.1, 11)
        with pytest.raises(ValueError):
            wiener_increments(grid, -1, NoiseSeed(0))


def test_required_pad_covers_support():
    k = make_triangular(2.0, 1.0)  # support radius 1/2
    assert required_pad(k, 0.1) == 5
    assert required_pad(k, 0.3) == 2


class TestOutputs:
    def test_stationary_variance_matches_l2(self):
        # Var Y(t) = ||h||_2^2; estimated from one long path.
        h = make_laplace(2.0, 1.0)
        grid = TimeGrid(0.0, 0.01, 40001)
        pad = required_pad(h, 0.01)
        path = simulate_output(h, wiener_increments(grid, pad, NoiseSeed(11)), grid, pad)
        assert path.values.var() == pytest.approx(h.l2_norm**2, rel=0.2)

    def test_insufficient_pad_raises_with_hint(self):
        h = make_triangular(1.0, 1.0)
        grid = TimeGrid(0.0, 0.1, 51)
        inc = wiener_increments(grid, 3, NoiseSeed(0))
        with pytest.raises(PadError) as info:
            simulate_output(h, inc, grid, 3)
        assert info.value.required_pad == required_pad(h, 0.1)

    def test_under_resolved_window_warns(self):
        g = make_triangular(100.0, 1.0)
        grid = TimeGrid(0.0, 0.01, 101)
        pad = required_pad(g, 0.01)
        inc = wiener_increments(grid, pad, NoiseSeed(0))
        with pytest.warns(RuntimeWarning, match="under-resolves"):
            simulate_output(g, inc, grid, pad)

    def test_pair_shares_the_wiener_path(self):
        # With g close to a delta, X approximates c * white noise smoothed
        # by h's scale; the cheap check is exact equality of the Y output
        # when the pair is re-run from the same seed.
        h, g = make_sinc(), make_triangular(2.0, 1.0)
        grid = TimeGrid(0.0, 0.05, 201)
        y1, x1 = simulate_pair(h, g, grid, NoiseSeed(3))
        y2, x2 = simulate_pair(h, g, grid, NoiseSeed(3))
        np.testing.assert_array_equal(y1.values, y2.values)
        np.testing.assert_array_equal(x1.values, x2.values)

    def test_linearity_in_the_kernel(self):
        # simulate_output is linear: doubling c doubles the path.
        g1, g2 = make_triangular(2.0, 1.0), make_triangular(2.0, 2.0)
        grid = TimeGrid(0.0, 0.05, 101)
        pad = required_pad(g1, 0.05)
        inc = wiener_increments(grid, pad, NoiseSeed(9))
        p1 = simulate_output(g1, inc, grid, pad)
        p2 = simulate_output(g2, inc, grid, pad)
        np.testing.assert_allclose(2.0 * p1.values, p2.values, rtol=1e-12)


class TestConvolution:
    """simulate_output against the direct sum over the untrimmed taps."""

    @pytest.mark.filterwarnings("ignore:dt=.*under-resolves:RuntimeWarning")
    @pytest.mark.parametrize("extra_pad", [0, 37])
    @pytest.mark.parametrize(
        "kernel, dt, branch",
        [
            (make_sinc(), 0.05, "fft"),
            (make_hilbert_sinc(), 0.05, "fft"),
            (make_one_sided_box(10.0, 1.0), 0.01, "direct"),
            (make_laplace(2.0, 1.0), 0.01, "fft"),
            (make_triangular(10.0, 1.0), 0.01, "direct"),
            (make_triangular(100.0, 1.0), 0.01, "direct"),
        ],
        ids=["sinc", "hilbert_sinc", "one_sided_box", "laplace", "triangular10", "triangular100"],
    )
    def test_matches_direct_sum(self, monkeypatch, kernel, dt, branch, extra_pad):
        ffts = []
        real_irfft = simulate_mod.irfft

        def counting_irfft(*args, **kwargs):
            ffts.append(args)
            return real_irfft(*args, **kwargs)

        monkeypatch.setattr(simulate_mod, "irfft", counting_irfft)
        grid = TimeGrid(0.0, dt, 301)
        pad = required_pad(kernel, dt) + extra_pad
        inc = wiener_increments(grid, pad, NoiseSeed(17))
        taps = kernel.time_eval(dt * np.arange(-pad, pad + 1))
        want = np.convolve(inc, taps)[2 * pad : 2 * pad + grid.n]
        got = simulate_output(kernel, inc, grid, pad).values
        atol = 1e-12 * np.abs(taps).sum() * np.abs(inc).max()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        assert ("fft" if ffts else "direct") == branch

    @pytest.mark.filterwarnings("ignore:dt=.*under-resolves:RuntimeWarning")
    @pytest.mark.parametrize(
        "kernel",
        [make_sinc(), make_one_sided_box(10.0, 1.0), make_triangular(100.0, 1.0)],
        ids=["sinc_fft", "one_sided_box_direct", "triangular100_direct"],
    )
    def test_reused_plan_equals_fresh_plans(self, kernel):
        # each row through one plan has the bits of a plan of its own, and
        # a path keeps its values when the plan convolves the next row
        grid = TimeGrid(0.0, 0.05, 301)
        pad = required_pad(make_sinc(), 0.05)
        inc = [wiener_increments(grid, pad, NoiseSeed(17, i)) for i in range(4)]
        plan = ConvolutionPlan(kernel, grid, pad)
        got = [simulate_output(kernel, row, grid, pad, plan=plan) for row in inc]
        for row, path in zip(inc, got):
            np.testing.assert_array_equal(path.values, simulate_output(kernel, row, grid, pad).values)

    def test_plan_must_match_its_kernel_grid_and_pad(self):
        k = make_triangular(2.0, 1.0)
        grid = TimeGrid(0.0, 0.05, 101)
        pad = required_pad(k, 0.05)
        inc = wiener_increments(grid, pad + 1, NoiseSeed(1))
        with pytest.raises(ValueError, match="plan"):
            simulate_output(k, inc, grid, pad + 1, plan=ConvolutionPlan(k, grid, pad))

    def test_pair_simulator_reuse(self):
        h, g, grid = make_sinc(), make_triangular(2.0, 1.0), TimeGrid(0.0, 0.05, 101)
        sim = PairSimulator(h, g, grid)
        got = [simulate_pair(h, g, grid, NoiseSeed(i), simulator=sim) for i in (2, 1)]
        for i, pair in zip((2, 1), got):
            assert [p.label for p in pair] == ["Y", "X"]
            for a, b in zip(pair, simulate_pair(h, g, grid, NoiseSeed(i))):
                np.testing.assert_array_equal(a.values, b.values)
        with pytest.raises(ValueError, match="other kernels"):
            simulate_pair(h, make_triangular(2.0, 1.0), grid, NoiseSeed(1), simulator=sim)

    @pytest.mark.parametrize(
        "values",
        [[0.0, 0.0, 0.0], [1.0, 2.0, 1.0]],
        ids=["zero_values", "between_lattice_points"],
    )
    def test_all_zero_taps_give_zero_path(self, values):
        # Samples at 0.02, 0.03, 0.04: the second kernel is nonzero only
        # strictly between the lattice points 0 and 0.1.
        k = make_tabulated([0.02, 0.03, 0.04], values)
        grid = TimeGrid(0.0, 0.1, 21)
        pad = required_pad(k, 0.1)
        path = simulate_output(k, wiener_increments(grid, pad, NoiseSeed(4)), grid, pad)
        np.testing.assert_array_equal(path.values, np.zeros(grid.n))


class TestPathIO:
    def _path(self):
        grid = TimeGrid(-0.5, 0.125, 17)
        values = NoiseSeed(21).generator().standard_normal(17)
        return SampledPath(grid=grid, values=values, label="Y")

    def test_csv_round_trip_is_exact(self, tmp_path):
        p = self._path()
        target = tmp_path / "p.csv"
        write_path_csv(p, target)
        q = read_path_csv(target, label="Y")
        assert q.grid == p.grid
        np.testing.assert_array_equal(q.values, p.values)

    def test_binary_round_trip_is_exact(self, tmp_path):
        p = self._path()
        target = tmp_path / "p.bin"
        write_path_binary(p, target)
        q = read_path_binary(target, label="Y")
        assert q.grid == p.grid
        np.testing.assert_array_equal(q.values, p.values)

    def test_binary_layout_is_pinned(self, tmp_path):
        # header '<Qdd' (n, dt, t_start) then n little-endian float64
        p = self._path()
        target = tmp_path / "p.bin"
        write_path_binary(p, target)
        blob = target.read_bytes()
        n, dt, t0 = struct.unpack_from("<Qdd", blob)
        assert (n, dt, t0) == (17, 0.125, -0.5)
        assert len(blob) == struct.calcsize("<Qdd") + 17 * 8

    @pytest.mark.parametrize("extra", [1 - K, -1, 0, 1, 2 * K + 7])
    def test_csv_bytes_match_csv_writer(self, tmp_path, csv_edge_column, csv_writer_bytes, extra):
        # K + extra rows: one row, both sides of the first chunk edge, and
        # a partial fourth chunk
        n = K + extra
        p = SampledPath(grid=TimeGrid(-1 / 3, 1 / 3, n), values=csv_edge_column(n))
        rows = [[repr(float(t)), repr(float(v))] for t, v in zip(p.grid.times(), p.values)]
        write_path_csv(p, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == csv_writer_bytes(["t", "value"], rows)

    def test_csv_write_memory_is_chunked(self, tmp_path):
        n = 500_001
        p = SampledPath(grid=TimeGrid(0.0, 1e-3, n), values=NoiseSeed(5).generator().normal(size=n))
        tracemalloc.start()
        try:
            write_path_csv(p, tmp_path / "long.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 8.1 MB, nearly all of it the 4 MB times array and its
        # temporaries; formatting the whole file as one chunk peaks at 79 MB
        assert peak < 16e6

    def test_truncated_binary_rejected(self, tmp_path):
        p = self._path()
        target = tmp_path / "p.bin"
        write_path_binary(p, target)
        target.write_bytes(target.read_bytes()[:-4])
        with pytest.raises(ValueError):
            read_path_binary(target)


def test_path_values_validated():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledPath(grid=grid, values=np.ones(3))
    with pytest.raises(ValueError):
        SampledPath(grid=grid, values=np.array([1.0, np.nan, 0.0, 0.0]))

"""Path simulation: seeding, increments, convolution outputs, file I/O."""

import io
import math
import pickle
import struct
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import correlogram.simulate as simulate_mod
from correlogram.errors import PadError
from correlogram.estimator import write_estimate_csv
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
    PathBlocks,
    SampledPath,
    Simulator,
    TimeGrid,
    read_path_binary,
    read_path_csv,
    required_pad,
    simulate_output,
    simulate_pair,
    wiener_increments,
    write_path_binary,
    write_path_csv,
    write_path_files,
)
from correlogram.montecarlo import write_trajectories_csv


K = simulate_mod._CSV_CHUNK_ROWS
#: the chunk that the csv.writer edge tests patch in; the bytes do not depend
#: on it (``test_bytes_do_not_depend_on_the_chunk`` compares it with ``K``)
EDGE_K = 2048


def output(k, increments, grid, pad):
    """The path of a fresh plan of ``(k, grid, pad)``."""
    return simulate_output(ConvolutionPlan(k, grid, pad), increments)


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
        # the same bits as Generator.normal(0, sqrt(dt))
        grid = TimeGrid(0.0, 0.01, 2001)
        want = NoiseSeed(5, 3).generator().normal(0.0, 0.1, size=2201)
        np.testing.assert_array_equal(wiener_increments(grid, 100, NoiseSeed(5, 3)), want)

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
        path = output(h, wiener_increments(grid, pad, NoiseSeed(11)), grid, pad)
        assert path.values.var() == pytest.approx(h.l2_norm**2, rel=0.2)

    def test_insufficient_pad_raises_with_hint(self):
        h = make_triangular(1.0, 1.0)
        grid = TimeGrid(0.0, 0.1, 51)
        inc = wiener_increments(grid, 3, NoiseSeed(0))
        with pytest.raises(PadError) as info:
            output(h, inc, grid, 3)
        assert info.value.required_pad == required_pad(h, 0.1)

    def test_under_resolved_window_warns(self):
        g = make_triangular(100.0, 1.0)
        grid = TimeGrid(0.0, 0.01, 101)
        pad = required_pad(g, 0.01)
        inc = wiener_increments(grid, pad, NoiseSeed(0))
        with pytest.warns(RuntimeWarning, match="under-resolves"):
            output(g, inc, grid, pad)

    def test_pair_shares_the_wiener_path(self):
        # With g close to a delta, X approximates c * white noise smoothed
        # by h's scale; the cheap check is exact equality of the Y output
        # when the pair is re-run from the same seed.
        h, g = make_sinc(), make_triangular(2.0, 1.0)
        grid = TimeGrid(0.0, 0.05, 201)
        y1, x1 = _joined(simulate_pair(Simulator((h, g), grid), NoiseSeed(3)))
        y2, x2 = _joined(simulate_pair(Simulator((h, g), grid), NoiseSeed(3)))
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(x1, x2)

    def test_linearity_in_the_kernel(self):
        # simulate_output is linear: doubling c doubles the path.
        g1, g2 = make_triangular(2.0, 1.0), make_triangular(2.0, 2.0)
        grid = TimeGrid(0.0, 0.05, 101)
        pad = required_pad(g1, 0.05)
        inc = wiener_increments(grid, pad, NoiseSeed(9))
        p1 = output(g1, inc, grid, pad)
        p2 = output(g2, inc, grid, pad)
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
            # 1000 taps, trimmed of their zero half: an FFT on an offset segment
            (make_one_sided_box(0.1, 1.0), 0.01, "fft"),
            (make_laplace(2.0, 1.0), 0.01, "fft"),
            (make_triangular(10.0, 1.0), 0.01, "direct"),
            (make_triangular(100.0, 1.0), 0.01, "direct"),
        ],
        ids=["sinc", "hilbert_sinc", "one_sided_box", "one_sided_box_fft", "laplace",
             "triangular10", "triangular100"],
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
        got = output(kernel, inc, grid, pad).values
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
        got = [simulate_output(plan, row) for row in inc]
        for row, path in zip(inc, got):
            np.testing.assert_array_equal(path.values, output(kernel, row, grid, pad).values)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_output_rejects_increments_of_another_length(self, extra):
        k = make_triangular(2.0, 1.0)
        grid = TimeGrid(0.0, 0.05, 101)
        pad = required_pad(k, 0.05)
        plan = ConvolutionPlan(k, grid, pad)
        with pytest.raises(ValueError, match="increments must have length"):
            simulate_output(plan, np.zeros(grid.n + 2 * pad + extra))

    def test_simulator_reuse(self):
        h, g, grid = make_sinc(), make_triangular(2.0, 1.0), TimeGrid(0.0, 0.05, 101)
        sim = Simulator((h, g), grid)
        got = [_joined(simulate_pair(sim, NoiseSeed(i))) for i in (2, 1)]
        for i, pair in zip((2, 1), got):
            for a, b in zip(pair, _joined(simulate_pair(Simulator((h, g), grid), NoiseSeed(i)))):
                np.testing.assert_array_equal(a, b)

    def test_simulator_paths_are_plans_of_the_shared_pad(self):
        # sinc on the FFT branch and two windows on the direct one: each
        # path has the bits of its own plan under the largest pad, on the
        # same increments
        kernels = (make_sinc(), make_triangular(2.0, 1.0), make_triangular(1.0, 1.0))
        grid = TimeGrid(-0.5, 0.05, 301)
        pad = max(required_pad(k, grid.dt) for k in kernels)
        sim = Simulator(kernels, grid)
        assert sim.pad == pad == required_pad(kernels[0], grid.dt)
        branches = ["fft" if p.taps.size > simulate_mod._DIRECT_MAX_TAPS else "direct"
                    for p in sim.plans]
        assert branches == ["fft", "direct", "direct"]
        paths = _joined(sim.stream(NoiseSeed(7, 3)))
        dW = wiener_increments(grid, pad, NoiseSeed(7, 3))
        assert len(paths) == len(kernels)
        for k, values in zip(kernels, paths):
            assert values.tobytes() == output(k, dW, grid, pad).values.tobytes()

    @pytest.mark.filterwarnings("ignore:dt=.*under-resolves:RuntimeWarning")
    @pytest.mark.parametrize("deltas, dt, n", [
        ((100.0,), 0.01, 50101),
        ((10.0, 100.0), 1e-3, 500001),
        ((100.0,), 1e-3, 501001),
    ], ids=["mc", "paths_simulate", "paths_estimate"])
    def test_working_set_counts_the_fft_plans_the_simulator_builds(self, deltas, dt, n):
        # the perfbench runs' kernels: sinc through the FFT, each triangular
        # window summed directly from the few taps its own support keeps,
        # not counted at the sinc's pad
        kernels = (make_sinc(), *(make_triangular(d, 1.0) for d in deltas))
        sim = Simulator(kernels, TimeGrid(0.0, dt, n))
        counted = simulate_mod._plan_routes(kernels, sim.block, dt)
        assert [size for _, size in counted] == [p.size for p in sim.plans]
        assert [size > 0 for _, size in counted] == [True] + [False] * len(deltas)
        assert all(taps >= p.taps.size for (taps, _), p in zip(counted, sim.plans))

    def test_pair_validates_each_path_once(self, monkeypatch):
        h, g, grid = make_sinc(), make_triangular(2.0, 1.0), TimeGrid(0.0, 0.05, 101)
        pad = max(required_pad(h, grid.dt), required_pad(g, grid.dt))
        dW = wiener_increments(grid, pad, NoiseSeed(5))
        want = [output(k, dW, grid, pad).values for k in (h, g)]
        # each path's blocks are checked once as they are read, and no whole
        # path is built to check it again
        checks = []
        real = PathBlocks.iter_blocks
        monkeypatch.setattr(PathBlocks, "iter_blocks", lambda p: checks.append(p) or real(p))
        monkeypatch.setattr(SampledPath, "__post_init__", lambda p: pytest.fail("whole path built"))
        sim = Simulator((h, g), grid)
        pair = _joined(simulate_pair(sim, NoiseSeed(5)))
        assert len(checks) == 2
        for got, values in zip(pair, want):
            assert got.tobytes() == values.tobytes()

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
        path = output(k, wiener_increments(grid, pad, NoiseSeed(4)), grid, pad)
        np.testing.assert_array_equal(path.values, np.zeros(grid.n))


def _joined(paths) -> list:
    """The values of each of ``paths`` (``PathBlocks``) in one array."""
    return [np.concatenate(list(p.iter_blocks())) for p in paths]


def _owns_its_samples(values: np.ndarray) -> bool:
    return values.base is None or values.base.size == values.size


class TestBlocks:
    """Draws in blocks of _BLOCK_SAMPLES outputs: the increment stream, the
    overlap-save convolution and the streamed paths."""

    @pytest.mark.parametrize("block, n", [(1, 50), (7, 200), (65536, 200_003), (131073, 200_003)])
    def test_block_increments_equal_one_draw(self, monkeypatch, block, n):
        # a unit kernel reads one increment per output, and the triangle
        # beside it makes the Simulator keep a history between blocks
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", block)
        dt = 0.01
        unit = make_tabulated([-dt, 0.0, dt], [0.0, 1.0, 0.0])
        grid = TimeGrid(0.0, dt, n)
        sim = Simulator((unit, make_triangular(10.0, 1.0)), grid)
        assert (sim.block, sim.history) == (min(block, n), 18)
        got = np.concatenate([parts[0] for parts in sim.blocks(NoiseSeed(5, 2))])
        dW = wiener_increments(grid, sim.pad, NoiseSeed(5, 2))
        assert got.tobytes() == dW[sim.pad : sim.pad + n].tobytes()

    @pytest.mark.filterwarnings("ignore:dt=.*under-resolves:RuntimeWarning")
    @pytest.mark.parametrize(
        "kernel, dt, taps",
        [
            (make_triangular(10.0, 1.0), 0.01, 19),
            (make_triangular(1.0, 1.0), 0.01, 199),
            (make_triangular(0.390625, 1.0), 0.01, 511),
            (make_sinc(), 0.05, 2401),
            (make_one_sided_box(0.1, 1.0), 0.01, 1000),
        ],
        ids=["direct19", "direct199", "direct511", "fft_sinc", "fft_one_sided"],
    )
    def test_streamed_paths_equal_whole_path_convolution(self, monkeypatch, kernel, dt, taps):
        # blocks shorter than the taps, and a grid that is no whole number of
        # blocks: the direct route keeps the bits of one convolution over the
        # whole row, the FFT route stays within its rounding bound
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", taps // 3)
        grid = TimeGrid(0.0, dt, 5 * (taps // 3) + 11)
        sim = Simulator((kernel,), grid)
        plan = sim.plans[0]
        assert plan.taps.size == taps and sim.block == taps // 3
        Y, = sim.stream(NoiseSeed(8))
        got = np.concatenate(list(Y.iter_blocks()))
        dW = wiener_increments(grid, sim.pad, NoiseSeed(8))
        want = np.convolve(dW[plan.first : plan.first + grid.n + taps - 1], plan.taps, mode="valid")
        if taps <= simulate_mod._DIRECT_MAX_TAPS:
            assert got.tobytes() == want.tobytes()
        else:
            atol = 1e-12 * np.abs(plan.taps).sum() * np.abs(dW).max()
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        assert [v.tobytes() for v in _joined(sim.stream(NoiseSeed(8)))] == [got.tobytes()]
        assert simulate_output(plan, dW).values.tobytes() == got.tobytes()

    @pytest.mark.parametrize("block", [65536, 150])
    @pytest.mark.parametrize(
        "kernel", [make_sinc(), make_triangular(2.0, 1.0)], ids=["fft", "direct"]
    )
    def test_blocks_and_paths_own_their_samples(self, monkeypatch, kernel, block):
        # no block or path keeps the transform's wrapped samples and padding alive
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", block)
        grid = TimeGrid(0.0, 0.05, 1001)
        sim = Simulator((kernel, make_triangular(2.0, 1.0)), grid)
        blocks = [part for parts in sim.blocks(NoiseSeed(3)) for part in parts]
        assert len(blocks) == 2 * -(-grid.n // block)
        streamed = [b for path in sim.stream(NoiseSeed(3)) for b in path.iter_blocks()]
        assert all(_owns_its_samples(v) for v in blocks + streamed)

    def test_stream_holds_one_block_per_path(self, monkeypatch):
        # read in step, the draw makes no block ahead of the readers and
        # keeps no block that both paths have read
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", 100)
        grid = TimeGrid(0.0, 0.05, 1001)
        sim = Simulator((make_sinc(), make_triangular(2.0, 1.0)), grid)
        made, convolve_block = [], ConvolutionPlan.convolve_block

        def tracked(plan, x):
            block = convolve_block(plan, x)
            made.append(weakref.ref(block))
            return block

        monkeypatch.setattr(ConvolutionPlan, "convolve_block", tracked)
        Y, X = sim.stream(NoiseSeed(3))
        sizes = []
        for y, x in zip(Y.iter_blocks(), X.iter_blocks()):
            sizes.append((y.size, x.size, len(made)))
            assert all(ref() is None for ref in made[:-2])
        assert sizes == [(100, 100, 2 * k) for k in range(1, 11)] + [(1, 1, 22)]

    def test_interleaved_draws_are_independent(self, monkeypatch):
        # two draws of one Simulator read alternately, block by block, after
        # a finished draw, each give the bits of a fresh Simulator's draw of
        # their seed
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", 100)
        grid = TimeGrid(0.0, 0.05, 1001)
        kernels = (make_sinc(), make_triangular(2.0, 1.0))
        sim = Simulator(kernels, grid)
        assert len(list(sim.blocks(NoiseSeed(9)))) == 11
        draws = [zip(*(p.iter_blocks() for p in sim.stream(NoiseSeed(i)))) for i in (1, 2)]
        steps = list(zip(*draws, strict=True))  # a block of each draw per step
        for seed, blocks in zip((1, 2), zip(*steps)):
            joined = [np.concatenate(path).tobytes() for path in zip(*blocks)]
            want = _joined(Simulator(kernels, grid).stream(NoiseSeed(seed)))
            assert joined == [v.tobytes() for v in want]

    def test_draws_in_threads_at_once_are_independent(self, monkeypatch):
        # two threads draw from one Simulator at once: every FFT block of one
        # waits after its forward transform for the other's, so a spectrum
        # that the draws shared would hand one draw the other's; each joined
        # path still has a fresh Simulator's bits, and the draws wrote
        # neither the Simulator nor its plans
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", 100)
        grid = TimeGrid(0.0, 0.05, 1001)
        kernels = (make_sinc(), make_triangular(2.0, 1.0))
        want = {seed: [v.tobytes() for v in _joined(Simulator(kernels, grid).stream(NoiseSeed(seed)))]
                for seed in (1, 2)}
        sim = Simulator(kernels, grid)

        def held():  # the objects the Simulator and its plans hold, and all their bytes
            return ([{name: id(v) for name, v in vars(obj).items()} for obj in (sim, *sim.plans)],
                    [(p.taps.tobytes(), p.spectrum.tobytes() if p.size else None) for p in sim.plans],
                    pickle.dumps(sim))

        before = held()
        both, rfft = threading.Barrier(2, timeout=30), simulate_mod.rfft

        def paired(*args, **kwargs):
            spectrum = rfft(*args, **kwargs)
            both.wait()
            return spectrum

        monkeypatch.setattr(simulate_mod, "rfft", paired)
        got, failed = {}, []

        def draw(seed):
            try:
                got[seed] = [v.tobytes() for v in _joined(sim.stream(NoiseSeed(seed)))]
            except BaseException as exc:
                failed.append(exc)
                both.abort()

        helper = threading.Thread(target=draw, args=(2,))
        helper.start()
        draw(1)
        helper.join()
        assert failed == [] and got == want
        assert held() == before

    def test_a_draw_keeps_its_bits_after_finished_and_unread_draws(self, monkeypatch):
        # a draw beside a draw left unread, and the same draw again after it
        # has finished, give a fresh Simulator's bits: every draw makes its
        # own increment buffer, and none leaves one behind
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", 100)
        grid = TimeGrid(0.0, 0.05, 1001)
        kernels = (make_sinc(), make_triangular(2.0, 1.0))
        sim = Simulator(kernels, grid)
        assert len(list(sim.blocks(NoiseSeed(9)))) == 11
        next(sim.blocks(NoiseSeed(5)))
        want = [v.tobytes() for v in _joined(Simulator(kernels, grid).stream(NoiseSeed(4)))]
        for _ in range(2):
            assert [v.tobytes() for v in _joined(sim.stream(NoiseSeed(4)))] == want

    @pytest.mark.parametrize("sizes, message", [
        ([3, 3], "hold 6 samples, but their grid has n=10"),
        ([4, 4, 4], "run past their grid's n=10: 12 samples so far"),
    ], ids=["short", "past"])
    def test_files_need_blocks_that_fill_the_grid(self, tmp_path, sizes, message):
        # a binary file whose header promises samples it lacks is refused
        # when written, not only when read back
        grid = TimeGrid(0.0, 0.1, 10)
        paths = [PathBlocks(grid, (np.ones(m) for m in sizes)) for _ in range(2)]
        names = [tmp_path / f"{stem}{ext}" for stem in ("y", "x") for ext in (".csv", ".bin")]
        with pytest.raises(ValueError, match=message):
            write_path_files(paths, names[::2], names[1::2])

    def test_streamed_block_must_be_finite(self):
        grid = TimeGrid(0.0, 1.0, 4)
        path = PathBlocks(grid, iter([np.ones(2), np.array([1.0, np.inf])]))
        with pytest.raises(ValueError, match="finite"):
            list(path.iter_blocks())

    def test_streamed_files_equal_whole_path_files(self, monkeypatch, tmp_path):
        # one pass over the blocks writes the bytes of the whole paths
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", 3 * K)
        grid = TimeGrid(-0.5, 0.05, 7 * K + 5)
        sim = Simulator((make_sinc(), make_triangular(2.0, 1.0)), grid)
        names = [tmp_path / f"{stem}{ext}" for stem in ("y", "x") for ext in (".csv", ".bin")]
        write_path_files(sim.stream(NoiseSeed(4)), names[::2], names[1::2])
        whole = _joined(sim.stream(NoiseSeed(4)))
        for values, csv_file, bin_file in zip(whole, names[::2], names[1::2]):
            path = SampledPath(grid, values)
            write_path_csv(path, tmp_path / "whole.csv")
            write_path_binary(path, tmp_path / "whole.bin")
            assert csv_file.read_bytes() == (tmp_path / "whole.csv").read_bytes()
            assert bin_file.read_bytes() == (tmp_path / "whole.bin").read_bytes()
            assert read_path_binary(bin_file).values.tobytes() == path.values.tobytes()


class TestBlockRanges:
    """A draw split into contiguous block ranges, each drawn on its own."""

    @pytest.mark.filterwarnings("ignore:dt=.*under-resolves:RuntimeWarning")
    @pytest.mark.parametrize("kernel, dt, n, size", [
        (make_sinc(), 1e-3, 150_001, 186_624),
        (make_triangular(10.0, 1.0), 0.02, 135_001, 0),
    ], ids=["fft_sinc_120001_taps", "direct"])
    def test_range_draw_equals_the_full_draw(self, kernel, dt, n, size):
        # the sinc plan's history (120 000 increments) exceeds a block, so a
        # range reads history drawn in the blocks before it; block 2 is the
        # last, partial one
        sim = Simulator((kernel,), TimeGrid(0.25, dt, n))
        assert (sim.plans[0].size, sim.history > sim.block) == (size, size > 0)
        full = list(sim.blocks(NoiseSeed(7, 1)))
        assert [b.size for (b,) in full] == [65536, 65536, n - 131072]
        for start, stop in [(1, None), (2, None), (1, 2), (0, 1)]:
            got = list(sim.blocks(NoiseSeed(7, 1), start, stop))
            want = full[start:stop]
            assert [b.tobytes() for (b,) in got] == [b.tobytes() for (b,) in want]

    @pytest.mark.parametrize("n, cpus, ranges", [
        (1, 4, [(0, 1)]),
        (65536, 4, [(0, 1)]),
        (135_001, 1, [(0, 3)]),
        (135_001, 2, [(0, 1), (1, 3)]),
        (135_001, 3, [(0, 1), (1, 2), (2, 3)]),
        (135_001, 5, [(0, 1), (1, 2), (2, 3)]),
        (500_001, 2, [(0, 4), (4, 8)]),
        (500_001, 3, [(0, 3), (3, 5), (5, 8)]),
    ])
    def test_ranges_are_contiguous_and_balanced_by_rows(self, n, cpus, ranges):
        assert simulate_mod._block_ranges(n, cpus) == ranges

    def test_appended_range_files_equal_the_whole_draw_files(self, monkeypatch, tmp_path):
        # blocks of 3 chunks over a grid of 7 chunks and 5 rows: ranges
        # [0, 1) and [1, 3) appended give write_path_files' bytes, t cells
        # from the whole grid included
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", 3 * K)
        grid = TimeGrid(-0.5, 0.05, 7 * K + 5)
        sim = Simulator((make_sinc(), make_triangular(2.0, 1.0)), grid)
        names = [tmp_path / f"{stem}{ext}" for stem in ("y", "x") for ext in (".csv", ".bin")]
        write_path_files(sim.stream(NoiseSeed(4)), names[::2], names[1::2])
        parts = [[f.with_suffix(f"{f.suffix}{i}") for f in names] for i in range(2)]
        for blocks, files in zip([(0, 1), (1, 3)], parts):
            simulate_mod._write_draw_range(sim, NoiseSeed(4), blocks, files[::2], files[1::2])
        for name, first, second in zip(names, *parts):
            simulate_mod._append_files(first, [second])
            assert first.read_bytes() == name.read_bytes()


class TestPathIO:
    def _path(self):
        grid = TimeGrid(-0.5, 0.125, 17)
        values = NoiseSeed(21).generator().standard_normal(17)
        return SampledPath(grid=grid, values=values)

    def test_csv_round_trip_is_exact(self, tmp_path):
        p = self._path()
        target = tmp_path / "p.csv"
        write_path_csv(p, target)
        q = read_path_csv(target)
        assert q.grid == p.grid
        np.testing.assert_array_equal(q.values, p.values)

    def test_csv_off_grid_time_rejected(self, tmp_path):
        target = tmp_path / "p.csv"
        target.write_text("t,value\n0,1\n0.1,2\n0.5,3\n0.6,4\n")
        with pytest.raises(ValueError, match="t=0.5 of sample 2"):
            read_path_csv(target)

    def test_binary_round_trip_is_exact(self, tmp_path):
        p = self._path()
        target = tmp_path / "p.bin"
        write_path_binary(p, target)
        q = read_path_binary(target)
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

    @pytest.mark.parametrize("extra", [1 - EDGE_K, -1, 0, 1, 2 * EDGE_K + 7])
    def test_csv_bytes_match_csv_writer(
        self, monkeypatch, tmp_path, csv_edge_column, csv_writer_bytes, extra
    ):
        # EDGE_K + extra rows at EDGE_K rows a chunk: one row, both sides of
        # the first chunk edge, and a partial fourth chunk
        monkeypatch.setattr(simulate_mod, "_CSV_CHUNK_ROWS", EDGE_K)
        n = EDGE_K + extra
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
        # measured 2.15 MB, 2.36 MB when this write builds the digit tables
        assert peak < 16e6

    @pytest.mark.parametrize("n_paths", [1, 3])
    @pytest.mark.parametrize("extra", [1 - EDGE_K, -1, 0, 1, 2 * EDGE_K + 7])
    def test_ladder_bytes_match_csv_writer(
        self, monkeypatch, tmp_path, csv_edge_column, csv_writer_bytes, extra, n_paths
    ):
        # every file of one pass has the bytes of its own path, at EDGE_K
        # rows a chunk: one row, both sides of the first chunk edge, and a
        # partial fourth chunk
        monkeypatch.setattr(simulate_mod, "_CSV_CHUNK_ROWS", EDGE_K)
        n = EDGE_K + extra
        grid = TimeGrid(-1 / 3, 1 / 3, n)
        paths = [SampledPath(grid=grid, values=csv_edge_column(n, 3 * i)) for i in range(n_paths)]
        files = [tmp_path / f"p{i}.csv" for i in range(n_paths)]
        write_path_files(paths, files)
        for path, file in zip(paths, files):
            rows = [[repr(float(t)), repr(float(v))] for t, v in zip(grid.times(), path.values)]
            assert file.read_bytes() == csv_writer_bytes(["t", "value"], rows)

    def test_ladder_needs_one_grid_and_a_file_per_path(self, tmp_path):
        a = SampledPath(grid=TimeGrid(0.0, 0.5, 4), values=np.zeros(4))
        b = SampledPath(grid=TimeGrid(0.0, 0.25, 4), values=np.zeros(4))
        with pytest.raises(ValueError, match="one sampling grid"):
            write_path_files([a, b], [tmp_path / "a.csv", tmp_path / "b.csv"])
        with pytest.raises(ValueError, match="2 paths need as many files"):
            write_path_files([a, a], [tmp_path / "a.csv"])

    def test_ladder_write_memory_is_chunked(self, tmp_path):
        # the traced peak of a 3-path write is its chunk's temporaries, so it
        # does not grow with n: 2.37 and 2.16 MB at 8192 rows a chunk, the
        # first with the digit tables built; the larger grid's times alone
        # would be 6.4 MB
        peaks = []
        for n in (200_001, 800_001):
            grid = TimeGrid(0.0, 1e-3, n)
            rng = NoiseSeed(5).generator()
            paths = [SampledPath(grid=grid, values=rng.normal(size=n)) for _ in range(3)]
            tracemalloc.start()
            try:
                write_path_files(paths, [tmp_path / f"p{i}.csv" for i in range(3)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.25e6
        assert max(peaks) < 8 * 800_001

    @pytest.mark.parametrize("chunk, block", [(1, 21), (7, 21), (2048, 8197)])
    def test_bytes_do_not_depend_on_the_chunk(self, monkeypatch, tmp_path, csv_edge_column,
                                              chunk, block):
        # every CSV writer gives the bytes of 8192-row chunks at ``chunk``
        # rows a chunk, over two blocks and 3 rows: chunks of 1 and 7 end
        # inside a block and at its end (21 = 3 * 7 rows), chunks of 2048 and
        # of 8192 inside a block of 8197 rows too; every other value is an
        # edge value (signed zeros, 1e-05, 1e+16, 5e-324, ...)
        monkeypatch.setattr(simulate_mod, "_BLOCK_SAMPLES", block)
        grid = TimeGrid(-0.5, 0.05, 2 * block + 3)
        rng = NoiseSeed(31).generator()

        def column(shift):
            values = rng.normal(size=grid.n)
            values[::2] = csv_edge_column(values[::2].size, shift)
            return values

        paths = [SampledPath(grid=grid, values=column(shift)) for shift in (0, 5)]
        estimate = {name: column(shift)
                    for name, shift in zip(("h_hat", "h_mean", "z_hat"), (3, 7, 11))}
        result = types.SimpleNamespace(z_fine=np.stack([column(1), column(9)]),
                                       fine_taus=grid.times())
        sim = Simulator((make_triangular(2.0, 1.0), make_laplace(2.0, 1.0)), grid)

        def written(chunk):
            monkeypatch.setattr(simulate_mod, "_CSV_CHUNK_ROWS", chunk)
            out = tmp_path / str(chunk)
            out.mkdir()
            write_path_files(paths, [out / "y.csv", out / "x.csv"], [out / "y.bin", out / "x.bin"])
            for i, blocks in enumerate([(0, 1), (1, 2), (2, None)]):
                simulate_mod._write_draw_range(sim, NoiseSeed(4), blocks,
                                               [out / f"range{i}_{stem}.csv" for stem in "yx"])
            write_estimate_csv(dict(tau=grid.times(), **estimate), {}, out / "est.csv")
            write_trajectories_csv(result, out / "trajectories.csv")
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        want = written(8192)
        assert len(want) == 13  # est.json too
        assert written(chunk) == want

    def test_truncated_binary_rejected(self, tmp_path):
        p = self._path()
        target = tmp_path / "p.bin"
        write_path_binary(p, target)
        target.write_bytes(target.read_bytes()[:-4])
        with pytest.raises(ValueError):
            read_path_binary(target)

    @pytest.mark.parametrize("n, n_values", [(2**62, 10), (2, 5)])
    def test_binary_header_must_match_file_size(self, tmp_path, n, n_values):
        # a huge n in front of 80 bytes, and values left over after n
        target = tmp_path / "p.bin"
        target.write_bytes(struct.pack("<Qdd", n, 0.125, 0.0) + bytes(8 * n_values))
        with pytest.raises(ValueError, match=f"p.bin has {24 + 8 * n_values} bytes"):
            read_path_binary(target)

    def test_csv_single_row_rejected(self, tmp_path):
        # one row fixes no dt
        target = tmp_path / "p.csv"
        target.write_text("t,value\n0.5,1\n")
        with pytest.raises(ValueError, match="two are needed to fix dt"):
            read_path_csv(target)

    def test_csv_descending_times_name_the_file(self, tmp_path):
        target = tmp_path / "p.csv"
        target.write_text("t,value\n1,1\n0,2\n")
        with pytest.raises(ValueError, match="dt must be finite and positive, but .*p.csv gives"):
            read_path_csv(target)

    def test_binary_zero_dt_names_the_file(self, tmp_path):
        target = tmp_path / "p.bin"
        target.write_bytes(struct.pack("<Qdd", 2, 0.0, 0.0) + bytes(16))
        with pytest.raises(ValueError, match="dt must be finite and positive, but .*p.bin gives"):
            read_path_binary(target)

    @pytest.mark.parametrize("cell, message", [
        ("abc", r"non-numeric value in row \['0.5', 'abc'\] in .*p.csv"),
        ("nan", "values must be finite, but sample 1 in .*p.csv is nan"),
    ], ids=["text", "nan"])
    def test_csv_bad_value_names_the_file(self, tmp_path, cell, message):
        target = tmp_path / "p.csv"
        target.write_text(f"t,value\n0,1\n0.5,{cell}\n")
        with pytest.raises(ValueError, match=message):
            read_path_csv(target)

    def test_csv_second_header_row_names_the_file(self, tmp_path):
        target = tmp_path / "p.csv"
        target.write_text("t,value\nfoo,bar\nbaz\n0,1\n0.5,2\n1,3\n")
        with pytest.raises(ValueError, match=r"non-numeric row 2 \['foo', 'bar'\] in .*p.csv"):
            read_path_csv(target)

    def test_binary_nan_names_the_file(self, tmp_path):
        target = tmp_path / "p.bin"
        target.write_bytes(struct.pack("<Qdd2d", 2, 0.5, 0.0, 1.0, math.nan))
        with pytest.raises(ValueError, match="values must be finite, but sample 1 in .*p.bin is nan"):
            read_path_binary(target)


def cell_text(values):
    """The CSV cells that ``_cells`` makes of a 1-D array, as text."""
    lines = (simulate_mod._csv_lines([simulate_mod._cells(values[i : i + 2**16])])
             for i in range(0, len(values), 2**16))
    return b"".join(lines).decode().split("\r\n")[:-1]


def repr_text(values):
    return [repr(v) for v in np.asarray(values).tolist()]


class TestCells:
    # every cell has the bytes of repr, whether numpy formats it (1e-4 <=
    # |x| < 1e16) or repr does (zero, nonfinite, exponent form)
    def test_random_bit_patterns(self):
        # about 97% print in exponent form, which repr takes about 1.6 us
        # for, here and in the reference: 10^6 of them take 3.8 s
        bits = NoiseSeed(27).generator().integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
        values = bits.view(float)[np.isfinite(bits.view(float))]
        assert cell_text(values) == repr_text(values)

    def test_random_positional_values(self):
        # random significands and signs under every binary exponent that
        # holds a value of 1e-4 <= |x| < 1e16, all of them formatted in numpy
        rng = NoiseSeed(28).generator()
        n = 3 * 10**5
        bits = (rng.integers(0, 2**52, n, dtype=np.uint64)
                | rng.integers(1009, 1077, n, dtype=np.uint64) << np.uint64(52)
                | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
        values = bits.view(float)
        values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
        assert values.size > 0.97 * n
        assert cell_text(values) == repr_text(values)

    def test_powers_and_their_neighbours(self):
        powers = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
        near_2_53 = np.arange(2**53 - 2000, 2**53 + 2000).astype(float)
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), near_2_53])
        values = np.concatenate([values, -values])
        assert cell_text(values) == repr_text(values)

    def test_edge_column(self, csv_edge_column):
        values = csv_edge_column(64, 5)
        assert cell_text(values) == repr_text(values)

    def test_nonfinite(self):
        values = np.array([np.nan, np.inf, -np.inf, -np.nan, 0.5])
        assert cell_text(values) == ["nan", "inf", "-inf", "nan", "0.5"]

    def test_int64_column_keeps_repr(self):
        values = np.array([0, -1, 7, 10**15, 2**63 - 1, -(2**63)], dtype=np.int64)
        assert cell_text(values) == repr_text(values)

    def test_narrow_chunks(self):
        # a chunk leaves out the words none of its cells uses: chunks of one
        # magnitude, of one sign, or of few fraction digits
        rng = NoiseSeed(29).generator()
        for k in range(-4, 16):
            values = 10.0**k * rng.uniform(1, 10, 100)
            signs = rng.choice([-1.0, 1.0], values.size)
            for chunk in (values, -values, signs * values, np.round(values, 2), signs * np.round(values, 1)):
                assert cell_text(chunk) == repr_text(chunk)

    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_any_floats(self, values):
        assert cell_text(np.array(values)) == repr_text(values)

    @given(values=st.lists(st.tuples(st.booleans(), st.floats(1e-4, 1e16, exclude_max=True)),
                           min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_any_positional_floats(self, values):
        values = [-v if negative else v for negative, v in values]
        assert cell_text(np.array(values)) == repr_text(values)


def test_next_fast_len_matches_scipy():
    n = np.arange(1, 20001)
    got = [simulate_mod.next_fast_len(int(k)) for k in n]
    assert got == [scipy.fft.next_fast_len(int(k), real=True) for k in n]


@pytest.mark.parametrize("dt", [0.01, 1e-3])
def test_workload_plan_lengths_match_scipy(dt):
    # the sinc plans of the montecarlo (dt = 0.01, one block of 50 001
    # samples) and path (dt = 1e-3, blocks of _BLOCK_SAMPLES) runs at T = 500
    grid = TimeGrid(0.0, dt, int(round(500.0 / dt)) + 1)
    plan = ConvolutionPlan(make_sinc(), grid, required_pad(make_sinc(), dt))
    block = {0.01: grid.n, 1e-3: simulate_mod._BLOCK_SAMPLES}[dt]
    assert plan.block == block == min(grid.n, simulate_mod._BLOCK_SAMPLES)
    assert plan.spectrum.size == plan.size // 2 + 1
    assert plan.size == scipy.fft.next_fast_len(block + plan.taps.size - 1, real=True)


def test_path_values_validated():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledPath(grid=grid, values=np.ones(3))
    with pytest.raises(ValueError):
        SampledPath(grid=grid, values=np.array([1.0, np.nan, 0.0, 0.0]))

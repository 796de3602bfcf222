"""Simulation of the paired outputs of a white-noise-driven linear system.

Both observed processes are moving averages of one Wiener increment
stream:

    Y(t)   = int H(t - s) dW(s),
    X(t)   = int g(t - s) dW(s),

discretized as left-point sums on a uniform lattice. The increments
extend ``pad`` steps beyond each end of the output grid so that every
output sample sees the kernel's full effective support; an insufficient
pad raises instead of silently biasing the edges.

Randomness comes from the counter-based Philox generator (numpy's
``Philox`` bit generator, algorithm Philox4x64-10) keyed by
``(seed, stream_id)``: streams are reproducible and independent across
replications no matter how work is scheduled.

A ``ConvolutionPlan`` samples and trims one kernel's taps for one grid
and pad and convolves increments with them. A ``Simulator`` holds the
plans of any number of kernels under the largest pad any of them needs:
each draw reads one seed's increment stream and convolves it with every
plan, so all the paths of a draw share one Wiener input. Every command
and the replication harness draw through it.

Paths are made in blocks of ``_BLOCK_SAMPLES`` output samples. A draw
takes the increments of one block at a time from the generator, keeping
from one block to the next only the history the longest taps reach, and
each plan convolves a block by overlap-save: the block's increments and
that history in, the block's outputs out. A path of at most one block is
one block. So a draw's working set does not grow with the grid: a
``PathBlocks`` hands the blocks on as they are made, and the path writers
write them as they come. ``SampledPath`` is a whole path in memory.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.fft import irfft, rfft
from numpy.random import Generator, Philox

from .errors import PadError
from .kernels import Kernel, _read_two_columns

__all__ = [
    "TimeGrid",
    "SampledPath",
    "PathBlocks",
    "NoiseSeed",
    "required_pad",
    "ConvolutionPlan",
    "Simulator",
    "simulate_pair",
    "next_fast_len",
    "write_path_files",
    "write_path_csvs",
    "read_path_csv",
    "read_path_binary",
]

_UINT64_MAX = 2**64 - 1

_CSV_CHUNK_ROWS = 512  # rows per write in _write_csv; larger chunks are no faster, use more memory

#: Trimmed tap count up to which direct summation is used; longer tap
#: arrays go through the FFT. Direct cost grows with the tap count, the
#: FFT's does not; the two cross between about 400 and 600 taps for
#: 5e4 to 5e5 output samples.
_DIRECT_MAX_TAPS = 512

#: Output samples per block of a draw, and window samples per block of a
#: correlogram (``estimator.cross_correlogram``); a multiple of
#: ``_CSV_CHUNK_ROWS``. Working arrays hold about one block plus the
#: longest taps or lags, whatever the length of the grid.
_BLOCK_SAMPLES = 65536


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling lattice ``t_j = t_start + j*dt``, ``j = 0..n-1``."""

    t_start: float
    dt: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start)):
            raise ValueError("t_start must be finite")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be finite and positive")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not math.isfinite(self.t_start + (self.n - 1) * self.dt):
            raise ValueError("grid span overflows")

    @property
    def t_end(self) -> float:
        return self.t_start + (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n)


@dataclass(frozen=True)
class SampledPath:
    """One realization of a process on a grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.grid.n:
            raise ValueError("values must be 1-D with length grid.n")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    def iter_blocks(self) -> Iterator[np.ndarray]:
        """The values as consecutive views of ``_BLOCK_SAMPLES`` samples
        (the last one shorter), as a ``Simulator``'s ``PathBlocks`` give them."""
        return (self.values[j : j + _BLOCK_SAMPLES] for j in range(0, self.grid.n, _BLOCK_SAMPLES))


@dataclass(frozen=True)
class PathBlocks:
    """One path on ``grid`` read once, in order: ``blocks`` yields the
    consecutive 1-D arrays that make up its ``grid.n`` samples, at most
    ``_BLOCK_SAMPLES`` each when a ``Simulator`` makes them."""

    grid: TimeGrid
    blocks: Iterator[np.ndarray]

    def iter_blocks(self) -> Iterator[np.ndarray]:
        """The blocks, each checked finite as ``SampledPath`` checks its values."""
        for block in self.blocks:
            if not np.all(np.isfinite(block)):
                raise ValueError("values must be finite")
            yield block


@dataclass(frozen=True)
class NoiseSeed:
    """Key of one reproducible increment stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and 0 <= int(v) <= _UINT64_MAX):
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def generator(self) -> Generator:
        return Generator(Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64)))

    def spawn(self, offset: int) -> "NoiseSeed":
        """Stream for replication ``offset`` under the same base seed."""
        return NoiseSeed(self.seed, (int(self.stream_id) + int(offset)) & _UINT64_MAX)


def required_pad(k: Kernel, dt: float) -> int:
    """Increment padding (steps per side) covering the kernel support."""
    return int(math.ceil(k.effective_support / dt - 1e-12))


def wiener_increments(grid: TimeGrid, pad: int, seed: NoiseSeed) -> np.ndarray:
    """Draw ``n + 2*pad`` i.i.d. N(0, dt) Wiener increments in one row, the
    increments that ``Simulator.blocks`` draws a block at a time: the
    whole-row reference of the tests, under the name that the layer probes
    of ``perfbench/layers.py`` call.

    Increment ``m`` covers ``[s_m, s_m + dt)`` with
    ``s_m = t_start + (m - pad)*dt``.
    """
    if not (isinstance(pad, (int, np.integer)) and pad >= 0):
        raise ValueError("pad must be a nonnegative integer")
    out = seed.generator().standard_normal(grid.n + 2 * int(pad))
    out *= math.sqrt(grid.dt)
    return out


def _check_sampling_rate(k: Kernel, dt: float):
    delta = k.params.get("delta")
    if delta is not None and dt * 10.0 * delta > 1.0 + 1e-9:
        warnings.warn(
            f"dt={dt} under-resolves the {k.name} window with delta={delta}; "
            f"use dt <= {1.0 / (10.0 * delta):g}",
            RuntimeWarning,
            stacklevel=5,  # the caller of Simulator
        )


class ConvolutionPlan:
    """One kernel's taps on one grid and pad, reused for every block of
    every draw.

    The kernel is sampled as ``k(i*dt)``, ``i = -pad..pad``, and exact-zero
    samples are trimmed from both ends. Output ``j`` then reads the
    ``taps.size`` increments from ``first + j`` on, so a block of ``m``
    outputs reads ``m + taps.size - 1`` increments, ``taps.size - 1`` of them
    shared with the block before (overlap-save). A short tap array is summed
    directly. A long one goes through a real FFT at ``size``, the first fast
    length that holds one block plus the taps: the plan keeps the tap
    spectrum and one work spectrum, a block costs one ``rfft``, which
    zero-pads the block's increments itself, and one ``irfft``, whose
    wrap-around stays in the ``taps.size - 1`` leading samples that the
    block's outputs skip.
    """

    def __init__(self, k: Kernel, grid: TimeGrid, pad: int):
        pad = int(pad)
        need = required_pad(k, grid.dt)
        if pad < need:
            raise PadError(
                f"pad={pad} does not cover the kernel support "
                f"{k.effective_support:g}; need pad >= {need}",
                required_pad=need,
            )
        _check_sampling_rate(k, grid.dt)
        self.grid, self.pad = grid, pad
        taps = k.time_eval(grid.dt * np.arange(-pad, pad + 1))
        nonzero = np.flatnonzero(taps)
        # an all-zero kernel keeps its zero centre tap and gives zero paths
        self.zero = nonzero.size == 0
        lo, hi = (pad, pad) if self.zero else (int(nonzero[0]), int(nonzero[-1]))
        self.taps = taps[lo : hi + 1].copy()
        # values[j] = sum_i taps[i] * increments[2*pad + j - i], so taps[lo..hi]
        # reach increments 2*pad - hi + j through 2*pad - lo + j.
        self.first = 2 * pad - hi
        self.block = min(grid.n, _BLOCK_SAMPLES)
        if self.taps.size > _DIRECT_MAX_TAPS:
            self.size = next_fast_len(self.block + self.taps.size - 1)
            self.spectrum = rfft(self.taps, self.size)
            self._spectrum = np.empty_like(self.spectrum)

    def convolve_block(self, x: np.ndarray) -> np.ndarray:
        """New array of the ``x.size - taps.size + 1`` outputs that read the
        increments ``x``, at most ``block`` of them."""
        if self.zero:
            return np.zeros(x.size - self.taps.size + 1)
        if self.taps.size <= _DIRECT_MAX_TAPS:
            return np.convolve(x, self.taps, mode="valid")
        spectrum = rfft(x, self.size, out=self._spectrum)
        spectrum *= self.spectrum
        return irfft(spectrum, self.size)[self.taps.size - 1 : x.size].copy()


def next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def simulate_output(plan: ConvolutionPlan, increments: np.ndarray) -> SampledPath:
    """Moving-average output ``values[j] = sum_m k(t_j - s_m) * dW_m`` of
    the plan's kernel, grid and pad, from one ``n + 2*pad`` increment row
    (``wiener_increments``) convolved block by block as a draw convolves
    it: the whole-row reference of the tests, under the name that the
    layer probes of ``perfbench/layers.py`` call."""
    increments = np.asarray(increments, dtype=float)
    n, size = plan.grid.n, plan.grid.n + 2 * plan.pad
    if increments.ndim != 1 or increments.size != size:
        raise ValueError(f"increments must have length n + 2*pad = {size}, got {increments.size}")
    reach = plan.taps.size - 1
    parts = [plan.convolve_block(increments[plan.first + j :][: reach + min(plan.block, n - j)])
             for j in range(0, n, plan.block)]
    return SampledPath(grid=plan.grid, values=parts[0] if len(parts) == 1 else np.concatenate(parts))


class Simulator:
    """The convolution plans of the kernel sequence ``kernels`` on one grid
    and one increment buffer of one block, for any number of draws.

    The pad is the largest any of the kernels needs, so every output is
    unbiased over the whole grid and all are jointly stationary. A block of
    ``m`` outputs reads the ``m + history`` increments from ``first + j``
    on, where ``first`` is the lowest and ``first + history`` the highest
    first increment any plan's taps reach.
    """

    def __init__(self, kernels, grid: TimeGrid):
        self.grid = grid
        self.pad = max(required_pad(k, grid.dt) for k in kernels)
        self.plans = tuple(ConvolutionPlan(k, grid, self.pad) for k in kernels)
        self.first = min(p.first for p in self.plans)
        self.history = max(p.first + p.taps.size - 1 for p in self.plans) - self.first
        self.block = min(grid.n, _BLOCK_SAMPLES)
        self.increments = np.empty(self.block + self.history)

    def blocks(self, seed: NoiseSeed) -> Iterator[tuple]:
        """Yield each block of a draw from ``seed`` as a tuple of one new
        array per kernel, in order.

        The increments are those of ``wiener_increments(grid, pad, seed)``,
        drawn a block at a time from one generator; the ``history`` last
        ones of a block stay in the buffer for the next. Read a draw to its
        end before the next one starts: they share the buffer."""
        gen, scale, buf = seed.generator(), math.sqrt(self.grid.dt), self.increments
        for skip in range(0, self.first, buf.size):  # increments no tap reaches
            gen.standard_normal(out=buf[: min(buf.size, self.first - skip)])
        for j in range(0, self.grid.n, self.block):
            m = min(self.block, self.grid.n - j)
            if j:
                buf[: self.history] = buf[self.block : self.block + self.history]
            fresh = buf[self.history if j else 0 : self.history + m]
            gen.standard_normal(out=fresh)
            fresh *= scale
            yield tuple(plan.convolve_block(buf[plan.first - self.first :][: m + plan.taps.size - 1])
                        for plan in self.plans)

    def draw(self, seed: NoiseSeed):
        """Yield one whole ``SampledPath`` per kernel, in order: the blocks of
        a draw from ``seed`` joined."""
        for parts in zip(*self.blocks(seed)):
            yield SampledPath(self.grid, parts[0] if len(parts) == 1 else np.concatenate(parts))

    def stream(self, seed: NoiseSeed) -> tuple:
        """One ``PathBlocks`` per kernel, in order, over the blocks of a draw
        from ``seed``. A block waits in its path's queue until that path
        reads it, so paths read in step (as ``zip`` reads them) hold one
        block each at a time."""
        blocks = self.blocks(seed)
        pending = [deque() for _ in self.plans]

        def path(queue):
            while True:
                if not queue:  # make the next block of every path
                    parts = next(blocks, None)
                    if parts is None:
                        return
                    for waiting, part in zip(pending, parts):
                        waiting.append(part)
                yield queue.popleft()  # held no longer than its path needs it

        return tuple(PathBlocks(self.grid, path(queue)) for queue in pending)


def _blocks_in_step(paths) -> Iterator[tuple]:
    """The blocks of ``paths`` (``SampledPath``s or ``PathBlocks`` on one
    grid), one tuple per step; blocks of one step must be of one size."""
    for blocks in zip(*(p.iter_blocks() for p in paths)):
        if any(b.size != blocks[0].size for b in blocks):
            raise ValueError(f"paths must come in blocks of one size, got "
                             f"{[b.size for b in blocks]}")
        yield blocks


def simulate_pair(simulator: Simulator, seed: NoiseSeed) -> tuple:
    """``(Y, X)`` of one draw of a Simulator of ``(h, g)``: the two
    ``PathBlocks`` of ``Simulator.stream``."""
    Y, X = simulator.stream(seed)
    return Y, X


def _write_csv(files, header, columns, shared=lambda i, k: []) -> None:
    """Write one UTF-8 CSV per file of ``files``: the ``header`` line, then
    the rows ``_write_rows`` writes of ``columns`` and ``shared``.

    The bytes equal ``csv.writer`` output with ``repr`` cells: commas, CRLF
    line ends, no quoting, floats as ``repr(float)``, integers in decimal."""
    with ExitStack() as stack:
        _write_rows(_open_csvs(stack, files, header), columns, shared)


def _open_csvs(stack: ExitStack, files, header) -> list:
    """The open handles of ``files``, closed with ``stack``, each holding
    the ``header`` line."""
    handles = [stack.enter_context(open(Path(f), "w", newline="", encoding="utf-8"))
               for f in files]
    for fh in handles:
        fh.write(",".join(header) + "\r\n")
    return handles


def _write_rows(handles, columns, shared=lambda i, k: []) -> None:
    """Append rows to each handle, in chunks of ``_CSV_CHUNK_ROWS``: the
    ``shared`` cells followed by that handle's equal-length 1-D arrays in
    ``columns``, whose shortest sets the row count. ``shared(i, k)`` gives
    the cell lists of rows ``i`` to ``i + k - 1`` of the columns every file
    starts with, formatted once per chunk for all the files."""
    n = min(len(col) for own in columns for col in own)
    for i in range(0, n, _CSV_CHUNK_ROWS):
        k = min(_CSV_CHUNK_ROWS, n - i)
        first = shared(i, k)
        for fh, own in zip(handles, columns):
            cells = first + [_cells(col[i : i + k]) for col in own]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _cells(values: np.ndarray) -> list:
    """The CSV cells of a 1-D array: ``repr`` of each Python float or int."""
    return list(map(repr, values.tolist()))


#: Binary path layout: little-endian header (n: uint64, dt: float64,
#: t_start: float64) followed by n little-endian float64 values.
_BIN_HEADER = struct.Struct("<Qdd")


def write_path_files(paths, csv_files, bin_files=()) -> None:
    """Write each of ``paths``, ``SampledPath``s or ``PathBlocks`` all on one
    grid, to the CSV file of ``csv_files`` and, when ``bin_files`` is given,
    the binary file of ``bin_files`` at the same index, in one pass over
    their blocks: a block goes to every file before the next is read.

    A CSV holds (t,value) rows under a header line; each row chunk's ``t``
    cells are formatted once for every file, from ``t_start + dt*j``, with
    the bits of ``grid.times()``. A binary file has the ``_BIN_HEADER``
    layout."""
    grid = paths[0].grid
    if any(p.grid != grid for p in paths):
        raise ValueError("paths must share one sampling grid")
    for files in (csv_files, bin_files):
        if files and len(files) != len(paths):
            raise ValueError(f"{len(paths)} paths need as many files, got {len(files)}")
    with ExitStack() as stack:
        csvs = _open_csvs(stack, csv_files, ["t", "value"])
        bins = [stack.enter_context(open(Path(f), "wb")) for f in bin_files]
        for fh in bins:
            fh.write(_BIN_HEADER.pack(grid.n, grid.dt, grid.t_start))
        j = 0
        for blocks in _blocks_in_step(paths):
            if csvs:
                _write_rows(csvs, [[b] for b in blocks], shared=lambda i, k: [
                    _cells(grid.t_start + grid.dt * np.arange(j + i, j + i + k))])
            for fh, block in zip(bins, blocks):
                fh.write(np.ascontiguousarray(block, dtype="<f8"))
            j += blocks[0].size


def write_path_csvs(paths, files) -> None:
    """Write each of ``paths`` as (t,value) rows with a header line to the
    file of ``files`` at the same index, in one pass (``write_path_files``)."""
    write_path_files(paths, files)


def write_path_csv(path, file) -> None:
    """Write (t,value) rows with a header line: the one-path case of
    ``write_path_files``, under the name that the tests and the layer
    probes of ``perfbench/layers.py`` call."""
    write_path_files([path], [file])


def _file_grid(file, t_start: float, dt: float, n: int) -> TimeGrid:
    """``TimeGrid(t_start, dt, n)`` read from ``file``; an invalid grid's
    ``ValueError`` names the file."""
    try:
        return TimeGrid(t_start, dt, n)
    except ValueError as exc:
        raise ValueError(f"{exc}, but {file} gives t_start={t_start!r}, dt={dt!r}") from None


def read_path_csv(file) -> SampledPath:
    """Read (t,value) rows on the grid ``t0 + j*dt`` with ``dt = t1 - t0``;
    fewer than two rows, a ``dt`` that is not positive, or a time off that
    grid raises ``ValueError``."""
    times, values = _read_two_columns(file)
    if len(times) < 2:
        raise ValueError(f"{len(times)} samples in {file}: two are needed to fix dt")
    t0 = times[0]
    dt = times[1] - t0
    grid = _file_grid(file, t0, dt, len(times))
    j = np.arange(len(times))
    # dt is off by up to half an ulp of t1, and sample j repeats that j times
    slack = 1e-6 * abs(dt) + j * np.spacing(abs(t0) + abs(dt))
    off = np.flatnonzero(np.abs(np.array(times) - (t0 + j * dt)) > slack)
    if off.size:
        k = off[0]
        raise ValueError(f"t={times[k]!r} of sample {k} in {file} is off the grid {t0!r} + j*{dt!r}")
    return SampledPath(grid=grid, values=np.array(values))


def write_path_binary(path, file) -> None:
    """Write a path in the ``_BIN_HEADER`` layout: the one-path case of
    ``write_path_files``, under the name that the tests and the layer
    probes of ``perfbench/layers.py`` call."""
    write_path_files([path], [], [file])


def read_path_binary(file) -> SampledPath:
    """Read a path in the ``_BIN_HEADER`` layout; a file whose size is not
    that of the header plus its ``n`` values, or a header ``dt`` that is
    not positive, raises ``ValueError``."""
    with open(Path(file), "rb") as fh:
        header = fh.read(_BIN_HEADER.size)
        if len(header) != _BIN_HEADER.size:
            raise ValueError(f"truncated header in {file}")
        n, dt, t_start = _BIN_HEADER.unpack(header)
        size, expected = os.fstat(fh.fileno()).st_size, _BIN_HEADER.size + 8 * n
        if size != expected:
            raise ValueError(f"{file} has {size} bytes, but a header of n={n} needs {expected}")
        raw = fh.read(8 * n)
    values = np.frombuffer(raw, dtype="<f8").astype(float)
    return SampledPath(grid=_file_grid(file, t_start, dt, n), values=values)

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
and pad and convolves increment rows with them. A ``Simulator`` holds the
plans of any number of kernels under the largest pad any of them needs,
and one increment buffer: each ``draw`` fills the buffer from one seed
and convolves it with every plan, so all the paths of a draw share one
Wiener input. Every command and the replication harness draw through it.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.fft import irfft, rfft
from numpy.random import Generator, Philox

from .errors import PadError
from .kernels import Kernel, _read_two_columns

__all__ = [
    "TimeGrid",
    "SampledPath",
    "NoiseSeed",
    "required_pad",
    "wiener_increments",
    "ConvolutionPlan",
    "Simulator",
    "simulate_output",
    "simulate_pair",
    "next_fast_len",
    "write_path_csvs",
    "write_path_csv",
    "read_path_csv",
    "write_path_binary",
    "read_path_binary",
]

_UINT64_MAX = 2**64 - 1

_CSV_CHUNK_ROWS = 512  # rows per write in _write_csv; larger chunks are no faster, use more memory

#: Trimmed tap count up to which direct summation is used; longer tap
#: arrays go through the FFT. Direct cost grows with the tap count, the
#: FFT's does not; the two cross between about 400 and 600 taps for
#: 5e4 to 5e5 output samples.
_DIRECT_MAX_TAPS = 512


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


def wiener_increments(grid: TimeGrid, pad: int, seed: NoiseSeed, out=None) -> np.ndarray:
    """Draw ``n + 2*pad`` i.i.d. N(0, dt) Wiener increments.

    Increment ``m`` covers ``[s_m, s_m + dt)`` with
    ``s_m = t_start + (m - pad)*dt``. ``out``, a float array of that
    length, receives the draws in place of a new array.
    """
    if not (isinstance(pad, (int, np.integer)) and pad >= 0):
        raise ValueError("pad must be a nonnegative integer")
    size = grid.n + 2 * int(pad)
    out = np.empty(size) if out is None else out
    if out.shape != (size,):
        raise ValueError(f"out must have shape ({size},), got {out.shape}")
    seed.generator().standard_normal(out=out)
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
    """One kernel's taps on one grid and pad, reused for every increment row.

    The kernel is sampled as ``k(i*dt)``, ``i = -pad..pad``, and exact-zero
    samples are trimmed from both ends. Only the increments the remaining
    taps reach are convolved with them, keeping the valid part: by direct
    summation for a short tap array, otherwise by a real FFT at the first
    fast length that holds the increment segment, which keeps wrap-around
    out of the valid part. The FFT branch keeps the tap spectrum and one
    work spectrum: a row costs one ``rfft``, which zero-pads the segment
    itself, and one ``irfft``, whose valid slice is the returned path.
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
        lo, hi = (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else (0, -1)
        self.taps = taps[lo : hi + 1]
        # values[j] = sum_i taps[i] * increments[2*pad + j - i], so taps[lo..hi]
        # reach increments 2*pad - hi through 2*pad + n - 1 - lo.
        self.segment = slice(2 * pad - hi, 2 * pad + grid.n - lo)
        if self.taps.size > _DIRECT_MAX_TAPS:
            self.size = next_fast_len(grid.n + hi - lo)
            self.spectrum = rfft(self.taps, self.size)
            self._spectrum = np.empty_like(self.spectrum)

    def convolve(self, increments: np.ndarray) -> np.ndarray:
        """New array ``sum_m k(t_j - s_m) * dW_m`` of one ``n + 2*pad``
        increment row."""
        x = increments[self.segment]
        if self.taps.size == 0:
            return np.zeros(self.grid.n)
        if self.taps.size <= _DIRECT_MAX_TAPS:
            return np.convolve(x, self.taps, mode="valid")
        # A circular convolution of length >= len(x) wraps only into its first
        # len(taps) - 1 samples, which the valid part skips.
        spectrum = rfft(x, self.size, out=self._spectrum)
        spectrum *= self.spectrum
        return irfft(spectrum, self.size)[self.taps.size - 1 : x.size]


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
    the plan's kernel, grid and pad."""
    increments = np.asarray(increments, dtype=float)
    size = plan.grid.n + 2 * plan.pad
    if increments.ndim != 1 or increments.size != size:
        raise ValueError(f"increments must have length n + 2*pad = {size}, got {increments.size}")
    return SampledPath(grid=plan.grid, values=plan.convolve(increments))


class Simulator:
    """The convolution plans of the kernel sequence ``kernels`` on one grid
    and one increment buffer, for any number of draws.

    The pad is the largest any of the kernels needs, so every output is
    unbiased over the whole grid and all are jointly stationary.
    """

    def __init__(self, kernels, grid: TimeGrid):
        self.grid = grid
        self.pad = max(required_pad(k, grid.dt) for k in kernels)
        self.plans = tuple(ConvolutionPlan(k, grid, self.pad) for k in kernels)
        self.increments = np.empty(grid.n + 2 * self.pad)

    def draw(self, seed: NoiseSeed):
        """Yield one path per kernel, in order, all from the increments of
        ``seed``; the next draw overwrites those increments."""
        dW = wiener_increments(self.grid, self.pad, seed, out=self.increments)
        for plan in self.plans:
            yield simulate_output(plan, dW)


def simulate_pair(simulator: Simulator, seed: NoiseSeed) -> tuple:
    """``(Y, X)`` of one draw of a Simulator of ``(h, g)``."""
    Y, X = simulator.draw(seed)
    return Y, X


def _write_csv(files, header, columns, shared=lambda i, k: []) -> None:
    """Write one UTF-8 CSV per file of ``files``, in chunks of rows: the
    ``header`` line, then rows of the ``shared`` cells followed by that
    file's equal-length 1-D arrays in ``columns``, whose shortest sets the
    row count. ``shared(i, k)`` gives the cell lists of rows ``i`` to
    ``i + k - 1`` of the columns every file starts with, formatted once per
    chunk for all the files.

    The bytes equal ``csv.writer`` output with ``repr`` cells: commas, CRLF
    line ends, no quoting, floats as ``repr(float)``, integers in decimal."""
    with ExitStack() as stack:
        handles = [stack.enter_context(open(Path(f), "w", newline="", encoding="utf-8"))
                   for f in files]
        for fh in handles:
            fh.write(",".join(header) + "\r\n")
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


def write_path_csvs(paths, files) -> None:
    """Write each of ``paths``, all on one grid, as (t,value) rows with a
    header line to the file of ``files`` at the same index, with the bytes
    ``write_path_csv`` gives it. One pass over row chunks formats each
    chunk's ``t`` cells once for every file; ``t_start + dt*j`` is computed
    per chunk, with the bits of ``grid.times()``."""
    grid = paths[0].grid
    if any(p.grid != grid for p in paths):
        raise ValueError("paths must share one sampling grid")
    if len(files) != len(paths):
        raise ValueError(f"{len(paths)} paths need as many files, got {len(files)}")

    def times(i, k):
        return [_cells(grid.t_start + grid.dt * np.arange(i, i + k))]

    _write_csv(files, ["t", "value"], [[p.values] for p in paths], shared=times)


def write_path_csv(path: SampledPath, file) -> None:
    """Write (t,value) rows with a header line."""
    write_path_csvs([path], [file])


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


#: Binary path layout: little-endian header (n: uint64, dt: float64,
#: t_start: float64) followed by n little-endian float64 values.
_BIN_HEADER = struct.Struct("<Qdd")


def write_path_binary(path: SampledPath, file) -> None:
    with open(Path(file), "wb") as fh:
        fh.write(_BIN_HEADER.pack(path.grid.n, path.grid.dt, path.grid.t_start))
        fh.write(np.ascontiguousarray(path.values, dtype="<f8").tobytes())


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

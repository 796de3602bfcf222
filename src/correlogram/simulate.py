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
and pad and convolves increment rows with them; a ``PairSimulator``
holds the two plans of a ``(Y, X)`` pair. ``simulate_output`` and
``simulate_pair`` build them when they are not given one, and the
replication harness reuses one simulator for a whole run, so both give
the same paths from the same seeds.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.fft import irfft, rfft
from scipy.fft import next_fast_len

from .errors import PadError
from .kernels import Kernel

__all__ = [
    "TimeGrid",
    "SampledPath",
    "NoiseSeed",
    "required_pad",
    "wiener_increments",
    "ConvolutionPlan",
    "PairSimulator",
    "simulate_output",
    "simulate_pair",
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
    label: str = ""

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

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

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
            stacklevel=4,
        )


class ConvolutionPlan:
    """One kernel's taps on one grid and pad, reused for every increment row.

    The kernel is sampled as ``k(i*dt)``, ``i = -pad..pad``, and exact-zero
    samples are trimmed from both ends. Only the increments the remaining
    taps reach are convolved with them, keeping the valid part: by direct
    summation for a short tap array, otherwise by a real FFT at the first
    fast length that holds the increment segment, which keeps wrap-around
    out of the valid part. The FFT branch keeps the tap spectrum and two
    work buffers, so a row costs one ``rfft`` and one ``irfft``.
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
        self.kernel, self.grid, self.pad = k, grid, pad
        taps = k.time_eval(grid.dt * np.arange(-pad, pad + 1))
        nonzero = np.flatnonzero(taps)
        lo, hi = (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else (0, -1)
        self.taps = taps[lo : hi + 1]
        # values[j] = sum_i taps[i] * increments[2*pad + j - i], so taps[lo..hi]
        # reach increments 2*pad - hi through 2*pad + n - 1 - lo.
        self.segment = slice(2 * pad - hi, 2 * pad + grid.n - lo)
        if self.taps.size > _DIRECT_MAX_TAPS:
            size = next_fast_len(grid.n + hi - lo, real=True)
            self.spectrum = rfft(self.taps, size)
            self._signal = np.empty(size)
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
        signal, spectrum = self._signal, self._spectrum
        signal[: x.size] = x
        signal[x.size :] = 0.0  # unset at first, then the last irfft's output
        rfft(signal, out=spectrum)
        spectrum *= self.spectrum
        irfft(spectrum, signal.size, out=signal)
        return signal[self.taps.size - 1 : x.size].copy()


def simulate_output(
    k: Kernel, increments: np.ndarray, grid: TimeGrid, pad: int, plan: ConvolutionPlan | None = None
) -> SampledPath:
    """Moving-average output ``values[j] = sum_m k(t_j - s_m) * dW_m``.

    The convolution is that of ``plan``, a ConvolutionPlan of
    ``(k, grid, pad)``, or of a plan built here.
    """
    increments = np.asarray(increments, dtype=float)
    pad = int(pad)
    if increments.ndim != 1 or increments.size != grid.n + 2 * pad:
        raise ValueError(
            f"increments must have length n + 2*pad = {grid.n + 2 * pad}, got {increments.size}"
        )
    if plan is None:
        plan = ConvolutionPlan(k, grid, pad)
    elif plan.kernel is not k or plan.grid != grid or plan.pad != pad:
        raise ValueError("plan was built for another kernel, grid or pad")
    return SampledPath(grid=grid, values=plan.convolve(increments), label=k.name)


class PairSimulator:
    """The convolution plans and the increment buffer of kernels ``h`` and
    ``g`` on one grid, for any number of ``simulate_pair`` calls.

    The pad is the larger of the two kernels' requirements, so both
    outputs are unbiased over the whole grid and jointly stationary.
    """

    def __init__(self, h: Kernel, g: Kernel, grid: TimeGrid):
        self.h, self.g, self.grid = h, g, grid
        self.pad = max(required_pad(h, grid.dt), required_pad(g, grid.dt))
        self.plans = (ConvolutionPlan(h, grid, self.pad), ConvolutionPlan(g, grid, self.pad))
        self.increments = np.empty(grid.n + 2 * self.pad)


def simulate_pair(
    h: Kernel, g: Kernel, grid: TimeGrid, seed: NoiseSeed, simulator: PairSimulator | None = None
):
    """Simulate ``(Y, X)`` from one shared increment stream.

    ``simulator``, a PairSimulator of ``(h, g, grid)``, saves rebuilding
    the plans on every call; the paths are the same with or without it.
    """
    if simulator is None:
        simulator = PairSimulator(h, g, grid)
    elif simulator.h is not h or simulator.g is not g or simulator.grid != grid:
        raise ValueError("simulator was built for other kernels or another grid")
    pad, (h_plan, g_plan) = simulator.pad, simulator.plans
    dW = wiener_increments(grid, pad, seed, out=simulator.increments)
    y = simulate_output(h, dW, grid, pad, plan=h_plan)
    x = simulate_output(g, dW, grid, pad, plan=g_plan)
    return (
        SampledPath(grid=grid, values=y.values, label="Y"),
        SampledPath(grid=grid, values=x.values, label="X"),
    )


def _write_csv(file, header, columns) -> None:
    """Write ``header`` and equal-length 1-D array ``columns`` as UTF-8 CSV, in
    chunks. The bytes equal ``csv.writer`` output with ``repr`` cells: commas,
    CRLF line ends, no quoting, floats as ``repr(float)``, integers in decimal."""
    with open(Path(file), "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, min(map(len, columns)), _CSV_CHUNK_ROWS):
            cells = [map(repr, col[i : i + _CSV_CHUNK_ROWS].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_path_csv(path: SampledPath, file) -> None:
    """Write (t,value) rows with a header line."""
    _write_csv(file, ["t", "value"], [path.grid.times(), path.values])


def read_path_csv(file, label: str = "") -> SampledPath:
    times, values = [], []
    with open(Path(file), newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                t = float(row[0])
            except ValueError:
                if times:
                    raise ValueError(f"non-numeric row {row!r} in {file}")
                continue
            times.append(t)
            values.append(float(row[1]))
    if len(times) < 1:
        raise ValueError(f"no samples in {file}")
    if len(times) == 1:
        grid = TimeGrid(times[0], 1.0, 1)
    else:
        dt = times[1] - times[0]
        grid = TimeGrid(times[0], dt, len(times))
    return SampledPath(grid=grid, values=np.array(values), label=label)


#: Binary path layout: little-endian header (n: uint64, dt: float64,
#: t_start: float64) followed by n little-endian float64 values.
_BIN_HEADER = struct.Struct("<Qdd")


def write_path_binary(path: SampledPath, file) -> None:
    with open(Path(file), "wb") as fh:
        fh.write(_BIN_HEADER.pack(path.grid.n, path.grid.dt, path.grid.t_start))
        fh.write(np.ascontiguousarray(path.values, dtype="<f8").tobytes())


def read_path_binary(file, label: str = "") -> SampledPath:
    with open(Path(file), "rb") as fh:
        header = fh.read(_BIN_HEADER.size)
        if len(header) != _BIN_HEADER.size:
            raise ValueError(f"truncated header in {file}")
        n, dt, t_start = _BIN_HEADER.unpack(header)
        raw = fh.read(8 * n)
        if len(raw) != 8 * n:
            raise ValueError(f"truncated payload in {file}: expected {n} samples")
    values = np.frombuffer(raw, dtype="<f8").astype(float)
    return SampledPath(grid=TimeGrid(t_start, dt, int(n)), values=values, label=label)

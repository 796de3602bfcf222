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
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import PadError
from .kernels import Kernel

__all__ = [
    "TimeGrid",
    "SampledPath",
    "NoiseSeed",
    "required_pad",
    "wiener_increments",
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


def wiener_increments(grid: TimeGrid, pad: int, seed: NoiseSeed) -> np.ndarray:
    """Draw ``n + 2*pad`` i.i.d. N(0, dt) Wiener increments.

    Increment ``m`` covers ``[s_m, s_m + dt)`` with
    ``s_m = t_start + (m - pad)*dt``.
    """
    if not (isinstance(pad, (int, np.integer)) and pad >= 0):
        raise ValueError("pad must be a nonnegative integer")
    rng = seed.generator()
    return rng.normal(0.0, math.sqrt(grid.dt), size=grid.n + 2 * int(pad))


def _check_sampling_rate(k: Kernel, dt: float):
    delta = k.params.get("delta")
    if delta is not None and dt * 10.0 * delta > 1.0 + 1e-9:
        warnings.warn(
            f"dt={dt} under-resolves the {k.name} window with delta={delta}; "
            f"use dt <= {1.0 / (10.0 * delta):g}",
            RuntimeWarning,
            stacklevel=3,
        )


def simulate_output(k: Kernel, increments: np.ndarray, grid: TimeGrid, pad: int) -> SampledPath:
    """Moving-average output ``values[j] = sum_m k(t_j - s_m) * dW_m``.

    The kernel is sampled as ``k(i*dt)``, ``i = -pad..pad``, and exact-zero
    samples are trimmed from both ends. Only the increments the remaining
    taps reach are convolved with them, keeping the valid part: by direct
    summation for a short tap array, otherwise by a real FFT at the first
    fast length that holds the increment segment, which keeps wrap-around
    out of the valid part.
    """
    increments = np.asarray(increments, dtype=float)
    pad = int(pad)
    if increments.ndim != 1 or increments.size != grid.n + 2 * pad:
        raise ValueError(
            f"increments must have length n + 2*pad = {grid.n + 2 * pad}, got {increments.size}"
        )
    need = required_pad(k, grid.dt)
    if pad < need:
        raise PadError(
            f"pad={pad} does not cover the kernel support "
            f"{k.effective_support:g}; need pad >= {need}",
            required_pad=need,
        )
    _check_sampling_rate(k, grid.dt)

    taps = k.time_eval(grid.dt * np.arange(-pad, pad + 1))
    nonzero = np.flatnonzero(taps)
    if nonzero.size == 0:
        return SampledPath(grid=grid, values=np.zeros(grid.n), label=k.name)
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    # values[j] = sum_i taps[i] * increments[2*pad + j - i], so taps[lo..hi]
    # reach increments 2*pad - hi through 2*pad + n - 1 - lo.
    values = _convolve_valid(increments[2 * pad - hi : 2 * pad + grid.n - lo], taps[lo : hi + 1])
    return SampledPath(grid=grid, values=values, label=k.name)


def _convolve_valid(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The ``len(x) - len(taps) + 1`` samples of ``x * taps`` that see every tap."""
    if taps.size <= _DIRECT_MAX_TAPS:
        return np.convolve(x, taps, mode="valid")
    # A circular convolution of length >= len(x) wraps only into its first
    # len(taps) - 1 samples, which the valid part skips.
    size = next_fast_len(x.size, real=True)
    full = irfft(rfft(x, size) * rfft(taps, size), size)
    return full[taps.size - 1 : x.size]


def simulate_pair(h: Kernel, g: Kernel, grid: TimeGrid, seed: NoiseSeed):
    """Simulate ``(Y, X)`` from one shared increment stream.

    The pad is the larger of the two kernels' requirements, so both
    outputs are unbiased over the whole grid and jointly stationary.
    """
    pad = max(required_pad(h, grid.dt), required_pad(g, grid.dt))
    increments = wiener_increments(grid, pad, seed)
    y = simulate_output(h, increments, grid, pad)
    x = simulate_output(g, increments, grid, pad)
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

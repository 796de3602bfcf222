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
plans of any number of kernels under the largest pad any of them needs;
each draw convolves one seed's increment stream with every plan, so all
the paths of a draw share one Wiener input. Every command and the
replication harness draw through it.

Paths are made in blocks of ``_BLOCK_SAMPLES`` output samples, each
convolved by overlap-save from its increments and the history the longest
taps reach, so a draw's working set, which ``_draw_values`` counts, does
not grow with the grid: a ``PathBlocks`` hands the blocks on as they are
made, and the path writers write them as they come. A path of at most
one block is one block. ``SampledPath`` is a whole path in memory.

A draw can also be written in contiguous ranges of whole blocks
(``_block_ranges``, ``_write_draw_range``), each range's files holding its
rows, the whole draw's files when appended in order (``_append_files``).

Path, estimate and trajectories CSVs go through ``_write_rows``, which
formats row chunks in numpy: ``_float_cells`` gives each float its ``repr``.
Every JSON file the package writes goes through ``_write_json``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import struct
import warnings
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

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
    "read_path_csv",
    "read_path_binary",
]

_UINT64_MAX = 2**64 - 1

#: Rows per chunk of ``_write_rows``: the largest power of two whose
#: temporaries stay under 1 MB (0.65 MB traced in a 3-path write, 1.2 MB at
#: 4096 rows). Formatting a chunk takes about 80 numpy calls, and their
#: fixed cost makes a row of a 3-path write take 605, 390, 362, 327 and
#: 464 ns at 512, 1024, 2048, 4096 and 8192 rows a chunk.
_CSV_CHUNK_ROWS = 2048

#: Trimmed tap count up to which direct summation is used; longer tap
#: arrays go through the FFT. Direct cost grows with the tap count, the
#: FFT's does not; the two cross between about 400 and 600 taps for
#: 5e4 to 5e5 output samples.
_DIRECT_MAX_TAPS = 512

#: Output samples per block of a draw, and window samples per block of a
#: correlogram (``estimator.cross_correlogram``); a multiple of
#: ``_CSV_CHUNK_ROWS``.
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
    directly. A long one goes through a real FFT at ``size`` (``_fft_size``),
    the first fast length that holds one block plus the taps: the plan keeps
    the tap spectrum, and a block costs one ``rfft``, which zero-pads the
    block's increments itself, and one ``irfft``, whose wrap-around stays in
    the ``taps.size - 1`` leading samples that the block's outputs skip. The
    plan is never written after it is built.
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
        self.size = _fft_size(self.block, self.taps.size)
        self.spectrum = rfft(self.taps, self.size) if self.size else None

    def convolve_block(self, x: np.ndarray) -> np.ndarray:
        """New array of the ``x.size - taps.size + 1`` outputs that read the
        increments ``x``, at most ``block`` of them."""
        if self.zero:
            return np.zeros(x.size - self.taps.size + 1)
        if not self.size:
            return np.convolve(x, self.taps, mode="valid")
        spectrum = rfft(x, self.size)
        spectrum *= self.spectrum
        return irfft(spectrum, self.size)[self.taps.size - 1 : x.size].copy()


def _fft_size(block: int, taps: int) -> int:
    """The FFT length of a plan of ``taps`` taps and blocks of ``block``
    outputs, or 0 for direct sums (at most ``_DIRECT_MAX_TAPS`` taps)."""
    return next_fast_len(block + taps - 1) if taps > _DIRECT_MAX_TAPS else 0


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
    """The convolution plans of the kernel sequence ``kernels`` on one grid,
    for any number of draws, in any number of threads at once: nothing
    writes a Simulator or its plans after it is built.

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

    def blocks(self, seed: NoiseSeed, start: int = 0, stop: Optional[int] = None) -> Iterator[tuple]:
        """Yield blocks ``start`` to ``stop`` (to the last when None) of a
        draw from ``seed``, each as a tuple of one new array per kernel, in
        order.

        The increments are those of ``wiener_increments(grid, pad, seed)``,
        drawn a block at a time from one generator into a buffer that the
        draw makes and holds to its end; the ``history`` last ones of a block
        stay in it for the next. The blocks before ``start`` are drawn by the
        same generator calls but not convolved, so a range's blocks are the
        whole draw's, bit for bit. Draws may be read interleaved, and in
        threads at once."""
        gen, scale = seed.generator(), math.sqrt(self.grid.dt)
        buf = np.empty(self.block + self.history)
        for skip in range(0, self.first, buf.size):  # increments no tap reaches
            gen.standard_normal(out=buf[: min(buf.size, self.first - skip)])
        end = self.grid.n if stop is None else min(self.grid.n, stop * self.block)
        for j in range(0, end, self.block):
            m = min(self.block, self.grid.n - j)
            if j:
                buf[: self.history] = buf[self.block : self.block + self.history]
            fresh = buf[self.history if j else 0 : self.history + m]
            gen.standard_normal(out=fresh)
            fresh *= scale
            if j >= start * self.block:
                yield tuple(plan.convolve_block(buf[plan.first - self.first :][: m + plan.taps.size - 1])
                            for plan in self.plans)

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


def _plan_routes(kernels, block: int, dt: float) -> list:
    """``(taps, size)`` per kernel of ``kernels`` in a ``Simulator`` at
    ``dt`` with blocks of ``block`` outputs: the most taps its plan keeps,
    and their ``_fft_size``. A kernel with ``support_tol == 0`` is exactly
    zero beyond its own support, so its plan trims all but
    ``2*required_pad + 1`` taps; any other may keep the ``2*pad + 1`` of
    the Simulator's pad."""
    pad = max(required_pad(k, dt) for k in kernels)
    taps = [2 * (required_pad(k, dt) if k.support_tol == 0 else pad) + 1 for k in kernels]
    return [(t, _fft_size(block, t)) for t in taps]


def _draw_values(kernels, n: int, dt: float) -> tuple:
    """``(block, shared, per_draw)``: the output samples per block of a draw
    of a ``Simulator`` of ``kernels`` on an ``n``-sample grid at ``dt``, and
    the most float64 values it holds, each plan counted as ``_plan_routes``
    counts it and a spectrum of ``size`` as ``size + 2``. ``shared`` is what
    its draws share: the sampled times and taps, ``2*(2*pad + 1)`` (no plan
    samples more), and per plan its taps and tap spectrum. ``per_draw`` is
    what each live draw holds: per plan two output blocks (one waiting in
    ``stream``), the increments with their history, and the spectrum and
    inverse transform of one FFT block."""
    pad = max(required_pad(k, dt) for k in kernels)
    block = min(n, _BLOCK_SAMPLES)
    plans = _plan_routes(kernels, block, dt)
    shared = 2 * (2 * pad + 1) + sum(taps + size + 2 for taps, size in plans)
    return block, shared, len(plans) * 2 * block + block + 2 * pad + 2 * max(s for _, s in plans) + 2


def _blocks_in_step(paths) -> Iterator[tuple]:
    """``(j, blocks)`` per step over ``paths``, ``SampledPath``s or
    ``PathBlocks`` on one grid: their blocks, of one size, from grid sample
    ``j`` on, in a list. The blocks of a path must hold the ``n`` samples of
    its grid."""
    n, count = paths[0].grid.n, 0
    # lists, not zip's tuples: zip keeps its first result tuple to refill,
    # and one still held when zip steps would keep its blocks alive a step
    # longer, one more block per path at the peak of a multi-block draw
    for blocks in map(list, zip(*(p.iter_blocks() for p in paths), strict=True)):
        if any(b.size != blocks[0].size for b in blocks):
            raise ValueError(f"paths must come in blocks of one size, got "
                             f"{[b.size for b in blocks]}")
        if count + blocks[0].size > n:
            raise ValueError(f"the paths' blocks run past their grid's n={n}: "
                             f"{count + blocks[0].size} samples so far")
        yield count, blocks
        count += blocks[0].size
    if count != n:
        raise ValueError(f"the paths' blocks hold {count} samples, but their grid has n={n}")


def simulate_pair(simulator: Simulator, seed: NoiseSeed) -> tuple:
    """``(Y, X)`` of one draw of a Simulator of ``(h, g)``: the two
    ``PathBlocks`` of ``Simulator.stream``."""
    Y, X = simulator.stream(seed)
    return Y, X


def _write_csv(files, header, columns) -> None:
    """Write one UTF-8 CSV per file of ``files``: the ``header`` line, then
    the rows ``_write_rows`` writes of ``columns``.

    The bytes equal ``csv.writer`` output with ``repr`` cells: commas, CRLF
    line ends, no quoting, floats as ``repr(float)``, integers in decimal."""
    with ExitStack() as stack:
        _write_rows(_open_csvs(stack, files, header), columns)


def _write_json(file, payload, sort_keys: bool = False) -> None:
    """Write ``payload`` to ``file`` as UTF-8 JSON: a two-space indent, a
    final newline, and keys sorted only when ``sort_keys``."""
    with open(Path(file), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _open_csvs(stack: ExitStack, files, header) -> list:
    """The binary handles of ``files``, closed with ``stack``, each holding
    the ``header`` line, or nothing when ``header`` is empty."""
    handles = [stack.enter_context(open(Path(f), "wb")) for f in files]
    for fh in handles if header else ():
        fh.write((",".join(header) + "\r\n").encode("utf-8"))
    return handles


def _write_rows(handles, columns, lead=None) -> None:
    """Append rows to each handle, in chunks of ``_CSV_CHUNK_ROWS``: the
    ``lead`` column, when given, followed by that handle's 1-D arrays in
    ``columns``. Every column must have the same length. The ``lead`` cells,
    the column every file starts with, are formatted once per chunk for all
    the files."""
    lengths = [len(col) for col in [lead] + [col for own in columns for col in own]
               if col is not None]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns must have one length, got lengths {lengths}")
    for i in range(0, lengths[0] if lengths else 0, _CSV_CHUNK_ROWS):
        rows = slice(i, i + _CSV_CHUNK_ROWS)
        first = [] if lead is None else [_cells(lead[rows])]
        for fh, own in zip(handles, columns):
            fh.write(_csv_lines(first + [_cells(col[rows]) for col in own]))


def _csv_lines(cells) -> bytes:
    """The CSV lines of the rows of ``cells``, one NUL-padded byte matrix
    per column: each row's cells joined by commas and ended by CRLF, with
    the NUL bytes removed."""
    n = len(cells[0])
    comma = np.broadcast_to(np.uint8(ord(",")), (n, 1))
    parts = [part for column in cells for part in (column, comma)]
    parts[-1] = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (n, 2))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _cells(values) -> np.ndarray:
    """The CSV cells of a 1-D array, one row of NUL-padded bytes each:
    ``_float_cells`` of a float array, the ASCII bytes of a string array,
    ``repr`` of each element of any other (an integer column)."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return _float_cells(values)
    if values.dtype.kind == "U":
        text = values.astype("S")
    else:
        text = np.array(list(map(repr, values.tolist())), dtype="S")
    return text.view(np.uint8).reshape(values.size, -1)


@functools.cache
def _digit_tables() -> dict:
    """The tables of ``_float_cells``, built on its first call: powers
    indexed by the decimal exponent ``e`` (0 to 20), made from Python ints,
    and ``words``, the 4-byte words a cell is spelled with.

    Word ``10000 v + g`` spells the four-digit group ``g`` in variant ``v``:
    0 with all its digits, 1 without leading zeros, 2 the same but ``0``
    for zero, 3 without trailing zeros, 4 the same but ``0`` for zero.
    Words 50000 to 50002 are nothing, ``-`` and ``.``. Unused bytes are
    NUL. ``base`` holds the word offsets of a cell's 11 words (sign, four
    integer groups, ``.``, five fraction groups), ``lead`` those of integer
    groups 2 to 4 after zero groups only, ``trail`` those of fraction
    groups 1 to 4 before zero groups only."""
    e = range(21)

    def table(values):
        return np.array(list(values), dtype=np.int64)

    g = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    lead = g >= place  # a digit after the leading zeros
    trail = g % (10 * place) != 0  # a digit before the trailing zeros
    first, last = place == 1000, place == 1
    words = np.zeros((50003, 4), np.uint8)
    for v, keep in enumerate([True, lead, lead | last, trail, trail | first]):
        words[10000 * v : 10000 * (v + 1)] = np.where(keep, digits, 0)
    words[50001:, 0] = [ord("-"), ord(".")]
    return {
        "ten_e": np.array([10.0**i for i in e]),
        "five_e": table(5**i for i in e),
        "int_unit": table(10**i if i < 19 else 0 for i in e),
        "head_div": table(10 ** max(i - 8, 0) for i in e),
        "head_mul": table(10 ** max(8 - i, 0) for i in e),
        "tail_mul": table(10 ** min(20 - i, 12) for i in e),
        "words": words.view(np.uint32).ravel(),
        "base": table([50000, 10000, 0, 0, 0, 50002, 0, 0, 0, 0, 30000])[:, None],
        "lead": table([10000, 10000, 20000])[:, None],
        "trail": table([40000, 30000, 30000, 30000])[:, None],
    }


def _shortest_digits(a: np.ndarray, tables: dict) -> tuple:
    """``(digits, e)``: ``digits 10^-e`` is the decimal ``repr`` writes for
    each ``a`` in ``[1e-4, 1e16)``, as int64 arrays.

    ``repr`` takes the shortest digits that read back to ``a``, the nearest
    such digits when there are several, ties to even. They are found here by
    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020).
    With ``a = c 2^q`` (``c`` the 53-bit significand), the doubles that read
    back to ``a`` span ``c +- 1/2`` units of ``2^q``. The exponent
    ``e = -floor(log10(2^q))`` makes that span between 1 and 10 units of
    ``10^-e``, so it holds at most one multiple of ``10^(1-e)``: the
    shortest digits, when it holds one. Else they are ``s`` or ``s + 1``
    units of ``10^-e``, ``s = floor(a 10^e)``, whichever is in the span, or
    nearer ``a`` when both are.

    Two refinements of the full algorithm change no result in this range
    and are left out. The span's ends count only for even ``c``, but no
    candidate falls on an end: an end is an odd multiple of ``2^(q-1)``,
    a whole number of units of ``10^-e`` only for ``q = 1``, where ``a`` is
    an even integer, its own ``s``, and both ends are odd. At a power of
    two the lower half of the span is ``1/4``; for each of the 67 powers of
    two in the range the symmetric span gives the same digits
    (``test_powers_and_their_neighbours`` holds them all).

    ``a 10^e = 2 c 5^e / 2^t`` with ``t = 1 - q - e >= 0``. A float product
    gives ``s`` to within a few units. The remainder ``2 c 5^e - s 2^t``,
    computed modulo 2^64 by wrapping products, is exact because it is small,
    and corrects ``s``. The bounds below are then integers in units of
    ``2^-(t+1)`` of ``10^-e``."""
    bits = a.view(np.int64)
    q = (bits >> 52) - 1075
    e = -((q * 661971961083) >> 41)  # 0 <= e <= 20
    t = 1 - q - e
    five = tables["five_e"][e]
    s = (a * tables["ten_e"][e]).astype(np.int64)
    rem = (((bits & (2**52 - 1)) + 2**52) << 1) * five - (s << t)
    s += rem >> t
    unit = 2 << t
    frac = (rem & ((unit >> 1) - 1)) << 1  # a 10^e = s + frac / unit
    half = five << 1  # the half span
    tens = s // 10 * 10
    below = (s - tens) * unit + frac
    tens_in = below <= half
    tens_up_in = 10 * unit - below <= half
    s_in = frac <= half
    s_up_in = unit - frac <= half
    nearer_s = (2 * frac < unit) | ((2 * frac == unit) & (s & 1 == 0))
    digits = np.where(tens_in != tens_up_in, tens + 10 * tens_up_in,
                      s + (s_up_in & ~(s_in & nearer_s)))
    return digits, e


def _digit_groups(a: np.ndarray, tables: dict) -> np.ndarray:
    """The decimals of ``_shortest_digits(a)`` as an ``(11, n)`` int64
    array of four-digit groups, one column per value: rows 1 to 4 hold 16
    integer digits and rows 6 to 10 hold 20 fraction digits; rows 0 and 5
    are zero."""
    digits, e = _shortest_digits(a, tables)
    whole = a.astype(np.int64)
    fraction = digits - whole * tables["int_unit"][e]
    head = fraction // tables["head_div"][e]  # the first 8 fraction digits
    tail = (fraction - head * tables["head_div"][e]) * tables["tail_mul"][e]
    head *= tables["head_mul"][e]
    # five 8-digit pairs of groups: twice 8 integer digits, then 4 (after
    # a zero group), 8 and 8 fraction digits
    pairs = np.empty((5, a.size), np.int64)
    np.floor_divide(whole, 10**8, out=pairs[0])
    pairs[1] = whole - pairs[0] * 10**8
    np.floor_divide(head, 10**4, out=pairs[2])
    pairs[3] = (head - pairs[2] * 10**4) * 10**4 + tail // 10**8
    pairs[4] = tail % 10**8
    groups = np.zeros((11, a.size), np.int64)
    np.floor_divide(pairs, 10**4, out=groups[1::2])
    np.subtract(pairs, groups[1::2] * 10**4, out=groups[2::2])
    return groups


def _float_cells(values) -> np.ndarray:
    """The bytes of ``repr(float(x))`` for each ``x`` of a 1-D array, as the
    rows of an ``(n, w)`` uint8 matrix with NUL bytes in the unused places.

    ``repr`` writes ``1e-4 <= |x| < 1e16`` positionally. Those values are
    spelled here from ``_digit_groups`` with the words of ``_digit_tables``:
    a sign, 16 integer digits, the point and 20 fraction digits, without the
    zeros before the first integer digit and after the last fraction digit
    but one on each side of the point. Words that no such cell uses are left
    out, so their part of ``w`` is 44 bytes or less. Zero, nonfinite values
    and the exponent form, rare in paths, go through ``repr``, and ``w``
    widens to the longest of them."""
    x = np.asarray(values, dtype=float)
    tables = _digit_tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    slow = np.flatnonzero(~fast)
    a[slow] = 1.0  # spelled in words that every positional cell uses
    words = _digit_groups(a, tables)
    words[0] = negative = np.signbit(x) & fast
    # lead[i]: integer groups 1 to i + 1 are zero; trail[i]: fraction groups
    # i + 2 to 5 are zero (row by row: accumulate along rows is slow)
    zero = words == 0
    lead, trail = zero[1:4], zero[7:]
    for i in (1, 2):
        lead[i] &= lead[i - 1]
    for i in (2, 1, 0):
        trail[i] &= trail[i + 1]
    words += tables["base"]
    np.add(words[2:5], tables["lead"], out=words[2:5], where=lead)
    np.add(words[6:10], tables["trail"], out=words[6:10], where=trail)
    # drop the words that are empty in every cell
    first, end = 1 + lead.all(axis=1).sum(), 11 - trail.all(axis=1).sum()
    if negative.any():
        first -= 1
        words[first] = words[0]
    cells = np.take(tables["words"], words[first:end].T).view(np.uint8)
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], dtype="S")
        width = max(cells.shape[1], text.itemsize)
        cells = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
        cells[slow] = text.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


#: Binary path layout: little-endian header (n: uint64, dt: float64,
#: t_start: float64) followed by n little-endian float64 values.
_BIN_HEADER = struct.Struct("<Qdd")


def write_path_files(paths, csv_files, bin_files=()) -> None:
    """Write each of ``paths``, ``SampledPath``s or ``PathBlocks`` all on one
    grid, to the CSV file of ``csv_files`` and, when ``bin_files`` is given,
    the binary file of ``bin_files`` at the same index, in one pass over
    their blocks (``_write_paths``)."""
    grid = paths[0].grid
    if any(p.grid != grid for p in paths):
        raise ValueError("paths must share one sampling grid")
    for files in (csv_files, bin_files):
        if files and len(files) != len(paths):
            raise ValueError(f"{len(paths)} paths need as many files, got {len(files)}")
    _write_paths(grid, _blocks_in_step(paths), csv_files, bin_files)


def _block_ranges(n: int, cpus: int) -> list:
    """``(start, stop)`` block indices of the contiguous ranges that a draw
    of ``n`` samples is written in on ``cpus`` CPUs: one range a CPU, at
    most one a block, cut at the block boundaries nearest to equal row
    counts."""
    blocks = -(-n // _BLOCK_SAMPLES)
    procs = max(1, min(cpus, blocks))
    cuts = [0]
    for i in range(1, procs):
        nearest = round(i * n / (procs * _BLOCK_SAMPLES))
        cuts.append(min(max(cuts[-1] + 1, nearest), blocks - procs + i))
    return list(zip(cuts, cuts[1:] + [blocks]))


def _write_draw_range(simulator: Simulator, seed: NoiseSeed, blocks: tuple, csv_files,
                      bin_files=()) -> None:
    """Write blocks ``[start, stop)`` of every path of the draw from ``seed``
    to the CSV of ``csv_files`` and the binary file of ``bin_files`` at its
    index, as ``write_path_files`` would write them in a whole draw's files,
    headers only when ``start`` is 0."""
    start, stop = blocks

    def steps():
        for k, parts in enumerate(simulator.blocks(seed, start, stop), start):
            if not all(np.isfinite(p).all() for p in parts):
                raise ValueError("values must be finite")
            yield k * simulator.block, parts

    _write_paths(simulator.grid, steps(), csv_files, bin_files, headers=not start)


def _write_paths(grid: TimeGrid, steps, csv_files, bin_files, headers: bool = True) -> None:
    """Write ``steps``, ``(j, blocks)`` with ``blocks`` the paths' values
    from sample ``j`` of ``grid`` on, to the CSV file of ``csv_files`` and
    the binary file of ``bin_files`` at each path's index: a block goes to
    every file before the next is read.

    A CSV holds (t,value) rows, under a header line when ``headers``; each
    row chunk's ``t`` column is made for that chunk only, from
    ``t_start + dt*j`` with the bits of ``grid.times()``, and formatted once
    for every file. A binary file has the ``_BIN_HEADER`` layout, its header
    written when ``headers``."""
    with ExitStack() as stack:
        csvs = _open_csvs(stack, csv_files, ["t", "value"] if headers else [])
        bins = [stack.enter_context(open(Path(f), "wb")) for f in bin_files]
        for fh in bins if headers else ():
            fh.write(_BIN_HEADER.pack(grid.n, grid.dt, grid.t_start))
        for j, blocks in steps:
            for i in range(0, blocks[0].size, _CSV_CHUNK_ROWS) if csvs else ():
                rows = [b[i : i + _CSV_CHUNK_ROWS] for b in blocks]
                times = grid.t_start + grid.dt * np.arange(j + i, j + i + rows[0].size)
                _write_rows(csvs, [[r] for r in rows], lead=times)
            for fh, block in zip(bins, blocks):
                fh.write(np.ascontiguousarray(block, dtype="<f8"))


def _append_files(file, parts) -> None:
    """Append the files ``parts``, in order, to ``file``, a MiB at a time."""
    with open(Path(file), "ab") as out:
        for part in parts:
            with open(Path(part), "rb") as src:
                shutil.copyfileobj(src, out, 1 << 20)


def write_path_csv(path, file) -> None:
    """Write (t,value) rows with a header line: the one-path case of
    ``write_path_files``, under the name that the tests and the layer
    probes of ``perfbench/layers.py`` call."""
    write_path_files([path], [file])


def _file_path(file, t_start: float, dt: float, values: np.ndarray) -> SampledPath:
    """The path of ``values`` on ``TimeGrid(t_start, dt, len(values))``, read
    from ``file``; an invalid grid, or a value that is not finite, raises
    ``ValueError`` naming the file."""
    try:
        grid = TimeGrid(t_start, dt, len(values))
    except ValueError as exc:
        raise ValueError(f"{exc}, but {file} gives t_start={t_start!r}, dt={dt!r}") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = bad[0]
        raise ValueError(f"values must be finite, but sample {k} in {file} is {float(values[k])!r}")
    return SampledPath(grid=grid, values=values)


def read_path_csv(file) -> SampledPath:
    """Read (t,value) rows on the grid ``t0 + j*dt`` with ``dt = t1 - t0``;
    fewer than two rows, a ``dt`` that is not positive, a time off that
    grid or a value that is not finite raises ``ValueError``."""
    times, values = _read_two_columns(file)
    if len(times) < 2:
        raise ValueError(f"{len(times)} samples in {file}: two are needed to fix dt")
    t0 = times[0]
    dt = times[1] - t0
    path = _file_path(file, t0, dt, np.array(values))
    j = np.arange(len(times))
    # dt is off by up to half an ulp of t1, and sample j repeats that j times
    slack = 1e-6 * abs(dt) + j * np.spacing(abs(t0) + abs(dt))
    off = np.flatnonzero(np.abs(np.array(times) - (t0 + j * dt)) > slack)
    if off.size:
        k = off[0]
        raise ValueError(f"t={times[k]!r} of sample {k} in {file} is off the grid {t0!r} + j*{dt!r}")
    return path


def write_path_binary(path, file) -> None:
    """Write a path in the ``_BIN_HEADER`` layout: the one-path case of
    ``write_path_files``, under the name that the tests and the layer
    probes of ``perfbench/layers.py`` call."""
    write_path_files([path], [], [file])


def read_path_binary(file) -> SampledPath:
    """Read a path in the ``_BIN_HEADER`` layout; a file whose size is not
    that of the header plus its ``n`` values, a header ``dt`` that is not
    positive, or a value that is not finite raises ``ValueError``."""
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
    return _file_path(file, t_start, dt, values)

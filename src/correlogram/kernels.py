"""Impulse-response kernels and averaging-window families.

A linear system driven by white noise is described here by two real
square-integrable impulse responses: a target component ``H`` that we want
to estimate, and a controlled window ``g_delta`` that concentrates around
the origin as ``delta`` grows. This module builds both kinds of kernel,
exposes their Fourier transforms (the convention is
``phi*(lam) = int exp(-i lam t) phi(t) dt``), and provides the
integrability and regularity checks that the estimation theory requires
of a window family:

(1a) each member is in L2,
(1b) each member is even,
(1c) the transforms are uniformly bounded over delta,
(1d) the transforms converge to the constant ``c`` uniformly on compacts.

Built-ins (``KERNELS``): triangular (Bartlett) and Laplace (two-sided
exponential) windows, the sinc kernel and its Hilbert transform, a
one-sided box, plus tabulated kernels loaded from samples.
"""

from __future__ import annotations

import csv
import inspect
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import (
    ftf_breakpoints,
    integrate,
    lagged_product,
    panel_edges,
    si_tail,
    spectral_width,
)

__all__ = [
    "Kernel",
    "KernelFamily",
    "KERNELS",
    "WINDOW_FAMILIES",
    "make_triangular",
    "make_laplace",
    "make_sinc",
    "make_hilbert_sinc",
    "make_tabulated",
    "make_one_sided_box",
    "load_kernel_csv",
    "family_from_name",
    "kernel_from_spec",
    "check_family_conditions",
    "check_weighted_spectral",
    "autocorrelation",
]

#: Relative L2 tail mass allowed outside [-R, R] when a truncation radius
#: is solved for (kernels with fast decay). Slowly decaying kernels store
#: the radius they actually achieve together with its tail mass.
DEFAULT_SUPPORT_TOL = 1e-10

#: Truncation radius of the sinc kernels, whose 1/t decay makes the
#: default tolerance unreachable in the time domain. Spectral quantities
#: for these kernels never rely on time truncation (the transforms are
#: known in closed form); the radius only sizes simulation padding.
SINC_SUPPORT_RADIUS = 60.0

_PARITY_VALUES = ("even", "odd", "none")


def _vectorized(f: Callable, dtype) -> Callable:
    """``f`` on its argument as a float array, with its result cast to
    ``dtype``; a scalar argument gives a Python scalar."""

    def call(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(f(x), dtype=dtype)
        return out.item() if x.ndim == 0 else out

    return call


@dataclass(frozen=True)
class Kernel:
    """A real L2 impulse-response component.

    Attributes
    ----------
    name : str
        Identifier, e.g. ``"triangular"`` or ``"sinc"``.
    time_eval : callable
        Vectorized kernel value at time ``t`` (seconds).
    ftf_eval : callable
        Vectorized frequency transfer function at ``lam`` (rad/s),
        returned as complex.
    parity : str
        ``"even"``, ``"odd"`` or ``"none"``.
    l2_norm : float
        Cached L2 norm of ``time_eval``.
    effective_support : float
        Radius R with L2 tail mass outside [-R, R] below ``support_tol``
        (relative to the squared norm).
    support_tol : float
        The tail tolerance actually achieved by ``effective_support``.
    band_limit : float or None
        Exact one-sided frequency support when the transform vanishes
        outside [-band_limit, band_limit]; None otherwise.
    ftf_envelope : callable or None
        Optional nonincreasing bound on ``|ftf_eval|`` valid for
        ``lam >= 0``; used to size quadrature tails.
    params : dict
        Construction parameters (``delta``, ``c``, ...).

    The three callables are given as array formulas; construction wraps
    them so that they take any array-like and return a Python scalar for
    a scalar argument.
    """

    name: str
    time_eval: Callable[[np.ndarray], np.ndarray]
    ftf_eval: Callable[[np.ndarray], np.ndarray]
    parity: str
    l2_norm: float
    effective_support: float
    support_tol: float = DEFAULT_SUPPORT_TOL
    band_limit: Optional[float] = None
    ftf_envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.parity not in _PARITY_VALUES:
            raise ValueError(f"parity must be one of {_PARITY_VALUES}")
        if not (self.l2_norm >= 0 and math.isfinite(self.l2_norm)):
            raise ValueError("l2_norm must be finite and nonnegative")
        if not (self.effective_support > 0 and math.isfinite(self.effective_support)):
            raise ValueError("effective_support must be finite and positive")
        for name, dtype in (("time_eval", float), ("ftf_eval", complex), ("ftf_envelope", float)):
            f = getattr(self, name)
            if f is not None:
                object.__setattr__(self, name, _vectorized(f, dtype))

    def ftf_l2_norm(self) -> float:
        """L2 norm of the transform, via the Plancherel identity."""
        return math.sqrt(2.0 * math.pi) * self.l2_norm


@dataclass(frozen=True)
class KernelFamily:
    """A window family ``delta -> g_delta`` with its limit constant ``c``."""

    constructor: Callable[[float], Kernel]
    c: float
    family_name: str

    def __call__(self, delta: float) -> Kernel:
        return self.constructor(delta)


def _require_positive(name: str, value) -> float:
    """``value`` as a float; it must be a finite positive real number, so
    JSON ``true``/``false`` and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def make_triangular(delta: float, c: float) -> Kernel:
    """Triangular (Bartlett) window of height ``c*delta`` on [-1/delta, 1/delta].

    Time domain ``c*delta*(1 - delta*|t|)`` inside the support; transform
    ``c * (sin(lam/(2 delta)) / (lam/(2 delta)))**2``.
    """
    delta = _require_positive("delta", delta)
    c = _require_positive("c", c)

    def ftf_envelope(lam):
        a = np.abs(lam)
        big = a > 2.0 * delta
        return np.where(big, (2.0 * delta / np.where(big, a, 1.0)) ** 2, 1.0) * c

    return Kernel(
        name="triangular",
        time_eval=lambda t: c * delta * np.clip(1.0 - delta * np.abs(t), 0.0, None),
        # np.sinc is sin(pi y)/(pi y)
        ftf_eval=lambda lam: c * np.sinc(lam / (2.0 * delta) / np.pi) ** 2,
        parity="even",
        l2_norm=c * math.sqrt(2.0 * delta / 3.0),
        effective_support=1.0 / delta,
        support_tol=0.0,
        ftf_envelope=ftf_envelope,
        params={"delta": delta, "c": c},
    )


def make_laplace(delta: float, c: float) -> Kernel:
    """Two-sided exponential (Laplace) window ``(c*delta/2) exp(-delta |t|)``.

    Transform ``c * delta**2 / (delta**2 + lam**2)``.
    """
    delta = _require_positive("delta", delta)
    c = _require_positive("c", c)
    # Two-sided tail mass of the squared kernel is exp(-2 delta R) relative
    # to the total, so R solving exp(-2 delta R) = tol.
    radius = math.log(1.0 / DEFAULT_SUPPORT_TOL) / (2.0 * delta)
    return Kernel(
        name="laplace",
        time_eval=lambda t: 0.5 * c * delta * np.exp(-delta * np.abs(t)),
        ftf_eval=lambda lam: c * delta**2 / (delta**2 + lam**2),
        parity="even",
        l2_norm=0.5 * c * math.sqrt(delta),
        effective_support=radius,
        support_tol=DEFAULT_SUPPORT_TOL,
        params={"delta": delta, "c": c},
    )


def _sinc_tail_mass(radius: float) -> float:
    """Two-sided L2 tail of sin(pi t)/(pi t) outside [-radius, radius].

    Uses int_X^inf sin(x)^2/x^2 dx = sin(X)^2/X + pi/2 - Si(2X).
    """
    x = math.pi * radius
    return (2.0 / math.pi) * (math.sin(x) ** 2 / x + si_tail(2.0 * x))


def _hilbert_sinc_tail_mass(radius: float) -> float:
    """Two-sided L2 tail of (1 - cos(pi t))/(pi t) outside [-radius, radius].

    Expands (1-cos x)^2 = 3/2 - 2 cos x + cos(2x)/2 and integrates each
    cos(a x)/x^2 term by parts against Si.
    """
    x = math.pi * radius

    def cos_over_sq(a):
        # int_X^inf cos(a u)/u^2 du = cos(a X)/X - a (pi/2 - Si(a X))
        return math.cos(a * x) / x - a * si_tail(a * x)

    val = 1.5 / x - 2.0 * cos_over_sq(1.0) + 0.5 * cos_over_sq(2.0)
    return (2.0 / math.pi) * val


def make_sinc() -> Kernel:
    """Sinc kernel ``sin(pi t)/(pi t)`` with transform 1 on [-pi, pi].

    The 1/t decay makes tight time-domain truncation impractical, so the
    stored ``effective_support`` (``SINC_SUPPORT_RADIUS``) only reaches the
    tail mass recorded in ``support_tol``; frequency-domain formulas are
    exact.
    """
    return Kernel(
        name="sinc",
        time_eval=np.sinc,
        ftf_eval=lambda lam: np.abs(lam) <= np.pi,
        parity="even",
        l2_norm=1.0,
        effective_support=SINC_SUPPORT_RADIUS,
        support_tol=_sinc_tail_mass(SINC_SUPPORT_RADIUS),
        band_limit=math.pi,
        params={},
    )


def make_hilbert_sinc() -> Kernel:
    """Hilbert transform of the sinc kernel, ``(1 - cos(pi t))/(pi t)``.

    Transform is ``-i*sign(lam)`` on [-pi, pi]; the kernel is odd with unit
    L2 norm. Same truncation caveat as ``make_sinc``.
    """

    def time_eval(t):
        denom = np.where(t == 0.0, 1.0, np.pi * t)
        return np.where(t == 0.0, 0.0, (1.0 - np.cos(np.pi * t)) / denom)

    return Kernel(
        name="hilbert_sinc",
        time_eval=time_eval,
        ftf_eval=lambda lam: (-1j * np.sign(lam)) * (np.abs(lam) <= np.pi),
        parity="odd",
        l2_norm=1.0,
        effective_support=SINC_SUPPORT_RADIUS,
        support_tol=_hilbert_sinc_tail_mass(SINC_SUPPORT_RADIUS),
        band_limit=math.pi,
        params={},
    )


def make_one_sided_box(delta: float, c: float) -> Kernel:
    """Box window ``c*delta`` on [0, 1/delta): deliberately asymmetric.

    Fails the evenness condition (1b); used to exercise the family checks.
    """
    delta = _require_positive("delta", delta)
    c = _require_positive("c", c)

    def ftf_eval(lam):
        # int_0^{1/delta} c*delta*exp(-i lam t) dt
        x = lam / delta
        small = np.abs(x) < 1e-12
        xs = np.where(small, 1.0, x)
        return np.where(small, c * (1.0 + 0j), c * (1.0 - np.exp(-1j * xs)) / (1j * xs))

    return Kernel(
        name="one_sided_box",
        time_eval=lambda t: c * delta * ((t >= 0) & (t < 1.0 / delta)),
        ftf_eval=ftf_eval,
        parity="none",
        l2_norm=c * math.sqrt(delta),
        effective_support=1.0 / delta,
        support_tol=0.0,
        params={"delta": delta, "c": c},
    )


_PARITY_GRID_POINTS = 1024
_PARITY_TOL = 1e-9


def _detect_parity(times: np.ndarray, values: np.ndarray, radius: float) -> str:
    grid = np.linspace(0.0, radius, _PARITY_GRID_POINTS)
    right = np.interp(grid, times, values, left=0.0, right=0.0)
    left = np.interp(-grid, times, values, left=0.0, right=0.0)
    scale = max(np.max(np.abs(values)), 1e-300)
    if np.max(np.abs(right - left)) <= _PARITY_TOL * scale:
        return "even"
    if np.max(np.abs(right + left)) <= _PARITY_TOL * scale:
        return "odd"
    return "none"


def make_tabulated(times: Sequence[float], values: Sequence[float]) -> Kernel:
    """Kernel from uniform samples; linear interpolation, zero outside.

    The transform is a zero-padded discrete Fourier transform of the
    samples scaled by the grid spacing, linearly interpolated between
    frequency bins; accuracy degrades as O(spacing**2).
    """
    times, values = np.asarray(times), np.asarray(values)
    if times.dtype.kind not in "iuf" or values.dtype.kind not in "iuf":
        raise ValueError("times and values must be arrays of numbers")
    # astype copies, so the evaluators own their samples
    times, values = times.astype(float), values.astype(float)
    if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
        raise ValueError("times and values must be 1-D arrays of equal length")
    if times.size < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
        raise ValueError("times and values must be finite")
    steps = np.diff(times)
    dt = steps[0]
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12 * abs(dt)):
        raise ValueError("times must form a strictly increasing uniform grid")

    # Zero-padded DFT of the samples; bin spacing 2*pi/(n_fft*dt). The
    # phase factor accounts for the grid starting at times[0] rather than 0.
    n_fft = 1 << max(12, int(np.ceil(np.log2(8 * times.size))))
    freqs = 2.0 * np.pi * np.fft.fftfreq(n_fft, d=dt)
    spectrum = dt * np.fft.fft(values, n=n_fft) * np.exp(-1j * freqs * times[0])
    order = np.argsort(freqs)
    freqs_sorted = freqs[order]
    spec_sorted = spectrum[order]

    def ftf_eval(lam):
        re = np.interp(lam, freqs_sorted, spec_sorted.real, left=0.0, right=0.0)
        im = np.interp(lam, freqs_sorted, spec_sorted.imag, left=0.0, right=0.0)
        return re + 1j * im

    # Exact L2 norm of the piecewise-linear interpolant.
    seg = (values[:-1] ** 2 + values[:-1] * values[1:] + values[1:] ** 2) / 3.0
    l2_sq = float(np.sum(seg) * dt)
    l2 = math.sqrt(max(l2_sq, 0.0))

    # The interpolant vanishes outside the sample grid, so the grid radius
    # is an exact support bound.
    radius = float(max(abs(times[0]), abs(times[-1])))
    parity = _detect_parity(times, values, radius)
    return Kernel(
        name="tabulated",
        time_eval=lambda t: np.interp(t, times, values, left=0.0, right=0.0),
        ftf_eval=ftf_eval,
        parity=parity,
        l2_norm=l2,
        effective_support=radius,
        support_tol=0.0,
        params={"n_samples": int(times.size), "dt": float(dt), "t0": float(times[0])},
    )


def _read_two_columns(path) -> tuple:
    """(times, values) lists of a two-column CSV file; blank rows and one
    non-numeric row before the first sample (a header) are skipped."""
    times, values = [], []
    header = False
    with open(Path(path), newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        for row in filter(None, rows):
            try:
                t = float(row[0])
            except ValueError:
                if times or header:
                    raise ValueError(f"non-numeric row {rows.line_num} {row!r} in {path}") from None
                header = True
                continue
            if len(row) < 2:
                raise ValueError(f"row {row!r} in {path} has no value column")
            try:
                values.append(float(row[1]))
            except ValueError:
                raise ValueError(f"non-numeric value in row {row!r} in {path}") from None
            times.append(t)
    return times, values


def load_kernel_csv(path) -> Kernel:
    """Load a tabulated kernel from a two-column (time,value) CSV file.

    A single header row is skipped when its first field is not numeric; a
    second such row before the first sample is an error. Every
    ``ValueError`` names the file.
    """
    times, values = _read_two_columns(path)
    try:
        return make_tabulated(times, values)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None


def _tabulated(path=None, times=None, values=None) -> Kernel:
    """The ``tabulated`` spec: a CSV ``path``, or inline ``times`` and ``values``."""
    if path is not None and times is None and values is None:
        if not isinstance(path, (str, os.PathLike)):
            raise ValueError(f"tabulated path must be a string, got {path!r}")
        return load_kernel_csv(path)
    if path is None and times is not None and values is not None:
        return make_tabulated(times, values)
    raise ValueError("tabulated takes either 'path' or both 'times' and 'values'")


#: Every built-in kernel: spec name -> constructor. The other keys of a
#: spec are the constructor's keyword arguments.
KERNELS = {
    "triangular": make_triangular,
    "laplace": make_laplace,
    "sinc": make_sinc,
    "hilbert_sinc": make_hilbert_sinc,
    "one_sided_box": make_one_sided_box,
    "tabulated": _tabulated,
}

#: The ``KERNELS`` names that make window families ``delta -> g_delta``;
#: their constructors take ``(delta, c)``.
WINDOW_FAMILIES = ("triangular", "laplace", "one_sided_box")


def family_from_name(name: str, c: float) -> KernelFamily:
    """The window family ``delta -> KERNELS[name](delta, c)``."""
    if name not in WINDOW_FAMILIES:
        raise ValueError(f"unknown window family {name!r}; known: {list(WINDOW_FAMILIES)}")
    make, c = KERNELS[name], _require_positive("c", c)
    return KernelFamily(lambda delta: make(delta, c), c, name)


def kernel_from_spec(spec: dict) -> Kernel:
    """Build a kernel from a config mapping like {"name": "triangular", "delta": 2, "c": 1}.

    ``name`` picks the constructor in ``KERNELS``; the other keys are its
    keyword arguments, and a missing or unknown one is a ``ValueError``
    that names it.
    """
    params = dict(spec)
    name = params.pop("name", None)
    if not isinstance(name, str) or name not in KERNELS:
        raise ValueError(f"unknown kernel name {name!r}; known: {list(KERNELS)}")
    make = KERNELS[name]
    try:
        inspect.signature(make).bind(**params)
    except TypeError as exc:
        raise ValueError(f"{name} kernel spec: {exc}") from None
    return make(**params)


_EVEN_CHECK_POINTS = 512
_SUP_SCAN_POINTS = 4096


def check_family_conditions(
    family: KernelFamily,
    deltas: Sequence[float],
    lambda_window: float,
    tol: float = 1e-9,
) -> dict:
    """Evaluate conditions (1a)-(1d) for sampled members of a window family.

    Returns the ``family`` object of ``conditions.json``: the family name,
    the deltas, one entry per check under ``checks`` (its ``passed`` flag
    and numeric evidence), ``tol``, and ``passed`` when all four hold.

    Convergence in (1d) is operationalized as monotone decrease of the
    window-restricted deviation ``sup_{|lam|<=a} |g*(lam) - c|`` along the
    ascending delta ladder, with the final deviation below ``tol`` (a
    finite program cannot verify a limit). The sup in (1c) is taken over
    a wide scan grid and reported as evidence, not proof.
    """
    deltas = list(map(float, deltas))
    if not deltas:
        raise ValueError("deltas must be non-empty")
    if sorted(deltas) != deltas:
        raise ValueError("deltas must be ascending")
    if not lambda_window > 0:
        raise ValueError("lambda_window must be positive")

    members = [family(d) for d in deltas]

    l2_norms = [float(k.l2_norm) for k in members]
    l2_ok = all(math.isfinite(v) for v in l2_norms)

    max_asym = []
    for k in members:
        r = k.effective_support
        grid = np.linspace(0.0, r, _EVEN_CHECK_POINTS)
        asym = np.max(np.abs(k.time_eval(grid) - k.time_eval(-grid)))
        max_asym.append(float(asym))
    even_ok = all(a <= tol for a in max_asym)

    # (1c): scan each transform densely out to several delta scales.
    sup_per_delta = []
    for k, d in zip(members, deltas):
        lam_hi = max(lambda_window, 20.0 * d, 100.0)
        grid = np.concatenate([
            np.linspace(0.0, 2.0 * lambda_window, _SUP_SCAN_POINTS // 2),
            np.geomspace(max(2.0 * lambda_window, 1e-3), lam_hi, _SUP_SCAN_POINTS // 2),
        ])
        vals = np.abs(k.ftf_eval(grid))
        sup_per_delta.append(float(np.max(vals)))
    sup_constant = max(sup_per_delta)
    sup_bounded = math.isfinite(sup_constant)

    # (1d): deviation from c on the compact window per delta.
    deviations = []
    win = np.linspace(-lambda_window, lambda_window, _SUP_SCAN_POINTS)
    for k in members:
        dev = np.max(np.abs(k.ftf_eval(win) - family.c))
        deviations.append(float(dev))
    # A finite ladder cannot certify a limit; the flag records monotone
    # decrease across the sampled deltas with the last deviation below tol.
    decreasing = all(b < a * (1.0 + 1e-12) for a, b in zip(deviations, deviations[1:]))
    limit_ok = decreasing and deviations[-1] < tol

    checks = {
        "l2_finite": {"passed": l2_ok, "l2_norms": l2_norms},
        "even": {"passed": even_ok, "max_asymmetry": max_asym},
        "ftf_sup_bounded": {
            "passed": sup_bounded,
            "per_delta": sup_per_delta,
            "constant": sup_constant,
        },
        "compact_limit": {
            "passed": limit_ok,
            "deviation_per_delta": deviations,
            "lambda_window": float(lambda_window),
        },
    }
    return {
        "family": family.family_name,
        "deltas": deltas,
        "checks": checks,
        "tol": float(tol),
        "passed": all(check["passed"] for check in checks.values()),
    }


def check_weighted_spectral(k: Kernel, exponent: float, lambda_max: float) -> dict:
    """Compute ``int_{-L}^{L} |k*(lam)|^2 ln(1+|lam|)**exponent dlam``.

    Returns ``{"value", "relative_change", "converged"}``: the integral at
    ``lambda_max``, its relative change at ``2*lambda_max``, and whether
    that change is below 1e-3, which is treated as evidence of a finite
    integral.
    """
    if not exponent > 1:
        raise ValueError("exponent must exceed 1")
    lambda_max = _require_positive("lambda_max", lambda_max)

    def weighted(lam):
        return np.abs(k.ftf_eval(lam)) ** 2 * np.log1p(np.abs(lam)) ** exponent

    def integral(upper):
        edges = panel_edges(0.0, upper, ftf_breakpoints(k), spectral_width(0.0, k))
        return 2.0 * float(integrate(weighted, edges))

    v1 = integral(lambda_max)
    v2 = integral(2.0 * lambda_max)
    denom = max(abs(v2), 1e-300)
    rel = abs(v2 - v1) / denom
    return {"value": v1, "relative_change": float(rel), "converged": bool(rel < 1e-3)}


def autocorrelation(h: Kernel, lag):
    """Self-convolution ``int h(lag - s) h(s) ds`` at a lag or a lag array.

    Evaluated in the time domain when the kernel decays fast enough for
    truncation, and through ``(1/2pi) int exp(i lam lag) (h*(lam))**2
    dlam`` when the transform is band-limited. For even kernels this
    coincides with the usual autocorrelation; for odd kernels the two
    differ by sign (the self-convolution is what the variance of the
    limit error process decomposes through).
    """
    return lagged_product(h, h, lag, -1)

"""Tail bounds and confidence machinery for the correlogram error.

Four bound families live here. The pointwise one rests on the square
Gaussian tail function K(x); the interval (supremum) ones need either
Gaussian-comparison constants built from the kernel self-convolution
(b(tau), B over the interval) or the metric-entropy constant A built
from covering numbers of the increment pseudometric.

All bounds are probabilities, so report grids cap them at 1 while the
raw values stay available. The corollaries take Rice's bound on the tail
of sup Y (``rice_sup_tail``). Acceptance criterion 8 checks all four
against the empirical tails of a replication ensemble; no command does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import (
    Pseudometric,
    _radius_below,
    c_r,
    entropy_integral,
    epsilon_T_delta,
    rho_upper_metric,
)
from .errors import BoundUnavailable
from .kernels import Kernel, autocorrelation
from .quadrature import ftf_breakpoints, integrate, panel_edges, spectral_width, sup_ftf
from .simulate import _write_json
from .spectral import CovarianceModel, cov_finite

__all__ = [
    "k_of_x",
    "solve_2k",
    "pointwise_ci",
    "acf2_interval_min",
    "b_sup",
    "corollary2_bound",
    "corollary1_bound",
    "rice_sup_tail",
    "theorem4_detail",
    "TailBoundReport",
    "theorem3_report",
    "corollary2_report",
    "corollary1_report",
    "theorem4_report",
]

_ARG_TOL = 1e-10
_MAX_ITER = 200
# Scan points of the doubled-lag self-convolution over [a, b], and of the
# variance of Zhat in theorem 4; each scan's extremum is then polished.
_ACF2_GRID = 801
_VAR_GRID = 33


def k_of_x(x: float) -> float:
    """Square Gaussian tail factor (1 + sqrt(2) x)^(1/2) exp(-x / sqrt(2)).

    Strictly decreasing for x > 0, equal to 1 at x = 0.
    """
    x = float(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    return math.sqrt(1.0 + math.sqrt(2.0) * x) * math.exp(-x / math.sqrt(2.0))


def solve_2k(target: float) -> float:
    """The u >= 0 with 2 K(u) = target, for target in (0, 2]."""
    if not 0.0 < target <= 2.0:
        raise ValueError("target must lie in (0, 2]")
    if target == 2.0:
        return 0.0
    hi = 1.0
    while 2.0 * k_of_x(hi) > target:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("tail target not bracketed")
    lo = 0.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if 2.0 * k_of_x(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < _ARG_TOL:
            break
    return 0.5 * (lo + hi)


def pointwise_ci(var_hat: float, T: float, confidence: float) -> float:
    """Half-width of the fixed-lag confidence interval for the correlogram.

    Solves 2 K(u) = 1 - confidence, then scales by sqrt(var_hat / T):
    the estimator misses its mean by more than the half-width with
    probability at most 1 - confidence. A vanishing variance makes the
    relative interval meaningless; that case returns the scaling limit 0
    and warns.
    """
    if var_hat < 0:
        raise ValueError("var_hat must be nonnegative")
    if not T > 0:
        raise ValueError("T must be positive")
    if not 0.0 <= confidence < 1.0:
        raise ValueError("confidence must lie in [0, 1)")
    u = solve_2k(1.0 - confidence)
    if var_hat == 0.0:
        warnings.warn(
            "variance vanishes at this lag; the relative interval is undefined",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return u * math.sqrt(var_hat / T)


# ---------------------------------------------------------------------------
# Gaussian-comparison constants from the kernel self-convolution


def _vertex(x: np.ndarray, y: np.ndarray) -> tuple:
    # the least sample, or the vertex of the parabola through it and its neighbours
    # (the three end samples at an end) when that opens upward inside the scan
    i = int(np.argmin(y))
    if x.size < 3:
        return x[i], y[i]
    j = min(max(i, 1), x.size - 2)
    (x0, x1, x2), (y0, y1, y2) = x[j - 1 : j + 2], y[j - 1 : j + 2]
    d1 = (y1 - y0) / (x1 - x0)
    c = ((y2 - y1) / (x2 - x1) - d1) / (x2 - x0)
    xv = 0.5 * (x0 + x1) - d1 / (2.0 * c) if c > 0.0 else x[i]
    if c <= 0.0 or not x[0] <= xv <= x[-1]:
        return x[i], y[i]
    return xv, y0 + d1 * (xv - x0) + c * (xv - x0) * (xv - x1)


def _polish(f, xs, ys, sign: float) -> float:
    """Extremum of the array function ``f`` (sign=+1 the min, -1 the max)
    near the best point of the scan ``(xs, ys)``, from one more call: 9
    points 1/32 of a scan step apart, clipped to the scan, around the
    vertex of the scan's parabola, then the vertex of the parabola through
    the best of those. The error is third order in the fine spacing."""
    xs, ys = np.asarray(xs, dtype=float), sign * np.asarray(ys, dtype=float)
    step = (xs[-1] - xs[0]) / max(xs.size - 1, 1)
    x0 = _vertex(xs, ys)[0]
    pts = np.array(sorted(set(np.clip(x0 + step / 32.0 * np.arange(-4, 5), xs[0], xs[-1]))))
    return sign * min(float(np.min(ys)), float(_vertex(pts, sign * np.asarray(f(pts)))[1]))


def _acf2_scan(h: Kernel, a: float, b: float) -> tuple:
    taus = np.linspace(float(a), float(b), _ACF2_GRID)
    return taus, autocorrelation(h, 2.0 * taus)


def _scan_extremum(h: Kernel, taus, vals, sign: float) -> float:
    # scan extremum of the self-convolution at doubled lag, polished
    return _polish(lambda t: autocorrelation(h, 2.0 * t), taus, vals, sign)


def acf2_interval_min(h: Kernel, a: float, b: float) -> float:
    """inf over tau in [a, b] of the self-convolution at doubled lag."""
    taus, vals = _acf2_scan(h, a, b)
    return _scan_extremum(h, taus, vals, +1.0)


def b_sup(h: Kernel, a: float, b: float) -> float:
    """sup over [a, b] of the comparison scale b(tau), where
    b^2 = (h*h)(2 tau) - inf_[a,b] (h*h)(2 .), by grid search with local polish."""
    taus, vals = _acf2_scan(h, a, b)
    m = _scan_extremum(h, taus, vals, +1.0)
    top = _scan_extremum(h, taus, vals, -1.0)
    return math.sqrt(max(top - m, 0.0))


def corollary2_bound(x: float, y_tail: Callable[[float], float], B: float) -> float:
    """Supremum tail bound 2 P{sup|Y| > x/(2 sqrt 2)} + 4 exp(-x^2 / B).

    ``y_tail(u)`` must bound P{sup over [a,b] of |Y| > u}; the constant
    is B = 16 ||h||_2^2 - 16 inf_[a,b] (h*h)(2 tau), as
    ``corollary2_report`` builds it. When B degenerates to 0
    (constant-comparison case) the Gaussian term is dropped.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    first = 2.0 * float(y_tail(x / (2.0 * math.sqrt(2.0))))
    if B <= 0.0:
        warnings.warn(
            "comparison constant B is nonpositive; Gaussian term dropped",
            RuntimeWarning,
            stacklevel=2,
        )
        return first
    return first + 4.0 * math.exp(-x * x / B)


def corollary1_bound(
    x: float,
    gamma: float,
    y_onesided_tail: Callable[[float], float],
    sup_b: float,
) -> float:
    """Split supremum bound 2 P{sup Y > gamma x / sqrt 2} + 2 P{xi sup_b > (1-gamma) x}.

    xi is a standard normal; the second probability is erfc-based and
    equals 1 at gamma = 1 (a half chance each way, doubled), so useful
    values of gamma stay below 1 unless sup_b vanishes.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if sup_b < 0:
        raise ValueError("sup_b must be nonnegative")
    first = 2.0 * float(y_onesided_tail(gamma * x / math.sqrt(2.0)))
    if sup_b == 0.0:
        second = 0.0
    else:
        second = math.erfc((1.0 - gamma) * x / (math.sqrt(2.0) * sup_b))
    return first + second


def rice_sup_tail(h: Kernel, a: float, b: float, sides: int) -> Callable[[float], float]:
    """Rice's bound ``u -> sides * [Phibar(z) + (b - a)/(2 pi) sqrt(l2/l0) e^{-z^2/2}]``,
    z = u/sqrt(l0), on P{sup_[a,b] Y > u} (``sides`` 1) or on P{sup |Y| > u} (2)
    for the stationary output Y of ``h``: l0 = ||h||^2, l2 = (1/pi) int_0^B
    lam^2 |h*|^2 on its band [0, B], carried as ``lambda2``. With no band limit,
    lam^2 |h*|^2 of every built-in decays like lam^-2 or not at all, so a
    truncated l2 would not bound: ``BoundUnavailable``."""
    if h.band_limit is None:
        raise BoundUnavailable(f"Rice's tail needs a band-limited h, which {h.name!r} is not")
    edges = panel_edges(0.0, h.band_limit, ftf_breakpoints(h), spectral_width(0.0, h))
    l2 = float(integrate(lambda lam: lam**2 * np.abs(h.ftf_eval(lam)) ** 2, edges)) / math.pi
    scale, rate = math.sqrt(2.0) * h.l2_norm, (b - a) / (2.0 * math.pi) * math.sqrt(l2) / h.l2_norm

    def tail(u: float) -> float:
        return sides * (0.5 * math.erfc(u / scale) + rate * math.exp(-((u / scale) ** 2)))

    tail.lambda2 = l2
    return tail


# ---------------------------------------------------------------------------
# entropy-based supremum bound


def theorem4_detail(
    model: CovarianceModel,
    T: float,
    a: float,
    b: float,
    r: float,
    metric: Optional[Pseudometric] = None,
) -> dict:
    """All intermediates of the entropy supremum bound.

    Returns a dict with A (the exponential rate), C_r, eps_TD, sup_rho,
    inf_varZ, theta_star, entropy_term, theta_bar (the end of the theta
    range the minimum is taken over) and theta_empty. The increment
    metric defaults to the translation-invariant upper surrogate; a
    caller can pass the exact finite-horizon metric
    (``rho_exact_metric``), whose sup_rho and covering numbers then come
    from one cached distance matrix on a 257-point grid.
    """
    Cr = c_r(r)
    root = math.sqrt(Cr / math.log(2.0))
    if metric is None:
        metric = rho_upper_metric(model.h, sup_ftf(model.g), model.c)

    sup_rho = metric.sup(a, b)
    eps_TD = epsilon_T_delta(r, sup_rho)
    if sup_rho == 0.0:
        raise BoundUnavailable("increment metric vanishes on the interval")

    taus = np.linspace(float(a), float(b), _VAR_GRID)
    variances = cov_finite(model, T, taus, taus)
    inf_var = max(_polish(lambda t: cov_finite(model, T, t, t), taus, variances, +1.0), 0.0)

    # ln(1 + N) table against ball radius in the metric's own scale; the
    # substitution s = eps' / root turns the entropy integral into
    # root * int_0^(theta sup_rho) ln(1 + N(s)) ds
    s_asc, cum = entropy_integral(metric, a, b, sup_rho)

    # the massiveness constraint N(theta eps_TD) > e^2 - 1 holds exactly
    # while theta eps_TD stays below this radius; theta_bar is the largest
    # double that keeps it below
    radius = _radius_below(metric, a, b, math.ceil(math.e**2 - 1.0))
    theta_bar = radius / eps_TD
    while theta_bar > 0.0 and theta_bar * eps_TD >= radius:
        theta_bar = float(np.nextafter(theta_bar, 0.0))
    theta_empty = theta_bar < 1e-6
    if theta_empty:
        warnings.warn(
            "no theta satisfies the massiveness constraint; "
            "minimizing over (0, 1) instead",
            RuntimeWarning,
            stacklevel=2,
        )
    theta_bar = 1.0 - 1e-9 if theta_empty else min(theta_bar, 1.0 - 1e-9)

    # the entropy term e^2 / (theta (1 - theta)) * root * int, minimised on
    # a dense theta grid
    thetas = np.linspace(min(1e-4, 0.5 * theta_bar), theta_bar, 20001)
    avals = math.e**2 / (thetas * (1.0 - thetas)) * root * np.interp(thetas * sup_rho, s_asc, cum)
    j = int(np.argmin(avals))
    theta_star, entropy_term = float(thetas[j]), float(avals[j])
    A = root * math.sqrt(inf_var) + entropy_term
    return {
        "A_TD": A,
        "C_r": Cr,
        "eps_TD": eps_TD,
        "sup_rho": sup_rho,
        "inf_varZ": inf_var,
        "theta_star": theta_star,
        "entropy_term": entropy_term,
        "theta_bar": theta_bar,
        "theta_empty": theta_empty,
    }


# ---------------------------------------------------------------------------
# report container

_METHODS = ("theorem3_pointwise", "theorem4_sup", "corollary1", "corollary2")


@dataclass(frozen=True)
class TailBoundReport:
    """Bound values over an ascending x grid, capped at 1.

    ``constants`` keeps the named intermediates and the uncapped values
    under ``raw_bounds``, as JSON-native values.
    """

    method: str
    x_values: np.ndarray
    bound_values: np.ndarray
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown bound method {self.method!r}")
        x = np.asarray(self.x_values, dtype=float)
        if x.ndim != 1 or x.size == 0 or np.any(np.diff(x) <= 0):
            raise ValueError("x_values must be strictly ascending")
        v = np.asarray(self.bound_values, dtype=float)
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("reported bounds must lie in [0, 1]")

    def to_json(self, path, settings: dict) -> None:
        """Write the report and the JSON-native config ``settings`` the
        method ran with."""
        _write_json(path, {
            "method": self.method,
            "x": [float(v) for v in self.x_values],
            "bound": [float(v) for v in self.bound_values],
            "constants": self.constants,
            "settings": settings,
        })


def _capped_report(method, xs, raw, constants) -> TailBoundReport:
    raw = np.asarray(raw, dtype=float)
    constants = dict(constants)
    constants["raw_bounds"] = [float(v) for v in raw]
    return TailBoundReport(
        method=method,
        x_values=np.asarray(xs, dtype=float),
        bound_values=np.minimum(np.maximum(raw, 0.0), 1.0),
        constants=constants,
    )


def theorem3_report(xs: Sequence[float]) -> TailBoundReport:
    """Pointwise tail 2 K(x) on a grid of thresholds."""
    raw = [2.0 * k_of_x(x) for x in xs]
    return _capped_report("theorem3_pointwise", xs, raw, {})


def corollary2_report(
    h: Kernel,
    a: float,
    b: float,
    xs: Sequence[float],
    y_tail: Callable[[float], float],
) -> TailBoundReport:
    inf_acf = acf2_interval_min(h, a, b)
    B = 16.0 * h.l2_norm**2 - 16.0 * inf_acf
    raw = [corollary2_bound(x, y_tail, B) for x in xs]
    consts = {"B_ab": B, "inf_acf2": inf_acf}
    return _capped_report("corollary2", xs, raw, consts)


def corollary1_report(
    h: Kernel,
    a: float,
    b: float,
    xs: Sequence[float],
    gamma: float,
    y_onesided_tail: Callable[[float], float],
) -> TailBoundReport:
    sup_b = b_sup(h, a, b)
    raw = [corollary1_bound(x, gamma, y_onesided_tail, sup_b) for x in xs]
    consts = {"gamma": float(gamma), "sup_b": float(sup_b)}
    return _capped_report("corollary1", xs, raw, consts)


def theorem4_report(detail: dict, multipliers: Sequence[float]) -> TailBoundReport:
    """Supremum tail 2 exp(-x/A) at thresholds x = m A, from the constants
    of ``theorem4_detail``; A is its ``A_TD``."""
    A = detail["A_TD"]
    xs = [m * A for m in multipliers]
    raw = [2.0 * math.exp(-x / A) for x in xs]
    return _capped_report("theorem4_sup", xs, raw, detail)

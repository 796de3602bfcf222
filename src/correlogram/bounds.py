"""Tail bounds and confidence machinery for the correlogram error.

Four bound families live here. The pointwise one rests on the square
Gaussian tail function K(x); the interval (supremum) ones need either
Gaussian-comparison constants built from the kernel self-convolution
(b(tau), B over the interval) or the metric-entropy constant A built
from covering numbers of the increment pseudometric.

All bounds are probabilities, so report grids cap them at 1 while the
raw values stay available. Conservativeness is checked empirically by
the replication harness, not proven here.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .entropy import (
    Pseudometric,
    c_r,
    covering_number,
    epsilon_T_delta,
    rho_upper_metric,
)
from .errors import BoundUnavailable, InfiniteMassiveness
from .kernels import Kernel, autocorrelation
from .quadrature import sup_ftf
from .spectral import CovarianceModel, cov_finite

_ARG_TOL = 1e-10
_MAX_ITER = 200


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


def _polish(f, lo: float, hi: float, x0: float, sign: float) -> float:
    # local refinement around a grid extremum; sign=+1 minimizes f, -1 maximizes
    if hi <= lo:
        return sign * f(lo)
    res = minimize_scalar(
        lambda t: sign * f(t),
        bounds=(max(lo, x0 - (hi - lo)), min(hi, x0 + (hi - lo))),
        method="bounded",
        options={"xatol": _ARG_TOL, "maxiter": _MAX_ITER},
    )
    return float(res.fun)


def _acf2_scan(h: Kernel, a: float, b: float, grid: int) -> tuple:
    taus = np.linspace(float(a), float(b), grid)
    return taus, autocorrelation(h, 2.0 * taus)


def _scan_extremum(h: Kernel, a: float, b: float, taus, vals, sign: float) -> float:
    # grid extremum of a scan, polished locally; sign=+1 gives the min, -1 the max
    i = int(np.argmin(sign * vals))
    grid = taus.size
    step = (taus[-1] - taus[0]) / max(grid - 1, 1) if grid > 1 else 0.0
    lo, hi = max(float(a), taus[i] - step), min(float(b), taus[i] + step)
    polished = _polish(lambda t: autocorrelation(h, 2.0 * t), lo, hi, float(taus[i]), sign)
    return sign * min(sign * float(vals[i]), polished)


def acf2_interval_min(h: Kernel, a: float, b: float, grid: int = 801) -> float:
    """inf over tau in [a, b] of the self-convolution at doubled lag."""
    taus, vals = _acf2_scan(h, a, b, grid)
    return _scan_extremum(h, a, b, taus, vals, +1.0)


def b_function(
    h: Kernel, a: float, b: float, tau: float, interval_min: Optional[float] = None
) -> float:
    """Comparison scale b(tau) with b^2 = (h*h)(2 tau) - inf_[a,b] (h*h)(2 .).

    ``interval_min`` short-circuits the infimum when the caller has it
    already (it only depends on the kernel and the interval).
    """
    if not float(a) <= float(tau) <= float(b):
        raise ValueError("tau must lie inside [a, b]")
    if interval_min is None:
        interval_min = acf2_interval_min(h, a, b)
    return math.sqrt(max(autocorrelation(h, 2.0 * tau) - interval_min, 0.0))


def b_sup(h: Kernel, a: float, b: float, grid: int = 801) -> float:
    """sup of b(tau) over [a, b], by grid search with local polish."""
    taus, vals = _acf2_scan(h, a, b, grid)
    m = _scan_extremum(h, a, b, taus, vals, +1.0)
    top = _scan_extremum(h, a, b, taus, vals, -1.0)
    return math.sqrt(max(top - m, 0.0))


def corollary2_bound(
    h: Kernel,
    a: float,
    b: float,
    x: float,
    y_tail: Callable[[float], float],
    B: Optional[float] = None,
) -> float:
    """Supremum tail bound 2 P{sup|Y| > x/(2 sqrt 2)} + 4 exp(-x^2 / B).

    ``y_tail(u)`` must bound P{sup over [a,b] of |Y| > u}; the constant
    is B = 16 ||h||_2^2 - 16 inf (h*h)(2 tau). When B degenerates to 0
    (constant-comparison case) the Gaussian term is dropped. ``B``
    short-circuits the interval scan when the caller has it already.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if B is None:
        B = 16.0 * h.l2_norm**2 - 16.0 * acf2_interval_min(h, a, b)
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
    h: Kernel,
    a: float,
    b: float,
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


# ---------------------------------------------------------------------------
# entropy-based supremum bound


def _covering_table(p: Pseudometric, a: float, b: float, s_max: float) -> tuple:
    """ln(1 + N_p(s)) on a descending log grid below s_max, plus the
    cumulative integral from 0 up to each grid point (stub extrapolated)."""
    s = np.geomspace(s_max, s_max * 1e-6, 301)
    f = np.empty(s.size)
    for i, si in enumerate(s):
        try:
            f[i] = math.log1p(covering_number(p, a, b, float(si)))
        except InfiniteMassiveness:
            raise BoundUnavailable(
                f"covering numbers blow up at radius {si:g}; entropy integral diverges"
            )
    # heuristic divergence screen on the two smallest decades
    tail = s <= s[-1] * 100.0
    xs, ys = np.log(s[tail]), f[tail]
    if np.all(ys > 0):
        beta = -np.polyfit(xs, np.log(ys), 1)[0]
        if beta >= 0.95:
            raise BoundUnavailable(
                "entropy integrand grows like eps^(-1) or faster; bound unavailable"
            )
    s_asc, f_asc = s[::-1], f[::-1]
    # stub below the grid: f is slowly varying (log growth), integrate the
    # fitted alpha + beta ln(1/s) form over [0, s_min]
    if f_asc[0] > 0 and np.count_nonzero(ys > 0) >= 3:
        slope = np.polyfit(xs[ys > 0], ys[ys > 0], 1)[0]  # d f / d ln s
        beta_log = max(-slope, 0.0)
        stub = s_asc[0] * (f_asc[0] + beta_log)
    else:
        stub = s_asc[0] * f_asc[0]
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (f_asc[1:] + f_asc[:-1]) * np.diff(s_asc))]
    )
    return s_asc, cum + stub


def theorem4_detail(
    model: CovarianceModel,
    T: float,
    a: float,
    b: float,
    r: float,
    metric: Optional[Pseudometric] = None,
    var_grid: int = 33,
) -> dict:
    """All intermediates of the entropy supremum bound.

    Returns a dict with A (the exponential rate), C_r, eps_TD, sup_rho,
    inf_varZ, theta_star, entropy_term and theta_empty. The increment
    metric defaults to the translation-invariant upper surrogate; a
    caller can pass the exact finite-horizon metric for small grids.
    """
    if model.g is None:
        raise ValueError("the supremum bound needs the window kernel g")
    Cr = c_r(r)
    root = math.sqrt(Cr / math.log(2.0))
    if metric is None:
        metric = rho_upper_metric(model.h, sup_ftf(model.g), model.c)

    if metric.translation_invariant:
        _, run_max = metric.profile(a, b)
        sup_rho = float(run_max[-1])
    else:
        grid = np.linspace(a, b, 41)
        sup_rho = max(
            metric.dist(float(t1), float(t2)) for t1 in grid for t2 in grid if t2 > t1
        )
    eps_TD = epsilon_T_delta(r, sup_rho)
    if sup_rho == 0.0:
        raise BoundUnavailable("increment metric vanishes on the interval")

    taus = np.linspace(float(a), float(b), var_grid)
    variances = cov_finite(model, T, taus, taus)
    i = int(np.argmin(variances))
    step = (taus[-1] - taus[0]) / max(var_grid - 1, 1)
    inf_var = min(
        float(variances[i]),
        _polish(
            lambda t: cov_finite(model, T, float(t), float(t)),
            max(float(a), taus[i] - step),
            min(float(b), taus[i] + step),
            float(taus[i]),
            +1.0,
        ),
    )
    inf_var = max(inf_var, 0.0)

    # ln(1 + N) table against ball radius in the metric's own scale; the
    # substitution s = eps' / root turns the entropy integral into
    # root * int_0^(theta sup_rho) ln(1 + N(s)) ds
    s_asc, cum = _covering_table(metric, a, b, sup_rho)

    def entropy_part(theta: float) -> float:
        m = theta * sup_rho
        val = float(np.interp(m, s_asc, cum))
        return root * val

    def a_of_theta(theta: float) -> float:
        return (math.e**2 / (theta * (1.0 - theta))) * entropy_part(theta)

    # the massiveness constraint: N(theta * eps_TD) > e^2 - 1, i.e. N >= 7;
    # N is nonincreasing in the radius so the feasible set is (0, theta_bar)
    def n_at(theta: float) -> int:
        return covering_number(metric, a, b, theta * eps_TD)

    theta_empty = n_at(1e-6) <= math.e**2 - 1.0
    if theta_empty:
        warnings.warn(
            "no theta satisfies the massiveness constraint; "
            "minimizing over (0, 1) instead",
            RuntimeWarning,
            stacklevel=2,
        )
        theta_hi = 1.0 - 1e-9
    else:
        lo, hi = 1e-6, 1.0 - 1e-9
        if n_at(hi) > math.e**2 - 1.0:
            theta_hi = hi
        else:
            for _ in range(_MAX_ITER):
                mid = 0.5 * (lo + hi)
                if n_at(mid) > math.e**2 - 1.0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < _ARG_TOL:
                    break
            theta_hi = lo

    thetas = np.linspace(min(1e-4, 0.5 * theta_hi), theta_hi, 60)
    avals = np.array([a_of_theta(t) for t in thetas])
    j = int(np.argmin(avals))
    res = minimize_scalar(
        a_of_theta,
        bounds=(max(1e-9, thetas[j] - 0.05), min(theta_hi, thetas[j] + 0.05)),
        method="bounded",
        options={"xatol": _ARG_TOL, "maxiter": _MAX_ITER},
    )
    theta_star = float(res.x) if res.fun <= avals[j] else float(thetas[j])
    entropy_term = a_of_theta(theta_star)
    A = root * math.sqrt(inf_var) + entropy_term
    return {
        "A_TD": A,
        "C_r": Cr,
        "eps_TD": eps_TD,
        "sup_rho": sup_rho,
        "inf_varZ": inf_var,
        "theta_star": theta_star,
        "entropy_term": entropy_term,
        "theta_empty": theta_empty,
    }


def theorem4_bound(
    model: CovarianceModel,
    T: float,
    a: float,
    b: float,
    r: float,
    x: float,
    metric: Optional[Pseudometric] = None,
) -> float:
    """Entropy supremum bound 2 exp(-x / A) for P{sup over [a,b] |Zhat| > x}."""
    if not x > 0:
        raise ValueError("x must be positive")
    detail = theorem4_detail(model, T, a, b, r, metric=metric)
    return 2.0 * math.exp(-x / detail["A_TD"])


# ---------------------------------------------------------------------------
# report container

_METHODS = ("theorem3_pointwise", "theorem4_sup", "corollary1", "corollary2")


@dataclass(frozen=True)
class TailBoundReport:
    """Bound values over an ascending x grid, capped at 1.

    ``constants`` keeps the named intermediates and the uncapped values
    under ``raw_bounds``.
    """

    method: str
    x_values: np.ndarray
    bound_values: np.ndarray
    constants: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown bound method {self.method!r}")
        x = np.asarray(self.x_values, dtype=float)
        if x.ndim != 1 or x.size == 0 or np.any(np.diff(x) <= 0):
            raise ValueError("x_values must be strictly ascending")
        v = np.asarray(self.bound_values, dtype=float)
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("reported bounds must lie in [0, 1]")

    def to_json(self, path) -> None:
        payload = {
            "method": self.method,
            "x": [float(v) for v in self.x_values],
            "bound": [float(v) for v in self.bound_values],
            "constants": _jsonable(self.constants),
            "settings": _jsonable(self.settings),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _jsonable(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, np.ndarray):
            out[k] = [float(x) for x in v]
        elif isinstance(v, (np.floating, np.integer)):
            out[k] = float(v)
        elif isinstance(v, list):
            out[k] = [float(x) for x in v]
        else:
            out[k] = v
    return out


def _capped_report(method, xs, raw, constants, settings) -> TailBoundReport:
    raw = np.asarray(raw, dtype=float)
    constants = dict(constants)
    constants["raw_bounds"] = [float(v) for v in raw]
    return TailBoundReport(
        method=method,
        x_values=np.asarray(xs, dtype=float),
        bound_values=np.minimum(np.maximum(raw, 0.0), 1.0),
        constants=constants,
        settings=dict(settings),
    )


def theorem3_report(xs: Sequence[float], settings: Optional[dict] = None) -> TailBoundReport:
    """Pointwise tail 2 K(x) on a grid of thresholds."""
    raw = [2.0 * k_of_x(x) for x in xs]
    return _capped_report("theorem3_pointwise", xs, raw, {}, settings or {})


def corollary2_report(
    h: Kernel,
    a: float,
    b: float,
    xs: Sequence[float],
    y_tail: Callable[[float], float],
    settings: Optional[dict] = None,
) -> TailBoundReport:
    inf_acf = acf2_interval_min(h, a, b)
    B = 16.0 * h.l2_norm**2 - 16.0 * inf_acf
    raw = [corollary2_bound(h, a, b, x, y_tail, B=B) for x in xs]
    consts = {"B_ab": B, "inf_acf2": inf_acf}
    return _capped_report("corollary2", xs, raw, consts, settings or {})


def corollary1_report(
    h: Kernel,
    a: float,
    b: float,
    xs: Sequence[float],
    gamma: float,
    y_onesided_tail: Callable[[float], float],
    sup_b: Optional[float] = None,
    settings: Optional[dict] = None,
) -> TailBoundReport:
    if sup_b is None:
        sup_b = b_sup(h, a, b)
    raw = [corollary1_bound(h, a, b, x, gamma, y_onesided_tail, sup_b) for x in xs]
    consts = {"gamma": float(gamma), "sup_b": float(sup_b)}
    return _capped_report("corollary1", xs, raw, consts, settings or {})


def theorem4_report(
    detail: dict, multipliers: Sequence[float], settings: Optional[dict] = None
) -> TailBoundReport:
    """Supremum tail 2 exp(-x/A) at thresholds x = m A, from the constants
    of ``theorem4_detail``; A is its ``A_TD``."""
    A = detail["A_TD"]
    xs = [m * A for m in multipliers]
    raw = [2.0 * math.exp(-x / A) for x in xs]
    return _capped_report("theorem4_sup", xs, raw, detail, settings or {})

"""Covering numbers and metric entropy for lag intervals.

A pseudometric on the lag axis induces covering numbers N(eps) of an
interval [a, b], entropies H(eps) = ln N(eps), and the entropy integral
int_0^s ln(1 + N(eps)) d eps behind the constant of the supremum bound.
Theorem 4 uses two pseudometrics: the horizon-free ``rho_upper_metric``
and the finite-horizon ``rho_exact_metric``. Each is one array distance
``dist(t1, t2)``. Translation-invariant ones are handled through their
distance profile u -> dist(0, u); everything else gets a greedy
farthest-point covering on the distance matrix of a grid, which only
upper bounds N.

Also home to the small scalar helpers C_r and eps_{T, Delta} used by
the supremum tail bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundUnavailable, InfiniteMassiveness
from .kernels import Kernel
from .spectral import CovarianceModel, _rho_upper_scale, rho_exact, sigma_profile

__all__ = [
    "Pseudometric",
    "rho_upper_metric",
    "rho_exact_metric",
    "covering_number",
    "entropy_integral",
    "c_r",
    "epsilon_T_delta",
]

# Profile tabulation size for translation-invariant metrics. The running
# maximum over this grid is what makes the covering numbers conservative.
_PROFILE_POINTS = 4096
# Grid points of [a, b] behind the greedy covering of the other metrics.
_CANDIDATES = 257


@dataclass(frozen=True)
class Pseudometric:
    """A pseudometric on lags.

    ``dist(t1, t2)`` takes broadcastable lag arrays and returns their
    distances; scalar lags give a float. A translation-invariant metric
    depends on t2 - t1 only. ``kind`` names the metric in messages.
    """

    kind: str
    dist: Callable
    translation_invariant: bool
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def profile(self, a: float, b: float) -> tuple:
        """Cached (u grid, running-max profile) over [0, b - a]."""
        key = ("profile", float(a), float(b))
        if key not in self._cache:
            u = np.linspace(0.0, b - a, _PROFILE_POINTS)
            raw = np.asarray(self.dist(0.0, u), dtype=float)
            self._cache[key] = (u, np.maximum.accumulate(raw))
        return self._cache[key]

    def matrix(self, a: float, b: float) -> np.ndarray:
        """Cached distances between the ``_CANDIDATES`` grid points of
        [a, b]: one ``dist`` call over the upper-triangle pairs, zero
        diagonal."""
        key = ("matrix", float(a), float(b))
        if key not in self._cache:
            grid = np.linspace(a, b, _CANDIDATES)
            i, j = np.triu_indices(_CANDIDATES, 1)
            d = np.zeros((_CANDIDATES, _CANDIDATES))
            d[i, j] = d[j, i] = self.dist(grid[i], grid[j])
            self._cache[key] = d
        return self._cache[key]

    def sup(self, a: float, b: float) -> float:
        """Largest distance between two lags of [a, b]: the end of the
        running-max profile for a translation-invariant metric, else the
        largest entry of the distance matrix."""
        if self.translation_invariant:
            return float(self.profile(a, b)[1][-1])
        return float(self.matrix(a, b).max())


def rho_upper_metric(h: Kernel, g_family_sup: float, c: float) -> Pseudometric:
    """Horizon-free upper bound on the correlogram increment metric.

    Scales sqrt(sigma) by the constant of the increment inequality, so
    it inherits translation invariance from sigma.
    """
    base = sigma_profile(h)
    scale = _rho_upper_scale(h, g_family_sup, c)

    def dist(t1, t2):
        u = np.subtract(t2, t1, dtype=float)
        out = (scale * np.sqrt(base(u.ravel()))).reshape(u.shape)
        return out.item() if out.ndim == 0 else out

    return Pseudometric(kind="rho_upper", dist=dist, translation_invariant=True)


def rho_exact_metric(model: CovarianceModel, T: float) -> Pseudometric:
    """Finite-horizon increment metric of Zhat; not translation invariant,
    so covering numbers for it come from the greedy path."""
    return Pseudometric(
        kind="rho_exact",
        dist=lambda t1, t2: rho_exact(model, T, t1, t2),
        translation_invariant=False,
    )


# ---------------------------------------------------------------------------
# covering numbers


def _count(span: float, delta: np.ndarray) -> np.ndarray:
    """Covering count ceil(span / (2 delta)) of an interval of length
    ``span`` by balls reaching delta either side, as floats; inf where
    delta falls to the massiveness floor span * 1e-13. Monotone in delta."""
    with np.errstate(divide="ignore"):
        n = np.ceil(span / (2.0 * delta) - 1e-9)
    return np.where(delta <= span * 1e-13, np.inf, n)


def _radius_below(p: Pseudometric, a: float, b: float, n: int) -> float:
    """The radius at which N falls below ``n`` (>= 2): N(eps) >= n below it
    and N(eps) <= n - 1 above it. For a translation-invariant metric, the
    profile's sup up to the lag at which ``_count`` drops to n - 1: the
    cached running max there, maxed with one ``dist`` at that lag. For any
    other metric, the (n - 1)-th greedy radius."""
    if not p.translation_invariant:
        return next(itertools.islice(_greedy_radii(p, a, b), n - 2, None))
    lag = (b - a) / (2.0 * (n - 1 + 1e-9))
    u, run_max = p.profile(a, b)
    return max(float(run_max[np.searchsorted(u, lag, side="right") - 1]), float(p.dist(0.0, lag)))


def _delta_of_eps(p: Pseudometric, a: float, b: float, eps: np.ndarray) -> np.ndarray:
    """Per radius of the 1-d ``eps``, a lag delta with the ``_count`` of the
    largest h with sup_{0 <= u <= h} profile(u) <= eps, as 60 bisection
    steps find it. The cached running-max table brackets each crossing, and
    one bisection over all radii at once refines the brackets: at most 60
    array calls of ``dist``, each on the radii still live. A radius leaves
    once ``_count`` agrees at both ends of its bracket; the count is
    monotone in delta and the 60-step end lies in the bracket, so delta is
    the bracket's lower end when its count settled, or after 60 steps. 0
    triggers the infinite massiveness signal in the caller."""
    u, run_max = p.profile(a, b)
    k = np.searchsorted(run_max, eps, side="right") - 1
    delta = np.full(eps.size, b - a)
    live = np.flatnonzero(run_max[-1] > eps)
    # run_max[k] <= eps < run_max[k+1]; refine the first upcrossing of the
    # raw profile inside (u[k], u[k+1]]
    lo, hi = u[k[live]], u[k[live] + 1]
    for _ in range(60):
        settled = _count(b - a, lo) == _count(b - a, hi)
        delta[live[settled]] = lo[settled]
        live, lo, hi = live[~settled], lo[~settled], hi[~settled]
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        up = np.asarray(p.dist(0.0, mid), dtype=float) > eps[live]
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    delta[live] = lo
    return delta


def _greedy_radii(p: Pseudometric, a: float, b: float):
    """Covering radius after each further greedy farthest-point center on
    the ``_CANDIDATES``-point grid over [a, b], from the rows of the cached
    distance matrix; the first center is a."""
    d = p.matrix(a, b)
    dmin = d[0]
    while True:
        idx = int(np.argmax(dmin))
        yield float(dmin[idx])
        dmin = np.minimum(dmin, d[idx])


def _counts(p: Pseudometric, a: float, b: float, eps: np.ndarray) -> np.ndarray:
    """N per radius of the 1-d ``eps`` as floats; inf where delta(eps)
    falls to the massiveness floor."""
    if not a < b:
        raise ValueError("need a < b")
    if not np.all(eps > 0):
        raise ValueError("eps must be positive")
    if p.translation_invariant:
        return _count(b - a, _delta_of_eps(p, a, b, eps))
    # the greedy radii never increase: N(eps) is one more than the count above eps
    above = list(itertools.takewhile(lambda r: r > eps.min(), _greedy_radii(p, a, b)))
    return 1.0 + np.count_nonzero(np.array(above)[:, None] > eps, axis=0)


def covering_number(p: Pseudometric, a: float, b: float, eps):
    """Number of closed eps-balls of ``p`` needed to cover [a, b]: an int
    for a scalar eps, an int64 array of the same shape for an eps array.

    Translation-invariant metrics: exact up to the conservatism of the
    running-max profile, N = ceil((b - a) / (2 delta(eps))). Other
    metrics: greedy farthest-point covering over the ``_CANDIDATES`` grid
    points (one cached distance matrix), an upper bound on the grid
    covering number.

    Raises InfiniteMassiveness, naming the largest such radius, when no
    ball of some radius eps covers any neighbourhood of a point
    (delta(eps) = 0).
    """
    e = np.asarray(eps, dtype=float)
    n = _counts(p, float(a), float(b), e.ravel())
    if np.isinf(n).any():
        raise InfiniteMassiveness(
            f"profile of {p.kind} exceeds eps={e.ravel()[np.isinf(n)].max():g} "
            "arbitrarily close to 0"
        )
    n = n.astype(np.int64).reshape(e.shape)
    return int(n) if n.ndim == 0 else n


def entropy_integral(p: Pseudometric, a: float, b: float, s_max: float) -> tuple:
    """Entropy integral of ``p`` over [a, b]: ln(1 + N(s)) on a 301-point
    log grid over six decades below ``s_max``, returned as the ascending
    radii and the cumulative integral from 0 up to each of them.

    The trapezoid covers the grid; the stub below it integrates the
    fitted alpha + beta ln(1/s) form. Raises BoundUnavailable when some
    radius has infinite massiveness, or when the integrand's fitted
    growth over the two smallest decades is eps^(-0.95) or faster.
    """
    s = np.geomspace(s_max, s_max * 1e-6, 301)
    try:
        f = np.log1p(covering_number(p, a, b, s))
    except InfiniteMassiveness as exc:
        raise BoundUnavailable(f"covering numbers blow up ({exc}); entropy integral diverges")
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


# ---------------------------------------------------------------------------
# scalar helpers for the supremum bound


def c_r(r: float) -> float:
    """C_r = |ln(1 - r)| / r^2 - 1/r for r in (0, 1); tends to 1/2 at 0."""
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    return (-math.log1p(-r) - r) / (r * r)


def epsilon_T_delta(r: float, sup_rho: float) -> float:
    """Entropy scale eps_{T, Delta} = sqrt(C_r / ln 2) * sup rho."""
    if sup_rho < 0:
        raise ValueError("sup_rho must be nonnegative")
    return math.sqrt(c_r(r) / math.log(2.0)) * float(sup_rho)

"""Covering numbers and metric entropy for lag intervals.

A pseudometric on the lag axis induces covering numbers N(eps) of an
interval [a, b], entropies H(eps) = ln N(eps), and entropy integrals
int_0^u H(eps)^power d eps. Translation-invariant pseudometrics are
handled through their distance profile u -> d(a, a + u); everything
else falls back to a greedy farthest-point covering that only upper
bounds N.

Also home to the small scalar helpers C_r and eps_{T, Delta} used by
the supremum tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfiniteMassiveness
from .kernels import Kernel
from .simulate import _write_csv
from .spectral import (
    CovarianceModel,
    QuadratureSettings,
    _ftf_breakpoints,
    _GL_NODES,
    _GL_WEIGHTS,
    _spectral_window,
    rho_exact,
    rho_upper,
    sigma,
)

_KINDS = ("uniform_d", "sigma", "sqrt_sigma", "rho_upper", "rho_exact")

# Profile tabulation size for translation-invariant metrics. The running
# maximum over this grid is what makes the covering numbers conservative.
_PROFILE_POINTS = 4096


@dataclass(frozen=True)
class Pseudometric:
    """A pseudometric on lags.

    ``dist`` is the two-argument distance. For translation-invariant
    kinds ``profile_fn`` evaluates the one-argument profile d(0, u) on
    arrays; it must agree with ``dist`` up to quadrature tolerance.
    """

    kind: str
    dist: Callable[[float, float], float]
    translation_invariant: bool
    profile_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pseudometric kind {self.kind!r}")
        if self.translation_invariant and self.profile_fn is None:
            raise ValueError("translation-invariant metrics need a profile_fn")

    def profile(self, a: float, b: float) -> tuple:
        """Cached (u grid, running-max profile) over [0, b - a]."""
        key = (float(a), float(b))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        u = np.linspace(0.0, b - a, _PROFILE_POINTS)
        raw = np.asarray(self.profile_fn(u), dtype=float)
        entry = (u, np.maximum.accumulate(raw))
        self._cache[key] = entry
        return entry


def uniform_metric() -> Pseudometric:
    """Plain distance |t - s| on the lag axis."""
    return Pseudometric(
        kind="uniform_d",
        dist=lambda t1, t2: abs(float(t2) - float(t1)),
        translation_invariant=True,
        profile_fn=lambda u: np.abs(np.asarray(u, dtype=float)),
    )


def _panel_nodes(lo: float, hi: float, points, max_width: float) -> tuple:
    # Gauss-Legendre nodes/weights over breakpoint-aware panels, for
    # vectorized profile quadrature.
    cuts = sorted({lo, hi} | {p for p in points if lo < p < hi})
    edges = []
    for x0, x1 in zip(cuts, cuts[1:]):
        m = max(1, int(math.ceil((x1 - x0) / max_width)))
        edges.extend(np.linspace(x0, x1, m + 1)[:-1])
    edges.append(hi)
    edges = np.asarray(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + hw[:, None] * _GL_NODES[None, :]).ravel()
    w = (hw[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, w


def _sigma_profile(h: Kernel, settings: QuadratureSettings) -> Callable:
    L = _spectral_window(h, abs_mass_tol=settings.abs_tol, start=settings.lambda_max)
    pts = [p for p in _ftf_breakpoints(h) if p > 0]

    def profile(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        rate = max(1.0, float(np.max(np.abs(u))) if u.size else 1.0)
        nodes, w = _panel_nodes(0.0, L, pts, max_width=min(0.25, 2.0 / rate))
        wh = w * np.abs(h.ftf_eval(nodes)) ** 2
        out = np.empty(u.size)
        chunk = max(1, int(2.0e7 // max(nodes.size, 1)))
        for i in range(0, u.size, chunk):
            s2 = np.sin(u[i : i + chunk, None] * nodes[None, :] / 2.0) ** 2 @ wh
            out[i : i + chunk] = np.sqrt(np.maximum(2.0 * s2, 0.0))
        return out

    return profile


def sigma_metric(h: Kernel, settings: Optional[QuadratureSettings] = None) -> Pseudometric:
    """Mean-square spectral pseudometric sigma(t2 - t1) of the output."""
    st = settings or QuadratureSettings.default_1d()
    return Pseudometric(
        kind="sigma",
        dist=lambda t1, t2: sigma(h, float(t2) - float(t1), st),
        translation_invariant=True,
        profile_fn=_sigma_profile(h, st),
    )


def sqrt_sigma_metric(h: Kernel, settings: Optional[QuadratureSettings] = None) -> Pseudometric:
    """Square root of sigma; the entropy scale the CLT conditions use."""
    st = settings or QuadratureSettings.default_1d()
    base = _sigma_profile(h, st)
    return Pseudometric(
        kind="sqrt_sigma",
        dist=lambda t1, t2: math.sqrt(sigma(h, float(t2) - float(t1), st)),
        translation_invariant=True,
        profile_fn=lambda u: np.sqrt(base(u)),
    )


def rho_upper_metric(
    h: Kernel,
    g_family_sup: float,
    c: float,
    settings: Optional[QuadratureSettings] = None,
) -> Pseudometric:
    """Horizon-free upper bound on the correlogram increment metric.

    Scales sqrt(sigma) by the constant of the increment inequality, so
    it inherits translation invariance from sigma.
    """
    st = settings or QuadratureSettings.default_1d()
    base = _sigma_profile(h, st)
    scale = (g_family_sup / c) * math.sqrt((4.0 / math.pi) * h.ftf_l2_norm())
    return Pseudometric(
        kind="rho_upper",
        dist=lambda t1, t2: rho_upper(h, g_family_sup, c, t1, t2, st),
        translation_invariant=True,
        profile_fn=lambda u: scale * np.sqrt(base(u)),
    )


def rho_exact_metric(model: CovarianceModel, T: float) -> Pseudometric:
    """Finite-horizon increment metric of Zhat; not translation invariant,
    so covering numbers for it come from the greedy path."""
    return Pseudometric(
        kind="rho_exact",
        dist=lambda t1, t2: rho_exact(model, T, float(t1), float(t2)),
        translation_invariant=False,
    )


def pseudometric_axioms(
    p: Pseudometric, a: float, b: float, n: int = 30, seed: int = 0
) -> dict:
    """Spot-check the pseudometric axioms on random points in [a, b].

    Returns worst-case magnitudes: self-distance, symmetry defect, and
    triangle-inequality violation (positive = violated).
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(a, b, size=(n, 3))
    self_d = max(abs(p.dist(t, t)) for t in pts[:, 0])
    sym = max(abs(p.dist(t1, t2) - p.dist(t2, t1)) for t1, t2, _ in pts)
    tri = max(
        p.dist(t1, t3) - (p.dist(t1, t2) + p.dist(t2, t3)) for t1, t2, t3 in pts
    )
    return {"self_distance": self_d, "symmetry": sym, "triangle_violation": tri}


# ---------------------------------------------------------------------------
# covering numbers


def _delta_of_eps(p: Pseudometric, a: float, b: float, eps: float) -> float:
    """Largest h with sup_{0 <= u <= h} profile(u) <= eps, via the cached
    running-max table plus local bisection. 0 triggers the infinite
    massiveness signal in the caller."""
    u, run_max = p.profile(a, b)
    if run_max[-1] <= eps:
        return b - a
    k = int(np.searchsorted(run_max, eps, side="right")) - 1
    # run_max[k] <= eps < run_max[k+1]; refine the first upcrossing of the
    # raw profile inside (u[k], u[k+1]]
    lo, hi = float(u[k]), float(u[k + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(p.profile_fn(np.array([mid]))[0]) > eps:
            hi = mid
        else:
            lo = mid
    return lo


def covering_number(
    p: Pseudometric, a: float, b: float, eps: float, candidates: int = 257
) -> int:
    """Number of closed eps-balls of ``p`` needed to cover [a, b].

    Translation-invariant metrics: exact up to the conservatism of the
    running-max profile, N = ceil((b - a) / (2 delta(eps))). Other
    metrics: greedy farthest-point covering over ``candidates`` grid
    points, an upper bound on the grid covering number.

    Raises InfiniteMassiveness when no ball of radius eps covers any
    neighbourhood of a point (delta(eps) = 0).
    """
    a, b, eps = float(a), float(b), float(eps)
    if not a < b:
        raise ValueError("need a < b")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if p.translation_invariant:
        delta = _delta_of_eps(p, a, b, eps)
        if delta <= (b - a) * 1e-13:
            raise InfiniteMassiveness(
                f"profile of {p.kind} exceeds eps={eps:g} arbitrarily close to 0"
            )
        return int(math.ceil((b - a) / (2.0 * delta) - 1e-9))

    grid = np.linspace(a, b, candidates)
    dmin = np.full(grid.size, np.inf)
    idx = 0
    n_centers = 0
    while True:
        n_centers += 1
        center = float(grid[idx])
        d_new = np.array([p.dist(center, float(t)) for t in grid])
        dmin = np.minimum(dmin, d_new)
        idx = int(np.argmax(dmin))
        if dmin[idx] <= eps:
            return n_centers


def greedy_covering_radius(
    p: Pseudometric, a: float, b: float, n_centers: int, candidates: int = 257
) -> float:
    """Covering radius achieved by ``n_centers`` greedy farthest-point
    centers on the candidate grid. Useful to audit the greedy bound."""
    grid = np.linspace(float(a), float(b), candidates)
    dmin = np.full(grid.size, np.inf)
    idx = 0
    for _ in range(max(1, n_centers)):
        d_new = np.array([p.dist(float(grid[idx]), float(t)) for t in grid])
        dmin = np.minimum(dmin, d_new)
        idx = int(np.argmax(dmin))
    return float(dmin[idx])


@dataclass(frozen=True)
class EntropyProfile:
    """Covering numbers and entropies along a descending epsilon ladder."""

    interval: tuple
    epsilons: np.ndarray
    covering_numbers: np.ndarray
    entropies: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.ndim != 1 or eps.size == 0:
            raise ValueError("epsilons must be a nonempty 1-d array")
        if not np.all(np.diff(eps) < 0):
            raise ValueError("epsilons must be strictly descending")
        n = np.asarray(self.covering_numbers)
        if np.any(np.diff(n) < 0):
            raise ValueError("covering numbers must not decrease as eps shrinks")

    def to_csv(self, path) -> None:
        eps, hh = (np.asarray(a, dtype=float) for a in (self.epsilons, self.entropies))
        _write_csv(path, ["eps", "N", "H"], [eps, np.asarray(self.covering_numbers, np.int64), hh])


def entropy_profile(
    p: Pseudometric, a: float, b: float, epsilons: Sequence[float]
) -> EntropyProfile:
    """Tabulate N(eps) and H(eps) = ln N(eps) over a descending ladder."""
    eps = np.asarray(sorted(set(float(e) for e in epsilons), reverse=True))
    ns = np.array([covering_number(p, a, b, e) for e in eps], dtype=np.int64)
    # guard against ceil jitter at ball-count boundaries
    ns = np.maximum.accumulate(ns)
    return EntropyProfile(
        interval=(float(a), float(b)),
        epsilons=eps,
        covering_numbers=ns,
        entropies=np.log(ns.astype(float)),
    )


@dataclass(frozen=True)
class EntropyIntegralResult:
    """Value of int_0^u H^power(eps) d eps plus a divergence heuristic.

    ``divergent`` is a flag, not a proof: it fires when the fitted
    growth of the integrand over the two smallest resolved epsilon
    decades is at least eps^(-1 + margin), or when some resolved eps
    already has infinite massiveness.
    """

    value: float
    divergent: bool
    interval: tuple
    power: float
    upper: float


def entropy_integral(
    p: Pseudometric, a: float, b: float, u: float, power: float
) -> EntropyIntegralResult:
    """Entropy integral of ``p`` over [a, b] up to eps = u.

    Log-spaced trapezoid over four decades below u; the unresolved
    stub near 0 is extrapolated from the fitted power law when that
    law is integrable.
    """
    if not u > 0:
        raise ValueError("u must be positive")
    if float(power) not in (0.5, 1.0):
        raise ValueError("power must be 0.5 or 1.0")
    power = float(power)
    eps = np.geomspace(u, u * 1e-4, 201)
    vals = np.empty(eps.size)
    divergent = False
    resolved = eps.size
    for i, e in enumerate(eps):
        try:
            vals[i] = math.log(covering_number(p, a, b, float(e))) ** power
        except InfiniteMassiveness:
            divergent = True
            resolved = i
            break
    eps_r, vals_r = eps[:resolved], vals[:resolved]
    if resolved < 2:
        return EntropyIntegralResult(0.0, True, (float(a), float(b)), power, float(u))
    # ascending order for the trapezoid
    value = float(np.trapezoid(vals_r[::-1], eps_r[::-1]))

    if not divergent:
        tail = eps_r <= eps_r[-1] * 100.0  # two smallest resolved decades
        x, y = eps_r[tail], vals_r[tail]
        pos = y > 0
        if vals_r[-1] == 0.0:
            pass  # single-ball regime all the way down, nothing to add
        elif np.count_nonzero(pos) >= 3:
            slope = np.polyfit(np.log(x[pos]), np.log(y[pos]), 1)[0]
            beta = -slope
            if beta >= 0.95:
                divergent = True
            elif beta > 0:
                value += vals_r[-1] * eps_r[-1] / (1.0 - beta)
            else:
                value += vals_r[-1] * eps_r[-1]
        else:
            value += vals_r[-1] * eps_r[-1]
    return EntropyIntegralResult(value, divergent, (float(a), float(b)), power, float(u))


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

"""Composite 12-node Gauss-Legendre rule for every one-dimensional integral:
panels never straddle a breakpoint of the integrand and are never wider
than a width sized from its oscillation rate; the sine-integral tail and
the Legendre-Fourier moments are integrals on it too. Imports only numpy
and ``errors`` and reads kernels through their attributes, so ``kernels``
can import it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError

__all__ = [
    "GL_NODES",
    "GL_WEIGHTS",
    "TIME_ROUTE_TOL",
    "WINDOW_START",
    "panel_edges",
    "panel_nodes",
    "row_blocks",
    "integrate",
    "si_tail",
    "legendre_moments",
    "ftf_abs",
    "ftf_breakpoints",
    "osc_rate",
    "spectral_width",
    "sup_ftf",
    "spectral_window",
    "lagged_product",
    "lagged_product_time",
    "lagged_product_frequency",
]

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

#: Kernels whose stored support tail mass is at most this integrate in the
#: time domain; beyond it (the sinc family) the transform is used instead.
TIME_ROUTE_TOL = 1e-8

#: Where the truncation-point search of ``spectral_window`` starts for the
#: spectral integrals of kernels without a band limit.
WINDOW_START = 200.0

# Elements (lags x nodes) evaluated per block, 1 MB per float array.
_BLOCK = 1 << 17


def panel_edges(lo: float, hi: float, breaks, width: float) -> np.ndarray:
    """Edges on [lo, hi]: every breakpoint strictly inside, and equal panels
    no wider than ``width`` between consecutive cuts."""
    cuts = sorted({lo, hi} | {p for p in breaks if lo < p < hi})
    edges = []
    for x0, x1 in zip(cuts, cuts[1:]):
        m = max(1, int(math.ceil((x1 - x0) / width)))
        edges.extend(np.linspace(x0, x1, m + 1)[:-1])
    edges.append(hi)
    return np.asarray(edges)


def panel_nodes(edges) -> tuple:
    """Nodes and weights on the panels between consecutive edges; leading
    axes of ``edges`` (one row per lag) are kept."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    hw = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    nodes = (mid[..., None] + hw[..., None] * GL_NODES).reshape(shape)
    return nodes, (hw[..., None] * GL_WEIGHTS).reshape(shape)


def row_blocks(n_rows: int, n_cols: int):
    """Row slices holding about _BLOCK elements each."""
    step = max(1, _BLOCK // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def _node_blocks(edges: np.ndarray):
    for sl in row_blocks(edges.size - 1, GL_NODES.size):
        yield panel_nodes(edges[sl.start:sl.stop + 1])


def integrate(f, edges):
    """Rule applied to ``f`` (vectorised, possibly complex) on ``edges``."""
    return sum(np.sum(f(nodes) * w) for nodes, w in _node_blocks(np.asarray(edges, dtype=float)))


# int_0^inf e^{-s} r(s) ds for r analytic within distance 2 of [0, inf)
_EXP_NODES, _EXP_WEIGHTS = panel_nodes(np.linspace(0.0, 40.0, 41))
_EXP_WEIGHTS = _EXP_WEIGHTS * np.exp(-_EXP_NODES)
_GL40_NODES, _GL40_WEIGHTS = np.polynomial.legendre.leggauss(40)
_GL40_LEGENDRE = np.polynomial.legendre.legvander(_GL40_NODES, 11) * _GL40_WEIGHTS[:, None]


def si_tail(x):
    """``pi/2 - Si(x)`` for x >= 0. Below 2, Si(x) = x int_0^1 sinc(xu) du
    on one panel; from 2 on, f(x) cos x + g(x) sin x with the auxiliary
    functions in Laplace form (DLMF 6.2, 6.7),
    f = int_0^inf e^{-s} x / (x^2 + s^2) ds, g = int_0^inf e^{-s} s / (x^2 + s^2) ds."""
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, 1)
    u, w = 0.5 * (GL_NODES + 1.0), 0.5 * GL_WEIGHTS
    head = 0.5 * math.pi - xs[:, 0] * np.sum(np.sinc(xs * u / math.pi) * w, axis=1)
    big = np.maximum(xs, 2.0)
    r = _EXP_WEIGHTS / (big**2 + _EXP_NODES**2)
    f, g = big[:, 0] * np.sum(r, axis=1), np.sum(r * _EXP_NODES, axis=1)
    out = np.where(xs[:, 0] < 2.0, head, f * np.cos(big[:, 0]) + g * np.sin(big[:, 0]))
    return out.item() if x.ndim == 0 else out.reshape(x.shape)


def legendre_moments(c) -> np.ndarray:
    """``int_{-1}^{1} P_n(x) e^{icx} dx = 2 i^n j_n(c)`` for n = 0..11, on a
    new last axis: 40-node Gauss-Legendre for |c| <= 16, else the
    spherical Bessel functions by upward recurrence, stable for n < |c|
    (DLMF 10.51)."""
    c = np.asarray(c, dtype=float)
    out = np.empty(c.shape + (12,), dtype=complex)
    big = np.abs(c) > 16.0
    out[~big] = np.exp(1j * c[~big][:, None] * _GL40_NODES) @ _GL40_LEGENDRE
    cb = c[big]
    j = [np.sin(cb) / cb, np.sin(cb) / cb**2 - np.cos(cb) / cb]
    for n in range(1, 11):
        j.append((2 * n + 1) / cb * j[n] - j[n - 1])
    out[big] = 2.0 * (1j ** np.arange(12)) * np.stack(j, axis=-1)
    return out


def ftf_abs(k):
    """``|k*|``, through the kernel's envelope when it has one."""
    if k.ftf_envelope is not None:
        return k.ftf_envelope
    return lambda lam: np.abs(k.ftf_eval(lam))


def ftf_breakpoints(k) -> tuple:
    """Points where the transform may jump or kink."""
    return (0.0,) if k.band_limit is None else (0.0, -k.band_limit, k.band_limit)


def osc_rate(k) -> float:
    """Crude bound on the transform's variation rate in lam.

    A kernel supported within radius R has a transform varying on scale
    1/R at most, so R bounds the phase rate. Band-limited transforms are
    flat inside their band (rate 0 apart from the tabulated jumps).
    """
    return 0.0 if k.band_limit is not None else k.effective_support


def spectral_width(rate: float, *kernels) -> float:
    """Panel width in lam: two radians of a lag phase ``rate`` or of the
    fastest transform."""
    return 2.0 / max(1.0, rate, *(osc_rate(k) for k in kernels))


def sup_ftf(k) -> float:
    grid = np.linspace(0.0, k.band_limit if k.band_limit else 50.0, 512)
    return float(np.max(np.asarray(ftf_abs(k)(grid), dtype=float)))


def spectral_window(k, abs_mass_tol: float, start: float) -> float:
    """The band limit, or the first L = max(start, 1) * 1.5**j with
    squared-transform tail mass 2 int_L^inf |k*|^2 below ``abs_mass_tol``."""
    if k.band_limit is not None:
        return k.band_limit
    env = ftf_abs(k)
    L = max(start, 1.0)
    for _ in range(80):
        # tail over t = L/lam in (0, 1]
        tail = integrate(lambda t: np.asarray(env(L / t), dtype=float) ** 2 * L / t**2,
                         np.linspace(0.0, 1.0, 33))
        if 2.0 * tail < abs_mass_tol:
            return L
        L *= 1.5
    return L


def _time_routable(k) -> bool:
    return k.band_limit is None and k.support_tol <= TIME_ROUTE_TOL


def _radius(k) -> float:
    # time_eval is exact beyond effective_support too, so a widened window
    # shrinks truncation error to ~support_tol**1.5
    return k.effective_support if k.support_tol == 0.0 else 1.5 * k.effective_support


def _time_breaks(k) -> np.ndarray:
    # kinks and jumps of time_eval: 0, the ends of an exact support, samples
    pts = [0.0]
    if k.support_tol == 0.0:
        pts += [-k.effective_support, k.effective_support]
    if k.name == "tabulated":
        pts += list(k.params["t0"] + k.params["dt"] * np.arange(k.params["n_samples"]))
    return np.array(sorted(set(pts)))


def lagged_product(p, q, lags, sign: int):
    """``int p(s) q(lag + sign*s) ds`` per lag (sign +1 or -1): over the
    support of ``p`` when it decays fast enough for truncation, else
    through the Plancherel dual. Scalar lags give a float."""
    lags = np.asarray(lags, dtype=float)
    route = lagged_product_time if _time_routable(p) else lagged_product_frequency
    out = route(p, q, lags.ravel(), sign).reshape(lags.shape)
    return out.item() if out.ndim == 0 else out


def lagged_product_time(p, q, lags: np.ndarray, sign: int) -> np.ndarray:
    """Time route over a 1-D lag array. Each lag's edges (a grid over the
    support of p, p's breakpoints, q's shifted by the lag, and q's grid and
    the stretch between the centres when the interval reaches past p's
    support) are clipped to its interval: a clipped point makes a zero-width
    panel, so rows stay rectangular and each sum depends on its own lag
    alone."""
    r = _radius(p)
    # q(lag + sign*s) is centred at s = -sign*lag; its support counts only
    # when q itself is truncated in time
    centre = -sign * lags
    lo, hi = np.full(lags.size, -r), np.full(lags.size, r)
    # an eighth of either support radius, or two radians of q's band edge
    width = min(r, _radius(q)) / 8.0 if q.band_limit is None else min(r / 8.0, 2.0 / q.band_limit)
    base = np.concatenate([np.linspace(-r, r, int(math.ceil(2.0 * r / width)) + 1), _time_breaks(p)])
    offsets = sign * _time_breaks(q)  # points at centre + offset
    fractions = np.empty(0)  # points at fraction * centre
    if _time_routable(q):
        # A tolerance-truncated support keeps its tail, and at lags beyond
        # both radii the product of the two tails, spread over the stretch
        # between the centres, is all of the integral: the interval is the
        # hull of both supports, cut only by exact ones.
        rq = _radius(q)
        lo, hi = np.minimum(lo, centre - rq), np.maximum(hi, centre + rq)
        if p.support_tol == 0.0:
            lo, hi = np.maximum(lo, -r), np.minimum(hi, r)
        if q.support_tol == 0.0:
            lo, hi = np.maximum(lo, centre - rq), np.minimum(hi, centre + rq)
        hi = np.maximum(hi, lo)
        if p.support_tol > 0.0:
            # the hull reaches past p's grid: add q's grid and 8 panels
            # between the centres, so row length never depends on the lag
            grid_q = np.linspace(-rq, rq, int(math.ceil(2.0 * rq / width)) + 1)
            offsets = np.concatenate([offsets, grid_q])
            fractions = np.linspace(0.0, 1.0, 9)
    n_cols = base.size + offsets.size + fractions.size + 2
    out = np.empty(lags.size)
    for sl in row_blocks(lags.size, n_cols * GL_NODES.size):
        c, lo_, hi_ = centre[sl, None], lo[sl, None], hi[sl, None]
        rows = [np.broadcast_to(base, (c.size, base.size)), offsets + c, fractions * c, lo_, hi_]
        s, w = panel_nodes(np.sort(np.clip(np.concatenate(rows, axis=1), lo_, hi_), axis=1))
        out[sl] = np.sum(p.time_eval(s) * q.time_eval(lags[sl, None] + sign * s) * w, axis=1)
    return out


def lagged_product_frequency(p, q, lags: np.ndarray, sign: int) -> np.ndarray:
    """Frequency route over a 1-D lag array,
    ``(1/pi) int_0^L Re[P q* e^{i lam lag}] dlam`` with P = conj(p*) for
    sign +1 and p* for sign -1, up to the narrower of the two windows
    (tail mass 2e-12 from 200 on). Lags sharing a panel width share nodes.

    The imaginary part of the two-sided integral, from the transforms at
    -lam on the same nodes, must cancel: a residue above 1e-9 + 1e-9 |value|
    raises ``ConsistencyError`` naming the first such lag."""
    L = min(spectral_window(k, 2e-12, WINDOW_START) for k in (p, q))
    breaks = ftf_breakpoints(p) + ftf_breakpoints(q)
    rates = np.maximum(1.0, np.ceil(np.abs(lags)))
    out = np.zeros(lags.size)
    imag = np.zeros(lags.size)
    for rate in sorted(set(rates)):
        idx = np.flatnonzero(rates == rate)
        for lam, w in _node_blocks(panel_edges(0.0, L, breaks, spectral_width(rate, p, q))):
            pq, pq_neg = (_weighted_pair(p, q, x, w, sign) for x in (lam, -lam))
            # Im of pq e^{i phase} + pq_neg e^{-i phase}
            im_cos, im_sin = pq.imag + pq_neg.imag, pq.real - pq_neg.real
            for sl in row_blocks(idx.size, lam.size):
                phase = lags[idx[sl], None] * lam
                cos, sin = np.cos(phase), np.sin(phase)
                out[idx[sl]] += np.sum(cos * pq.real - sin * pq.imag, axis=1)
                imag[idx[sl]] += np.sum(cos * im_cos + sin * im_sin, axis=1)
    out /= math.pi
    imag /= 2.0 * math.pi
    tol = 1e-9 + 1e-9 * np.abs(out)
    bad = np.flatnonzero(np.abs(imag) > tol)
    if bad.size:
        k = bad[0]
        raise ConsistencyError(
            f"imaginary residue {imag[k]:.3e} exceeds {tol[k]:.3e} at lag {lags[k]:.12g}"
        )
    return out


def _weighted_pair(p, q, lam, w, sign: int):
    ps = p.ftf_eval(lam)
    return w * (np.conj(ps) if sign > 0 else ps) * q.ftf_eval(lam)

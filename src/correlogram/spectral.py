"""Exact second-order theory of the normalized estimation error.

Everything here is deterministic quadrature, no simulation: the Fejér
kernel, the spectral pseudometric sigma, the limiting covariance

    C_inf(t1, t2) = int h(s) h(s + t1 - t2) ds + int h(s) h(t1 + t2 - s) ds,

whose first term alone is the output autocovariance K_Y(t1 - t2), the
finite-horizon covariance of Zhat (a double spectral integral carrying
the Fejér factor), and the pseudometric rho with its explicit upper
bound. C_inf and K_Y are ``quadrature.lagged_product`` calls over lag
arrays; that module picks the time or the frequency route, and on the
frequency route it raises on an imaginary residue of the two-sided
integral.

The finite-horizon integral is reduced to one outer variable
u = lam1 - lam2, where the Fejér factor Phi_T(u) concentrates on
|u| = O(1/T):

    cov = (1/2pi c^2) int Phi_T(u) [ F1(u) + e^{-i t2 u} G(u) ] du,
    F1(u) = int e^{i(t1-t2)lam} |H*(lam)|^2 |g*(lam-u)|^2 dlam,
    G(u)  = int e^{i(t1+t2)lam} H*(lam) H*(lam-u) g*(lam) g*(lam-u) dlam.

Near u=0 the integrand is resolved directly with Gauss-Legendre panels
of width ~pi/T; beyond, Phi_T(u) = (1/pi T)(1 - cos(Tu))/u^2 is split
into a smooth part and an oscillatory part handled by Filon-Legendre
quadrature (Legendre expansion of the slow factor against analytic
moments int P_n(x) e^{icx} dx = 2 i^n j_n(c)). Both parts are linear in
the slow factor, so the u rule is one real weight per u-node.

F1 and G are evaluated over whole arrays of u-nodes, in fixed-size
chunks: per u-node the shifted breakpoints are merged into one shared
lambda ladder (clipped to the window, so rows stay rectangular), and the
lag-free products w|H*|^2|g*(lam-u)|^2 and w H* H*(lam-u) g* g*(lam-u)
are formed once per chunk. Lags enter only through the phases e^{ia lam},
e^{ib lam} and e^{-i t u}, so a batch of lag pairs reuses those products,
and each phase is formed once per distinct a, b and t of the batch (by a
one-multiply recurrence when those values form a lattice; a zero value
takes neither cos nor sin). A batch
shares one ladder sized for its largest |a|, |b| and one u-panel set
sized for its largest |t|. The u integral runs over both half-lines with
no symmetry shortcuts, so the imaginary residue and the (t1, t2)-swap
asymmetry are genuine numerical consistency checks, reported and
enforced for every entry of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConsistencyError
from .kernels import Kernel
from .quadrature import (
    GL_NODES,
    GL_WEIGHTS,
    WINDOW_START,
    ftf_abs,
    ftf_breakpoints,
    integrate,
    lagged_product,
    legendre_moments,
    osc_rate,
    panel_edges,
    panel_nodes,
    row_blocks,
    si_tail,
    spectral_width,
    spectral_window,
    sup_ftf,
)

__all__ = [
    "CovarianceModel",
    "fejer",
    "fejer_l1_norm",
    "sigma",
    "sigma_profile",
    "msq_increment_Y",
    "autocovariance_Y",
    "cov_limit",
    "cov_finite",
    "cov_finite_detail",
    "cov_matrix",
    "rho_exact",
    "rho_upper",
]


# Squared-transform tail mass beyond the spectral window of sigma.
_SIGMA_TAIL = 1e-9
# Covariance quadrature tolerance (absolute and relative), looser than
# sigma's because ``cov_finite`` is a double integral.
_COVARIANCE_TOL = 1e-6


@dataclass(frozen=True)
class CovarianceModel:
    """Kernel pair and window constant for covariance queries."""

    h: Kernel
    g: Kernel
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        gc = self.g.params.get("c")
        if gc is not None and not math.isclose(gc, self.c, rel_tol=1e-12):
            raise ValueError(f"model c={self.c} does not match the window constant c={gc}")


def fejer(T: float, lam) -> float:
    """Fejér kernel ``(1/2piT)(sin(T lam/2)/(lam/2))^2``; T/(2pi) at 0."""
    if not T > 0:
        raise ValueError("T must be positive")
    lam = np.asarray(lam, dtype=float)
    out = (T / (2.0 * math.pi)) * np.sinc(T * lam / (2.0 * math.pi)) ** 2
    return out.item() if lam.ndim == 0 else out


def fejer_l1_norm(T: float) -> float:
    """L1 norm of the Fejér kernel (equals 1 exactly).

    Substituting x = T*lam/2 removes T, leaving
    (2/pi) int_0^inf (sin x / x)^2 dx; the head is integrated numerically
    and the tail beyond X uses
    int_X^inf sin^2 x / x^2 dx = sin^2(X)/X + pi/2 - Si(2X).
    """
    if not T > 0:
        raise ValueError("T must be positive")
    X = 50.0 * math.pi
    head = float(integrate(lambda x: (np.sin(x) / x) ** 2, panel_edges(0.0, X, (), 2.0)))
    tail = math.sin(X) ** 2 / X + si_tail(2.0 * X)
    return (2.0 / math.pi) * (head + tail)


# ---------------------------------------------------------------------------
# one-dimensional quantities

_LEG_VANDER = np.polynomial.legendre.legvander(GL_NODES, 11)  # P_n(x_k), (12, 12)
_LEG_PROJ = ((2.0 * np.arange(12) + 1.0) / 2.0)[:, None] * (_LEG_VANDER.T * GL_WEIGHTS)


def sigma_profile(h: Kernel) -> Callable:
    """``u -> sigma(h, u)`` over lag arrays. The nodes depend only on the
    panel width set by the largest |u| and are built once per width, so the
    covering-number bisection's repeated small-lag calls reuse them."""
    L = spectral_window(h, abs_mass_tol=_SIGMA_TAIL, start=WINDOW_START)
    rule = {}

    def profile(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        width = spectral_width(float(np.max(np.abs(u), initial=0.0)), h)
        if width not in rule:
            rule.clear()
            nodes, w = panel_nodes(panel_edges(0.0, L, ftf_breakpoints(h), width))
            rule[width] = (nodes, w * np.abs(h.ftf_eval(nodes)) ** 2)
        nodes, wh = rule[width]
        out = np.empty(u.size)
        for sl in row_blocks(u.size, nodes.size):
            # a row sum, unlike a matrix product, rounds each lag alike in any batch
            s2 = (np.sin(u[sl, None] * nodes / 2.0) ** 2 * wh).sum(axis=1)
            out[sl] = np.sqrt(np.maximum(2.0 * s2, 0.0))
        return out

    return profile


def sigma(h: Kernel, tau: float) -> float:
    """Spectral pseudometric ``[int |H*(lam)|^2 sin^2(tau lam/2) dlam]^{1/2}``."""
    return float(sigma_profile(h)(float(tau))[0])


def msq_increment_Y(h: Kernel, tau1: float, tau2: float) -> float:
    """Mean-square output increment ``E|Y(t2)-Y(t1)|^2 = (2/pi) sigma^2``."""
    return (2.0 / math.pi) * sigma(h, abs(tau2 - tau1)) ** 2


def autocovariance_Y(h: Kernel, u):
    """Stationary covariance of the output, ``E Y(t+u) Y(t) = int h(s) h(s+u) ds``,
    at a lag or a lag array; even in u and equal to ||h||_2^2 at u = 0
    whatever the kernel's parity. Scalar lags give a float."""
    return lagged_product(h, h, u, +1)


def cov_limit(h: Kernel, tau1, tau2):
    """Limiting covariance C_inf(tau1, tau2) of the error process,
    ``int h(s) h(s + tau1 - tau2) ds + int h(s) h(tau1 + tau2 - s) ds``,
    over broadcastable lag arrays; scalar lags give a float."""
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    return lagged_product(h, h, tau1 - tau2, +1) + lagged_product(h, h, tau1 + tau2, -1)


# ---------------------------------------------------------------------------
# finite-horizon covariance (double spectral integral)

# u-nodes per chunk and lag indices per block of the batched evaluation:
# together they keep the working set at a few MB whatever the batch size.
_U_CHUNK = 256
_LAG_BLOCK = 64


def _cis(x: float, z: np.ndarray) -> np.ndarray:
    """``e^{i x z}`` by a real cos and sin: numpy's complex exp gives the
    same bits about 1.2 times slower. At x = 0 every angle x z is a signed
    zero, whose cos is 1.0 and whose sin is the angle itself, so neither
    is called."""
    theta = x * z
    out = np.empty(theta.shape, dtype=complex)
    if x == 0:
        out.real, out.imag = 1.0, theta
    else:
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
    return out


class _Distinct:
    """The distinct values of one lag kind of a batch; ``index`` maps entries
    to them. Values on a lattice ``x0 + k d`` to within ``tol`` (which merges
    values a few ulp apart) become its points and set ``lattice``, unless
    walking its gaps takes over two steps per point; otherwise ``k`` is the
    rank. ``blocks`` cut the values at multiples of ``_LAG_BLOCK`` in ``k``."""

    def __init__(self, x: np.ndarray, tol: float):
        vals, self.index = np.unique(x, return_inverse=True)
        self.k, self.d = np.arange(vals.size), None
        gaps = np.diff(vals)
        if vals.size > 2 and np.any(gaps > tol):
            k = np.rint((vals - vals[0]) / gaps[gaps > tol].min())
            ku, pos = np.unique(k, return_inverse=True)
            d = (vals[-1] - vals[0]) / k[-1]
            if k[-1] < 2 * ku.size and np.all(np.abs(vals[0] + k * d - vals) <= tol):
                vals, self.k, self.d = vals[0] + ku * d, ku.astype(int), d
                self.index = pos[self.index]
        self.vals, self.lattice = vals, self.d is not None
        self.block = np.unique(self.k // _LAG_BLOCK, return_inverse=True)[1]
        self.blocks = np.split(np.arange(vals.size), np.flatnonzero(np.diff(self.block)) + 1)

    def phases(self, z: np.ndarray, js: np.ndarray):
        """Yield ``(j, e^{i vals[j] z})`` for the values ``js`` of one block:
        exact at the first (no cos or sin at a zero value, see ``_cis``),
        then on a lattice ``E <- E e^{i d z}`` per index step. ``E`` is
        reused."""
        E = step = None
        for j in js:
            if E is None or not self.lattice:
                E = _cis(self.vals[j], z)
            else:
                step = _cis(self.d, z) if step is None else step
                for _ in range(self.k[j] - self.k[j - 1]):
                    E *= step
            yield j, E

    def table(self, z: np.ndarray, block: int, out: np.ndarray, reduce=lambda E: E) -> None:
        """Column ``k % _LAG_BLOCK`` of ``out`` gets ``reduce(e^{i x z})`` of
        each value of one block."""
        for j, E in self.phases(z, self.blocks[block]):
            out[:, self.k[j] % _LAG_BLOCK] = reduce(E)


def _pair_weights(h: Kernel, g: Kernel, L: float, L_core: float, lag_rate: float,
                  rate: float) -> Callable:
    """``u -> (lam, W1, W2)``: nodes and the lag-free (u x lambda) weight
    products ``W1 = w |H*|^2 |g*(lam-u)|^2``, ``W2 = w H* H*(lam-u) g* g*(lam-u)``.

    The lambda ladder is built once: panels two radians of the largest lag
    or transform ``rate`` wide inside the spectral core L_core of H (where
    most of |H*|^2 lives), then panels growing geometrically through the
    mass tail out to the truncation point L, never wider than the
    transforms' own oscillation scale. Each u-node merges its shifted
    breakpoints into the ladder; one outside the window is clipped onto an
    endpoint, where its panel has zero width and adds exactly 0, so all
    rows have the same node count.
    """
    core = min(L_core + 2.0, L)
    width = 2.0 / max(1.0, lag_rate, rate)
    x, pts = 0.0, [0.0]
    while x < core - 1e-12:
        x = min(x + width, core)
        pts.append(x)
    w_osc = 9.0 / rate if rate > 0 else math.inf
    while x < L - 1e-12:
        step = min(width + 0.35 * (x - core), w_osc)
        x = min(x + max(step, width), L)
        pts.append(x)
    pos = np.asarray(pts)
    base_edges = np.concatenate([-pos[:0:-1], pos])
    breaks = np.array(sorted(set(ftf_breakpoints(h)) | set(ftf_breakpoints(g))))

    def weights(u: np.ndarray) -> tuple:
        base = np.broadcast_to(base_edges, (u.size, base_edges.size))
        shifted = np.clip(u[:, None] + breaks, -L, L)
        lam, w = panel_nodes(np.sort(np.concatenate([base, shifted], axis=1), axis=1))
        hs, hsu = h.ftf_eval(lam), h.ftf_eval(lam - u[:, None])
        gs, gsu = g.ftf_eval(lam), g.ftf_eval(lam - u[:, None])
        return lam, w * np.abs(hs) ** 2 * np.abs(gsu) ** 2, w * hs * hsu * gs * gsu

    return weights


def _u_rule(T: float, fine_end: float, u_top: float, phase_rate: float, tail_cap: float) -> tuple:
    """Nodes and real weights of int Phi_T(u) s(u) du over both half-lines.

    Head panels ~pi/T wide (half a Fejér oscillation) out to u_A = 40pi/T
    carry Gauss-Legendre weights times Phi_T. Past the head, panel width is
    capped by the integrand's own phase rate out to ``fine_end`` (where the
    H(.)H(.-u) pair term has decayed), then grows geometrically up to
    ``u_top``, never beyond ``tail_cap`` (the variation scale of the slow
    factor). There Phi_T(u) = (1 - cos Tu) / (pi T u^2): the smooth part
    gets Gauss-Legendre weights on s/u^2, the cosine part Filon-Legendre
    weights (the Legendre projection of s/u^2 against the analytic moments
    int P_n(x) e^{icx} dx = 2 i^n j_n(c)). Both are linear in s, so each
    node carries one real weight, the same at u and -u.
    """
    u_A = min(40.0 * math.pi / T, max(fine_end, 1.0))
    w_head = min(math.pi / T, 0.25)
    n_head = max(1, int(math.ceil(u_A / w_head)))
    edges = list(np.linspace(0.0, u_A, n_head + 1))
    w_cap = min(0.25, 1.0 / phase_rate)
    x = edges[-1]
    fine_top = min(fine_end + 1.0, u_top)
    while x < fine_top:
        x = min(x + min(w_cap, x), fine_top)
        edges.append(x)
    while x < u_top:
        step = min(max(min(w_cap, x), 0.3 * x), tail_cap)
        x = min(x + step, u_top)
        edges.append(x)
    edges = np.asarray(edges, dtype=float)
    m = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    u = m[:, None] + hw[:, None] * GL_NODES
    wt = hw[:, None] * GL_WEIGHTS * fejer(T, u)
    tail = edges[1:] > u_A + 1e-12
    moments = legendre_moments(T * hw[tail])
    osc = (np.exp(1j * T * m[tail, None]) * moments).real @ _LEG_PROJ
    wt[tail] = hw[tail, None] * (GL_WEIGHTS - osc) / (math.pi * T * u[tail] ** 2)
    return np.concatenate([u.ravel(), -u.ravel()]), np.concatenate([wt.ravel(), wt.ravel()])


def _max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(x), initial=0.0)) for x in arrays)


def cov_finite_detail(model: CovarianceModel, T: float, tau1, tau2) -> dict:
    """Finite-horizon covariance with its numerical self-checks.

    Returns a dict with ``value`` (the symmetrized real covariance),
    ``imag_residue`` (two-sided imaginary part that must cancel),
    ``asymmetry`` (difference between the (tau1,tau2) and (tau2,tau1)
    accumulations, zero analytically), ``u_top``, ``lambda_window``, and
    per lag kind ``a = tau1 - tau2``, ``b = tau1 + tau2`` and ``t`` (the
    lags themselves) ``distinct_lags`` (how many phase values the batch
    needs) and ``lattice`` (whether those took the phase recurrence).

    ``tau1`` and ``tau2`` may be broadcastable arrays; the first three
    entries then have the broadcast shape (scalar lags give floats). One
    batch shares one lambda ladder, sized for its largest |tau1 -+ tau2|,
    and one u-panel set, sized for its largest |tau|.
    """
    if model.g.parity != "even":
        raise ValueError(
            "finite-horizon covariance is defined here for even real windows; "
            "complex-transform windows have no fixed convention"
        )
    if not T > 0:
        raise ValueError("T must be positive")
    tau1, tau2 = np.broadcast_arrays(np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float))
    t1, t2 = tau1.ravel(), tau2.ravel()
    a, b = t1 - t2, t1 + t2
    h, g = model.h, model.g
    g_sup = sup_ftf(g)
    h_mass = 2.0 * math.pi * h.l2_norm**2
    rate_g = osc_rate(g)
    rate = max(osc_rate(h), rate_g)
    # absolute tail target for the lambda truncation of F1 and G
    lam_tail = 0.25 * _COVARIANCE_TOL * 2.0 * math.pi * model.c**2 / max(g_sup**2, 1e-300)
    L = spectral_window(h, abs_mass_tol=lam_tail, start=WINDOW_START)
    L_core = spectral_window(h, abs_mass_tol=1e-3 * h_mass, start=2.0)
    weights = _pair_weights(h, g, L, L_core, _max_abs(a, b), rate)

    # outer truncation: envelope of |F1| + |G| against the Fejér tail
    env_g, env_h = ftf_abs(g), ftf_abs(h)

    def s_env(u_arr):
        x = np.maximum(np.asarray(u_arr, dtype=float) - L, 0.0)
        eg = np.asarray(env_g(x), dtype=float)
        if h.band_limit is not None:
            pair_alive = (np.asarray(u_arr) <= 2.0 * h.band_limit).astype(float)
        else:
            pair_alive = np.asarray(env_h(x), dtype=float) / max(float(env_h(0.0)), 1e-300)
        return h_mass * eg * (eg + g_sup * pair_alive)

    tail_target = 0.05 * _COVARIANCE_TOL * 2.0 * math.pi * model.c**2
    u_top = 2.0 * L + 2.0
    for _ in range(80):
        pts = u_top * 1.35 ** np.arange(41)
        widths = np.diff(pts)
        vals = (2.0 / (math.pi * T * pts[:-1] ** 2)) * s_env(pts[:-1])
        if float(np.sum(vals * widths)) < tail_target:
            break
        u_top *= 1.4
    tail_cap = 9.0 / rate_g if rate_g > 0 else math.inf
    u, wt = _u_rule(T, 2.0 * L_core, u_top, max(1.0, _max_abs(t1, t2), rate), tail_cap)

    # The cov integrand is F1(u; a) + e^{-i t2 u} G(u; b) for the (t1, t2)
    # accumulation and conj(F1) + e^{-i t1 u} G for the swapped one. Per
    # u-chunk, F1 and G are formed once for each distinct a and b (values
    # within 64 ulp of the largest |t1| + |t2| count as one). The swap makes
    # 2n half-entries (b, t2) and (b, t1), grouped in runs of at most
    # _LAG_BLOCK that share one block of G columns and one of e^{-i t u}.
    n, tol = t1.size, 2.0**-46 * max(_max_abs(a, b), 1e-300)
    A, B, Tt = _Distinct(a, tol), _Distinct(b, tol), _Distinct(np.concatenate([t1, t2]), tol)
    hb, ht = np.tile(B.index, 2), np.roll(Tt.index, n)
    bk, tk = B.block[hb], Tt.block[ht]
    order = np.lexsort((tk, bk))
    cut = np.diff(bk[order]) | np.diff(tk[order]) | (np.arange(1, 2 * n) % _LAG_BLOCK == 0)
    runs = [(bk[i[0]], tk[i[0]], i, B.k[hb[i]] % _LAG_BLOCK, Tt.k[ht[i]] % _LAG_BLOCK)
            for i in np.split(order, np.flatnonzero(cut) + 1) if i.size]
    f1 = np.zeros(A.vals.size, dtype=complex)
    q = np.zeros(2 * n, dtype=complex)

    def accumulate(uc, wc):
        lam, W1, W2 = weights(uc)
        wW1 = (wc[:, None] * W1).ravel()
        for js in A.blocks:
            for j, E in A.phases(lam.ravel(), js):
                f1[j] += complex(*(wW1 @ E.view(float).reshape(-1, 2)))
        G, P = np.empty((2, uc.size, _LAG_BLOCK), dtype=complex)
        G_block = P_block = None
        for b_block, t_block, i, jb, jt in runs:
            if b_block != G_block:
                B.table(lam, b_block, G, lambda E: np.einsum("ij,ij->i", W2, E))
                G *= wc[:, None]
                G_block = b_block
            if t_block != P_block:
                Tt.table(-uc, t_block, P)
                P_block = t_block
            q[i] += np.einsum("ik,ik->k", G[:, jb], P[:, jt])

    for start in range(0, u.size, _U_CHUNK):
        accumulate(u[start:start + _U_CHUNK], wt[start:start + _U_CHUNK])
    total12 = f1[A.index] + q[:n]
    total21 = np.conj(f1[A.index]) + q[n:]

    scale = 1.0 / (2.0 * math.pi * model.c**2)
    c12, c21 = scale * total12, scale * total21
    detail = {
        "value": 0.5 * (c12.real + c21.real),
        "imag_residue": np.maximum(np.abs(c12.imag), np.abs(c21.imag)),
        "asymmetry": np.abs(c12.real - c21.real),
    }
    for key, arr in detail.items():
        arr = arr.reshape(tau1.shape)
        detail[key] = arr.item() if arr.ndim == 0 else arr
    return dict(detail, u_top=u_top, lambda_window=L,
                distinct_lags={"a": A.vals.size, "b": B.vals.size, "t": Tt.vals.size},
                lattice={"a": A.lattice, "b": B.lattice, "t": Tt.lattice})


def cov_finite(model: CovarianceModel, T: float, tau1, tau2):
    """Covariance of (Zhat(tau1), Zhat(tau2)) at horizon T.

    Symmetric in its lag arguments and real within the covariance
    tolerance (1e-6, absolute and relative); violations raise, small
    negative variances (tau1 == tau2) are clamped to zero when within
    rounding slack. Lag arrays are one
    batch (see ``cov_finite_detail``) and every entry is checked; the
    error names the first offending entry. Scalar lags give a float.
    """
    tau1, tau2 = np.broadcast_arrays(np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float))
    detail = cov_finite_detail(model, T, tau1, tau2)
    t1, t2 = tau1.ravel(), tau2.ravel()
    value = np.array(detail["value"], dtype=float).ravel()
    tol = _COVARIANCE_TOL + _COVARIANCE_TOL * np.abs(value)
    for key, what in (("imag_residue", "imaginary residue"), ("asymmetry", "lag-swap asymmetry")):
        resid = np.ravel(detail[key])
        bad = np.flatnonzero(resid > tol)
        if bad.size:
            k = bad[0]
            raise ConsistencyError(
                f"{what} {resid[k]:.3e} exceeds {tol[k]:.3e} "
                f"at T={T}, taus=({t1[k]}, {t2[k]})"
            )
    negative = (t1 == t2) & (value < 0.0)
    bad = np.flatnonzero(negative & (value < -_COVARIANCE_TOL))
    if bad.size:
        k = bad[0]
        raise ConsistencyError(
            f"variance {value[k]:.3e} negative beyond rounding slack "
            f"at T={T}, taus=({t1[k]}, {t2[k]})"
        )
    value[negative] = 0.0
    value = value.reshape(tau1.shape)
    return value.item() if value.ndim == 0 else value


def cov_matrix(model: CovarianceModel, T: float, taus: Sequence[float]) -> np.ndarray:
    """Symmetric covariance matrix of Zhat over a lag grid, one batch over
    its upper triangle."""
    taus = np.asarray(taus, dtype=float)
    i, j = np.triu_indices(taus.size)
    out = np.empty((taus.size, taus.size))
    out[i, j] = out[j, i] = cov_finite(model, T, taus[i], taus[j])
    return out


def rho_exact(model: CovarianceModel, T: float, tau1, tau2):
    """Mean-square distance of Zhat increments,
    ``sqrt(Var Zhat(t1) + Var Zhat(t2) - 2 Cov)``, clamped at 0, over
    broadcastable lag arrays as one ``cov_finite`` batch: the variance of
    each distinct lag once, then one covariance per pair (scalar lags give
    a float). A negative squared increment beyond rounding slack raises."""
    tau1, tau2 = np.broadcast_arrays(np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float))
    t1, t2 = tau1.ravel(), tau2.ravel()
    lags, at = np.unique(np.concatenate([t1, t2]), return_inverse=True)
    v = cov_finite(model, T, np.concatenate([lags, t1]), np.concatenate([lags, t2]))
    var, v12 = v[: lags.size], v[lags.size :]
    sq = var[at[: t1.size]] + var[at[t1.size :]] - 2.0 * v12
    bad = np.flatnonzero(sq < -3.0 * _COVARIANCE_TOL)
    if bad.size:
        k = bad[0]
        raise ConsistencyError(f"negative squared increment {sq[k]:.3e} at taus=({t1[k]}, {t2[k]})")
    out = np.sqrt(np.maximum(sq, 0.0)).reshape(tau1.shape)
    return out.item() if out.ndim == 0 else out


def rho_upper(h: Kernel, g_family_sup: float, c: float, tau1: float, tau2: float) -> float:
    """Horizon-free upper bound on the increment pseudometric:

        rho <= (1/c) * ((4/pi) ||H*||_2)^{1/2} * sup|g*| * sqrt(sigma).

    The constant (4/pi) is what the covariance decomposition actually
    yields: each of its two terms is bounded by (2/pi) sigma^2 sup|g*|^2
    (Fejér unit mass plus Cauchy-Schwarz), and sigma <= ||H*||_2^{1/2}
    sqrt(sigma) closes the bound.
    """
    return _rho_upper_scale(h, g_family_sup, c) * math.sqrt(sigma(h, tau2 - tau1))


def _rho_upper_scale(h: Kernel, g_family_sup: float, c: float) -> float:
    """The factor (sup|g*| / c) ((4/pi) ||H*||_2)^{1/2} of ``rho_upper``."""
    if not (c > 0 and g_family_sup >= 0):
        raise ValueError("c must be positive and g_family_sup nonnegative")
    return (g_family_sup / c) * math.sqrt((4.0 / math.pi) * h.ftf_l2_norm())

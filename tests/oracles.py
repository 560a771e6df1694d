"""Independent reference implementations used to pin expected test values.

Each oracle deliberately takes a different route from the library code it
checks: quadrature instead of special-function inverses, kink enumeration
instead of sorting, dense scans instead of golden-section, bottom-up instead
of top-down fixed points, pairwise domination scans instead of neighbor
checks. A shared bug would have to be written twice to slip through.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.optimize import brentq

mp.mp.dps = 40


def normal_quantile(p: float) -> float:
    """Phi^{-1}(p) via the high-precision error function inverse."""
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


def beta_cdf_quad(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta by adaptive quadrature of the density."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    integral = mp.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), [0, x])
    return float(integral / mp.beta(a, b))


def beta_inverse_cdf_bisect(u: float, a: float, b: float, tol: float = 1e-12) -> float:
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if beta_cdf_quad(mid, a, b) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def avar_kink_scan(samples, lam: float) -> float:
    """Average value at risk as the Rockafellar-Uryasev minimum.

    The objective r + E[(-M - r)^+] / lam is convex piecewise linear in r,
    so its minimum sits at a kink r = -m_i; evaluate them all.
    """
    m = np.asarray(samples, dtype=float)
    kinks = -m
    best = math.inf
    for r in kinks:
        value = r + np.mean(np.maximum(-m - r, 0.0)) / lam
        best = min(best, value)
    return float(best)


def ubsr_root(samples, loss, z: float) -> float:
    """Shortfall-risk root via Brent's method on a widened bracket."""
    m = np.asarray(samples, dtype=float)

    def g(level):
        return float(np.mean(loss(-m - level)) - z)

    width = 1.0 + float(np.max(np.abs(m)))
    lo, hi = -width, width
    while g(lo) < 0:
        lo *= 2
        if lo < -1e12:
            raise RuntimeError("no lower bracket")
    while g(hi) > 0:
        hi *= 2
        if hi > 1e12:
            raise RuntimeError("no upper bracket")
    return float(brentq(g, lo, hi, xtol=1e-13))


def entropic_closed_form(samples, level: float) -> float:
    """log E[exp(-M)] + level, evaluated stably by log-sum-exp."""
    m = np.asarray(samples, dtype=float)
    t = -m
    peak = t.max()
    return float(peak + np.log(np.mean(np.exp(t - peak))) + level)


def log1p_utility(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t > -1.0, np.log1p(np.maximum(t, -1.0 + 1e-300)), -np.inf)
    return out


def avar_utility(t, lam: float):
    t = np.asarray(t, dtype=float)
    return np.minimum(t, 0.0) / lam


def oce_dense_scan(samples, utility, lo=None, hi=None, rounds: int = 4, points: int = 4001) -> float:
    """-sup_eta {eta + E[u(M - eta)]} by repeated grid zooming."""
    m = np.asarray(samples, dtype=float)
    if lo is None:
        lo = float(m.min()) - 1.0
    if hi is None:
        hi = float(m.max()) + 1.0
    for _ in range(rounds):
        etas = np.linspace(lo, hi, points)
        vals = etas + np.array([np.mean(utility(m - e)) for e in etas])
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        i = int(np.argmax(vals))
        step = (hi - lo) / (points - 1)
        lo, hi = etas[i] - 2 * step, etas[i] + 2 * step
    return -float(vals[i])


def clear_bottom_up(nominal, x, tol: float = 1e-12, max_iter: int = 1_000_000):
    """Least-fixed-point payment vector: iterate the clearing map upward from 0.

    Liquid-only networks (s = 0). With strictly positive liquid endowments the
    clearing vector is unique, so this meets the top-down solver.
    """
    nominal = np.asarray(nominal, dtype=float)
    pbar = nominal.sum(axis=1)
    safe = np.where(pbar > 0, pbar, 1.0)
    rel = np.where(pbar[:, None] > 0, nominal / safe[:, None], 0.0)
    a = rel[1:, 1:]
    x = np.asarray(x, dtype=float)
    p = np.zeros(a.shape[0])
    for _ in range(max_iter):
        nxt = np.minimum(pbar[1:], x + a.T @ p)
        if np.max(np.abs(nxt - p)) <= tol:
            return nxt
        p = nxt
    raise RuntimeError("bottom-up clearing iteration did not converge")


def upper_set_from_corners(shape, corners) -> np.ndarray:
    """Monotone 0/1 label field: union of the upper orthants of the corners."""
    grids = np.indices(shape)
    lab = np.zeros(shape, dtype=bool)
    for corner in corners:
        mask = np.ones(shape, dtype=bool)
        for d, c in enumerate(corner):
            mask &= grids[d] >= c
        lab |= mask
    return lab.astype(np.int8)


def frontier_scan(labels: np.ndarray):
    """Minimal acceptable and maximal unacceptable points by O(N^2) domination scan."""
    nd = labels.ndim
    acc = np.argwhere(labels == 1)
    rej = np.argwhere(labels == 0)
    minimal = [
        p for p in acc
        if not any((q <= p).all() and (q < p).any() for q in acc)
    ]
    maximal = [
        r for r in rej
        if not any((q >= r).all() and (q > r).any() for q in rej)
    ]
    return (
        np.array(minimal, dtype=int).reshape(-1, nd),
        np.array(maximal, dtype=int).reshape(-1, nd),
    )


def probe_scan(accepts_a, accepts_b, accepts_blend, axes):
    """Quasi-convexity check point by point, in lexicographic lattice order.

    Returns (checked, total_points, violation coordinates) for three boolean
    oracles on the lattice spanned by axes.
    """
    checked, total, violations = 0, 0, []
    for coords in itertools.product(*axes):
        point = np.array(coords)
        total += 1
        if accepts_a(point) and accepts_b(point):
            checked += 1
            if not accepts_blend(point):
                violations.append(point)
    return checked, total, np.array(violations).reshape(-1, len(axes))


def ear_scan(labels: np.ndarray, axes, w, rtol: float = 1e-9):
    """Minimize w . coords over every acceptable lattice point (not just the frontier)."""
    acc = np.argwhere(labels == 1)
    if len(acc) == 0:
        raise ValueError("no acceptable points")
    coords = np.array([[axes[d][i] for d, i in enumerate(idx)] for idx in acc])
    costs = coords @ np.asarray(w, dtype=float)
    best = float(costs.min())
    keep = costs <= best + rtol * abs(best)
    return coords[keep], best


def spearman_implied_by_gaussian(rho: float) -> float:
    return 6.0 / math.pi * math.asin(rho / 2.0)

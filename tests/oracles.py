"""Independent reference implementations used to pin expected test values.

Each oracle deliberately takes a different route from the library code it
checks: quadrature instead of special-function inverses, kink enumeration
instead of sorting, dense scans and golden-section search instead of
Newton steps, bottom-up and top-down iteration or every default set
solved in 40 digits instead of default sets grown from a seed, a
one-scenario joint iteration of payments and price instead of the batched
bracket, pairwise domination scans instead of neighbor checks. A shared
bug would have to be written twice to slip through.

clear_batch, clear and equity are no oracles: they are thin helpers that
run NetworkValueModel.samples_at at zero capital on the given holdings and
read the finished clearing from the model, for tests of one or a few
scenarios.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.optimize import brentq

from sysrisk.clearing import DEFAULT_MAX_ITER, DEFAULT_TOL, NetworkValueModel
from sysrisk.scenarios import ScenarioMatrix

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


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def oce_golden(samples, utility, tol: float = 1e-9) -> float:
    """-sup_eta {eta + E[u(M - eta)]} by golden-section search for a log1p-type utility.

    The objective is concave with its maximizer in [min(M), max(M)]; the
    bracket is capped below the pole at min(M) + 1, at the largest float
    below it where min(M) + 1 - tol rounds up to the pole. The search stops
    once the bracket is tol wide or cannot shrink, and the value is the best
    of the bracket midpoint and both ends.
    """
    m = np.asarray(samples, dtype=float)
    lo = float(m.min())
    hi = min(float(m.max()), lo + 1.0 - tol, float(np.nextafter(lo + 1.0, -np.inf)))
    if hi <= lo:
        return -lo - float(np.mean(utility(m - lo)))

    def h(eta: float) -> float:
        return eta + float(np.mean(utility(m - eta)))

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = h(x1), h(x2)
    while b - a > tol and a < x1 < x2 < b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = h(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = h(x1)
    return -max(h(0.5 * (a + b)), h(lo), h(hi))


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


def clear_top_down(nominal, cash, tol: float = 1e-13, max_iter: int = 1_000_000):
    """Greatest-fixed-point payments: iterate the clearing map downward from full payment.

    Constant price, so each firm's outside assets are a fixed cash amount
    (liquid plus illiquid holdings at that price); cash is (n,) or (n, m),
    one column per scenario. Iterates from the top are super-solutions, so
    this meets the library's exact default-set solve from above.
    """
    nominal = np.asarray(nominal, dtype=float)
    pbar = nominal.sum(axis=1)
    safe = np.where(pbar > 0, pbar, 1.0)
    rel = np.where(pbar[:, None] > 0, nominal / safe[:, None], 0.0)
    a = rel[1:, 1:]
    cash = np.asarray(cash, dtype=float)
    top = pbar[1:].reshape((-1,) + (1,) * (cash.ndim - 1))
    p = np.broadcast_to(top, cash.shape).copy()
    for _ in range(max_iter):
        nxt = np.minimum(top, cash + a.T @ p)
        if np.max(np.abs(nxt - p), initial=0.0) <= tol:
            return nxt
        p = nxt
    raise RuntimeError("top-down clearing iteration did not converge")


def clear_default_sets(nominal, cash):
    """Greatest-fixed-point payments at constant price by enumerating every default set.

    For each set D of firms, those outside D pay in full and those in D pay
    all they have, a linear system solved in 40-digit arithmetic. D is
    consistent when its firms owe at least that much and the others have
    enough to pay in full; the elementwise greatest consistent solution is
    the clearing vector. cash is (n,) for one scenario; 2**n systems, so
    only for a handful of firms, but exact where iteration is slow.
    """
    nominal = [[mp.mpf(float(v)) for v in row] for row in np.asarray(nominal, dtype=float)]
    n = len(nominal) - 1
    pbar = [mp.fsum(row) for row in nominal[1:]]
    a = [[nominal[i + 1][j + 1] / pbar[i] if pbar[i] else mp.mpf(0) for j in range(n)]
         for i in range(n)]
    cash = [mp.mpf(float(c)) for c in cash]
    best = None
    for d in itertools.product([False, True], repeat=n):
        inside = [i for i in range(n) if d[i]]
        p = [mp.mpf(0) if d[i] else pbar[i] for i in range(n)]
        if inside:
            lhs = mp.matrix([[(i == j) - a[j][i] for j in inside] for i in inside])
            rhs = mp.matrix([cash[i] + mp.fsum(a[j][i] * p[j] for j in range(n)) for i in inside])
            try:
                solved = mp.lu_solve(lhs, rhs)
            except (ZeroDivisionError, TypeError):  # mpmath raises TypeError on a zero column
                continue
            for row, i in enumerate(inside):
                p[i] = solved[row]
        has = [cash[i] + mp.fsum(a[j][i] * p[j] for j in range(n)) for i in range(n)]
        tiny = mp.mpf(10) ** -30
        if all((-tiny <= p[i] <= pbar[i] + tiny) if d[i] else has[i] >= pbar[i] - tiny
               for i in range(n)):
            best = p if best is None else [max(u, w) for u, w in zip(best, p)]
    return np.array([float(v) for v in best])


def clear_price_impact(nominal, x, s, f, tol: float = 1e-13, max_iter: int = 1_000_000):
    """Greatest joint fixed point of payments and price for one scenario, iterated from the top.

    x and s are (n,) liquid and illiquid holdings. Each step pays
    min(pbar, x + A'p + pi*s) and reprices at f of what the firms short of
    their obligations out of x + A'p sell at the current price. Starting at
    full payment and f(0), the iterates fall to the greatest fixed point.
    """
    nominal = np.asarray(nominal, dtype=float)
    pbar = nominal.sum(axis=1)
    safe = np.where(pbar > 0, pbar, 1.0)
    a = np.where(pbar[:, None] > 0, nominal / safe[:, None], 0.0)[1:, 1:]
    pbar = pbar[1:]
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    p, pi = pbar.copy(), float(f(0.0))
    for _ in range(max_iter):
        resources = x + a.T @ p
        nxt = np.minimum(pbar, resources + pi * s)
        sold = float(np.sum(np.minimum(np.maximum(pbar - resources, 0.0) / pi, s)))
        nxt_pi = float(f(sold))
        if max(np.max(np.abs(nxt - p)), abs(nxt_pi - pi)) <= tol:
            return nxt, nxt_pi
        p, pi = nxt, nxt_pi
    raise RuntimeError("price-impact clearing iteration did not converge")


@dataclass(frozen=True)
class ClearingResult:
    """Payments of firms 1..n, the clearing price, and iteration diagnostics."""

    p: np.ndarray
    pi: float
    iterations: int
    residual: float


def clear_batch(network, x, s, f, tol: float, max_iter: int):
    """Clear m scenarios at once; x and s are (n, m) liquid/illiquid holdings.

    Returns payments (n, m), prices (m,) and the ClearingStats of the call,
    read from the point the model keeps once samples_at(0) has finished; at
    constant price the point holds no prices, and every price is f(0).
    """
    model = NetworkValueModel(network, ScenarioMatrix(x), ScenarioMatrix(s), f, tol, max_iter)
    model.samples_at(np.zeros(model.groups.n_groups))
    point = model._history[-1]
    m = model.scenarios_x.n_scenarios
    pi = np.full(m, float(f(0.0))) if point.pi is None else point.pi[:m]
    return np.ascontiguousarray(point.p[:, :m]), pi, model.stats


def clear(network, x, s, f, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """The greatest clearing fixed point of one scenario; x and s are per-firm (n,) holdings.

    iterations counts sweeps plus solve rounds, and residual is the stats'
    max_residual.
    """
    x = np.asarray(x, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    p, pi, stats = clear_batch(network, x[:, None], s[:, None], f, tol, max_iter)
    return ClearingResult(p=p[:, 0], pi=float(pi[0]), iterations=stats.sweeps + stats.rounds,
                          residual=stats.max_residual)


def equity(network, x, s, f, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Post-clearing equity of all n+1 nodes; entry 0 is society's intake.

    e_i = inflows + x_i + pi*s_i - pbar_i for firms; society holds no outside
    position, so e_0 is simply the payments it receives.
    """
    x = np.asarray(x, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    result = clear(network, x, s, f, tol, max_iter)
    inflow = network.relative[1:, :].T @ result.p  # (n+1,): payments received by each node
    e = np.empty(network.n_firms + 1)
    e[0] = inflow[0]
    e[1:] = inflow[1:] + x + result.pi * s - network.pbar[1:]
    return e


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

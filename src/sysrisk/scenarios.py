"""Correlated scenario generation: one-factor Gaussian copula with configurable margins.

Scenarios are drawn once per run and then shared by every capital allocation
that gets evaluated (common random numbers). That choice makes the
acceptability oracle a deterministic, monotone function of the allocation,
which the grid search relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import groupby
from typing import Sequence, Union

import numpy as np

from . import _special
from .errors import GenerationError, ParameterError

__all__ = [
    "CopulaSpec",
    "ShiftedLognormal",
    "ScaledBeta",
    "MarginalSpec",
    "ScenarioMatrix",
    "sample_equicorrelated_normals",
    "generate_scenarios",
    "beta_inverse_cdf",
    "write_scenario_csv",
]

_BETA_TOL = 1e-10
# beta_inverse_cdf: table nodes per half, uniform in logit(p) over [-40, 0], and polishing steps
_TABLE_NODES = 129
_TABLE_LOGIT = 40.0
_TABLE_STEP = _TABLE_LOGIT / (_TABLE_NODES - 1)
_TABLE_BISECTIONS = 32  # from the 2**62 bit patterns of [0, 1] to 2**30, 2**-22 of a binade
_NEWTON_STEPS = 2
_NEWTON_BLOCK = 2**13  # values per pass: 0.7 MB of temporaries when u is spread about 1/2, 1.3 MB at most
# generate_scenarios: values per transform call, so that wide rows keep small temporaries
_CHUNK = 2**15


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based: identical streams on every platform for a given seed.
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class CopulaSpec:
    """Equicorrelated Gaussian dependence: corr(Z_i, Z_j) = rho for i != j."""

    n_firms: int
    pairwise_correlation: float
    n_scenarios: int
    seed: int

    def __post_init__(self):
        if self.n_firms < 1:
            raise ParameterError(f"n_firms must be positive, got {self.n_firms}")
        if self.n_scenarios < 1:
            raise ParameterError(f"n_scenarios must be positive, got {self.n_scenarios}")
        if not 0.0 <= self.pairwise_correlation < 1.0:
            # rho = 1 would make the correlation matrix singular.
            raise ParameterError(
                f"pairwise_correlation must lie in [0, 1), got {self.pairwise_correlation}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ParameterError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class ShiftedLognormal:
    """Margin z -> exp(mu + sigma*z) + b, support (b, inf); sigma=0 degenerates to a constant."""

    mu: float
    sigma: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")

    def transform(self, z: np.ndarray) -> np.ndarray:
        # one temporary, so a chunk of generate_scenarios costs one chunk of memory
        t = np.empty(np.shape(z))
        np.multiply(self.sigma, z, out=t)
        t += self.mu
        # an overflow to inf is rejected by ScenarioMatrix as a GenerationError
        with np.errstate(over="ignore"):
            np.exp(t, out=t)
        t += self.b
        return t


@dataclass(frozen=True)
class ScaledBeta:
    """Margin z -> scale * BetaInvCDF(Phi(z); alpha, beta) + shift."""

    alpha: float
    beta: float
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ParameterError("beta shape parameters must be positive")
        if self.scale <= 0:
            raise ParameterError(f"scale must be positive, got {self.scale}")

    def transform(self, z: np.ndarray) -> np.ndarray:
        """Map normals z to the margin, elementwise.

        Phi is _special.ndtr. Each call builds the start table of
        beta_inverse_cdf (2 x 129 nodes bisected, under a millisecond at
        (2, 5)), so a call should carry many values; generate_scenarios
        builds one table per shape pair for all of its calls (see _apply).
        """
        return self._apply(z, _inverse_table(self.alpha, self.beta))

    def _apply(self, z: np.ndarray, table: np.ndarray) -> np.ndarray:
        """transform with the start table of (alpha, beta) given."""
        u = _special.ndtr(z)
        return self.scale * _beta_inverse(u, self.alpha, self.beta, table) + self.shift


MarginalSpec = Union[ShiftedLognormal, ScaledBeta]


class ScenarioMatrix:
    """Immutable firms x scenarios matrix of realized risk-factor values.

    The constructor copies the caller's values, so later writes to them do not
    reach the matrix. The matrices this package builds itself (the generator
    and scaled) hand over a fresh array, or a read-only view of zeros, through
    _take, which wraps it without a copy. Either way the values are checked to
    be 2-D and finite, and they are read-only.
    """

    def __init__(self, values):
        self._own(np.array(values, dtype=float))

    @classmethod
    def _take(cls, arr: np.ndarray) -> "ScenarioMatrix":
        """Wrap a fresh float array that no one else holds, without copying it."""
        matrix = cls.__new__(cls)
        matrix._own(arr)
        return matrix

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise GenerationError(f"scenario values must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise GenerationError("scenario values contain non-finite entries")
        arr.setflags(write=False)
        self.values = arr

    @property
    def n_firms(self) -> int:
        return self.values.shape[0]

    @property
    def n_scenarios(self) -> int:
        return self.values.shape[1]

    def scaled(self, factor: float) -> "ScenarioMatrix":
        """Same draw with every value multiplied by a constant (e.g. liquid/illiquid split).

        A factor of 1 returns the matrix itself: it is immutable, and v * 1.0 == v bit for bit.
        A factor of 0 returns a read-only zero-stride view of +0.0, which allocates nothing.
        """
        if factor < 0:
            raise ParameterError(f"scale factor must be >= 0, got {factor}")
        if factor == 1.0:
            return self
        if factor == 0.0:
            return ScenarioMatrix._take(np.broadcast_to(0.0, self.values.shape))
        return ScenarioMatrix._take(self.values * factor)


def sample_equicorrelated_normals(spec: CopulaSpec) -> np.ndarray:
    """Draw an n x m matrix of standard normals with constant pairwise correlation.

    One-factor construction sqrt(rho)*Z0 + sqrt(1-rho)*Zi: exact for an
    equicorrelation matrix and O(n*m), no Cholesky factor needed. The common
    factor Z0 is drawn first (one value per scenario column), then the
    idiosyncratic block, so streams are reproducible for a given seed. The
    block is scaled and shifted in place.
    """
    rho = spec.pairwise_correlation
    gen = _rng(spec.seed)
    common = gen.standard_normal((1, spec.n_scenarios))
    out = gen.standard_normal((spec.n_firms, spec.n_scenarios))
    out *= np.sqrt(1.0 - rho)
    out += np.sqrt(rho) * common
    return out


def generate_scenarios(
    copula: CopulaSpec,
    group_margins: Sequence[MarginalSpec],
    group_sizes: Sequence[int],
) -> ScenarioMatrix:
    """Sample the copula and apply one margin per firm group.

    The fresh normals are transformed in place and become the matrix. Each
    run of consecutive groups with equal margins is transformed as one
    block, in calls of at most 2**15 values (a call may end inside a row).
    The beta start table is built once per (alpha, beta) of this call and
    shared by every call of every group with those shapes, whatever their
    scale and shift. Every transform is elementwise, so the values equal
    those of transforming each row on its own, bit for bit. Values that are
    not all finite raise GenerationError, whose group attribute is the index
    of the first group with a non-finite value.
    """
    if len(group_margins) != len(group_sizes):
        raise ParameterError("one margin per group required")
    if sum(group_sizes) != copula.n_firms:
        raise ParameterError(
            f"group sizes sum to {sum(group_sizes)}, copula has {copula.n_firms} firms"
        )
    values = sample_equicorrelated_normals(copula)
    flat = values.reshape(-1)
    per_firm = [m for m, size in zip(group_margins, group_sizes) for _ in range(size)]
    inverse_table = cache(_inverse_table)  # one start table per beta shape pair of this draw
    stop = 0
    for margin, rows in groupby(per_firm):
        start, stop = stop, stop + copula.n_scenarios * len(list(rows))
        transform = margin.transform
        if isinstance(margin, ScaledBeta):
            transform = partial(margin._apply, table=inverse_table(margin.alpha, margin.beta))
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            flat[lo:hi] = transform(flat[lo:hi])
    try:
        return ScenarioMatrix._take(values)
    except GenerationError:  # a margin overflowed: name the first group it reached
        row = int(np.argmin(np.isfinite(values).all(axis=1)))
        group = int(np.searchsorted(np.cumsum(group_sizes), row, side="right"))
        error = GenerationError(f"the margin of group {group} gives non-finite values")
        error.group = group
        raise error from None


def _bisect(tail, p: np.ndarray, steps: int) -> np.ndarray:
    """Solve tail(x) = p for p <= 1/2 by bisection on the doubles in [0, 1], elementwise.

    tail is a lower tail of _special, x -> I_x(a, b), bound to its shapes.

    It bisects their bit patterns, ordered as the values and fewer than 2**62,
    so 62 steps end at adjacent doubles and 32 within 2**-22 of a binade.
    Near x = 1 the binomial sum of integer shapes overflows to inf or nan;
    neither is below p, and the midpoint returned is never 1.
    """
    lo = np.zeros(np.shape(p), dtype=np.int64)
    hi = np.full_like(lo, np.float64(1.0).view(np.int64))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            mid = (lo + hi) // 2
            below = tail(mid.view(np.float64)) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    return ((lo + hi) // 2).view(np.float64)


def _inverse_table(alpha: float, beta: float) -> np.ndarray:
    """Inverses at fixed nodes, as logit(x) against logit(p) for p <= 1/2.

    Row 0 holds the lower half of Beta(alpha, beta), row 1 the lower half of
    the reflected Beta(beta, alpha), whose inverse at p is 1 - x at u = 1 - p.
    Each node is bisected to within 2**-22 of its binade (see _bisect): far
    inside the error of interpolating between nodes (5e-4 in logit at
    (2, 5)), which _newton_inverse removes. A node whose inverse underflows
    ends at a subnormal double, with a finite logit near -724.
    """
    p = _special.expit(np.linspace(-_TABLE_LOGIT, 0.0, _TABLE_NODES))
    # both rows in one call per step: in (0, 1), so finite logits
    x = _bisect(partial(_special.lower_tails, alpha, beta), np.stack([p, p]), _TABLE_BISECTIONS)
    return np.log(x / (1.0 - x))


def _newton_inverse(p: np.ndarray, a: float, b: float, nodes: np.ndarray) -> np.ndarray:
    """Solve I_x(a, b) = p for p <= 1/2 by a tabulated start and Newton steps, elementwise.

    The unknown is r = logit(x) and the function G(r) = log I - log p: the
    density of logit(X) is log-concave, so G is concave and increasing, and
    in the tail it is linear (I ~ x^a / (a B)). The start interpolates the
    table row `nodes` linearly in logit(p), below the table along the tail
    slope 1/a. Each step is Newton's, with Halley's second-order
    correction, which G's closed-form derivatives make cheap. Since p <= 1/2,
    I is needed only where it is at most about 1/2: one lower-tail
    evaluation per step. A step works in place on a few buffers, but each
    operation is the one its commented formula names, in the same order, so
    every value is bit for bit that of the formula written out. Only
    elementwise operations are used, so a value does not depend on the other
    values of the call.
    """
    lbeta = _special.betaln(a, b)
    with np.errstate(all="ignore"):  # p = 0 and underflowing I run through as inf/nan
        log_p = np.log(p)
        pos = (log_p - np.log1p(-p) + _TABLE_LOGIT) / _TABLE_STEP
        j = np.clip(np.floor(pos), 0, _TABLE_NODES - 2).astype(np.intp)
        left = nodes[j]
        r = np.where(
            pos < 0,
            left + pos * _TABLE_STEP / a,
            left + (pos - j) * (nodes[j + 1] - left),
        )
        for _ in range(_NEWTON_STEPS):
            v = _special.expit(r)
            log_v = np.log(v)
            cdf = _special.lower_tail(a, b, v)
            log_cdf = np.log(cdf)
            # G'(r) = exp(a log v + b (log v - r) - log B - log I)
            slope = np.subtract(log_v, r)
            slope *= b
            log_v *= a
            slope += log_v
            slope -= lbeta
            slope -= log_cdf
            np.exp(slope, out=slope)
            # step = G / G' / (1 - step G'' / (2 G')), with G''/G' = a - (a+b)v - G'
            step = np.subtract(log_cdf, log_p, out=log_cdf)
            step /= slope
            halley = np.multiply(a + b, v)
            np.subtract(a, halley, out=halley)
            halley -= slope
            np.multiply(0.5, step, out=slope)
            slope *= halley
            np.subtract(1.0, slope, out=slope)
            step /= slope
            np.copyto(step, 0.0, where=~(cdf > 0))
            r -= step
        # expit(r) to second order about the v of the last step: that step corrects the
        # rounded v itself, so only the rounding of this sum remains
        v -= step * v * (1.0 - v) * (1.0 - 0.5 * step * (1.0 - 2.0 * v))
    return v


def _solve_half(p: np.ndarray, a: float, b: float, nodes: np.ndarray, reflect: bool) -> np.ndarray:
    """x with I_x(a, b) = p for p <= 1/2, or 1 - x when reflect, elementwise.

    Newton from the table row `nodes` (see _newton_inverse); p = 0 gives x = 0
    exactly. The residual |I_x(a, b) - p| is taken at the value the caller
    gets back, so on a reflected half at 1 - (1 - x). Where it is not within
    the tolerance, x is replaced by bisection to adjacent doubles (see
    _bisect); a start that underflows or a degenerate table yields nan, and
    a nan residual counts as outside.
    """
    x = _newton_inverse(p, a, b, nodes)
    x[p == 0] = 0.0
    if reflect:
        x = 1.0 - x
    residual = _special.lower_tail(a, b, 1.0 - x if reflect else x)
    residual -= p
    bad = np.flatnonzero(~(np.abs(residual) <= _BETA_TOL))
    if bad.size:
        fallback = _bisect(partial(_special.lower_tail, a, b), p.take(bad), 62)
        x.put(bad, 1.0 - fallback if reflect else fallback)
    return x


def _beta_inverse(u, alpha: float, beta: float, table: np.ndarray):
    """beta_inverse_cdf with its start table given, so that one table serves many calls."""
    u_arr = np.asarray(u, dtype=float)
    if (u_arr < 0).any() or (u_arr > 1).any() or not np.isfinite(u_arr).all():
        raise ParameterError("u must lie in [0, 1]")
    flat = u_arr.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _NEWTON_BLOCK):  # blocks bound the temporaries
        target = flat[start:start + _NEWTON_BLOCK]
        x = out[start:start + _NEWTON_BLOCK]
        is_upper = target > 0.5  # one split per block, into index arrays
        lower, upper = np.flatnonzero(~is_upper), np.flatnonzero(is_upper)
        x.put(lower, _solve_half(target.take(lower), alpha, beta, table[0], False))
        x.put(upper, _solve_half(1.0 - target.take(upper), beta, alpha, table[1], True))
    if u_arr.ndim == 0:
        return float(out[0])
    return out.reshape(u_arr.shape)


def beta_inverse_cdf(u, alpha: float, beta: float):
    """Inverse of the regularized incomplete beta function in its first argument.

    Returns x in [0, 1] with I_x(alpha, beta) = u to absolute residual 1e-10;
    u = 0 gives 0 and u = 1 gives 1 exactly. Each call tabulates 2 x 129
    inverses at fixed nodes in logit space (see _inverse_table). Each block
    of 2**13 values is split once, by index, into u <= 1/2 and u > 1/2. Each
    u > 1/2 is reflected to p = 1 - u (exact in float64) and solved for
    y = 1 - x under Beta(beta, alpha), so that both tails keep full relative
    precision. Every value starts from the table and is polished by two
    Newton steps with Halley's correction (see _newton_inverse): three
    incomplete beta evaluations per value, residual check included. The
    result depends on no other value in u. Where the residual exceeds the
    tolerance, the value is replaced by bisection to adjacent doubles on the
    same half (see _solve_half). Near-degenerate shapes (alpha or beta ~
    0.03) can make the tolerance unattainable in float64 because the CDF
    jumps by more than 1e-10 between adjacent representable x near an
    endpoint; one of the two adjacent doubles that bracket the solution is
    returned in that case.
    """
    if alpha <= 0 or beta <= 0:
        raise ParameterError("beta shape parameters must be positive")
    return _beta_inverse(u, alpha, beta, _inverse_table(alpha, beta))


def write_scenario_csv(scenarios: ScenarioMatrix, path) -> None:
    """Dump a scenario matrix as long-format CSV: firm_id,scenario_id,value."""
    values = scenarios.values
    with open(path, "w") as fh:
        fh.write("firm_id,scenario_id,value\n")
        for i in range(values.shape[0]):
            row = values[i]
            for j in range(values.shape[1]):
                fh.write(f"{i + 1},{j + 1},{float(row[j])!r}\n")

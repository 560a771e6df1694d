"""Correlated scenario generation: one-factor Gaussian copula with configurable margins.

Scenarios are drawn once per run and then shared by every capital allocation
that gets evaluated (common random numbers). That choice makes the
acceptability oracle a deterministic, monotone function of the allocation,
which the grid search relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, GenerationError, ParameterError

__all__ = [
    "CopulaSpec",
    "ShiftedLognormal",
    "ScaledBeta",
    "MarginalSpec",
    "ScenarioMatrix",
    "sample_equicorrelated_normals",
    "apply_marginal",
    "generate_scenarios",
    "beta_inverse_cdf",
    "write_scenario_csv",
]

_BETA_TOL = 1e-10
# beta_inverse_cdf: table nodes per half, uniform in logit(p) over [-40, 0], and polishing steps
_TABLE_NODES = 129
_TABLE_LOGIT = 40.0
_TABLE_STEP = _TABLE_LOGIT / (_TABLE_NODES - 1)
_NEWTON_STEPS = 2
_NEWTON_BLOCK = 2**12  # values per pass, which keeps its twenty-odd temporaries near 0.7 MB
# apply_marginal: values per transform call, so that wide rows keep small temporaries
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
        # one temporary, so a chunk of apply_marginal costs one chunk of memory
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

        beta_inverse_cdf tabulates its start (258 library inverses, well under
        a millisecond) once per call, so a call should carry many values:
        apply_marginal passes up to 2**15 at a time.
        """
        from scipy import special  # imported here, so that start-up does not pay for scipy

        u = special.ndtr(np.asarray(z, dtype=float))
        return self.scale * beta_inverse_cdf(u, self.alpha, self.beta) + self.shift


MarginalSpec = Union[ShiftedLognormal, ScaledBeta]


class ScenarioMatrix:
    """Immutable firms x scenarios matrix of realized risk-factor values.

    The constructor copies the caller's values, so later writes to them do not
    reach the matrix. The matrices this package builds itself (the generator,
    scaled and blended) hand over a fresh array through _take, which
    wraps it without a copy. Either way the values are checked to be 2-D and
    finite, and they are read-only.
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
        """Same draw with every value multiplied by a constant (e.g. liquid/illiquid split)."""
        if factor < 0:
            raise ParameterError(f"scale factor must be >= 0, got {factor}")
        return ScenarioMatrix._take(self.values * factor)

    def blended(self, other: "ScenarioMatrix", alpha: float) -> "ScenarioMatrix":
        """Scenario-wise convex combination alpha * self + (1 - alpha) * other."""
        if self.values.shape != other.values.shape:
            raise ConfigurationError("blending requires scenario matrices of equal shape")
        mixed = alpha * self.values
        mixed += (1.0 - alpha) * other.values
        return ScenarioMatrix._take(mixed)


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


def apply_marginal(normals: np.ndarray, margins: Sequence[MarginalSpec]) -> ScenarioMatrix:
    """Push standard-normal rows through per-firm marginal transforms.

    The input is left unchanged: it is copied once, and the copy is
    transformed in place and becomes the matrix. Each run of consecutive rows
    with equal margins is transformed as one block, in calls of at most 2**15
    values (a call may end inside a row). Every transform is elementwise, so
    the values equal those of transforming each row on its own, bit for bit.
    """
    values = np.array(normals, dtype=float, order="C")
    if values.ndim != 2:
        raise ParameterError(f"normals must be 2-D, got shape {values.shape}")
    if len(margins) != values.shape[0]:
        raise ParameterError(
            f"need one margin per firm: {len(margins)} margins for {values.shape[0]} rows"
        )
    return _transform_rows(values, margins)


def _transform_rows(values: np.ndarray, margins: Sequence[MarginalSpec]) -> ScenarioMatrix:
    """apply_marginal on a fresh C-ordered array that it overwrites and wraps."""
    flat = values.reshape(-1)
    stop = 0
    for margin, rows in groupby(margins):
        start, stop = stop, stop + values.shape[1] * len(list(rows))
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            flat[lo:hi] = margin.transform(flat[lo:hi])
    return ScenarioMatrix._take(values)


def generate_scenarios(
    copula: CopulaSpec,
    group_margins: Sequence[MarginalSpec],
    group_sizes: Sequence[int],
) -> ScenarioMatrix:
    """Sample the copula and apply one margin per firm group."""
    if len(group_margins) != len(group_sizes):
        raise ParameterError("one margin per group required")
    if sum(group_sizes) != copula.n_firms:
        raise ParameterError(
            f"group sizes sum to {sum(group_sizes)}, copula has {copula.n_firms} firms"
        )
    per_firm = [m for m, size in zip(group_margins, group_sizes) for _ in range(size)]
    return _transform_rows(sample_equicorrelated_normals(copula), per_firm)


def _inverse_table(alpha: float, beta: float) -> np.ndarray:
    """Exact inverses at fixed nodes, as logit(x) against logit(p) for p <= 1/2.

    Row 0 holds the lower half of Beta(alpha, beta), row 1 the lower half of
    the reflected Beta(beta, alpha), whose inverse at p is 1 - x at u = 1 - p.
    """
    from scipy import special

    p = special.expit(np.linspace(-_TABLE_LOGIT, 0.0, _TABLE_NODES))
    with np.errstate(divide="ignore"):  # a node inverse may underflow to 0: logit -inf
        return special.logit(
            np.stack([special.betaincinv(alpha, beta, p), special.betaincinv(beta, alpha, p)])
        )


def _newton_inverse(u: np.ndarray, alpha: float, beta: float, table: np.ndarray) -> np.ndarray:
    """Inverse of I_x(alpha, beta) by a tabulated start and Newton steps, elementwise.

    Each u > 1/2 is reflected to p = 1 - u (exact in float64) and solved for
    y = 1 - x under Beta(beta, alpha), so that both tails keep full relative
    precision. The unknown is r = logit(x) (or logit(y)) and the function
    G(r) = log I - log p: the density of logit(X) is log-concave, so G is
    concave and increasing, and in the tail it is linear (I ~ x^a / (a B)).
    The start interpolates the table linearly in logit(p), below the table
    along the tail slope 1/alpha. Each step is Newton's, with Halley's
    second-order correction, which G's closed-form derivatives make cheap.
    Only elementwise operations are used, so a value does not depend on the
    other values of the call.
    """
    from scipy import special

    upper = u > 0.5
    a = np.where(upper, beta, alpha)
    b = np.where(upper, alpha, beta)
    lbeta = special.betaln(alpha, beta)
    with np.errstate(all="ignore"):  # p = 0 and underflowing I run through as inf/nan
        p = np.where(upper, 1.0 - u, u)
        log_p = np.log(p)
        pos = (log_p - np.log1p(-p) + _TABLE_LOGIT) / _TABLE_STEP
        j = np.clip(np.floor(pos), 0, _TABLE_NODES - 2).astype(np.intp)
        side = upper.astype(np.intp)
        left = table[side, j]
        r = np.where(
            pos < 0,
            left + pos * _TABLE_STEP / a,
            left + (pos - j) * (table[side, j + 1] - left),
        )
        for _ in range(_NEWTON_STEPS):
            v = special.expit(r)
            log_v = np.log(v)
            cdf = special.betainc(a, b, v)
            log_cdf = np.log(cdf)
            slope = np.exp(a * log_v + b * (log_v - r) - lbeta - log_cdf)  # G'(r)
            step = (log_cdf - log_p) / slope
            step /= 1.0 - 0.5 * step * (a - (a + b) * v - slope)  # G''/G' = a - (a+b)v - G'
            step = np.where(cdf > 0, step, 0.0)
            r = r - step
        # expit(r) to second order about the v of the last step: that step corrects the
        # rounded v itself, so only the rounding of this sum remains
        v -= step * v * (1.0 - v) * (1.0 - 0.5 * step * (1.0 - 2.0 * v))
    x = np.where(upper, 1.0 - v, v)
    return np.where(u == 0, 0.0, np.where(u == 1, 1.0, x))


def beta_inverse_cdf(u, alpha: float, beta: float):
    """Inverse of the regularized incomplete beta function in its first argument.

    Returns x in [0, 1] with I_x(alpha, beta) = u to absolute residual 1e-10;
    u = 0 gives 0 and u = 1 gives 1 exactly. Each call tabulates 2 x 129
    exact inverses (scipy's betaincinv) at fixed nodes in logit space, starts
    every value from that table and polishes it by two Newton steps with
    Halley's correction (see _newton_inverse), in blocks of 2**12 values:
    three betainc evaluations per value, residual check included. The result
    agrees with betaincinv to about 1e-15 and depends on no other value in
    u. Where the residual exceeds the tolerance, the value is replaced by
    bisection.
    Near-degenerate shapes (alpha or beta ~ 0.03) can make the tolerance
    unattainable in float64 because the CDF jumps by more than 1e-10 between
    adjacent representable x near an endpoint; the closest representable
    solution is returned in that case.
    """
    from scipy import special

    if alpha <= 0 or beta <= 0:
        raise ParameterError("beta shape parameters must be positive")
    u_arr = np.asarray(u, dtype=float)
    if (u_arr < 0).any() or (u_arr > 1).any() or not np.isfinite(u_arr).all():
        raise ParameterError("u must lie in [0, 1]")
    table = _inverse_table(alpha, beta)
    flat = u_arr.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _NEWTON_BLOCK):  # blocks bound the temporaries
        target = flat[start:start + _NEWTON_BLOCK]
        x = out[start:start + _NEWTON_BLOCK]
        x[:] = _newton_inverse(target, alpha, beta, table)
        residual = np.abs(special.betainc(alpha, beta, x) - target)
        # a start that underflows or a degenerate table yields nan; a nan residual must count as bad
        bad = ~(residual <= _BETA_TOL)
        if bad.any():
            lo = np.zeros(np.count_nonzero(bad))
            hi = np.ones_like(lo)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = special.betainc(alpha, beta, mid) < target[bad]
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            x[bad] = 0.5 * (lo + hi)
    if u_arr.ndim == 0:
        return float(out[0])
    return out.reshape(u_arr.shape)


def write_scenario_csv(scenarios: ScenarioMatrix, path) -> None:
    """Dump a scenario matrix as long-format CSV: firm_id,scenario_id,value."""
    values = scenarios.values
    with open(path, "w") as fh:
        fh.write("firm_id,scenario_id,value\n")
        for i in range(values.shape[0]):
            row = values[i]
            for j in range(values.shape[1]):
                fh.write(f"{i + 1},{j + 1},{float(row[j])!r}\n")

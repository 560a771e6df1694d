"""Correlated scenario generation: one-factor Gaussian copula with configurable margins.

Scenarios are drawn once per run and then shared by every capital allocation
that gets evaluated (common random numbers). That choice makes the
acceptability oracle a deterministic, monotone function of the allocation,
which the grid search relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import GenerationError, ParameterError

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
        # an overflow to inf is rejected by ScenarioMatrix as a GenerationError
        with np.errstate(over="ignore"):
            return np.exp(self.mu + self.sigma * np.asarray(z, dtype=float)) + self.b


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
        from scipy import special  # imported here, so that start-up does not pay for scipy

        u = special.ndtr(np.asarray(z, dtype=float))
        return self.scale * beta_inverse_cdf(u, self.alpha, self.beta) + self.shift


MarginalSpec = Union[ShiftedLognormal, ScaledBeta]


class ScenarioMatrix:
    """Immutable firms x scenarios matrix of realized risk-factor values."""

    def __init__(self, values):
        arr = np.array(values, dtype=float)
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
        return ScenarioMatrix(self.values * factor)


def sample_equicorrelated_normals(spec: CopulaSpec) -> np.ndarray:
    """Draw an n x m matrix of standard normals with constant pairwise correlation.

    One-factor construction sqrt(rho)*Z0 + sqrt(1-rho)*Zi: exact for an
    equicorrelation matrix and O(n*m), no Cholesky factor needed. The common
    factor Z0 is drawn first (one value per scenario column), then the
    idiosyncratic block, so streams are reproducible for a given seed.
    """
    rho = spec.pairwise_correlation
    gen = _rng(spec.seed)
    common = gen.standard_normal((1, spec.n_scenarios))
    idiosyncratic = gen.standard_normal((spec.n_firms, spec.n_scenarios))
    return np.sqrt(rho) * common + np.sqrt(1.0 - rho) * idiosyncratic


def apply_marginal(normals: np.ndarray, margins: Sequence[MarginalSpec]) -> ScenarioMatrix:
    """Push standard-normal rows through per-firm marginal transforms."""
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2:
        raise ParameterError(f"normals must be 2-D, got shape {normals.shape}")
    if len(margins) != normals.shape[0]:
        raise ParameterError(
            f"need one margin per firm: {len(margins)} margins for {normals.shape[0]} rows"
        )
    out = np.empty_like(normals)
    for i, margin in enumerate(margins):
        out[i] = margin.transform(normals[i])
    return ScenarioMatrix(out)


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
    normals = sample_equicorrelated_normals(copula)
    return apply_marginal(normals, per_firm)


def beta_inverse_cdf(u, alpha: float, beta: float):
    """Inverse of the regularized incomplete beta function in its first argument.

    Returns x in [0, 1] with I_x(alpha, beta) = u to absolute residual 1e-10.
    The library inverse is polished by bisection where its residual exceeds
    the tolerance. Near-degenerate shapes (alpha or beta ~ 0.03) can make the
    tolerance unattainable in float64 because the CDF jumps by more than
    1e-10 between adjacent representable x near an endpoint; the closest
    representable solution is returned in that case.
    """
    from scipy import special

    if alpha <= 0 or beta <= 0:
        raise ParameterError("beta shape parameters must be positive")
    u_arr = np.asarray(u, dtype=float)
    if (u_arr < 0).any() or (u_arr > 1).any() or not np.isfinite(u_arr).all():
        raise ParameterError("u must lie in [0, 1]")
    x = special.betaincinv(alpha, beta, u_arr)
    residual = np.abs(special.betainc(alpha, beta, x) - u_arr)
    # betaincinv yields nan for subnormal u; a nan residual must count as bad
    bad = ~(residual <= _BETA_TOL)
    if bad.any():
        lo = np.zeros(np.count_nonzero(bad))
        hi = np.ones_like(lo)
        target = u_arr[bad] if u_arr.ndim else u_arr.reshape(1)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = special.betainc(alpha, beta, mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
        if x.ndim:
            x[bad] = mid
        else:
            x = mid[0]
    if u_arr.ndim == 0:
        return float(x)
    return x


def write_scenario_csv(scenarios: ScenarioMatrix, path) -> None:
    """Dump a scenario matrix as long-format CSV: firm_id,scenario_id,value."""
    values = scenarios.values
    with open(path, "w") as fh:
        fh.write("firm_id,scenario_id,value\n")
        for i in range(values.shape[0]):
            row = values[i]
            for j in range(values.shape[1]):
                fh.write(f"{i + 1},{j + 1},{float(row[j])!r}\n")

"""Set-valued systemic risk measurement on capital grids.

The package answers one question: which vectors of group-level capital
make a stochastic financial system acceptable? It builds correlated
scenario sets, turns them into capital-indexed value models (portfolio
aggregation or payment-network clearing with price impact), judges each
outcome with a scalar risk criterion, and searches the capital lattice
for the acceptance frontier, certifying the result to one grid spacing.
"""

from ._version import __version__
from .acceptance import (
    AcceptanceSpec,
    avar,
    bracket_verdict,
    entropic_rho,
    is_acceptable,
    oce_rho,
    rho,
    ubsr,
)
from .aggregation import (
    AggregationSpec,
    AggregationStats,
    AggregationValueModel,
    GroupMap,
)
from .clearing import (
    ClearingStats,
    ConstantPrice,
    LiabilityNetwork,
    LinearCapPrice,
    LinearSqrtPrice,
    NetworkValueModel,
    TabulatedPrice,
    make_inverse_demand,
    read_edge_csv,
    validate_inverse_demand,
    write_edge_csv,
)
from .config import RunPlan, build_run, config_hash, load_config, resolve_config
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateBoxError,
    GenerationError,
    ModelError,
    ParameterError,
    SysriskError,
)
from .netgen import NetworkGenSpec, sample_network
from .presets import preset_config, preset_names
from .riskmeasure import (
    EarResult,
    GridApproximation,
    GridSpec,
    ear,
    ear_record,
    grid_search,
    membership_oracle,
    write_frontier_csv,
    write_labels_csv,
)
from .scenarios import (
    CopulaSpec,
    MarginalSpec,
    ScaledBeta,
    ScenarioMatrix,
    ShiftedLognormal,
    beta_inverse_cdf,
    generate_scenarios,
    sample_equicorrelated_normals,
    write_scenario_csv,
)

__all__ = [
    "__version__",
    # errors
    "SysriskError",
    "ParameterError",
    "GenerationError",
    "ConfigurationError",
    "ModelError",
    "ConvergenceError",
    "DegenerateBoxError",
    # scenarios
    "CopulaSpec",
    "ShiftedLognormal",
    "ScaledBeta",
    "MarginalSpec",
    "ScenarioMatrix",
    "sample_equicorrelated_normals",
    "generate_scenarios",
    "beta_inverse_cdf",
    "write_scenario_csv",
    # acceptance
    "AcceptanceSpec",
    "avar",
    "ubsr",
    "entropic_rho",
    "oce_rho",
    "rho",
    "is_acceptable",
    "bracket_verdict",
    # aggregation
    "GroupMap",
    "AggregationSpec",
    "AggregationStats",
    "AggregationValueModel",
    # clearing
    "LiabilityNetwork",
    "ClearingStats",
    "ConstantPrice",
    "LinearCapPrice",
    "LinearSqrtPrice",
    "TabulatedPrice",
    "make_inverse_demand",
    "validate_inverse_demand",
    "NetworkValueModel",
    "read_edge_csv",
    "write_edge_csv",
    # network generation
    "NetworkGenSpec",
    "sample_network",
    # grid search and rules
    "GridSpec",
    "GridApproximation",
    "EarResult",
    "membership_oracle",
    "grid_search",
    "ear",
    "write_frontier_csv",
    "write_labels_csv",
    "ear_record",
    # configuration
    "RunPlan",
    "load_config",
    "resolve_config",
    "config_hash",
    "build_run",
    "preset_names",
    "preset_config",
]

"""Set-valued systemic risk measurement on capital grids.

The package answers one question: which vectors of group-level capital
make a stochastic financial system acceptable? It builds correlated
scenario sets, turns them into capital-indexed value models (portfolio
aggregation or payment-network clearing with price impact), judges each
outcome with a scalar risk criterion, and searches the capital lattice
for the acceptance frontier, certifying the result to one grid spacing.

The public names are those of the submodules' __all__ lists.
"""

from . import (acceptance, aggregation, clearing, config, errors, netgen, presets, riskmeasure,
               scenarios)
from ._version import __version__
from .acceptance import *  # noqa: F403
from .aggregation import *  # noqa: F403
from .clearing import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import *  # noqa: F403
from .netgen import *  # noqa: F403
from .presets import *  # noqa: F403
from .riskmeasure import *  # noqa: F403
from .scenarios import *  # noqa: F403

__all__ = ["__version__", *(name for module in (acceptance, aggregation, clearing, config, errors,
                                                 netgen, presets, riskmeasure, scenarios)
                             for name in module.__all__)]

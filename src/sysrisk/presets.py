"""Built-in run configurations for the bundled case studies.

Three preset families are provided:

* ``agg_lognormal``: 100 exchangeable lognormal firms in two symmetric
  groups of 50, one of five aggregation value models (``sum``, loss
  with or without capital sensitivity, exponential with or without),
  judged by a log-utility optimized certainty equivalent shifted by -10.
* ``two_tier``: an interbank payment network of 10 large and 90
  small firms with Beta(2, 5) liquid endowments and no illiquid assets,
  fourteen connectivity variants (A1-A4, B1-B4, C1-C6), average value
  at risk at the 1% level on payments to society, shifted by 90% of the
  amount promised to society.
* ``three_tier``: 300 firms in three tiers (10 large, 90 medium, 200
  small) holding a liquid/illiquid asset mix cleared with square-root
  price impact, entropic acceptance at level 0.9, small-firm capital
  pinned to zero; variants sweep the liquid fraction alpha.

A preset is named ``family:variant``, exactly as ``preset_names()`` (and
``sysrisk list-presets``) lists it; no other spelling is accepted. Every
preset carries a fixed default master seed so it is reproducible as-is;
pass a different seed to explore other draws.
"""

from __future__ import annotations

from .errors import ConfigurationError

__all__ = ["preset_names", "preset_config"]

# Lognormal location putting the marginal loss probability at 25% when
# sigma = 1 and the worst loss is -1: the normal quantile at 0.75, written out
# (a test checks it against scipy.special.ndtri).
_MU_Q75 = 0.6744897501960817

_DEFAULT_SEED = 1

_AGG_VARIANTS = ("sum", "loss_insensitive", "loss_sensitive", "exp_insensitive", "exp_sensitive")

# Link probabilities by variant, row-major over (large, small) groups:
# ((q11, q12), (q21, q22)).
_TWO_TIER_Q = {
    "A1": ((0.10, 0.10), (0.10, 0.10)),
    "A2": ((0.90, 0.35), (0.35, 0.04)),
    "A3": ((0.90, 0.50), (0.30, 0.03)),
    "A4": ((1.00, 0.09), (0.09, 0.09)),
    "B1": ((0.60, 0.20), (0.20, 0.30)),
    "B2": ((0.60, 0.20), (0.20, 0.10)),
    "B3": ((0.10, 0.20), (0.20, 0.30)),
    "B4": ((0.10, 0.20), (0.20, 0.10)),
    "C1": ((0.60, 0.20), (0.20, 0.30)),
    "C2": ((0.60, 0.50), (0.50, 0.30)),
    "C3": ((0.60, 0.30), (0.10, 0.30)),
    "C4": ((0.60, 0.60), (0.40, 0.30)),
    "C5": ((0.60, 0.10), (0.30, 0.30)),
    "C6": ((0.60, 0.40), (0.60, 0.30)),
}

_THREE_TIER_VARIANTS = tuple(f"alpha={a:g}" for a in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))


def _agg_lognormal(variant: str) -> dict:
    if variant == "sum":
        kind, mode = "sum", "insensitive"
    else:
        kind, _, mode = variant.partition("_")
    margin = {"type": "shifted_lognormal", "mu": _MU_Q75, "sigma": 1.0, "b": -1.0}
    return {
        "name": f"agg_lognormal:{variant}",
        "seed": _DEFAULT_SEED,
        "scenarios": {
            "count": 10_000,
            "correlation": 0.8,
            "margins": [dict(margin), dict(margin)],
        },
        "model": {
            "type": "aggregation",
            "groups": [50, 50],
            "aggregation": {"kind": kind, "mode": mode},
        },
        "acceptance": {"criterion": "oce", "shift": -10.0},
        "grid": {
            "lower": [0.0, 0.0],
            "upper": [2.0, 2.0],
            "resolution": 50,
        },
        "ear": {"weights": [[1.0, 1.0]]},
        "output": {"directory": f"out/agg_lognormal_{variant}"},
    }


def _two_tier(variant: str) -> dict:
    q = _TWO_TIER_Q[variant]
    return {
        "name": f"two_tier:{variant}",
        "seed": _DEFAULT_SEED,
        "scenarios": {
            "count": 1_000,
            "correlation": 0.5,
            "margins": [
                {"type": "scaled_beta", "alpha": 2.0, "beta": 5.0},
                {"type": "scaled_beta", "alpha": 2.0, "beta": 5.0},
            ],
            "liquid_fraction": 1.0,
        },
        "model": {
            "type": "network",
            "groups": [10, 90],
            "network": {
                "generate": {
                    "probabilities": [list(row) for row in q],
                    "weights": [[10.0, 2.0], [2.0, 1.0]],
                    "society_weights": [10.0, 1.0],
                },
                "inverse_demand": {"type": "constant"},
            },
        },
        "acceptance": {
            "criterion": "avar",
            "lam": 0.01,
            "shift_fraction_of_promised": 0.9,
        },
        "grid": {
            "lower": [0.0, 0.0],
            "upper": [40.0, 40.0],
            "resolution": 40,
            "nonneg": True,
        },
        "ear": {"weights": [[1.0, 1.0], [10.0, 90.0]]},
        "output": {"directory": f"out/two_tier_{variant}"},
    }


def _three_tier(variant: str) -> dict:
    alpha = float(variant.split("=", 1)[1])
    w = 1.0 / 480.0
    return {
        "name": f"three_tier:{variant}",
        "seed": _DEFAULT_SEED,
        "scenarios": {
            "count": 500,
            "correlation": 0.5,
            "margins": [
                {"type": "scaled_beta", "alpha": 2.0, "beta": 5.0,
                 "scale": 0.7, "shift": 0.2},
                {"type": "scaled_beta", "alpha": 2.0, "beta": 5.0,
                 "scale": 0.14, "shift": 0.04},
                {"type": "scaled_beta", "alpha": 2.0, "beta": 5.0,
                 "scale": 0.0035, "shift": 0.001},
            ],
            "liquid_fraction": alpha,
        },
        "model": {
            "type": "network",
            "groups": [10, 90, 200],
            "network": {
                "generate": {
                    "probabilities": [
                        [1.0, 0.8, 0.6],
                        [0.6, 0.4, 0.2],
                        [0.2, 0.05, 0.0],
                    ],
                    "weights": [
                        [10 * w, 3 * w, 3 * w],
                        [3 * w, 2 * w, 2 * w],
                        [w, w, w],
                    ],
                    "society_weights": [10 * w, 2 * w, w],
                },
                "inverse_demand": {"type": "linear_sqrt"},
            },
        },
        "acceptance": {"criterion": "entropic", "level": 0.9},
        "grid": {
            "lower": [0.0, 0.0],
            "upper": [1.5, 1.5],
            "resolution": 30,
            "nonneg": True,
            "fixed": {"3": 0.0},
        },
        "ear": {"weights": [[1.0, 1.0]]},
        "output": {"directory": f"out/three_tier_{variant.replace('=', '')}"},
    }


_FAMILIES = {
    "agg_lognormal": (_agg_lognormal, _AGG_VARIANTS),
    "two_tier": (_two_tier, tuple(_TWO_TIER_Q)),
    "three_tier": (_three_tier, _THREE_TIER_VARIANTS),
}


def preset_names() -> list:
    """Names of all built-in presets, the only names preset_config accepts."""
    return [f"{family}:{v}" for family, (_, variants) in _FAMILIES.items() for v in variants]


def preset_config(name: str) -> dict:
    """Return a fresh config dict for the named preset.

    ``name`` is one of ``preset_names()``; any other name raises
    ConfigurationError.
    """
    family, _, variant = name.partition(":") if isinstance(name, str) else ("", "", "")
    builder, variants = _FAMILIES.get(family, (None, ()))
    if variant not in variants:
        raise ConfigurationError(f"unknown preset {name!r}; `sysrisk list-presets` prints the names")
    return builder(variant)

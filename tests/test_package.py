"""The package's public names: sysrisk.__all__ against its submodules."""

import importlib

import sysrisk
from sysrisk import errors

SUBMODULES = ("acceptance", "aggregation", "clearing", "config", "netgen", "presets",
              "riskmeasure", "scenarios")


def test_package_exports_exactly_the_submodules_public_names():
    # a name deleted from a submodule but still exported, or added but never exported, fails here
    modules = [importlib.import_module(f"sysrisk.{name}") for name in SUBMODULES]
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.SysriskError)}
    expected = set().union(*(module.__all__ for module in modules)) | error_classes | {"__version__"}
    assert len(sysrisk.__all__) == len(set(sysrisk.__all__))
    assert set(sysrisk.__all__) == expected
    for module in modules:
        for name in module.__all__:
            assert getattr(sysrisk, name) is getattr(module, name), name
    namespace = {}
    exec("from sysrisk import *", namespace)
    assert set(sysrisk.__all__) <= set(namespace)

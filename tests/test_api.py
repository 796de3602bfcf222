"""The public names of the package and of its submodules."""

import importlib
import pkgutil

import correlogram

SUBMODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(correlogram.__path__, "correlogram.")
]

# removed from the API: theorem 4 has one entropy integral
# (entropy.entropy_integral) and one report path (bounds.theorem4_report)
DELETED = [
    "EntropyIntegralResult",
    "_covering_table",
    "b_function",
    "greedy_covering_radius",
    "pseudometric_axioms",
    "theorem4_bound",
]


def test_public_names():
    assert len(correlogram.__all__) == len(set(correlogram.__all__))
    for module in [correlogram, *SUBMODULES]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    namespace = {}
    exec("from correlogram import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(correlogram.__all__)
    for module in [correlogram, *SUBMODULES]:
        assert not [name for name in DELETED if hasattr(module, name)], module.__name__

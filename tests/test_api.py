"""The public names of the package and of its submodules."""

import importlib
import pkgutil

import correlogram

SUBMODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(correlogram.__path__, "correlogram.")
]

# removed from the API: theorem 4 has one entropy integral
# (entropy.entropy_integral) and one report path (bounds.theorem4_report);
# every config key lives in config.KEYS; two functions had no caller;
# every built-in kernel lives in kernels.KERNELS, and its evaluators are
# wrapped once by Kernel; a Pseudometric is one array distance, and the
# entropy profile table had no caller; the quadrature settings, which no
# caller set, are module constants, and the bound-method names live in
# bounds alone
DELETED = [
    "EntropyIntegralResult",
    "_covering_table",
    "b_function",
    "greedy_covering_radius",
    "pseudometric_axioms",
    "theorem4_bound",
    "centered_process",
    "rho_upper_uniform",
    "GLOBAL_DEFAULTS",
    "_COMMAND_ONLY_KEYS",
    "_BOUNDS_DEFAULTS",
    "_DEFAULT_METHODS",
    "_cfg_float",
    "_cfg_count",
    "_cfg_positives",
    "_cfg_seed",
    "_cfg_kernel",
    "_cfg_family",
    "_cfg_taus",
    "_cfg_interval",
    "triangular_family",
    "laplace_family",
    "one_sided_box_family",
    "_FAMILY_BUILDERS",
    "_as_float_array",
    "_scalar_ok",
    "default_1d",
    "default_2d",
    "EntropyProfile",
    "entropy_profile",
    "profile_fn",
    "QuadratureSettings",
    "_BOUND_METHODS",
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
        public = [getattr(module, name) for name in getattr(module, "__all__", ())]
        for owner in [module, *(obj for obj in public if isinstance(obj, type))]:
            assert not [name for name in DELETED if hasattr(owner, name)], owner

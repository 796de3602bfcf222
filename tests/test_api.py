"""The public names of the submodules. The package ``correlogram`` holds
only its docstring, and each submodule lists its public names in
``__all__``."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import correlogram
from correlogram import errors

SUBMODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(correlogram.__path__, "correlogram.")
]
SRC = Path(correlogram.__file__).parent

# removed from the API: theorem 4 has one entropy integral
# (entropy.entropy_integral) and one report path (bounds.theorem4_report);
# every config key lives in config.KEYS; two functions had no caller;
# every built-in kernel lives in kernels.KERNELS, and its evaluators are
# wrapped once by Kernel; a Pseudometric is one array distance, and the
# entropy profile table had no caller; the quadrature settings, which no
# caller set, are module constants, and the bound-method names live in
# bounds alone; the package re-exported every submodule, and no caller
# read estimates back or asked for the version; one Simulator draws the
# paths of any number of kernels; theorem 4 uses two pseudometrics, whose
# kind is a free label, and the bound reports hold JSON-native values;
# an estimate is its columns, and the CLI writes the config values beside it;
# a Monte Carlo run takes its checked config view; every domain exception is
# an errors.DomainError, and verify_manifest reads the manifest as JSON;
# the CSV-only ladder writer was write_path_files without binary files;
# the bounds command takes Rice's tail and draws on no auxiliary stream
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
    "read_estimate_csv",
    "__version__",
    "ConditionReport",
    "WeightedSpectralCheck",
    "PairSimulator",
    "uniform_metric",
    "sigma_metric",
    "sqrt_sigma_metric",
    "_KINDS",
    "_invariant",
    "_jsonable",
    "CorrelogramEstimate",
    "ExperimentConfig",
    "_PairWeights",
    "_u_panels",
    "load_manifest",
    "_DOMAIN_ERRORS",
    "write_path_csvs",
    "draw",
    "_AUX_STREAM_OFFSET",
]

# public names that neither another module nor the acceptance suite reads
# yet, each with what will read it
AWAITING_CALLER = {
    "rho_exact_metric": "ROADMAP item 1",
    "pointwise_ci": "ROADMAP item 2",
    "ci_coverage": "ROADMAP item 2",
    "modulus_of_continuity": "ROADMAP item 2",
    "cov_matrix": "ROADMAP item 2",
    "read_path_csv": "ROADMAP item 6",
    "read_path_binary": "ROADMAP item 6",
    "verify_manifest": "the manifest contract of the README",
}


def test_public_names():
    for module in SUBMODULES:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        assert [name for name in names if not hasattr(module, name)] == [], module.__name__
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(names), module.__name__
    for module in [correlogram, *SUBMODULES]:
        public = [getattr(module, name) for name in getattr(module, "__all__", ())]
        for owner in [module, *(obj for obj in public if isinstance(obj, type))]:
            assert not [name for name in DELETED if hasattr(owner, name)], owner


def test_every_domain_error_is_a_domain_error():
    # the CLI exits 1 on DomainError alone, so any other would end in a traceback
    assert [name for name in errors.__all__
            if not issubclass(getattr(errors, name), errors.DomainError)] == []


def test_package_holds_only_its_docstring():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree)


def test_package_imports_only_public_names():
    # underscore helpers shared inside the package are exempt
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = importlib.import_module(f"correlogram.{node.module}")
                missing += [
                    f"{path.stem} imports {node.module}.{alias.name}"
                    for alias in node.names
                    if not alias.name.startswith("_") and alias.name not in source.__all__
                ]
    assert missing == []


def test_one_json_writer_and_one_output_recorder():
    # every JSON file goes through simulate._write_json, and only cli.main
    # records outputs in the manifest: handlers return what they wrote
    def calls(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if isinstance(child, ast.Call):
                func = child.func
                yield getattr(func, "attr", getattr(func, "id", None)), where
            yield from calls(child, inner)

    found = {"dump": [], "add_output": []}
    for path in sorted(SRC.glob("*.py")):
        for name, where in calls(ast.parse(path.read_text(encoding="utf-8")), None):
            if name in found:
                found[name].append(f"{path.stem}.{where}")
    assert found == {"dump": ["simulate._write_json"], "add_output": ["cli.main"]}


def test_every_import_is_used():
    # a name a module imports but never reads is left over from a deletion
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem} imports {name}" for name in sorted(imported - used)]
    assert unused == []


def _defines(stmt, name) -> bool:
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return getattr(stmt, "name", None) == name or any(
        isinstance(t, ast.Name) and t.id == name for t in targets
    )


def _reads(tree, skip=None) -> set:
    """Names, attributes and imported names the module ``tree`` reads,
    outside the top-level statements that define ``skip``."""
    read = set()
    body = [stmt for stmt in tree.body if not _defines(stmt, skip)]
    for node in (n for stmt in body for n in ast.walk(stmt)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_public_names_have_a_caller():
    # a public name nothing reads is API kept for no caller
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }
    reads = {stem: _reads(tree) for stem, tree in trees.items()}
    acceptance = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    acceptance = _reads(ast.parse(acceptance))
    unread, waiting = [], []
    for module in SUBMODULES:
        stem = module.__name__.rpartition(".")[2]
        outside = acceptance.union(*(read for other, read in reads.items() if other != stem))
        for name in module.__all__:
            read = name in outside or name in _reads(trees[stem], skip=name)
            if read and name in AWAITING_CALLER:
                waiting.append(f"{stem}.{name} has a caller")
            elif not read and name not in AWAITING_CALLER:
                unread.append(f"{stem}.{name}")
    public = {name for module in SUBMODULES for name in module.__all__}
    waiting += [f"{name} is not public" for name in AWAITING_CALLER if name not in public]
    assert unread == [] and waiting == []


def test_package_import_loads_no_submodule():
    probe = (
        "import sys, correlogram; "
        "print(sorted(m for m in sys.modules if m.startswith('correlogram.')))"
    )
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

"""Public names: every ``__all__`` entry resolves, and removed paths stay gone.

A stale ``__all__`` entry breaks ``from hhbound.x import *`` and is skipped
without notice by tools that walk ``__all__``. Fixed tolerances, sample counts
and seeds stay fixed: each settable value would be one more configuration to
cover.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import hhbound

MODULES = ["core", "quadrature", "convexity", "bounds", "harness"]

# thin duplicates of paths that stay (lhs_*_at; run_suite over a one-spec x
# sweep; Interval; parse_function's error, which lists the families; calling
# the function; CaseReport, which verify_case returns) and the
# Hermite-Hadamard chain check, which is not one of the rules
REMOVED = [
    "lhs_endpoint",
    "lhs_point",
    "lhs_endpoint_with_error",
    "lhs_point_with_error",
    "CaseTemplate",
    "sweep_x",
    "check_hermite_hadamard",
    "make_interval",
    "registry_families",
    "registry_eval",
    "BoundReport",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hhbound.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_exactly_its_modules_lists():
    modules = [importlib.import_module(f"hhbound.{name}") for name in MODULES]
    names = [n for module in modules for n in module.__all__]
    assert hhbound.__all__ == names and len(names) == 69
    # a later star import would shadow an earlier module's name silently
    assert len(set(names)) == len(names)
    for module in modules:
        for n in module.__all__:
            assert getattr(hhbound, n) is getattr(module, n), n


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert not hasattr(hhbound, name), name
        for module_name in MODULES:
            module = importlib.import_module(f"hhbound.{module_name}")
            assert name not in module.__all__, (module_name, name)
            assert not hasattr(module, name), (module_name, name)


def test_convexity_does_not_depend_on_quadrature():
    import hhbound.convexity as convexity

    assert not hasattr(convexity, "integrate")
    source = Path(convexity.__file__).read_text(encoding="utf-8")
    assert "from .quadrature" not in source


def test_one_sup_norm():
    import hhbound.core as core
    import hhbound.quadrature as quadrature

    assert quadrature.sup_norm is core.sup_norm is hhbound.sup_norm
    assert "sup_norm" in core.__all__ and "sup_norm" not in quadrature.__all__


SIGNATURES = [
    ("integrate", ["fn", "iv", "tol"]),
    ("kernel_K", ["g", "iv", "x", "t"]),
    ("step_weight", ["g", "iv", "x", "t"]),
    ("is_symmetric_about_midpoint", ["g", "iv"]),
    ("reduction_check", ["iv", "n_cases"]),
    ("check_hypothesis", ["pair", "q", "params", "grid"]),
]


@pytest.mark.parametrize("name, params", SIGNATURES)
def test_no_unused_settable_values(name, params):
    assert list(inspect.signature(getattr(hhbound, name)).parameters) == params


def test_finite_difference_check_has_fixed_size():
    method = hhbound.DifferentiablePair.validate_finite_difference
    assert list(inspect.signature(method).parameters) == ["self", "iv"]


def test_cli_reads_no_environment():
    import hhbound.cli as cli

    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert "os.environ" not in source and "HHBOUND_SEED" not in source



def _dotted(node: ast.AST) -> list[str] | None:
    """The names of an attribute chain a.b.c, or None if it does not start
    at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def test_benchmark_reads_only_names_that_exist():
    # the benchmark calls the library through module names; a rename in the
    # library must not leave it reading a name that is gone
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # `import hhbound.core as core` binds core; `import hhbound.cli` binds hhbound
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "hhbound":
                    importlib.import_module(a.name)
                    modules[a.asname or "hhbound"] = a.name if a.asname else "hhbound"
    # the outermost attribute of a chain is the name it reads
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    read = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _dotted(node)
            if chain and chain[0] in modules:
                read[".".join(chain)] = (modules[chain[0]], chain[1:])
    assert {"hhbound.cli.main", "core.BoundCase", "harness.run_suite",
            "quadrature.residual_point_identity"} <= read.keys()
    unresolved = []
    for name, (module, attrs) in sorted(read.items()):
        target = importlib.import_module(module)
        try:
            for attr in attrs:
                target = getattr(target, attr)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


def test_every_tolerance_has_one_row_in_the_readme_table():
    # each module-level _*TOL, _*GATE, _*ULPS or _*MARGIN of src/ is named
    # as module._NAME in the first cell of exactly one row of the table
    root = Path(__file__).resolve().parents[1]
    pattern = re.compile(r"_[A-Z][A-Z_]*(TOL|GATE|ULPS|MARGIN)")
    defined = set()
    for path in (root / "src" / "hhbound").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                defined.update(f"{path.stem}.{t.id}" for t in node.targets
                               if isinstance(t, ast.Name) and pattern.fullmatch(t.id))
    readme = (root / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \|", table, re.M)
    assert len(defined) >= 10 and len(rows) == len(set(rows))
    assert {name for name in rows if pattern.fullmatch(name.split(".")[1])} == defined

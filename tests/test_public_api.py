"""Public names: every ``__all__`` entry resolves, and removed paths stay gone.

A stale ``__all__`` entry breaks ``from hhbound.x import *`` and is skipped
without notice by tools that walk ``__all__``.
"""

import importlib
from pathlib import Path

import pytest

import hhbound

MODULES = ["core", "quadrature", "convexity", "bounds", "harness"]

# thin duplicates of paths that stay (lhs_*_at; run_suite over a one-spec x
# sweep) and the Hermite-Hadamard chain check, which is not one of the rules
REMOVED = [
    "lhs_endpoint",
    "lhs_point",
    "lhs_endpoint_with_error",
    "lhs_point_with_error",
    "CaseTemplate",
    "sweep_x",
    "check_hermite_hadamard",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hhbound.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


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

"""Every name in the `__all__` of `dynds` and of each submodule resolves, so
`from dynds.<module> import *` keeps working when code is deleted, and no
module holds an `assert` statement."""
import ast
import importlib
import pkgutil

import pytest

import dynds

MODULES = ["dynds"] + [f"dynds.{m.name}"
                       for m in pkgutil.iter_modules(dynds.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_exporting_modules_are_covered():
    have = {name for name in MODULES
            if hasattr(importlib.import_module(name), "__all__")}
    assert have >= {"dynds", "dynds.core_geom", "dynds.range_mode",
                    "dynds.colors", "dynds.geom_dyn", "dynds.tensor_ds"}


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    # `python -O` strips assert statements, so a contract check written as
    # one would silently vanish; the library raises explicitly instead
    path = importlib.import_module(name).__file__
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []

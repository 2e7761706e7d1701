import ast
import importlib
import inspect

import pytest


@pytest.mark.parametrize("name", ["matstack", "sysgen", "subid", "faultrec", "harness"])
def test_all_lists_every_public_definition(name):
    # every function and class a module defines without a leading
    # underscore is public, and __all__ names exactly those
    module = importlib.import_module(f"subfault.{name}")
    tree = ast.parse(inspect.getsource(module))
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(module.__all__) == sorted(defined)

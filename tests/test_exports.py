"""The package's export list matches what it binds, and everything it defines has a caller."""

import ast
import types
from pathlib import Path

import fedgs_sim


def test_every_name_in_all_resolves():
    assert len(set(fedgs_sim.__all__)) == len(fedgs_sim.__all__)
    missing = [name for name in fedgs_sim.__all__ if not hasattr(fedgs_sim, name)]
    assert missing == []


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from fedgs_sim import *", namespace)
    assert set(fedgs_sim.__all__) <= namespace.keys()


def test_every_public_binding_is_exported():
    # submodules such as fedgs_sim.fl are bound by importing them, not exported
    public = {
        name
        for name, value in vars(fedgs_sim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fedgs_sim.__all__)


def test_every_public_definition_is_loaded_by_package_code():
    # a public top-level function, class or constant that no module reads (the
    # package's __init__ and import statements aside) serves no run path
    modules = {path.stem: ast.parse(path.read_text()) for path in Path(fedgs_sim.__file__).parent.glob("*.py")}
    del modules["__init__"]
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    defined = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(module, target.id) for target in targets if isinstance(target, ast.Name)}
    unused = sorted(f"{module}.{name}" for module, name in defined if not name.startswith("_") and name not in loaded)
    assert not unused, f"never loaded by package code: {', '.join(unused)}"

"""The package binds no names of its own, and everything its modules define has a caller."""

import ast
import builtins
import subprocess
import sys
from pathlib import Path

import fedgs_sim


def test_importing_the_package_binds_no_public_name():
    # callers import the modules (from fedgs_sim.harness import run_experiment); a fresh
    # interpreter, so that the modules the test suite loaded are not bound on the package
    code = "import fedgs_sim; print(sorted(name for name in vars(fedgs_sim) if not name.startswith('_')))"
    src = str(Path(fedgs_sim.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert done.stdout.strip() == "[]"


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


def test_every_exception_class_is_caught_by_package_code():
    # an error type that no except clause names tells no caller anything a
    # ValueError's message does not; cli.main turns every ValueError into exit 1
    trees = [ast.parse(path.read_text()) for path in Path(fedgs_sim.__file__).parent.glob("*.py")]
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    builtin = {name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)}
    defined: set[str] = set()
    for _ in bases:  # one pass per class reaches the end of any chain of bases
        defined |= {name for name, names in bases.items() if names & (builtin | defined)}
    caught = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for node in ast.walk(handler.type)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    uncaught = sorted(name for name in defined if name not in caught)
    assert not uncaught, f"exception classes no except clause names: {', '.join(uncaught)}"

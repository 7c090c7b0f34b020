"""The benchmark's traced mode wraps package functions by name; keep them there.

perfbench/tracer.py lists every (module, attribute) it wraps in SITES and
fails the traced benchmark run when one is missing. This test reads that
list without importing or changing the benchmark, so that renaming or moving
a wrapped function fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_sites() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "SITES":
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SITES assignment in {TRACER}")


def test_tracer_lists_sites():
    assert len(traced_sites()) >= 20


@pytest.mark.parametrize("module, attr, layer", traced_sites())
def test_traced_site_resolves_to_a_callable(module, attr, layer):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} ({layer})"

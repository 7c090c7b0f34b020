"""The package runs on numpy alone."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import fedgs_sim

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    # a fresh interpreter, so that modules the test suite loaded do not count
    code = (
        "import sys, fedgs_sim, fedgs_sim.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(fedgs_sim.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert done.stdout.strip() == "[]"


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in project["dependencies"]]
    assert names == ["numpy"]

"""Each sonoclass module imports on its own, in a fresh interpreter, and
uses every name it imports.

`import sonoclass.<module>` runs the package's `__init__` first, and its
import order can hide a cycle between two modules. So the child process
registers a bare package object instead and imports the one module under
it; a cycle then fails with an ImportError on a partly initialised module.
`__init__` is left out of both checks: it imports names to re-export them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sonoclass

PACKAGE_DIR = Path(sonoclass.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

ALONE = (
    "import importlib, sys, types\n"
    "package = types.ModuleType('sonoclass')\n"
    "package.__path__ = [sys.argv[1]]\n"
    "sys.modules['sonoclass'] = package\n"
    "importlib.import_module('sonoclass.' + sys.argv[2])\n"
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = subprocess.run(
        [sys.executable, "-c", ALONE, str(PACKAGE_DIR), module],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr



def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (`__future__` imports aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os, numpy.linalg\nfrom a import b as c\nos.sep\n") == [
        "c", "numpy",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE_DIR / f"{module}.py").read_text()) == []

"""Each sonoclass module imports on its own, in a fresh interpreter.

`import sonoclass.<module>` runs the package's `__init__` first, and its
import order can hide a cycle between two modules. So the child process
registers a bare package object instead and imports the one module under
it; a cycle then fails with an ImportError on a partly initialised module.
"""

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


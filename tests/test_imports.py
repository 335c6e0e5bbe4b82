"""Each sonoclass module imports on its own, in a fresh interpreter, uses
every name it imports, and imports only modules of a lower layer.

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


# a module may import only modules of an earlier layer
LAYERS = (
    ("cpus", "errors"),
    ("feature_select", "log_gabor", "wavelet_baseline"),
    ("manifest",),
    ("audio_io",),
    ("spectrogram", "svm"),
    ("config",),
    ("model_io",),
    ("report",),
    ("pipeline",),
    ("cli",),
)
LAYER = {module: i for i, layer in enumerate(LAYERS) for module in layer}


def package_imports(source: str) -> set[str]:
    """The package modules named by a module's relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.partition(".")[0])
            else:
                names.update(a.name for a in node.names)
    return names


def test_package_imports_are_found():
    source = "import os\nfrom os import path\nfrom . import a, b\nfrom .c import d\nfrom .e.f import g\n"
    assert package_imports(source) == {"a", "b", "c", "e"}


def test_every_module_has_a_layer():
    assert sorted(LAYER) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_lower_layers(module):
    imported = package_imports((PACKAGE_DIR / f"{module}.py").read_text())
    assert sorted(m for m in imported if LAYER[m] >= LAYER[module]) == []


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

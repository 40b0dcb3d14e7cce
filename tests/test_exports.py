"""The package's exports name what exists, and its imports stay numpy-only.

Every name in a module's `__all__` must resolve, and every name that
`switchguard/__init__.py` imports from a module must be in that module's
`__all__`, so a deleted function cannot linger as a stale export.
"""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import switchguard

PACKAGE = Path(switchguard.__file__).resolve().parent


def test_every_all_name_resolves():
    modules = [importlib.import_module(f"switchguard.{info.name}")
               for info in pkgutil.iter_modules([str(PACKAGE)]) if info.name != "__main__"]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 0


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]
    assert imports
    for node in imports:
        module = importlib.import_module(f"switchguard.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, \
                f"switchguard imports {alias.name!r} from {node.module}, whose __all__ omits it"
            assert getattr(switchguard, alias.asname or alias.name) is getattr(module, alias.name)


def test_import_loads_no_scipy():
    """The runtime needs numpy alone: a fresh interpreter that imports the
    package and its CLI has loaded no SciPy module."""
    code = ("import sys, switchguard, switchguard.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60,
                          check=True)
    assert done.stdout == "[]\n"

"""The public surface stays consistent with itself.

Every module's __all__ names only what the module defines, and every name
the package root re-exports is in its module's __all__.  Tools that walk
__all__ (the benchmark's tracer wraps each public function it lists) skip
a stale name without a word, so drift has to be caught here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eks_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(eks_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"eks_lab.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in names if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"


def test_package_root_imports_only_public_names():
    tree = ast.parse(Path(eks_lab.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports, "the package root re-exports nothing"
    stray = []
    for node in imports:
        public = importlib.import_module(f"eks_lab.{node.module}").__all__
        stray += [f"{node.module}.{alias.name}" for alias in node.names
                  if alias.name not in public]
    assert stray == [], f"re-exported but not in __all__: {stray}"

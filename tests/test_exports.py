"""The package's public names, and the modules the package imports."""

import ast
import sys
from pathlib import Path

import mds


def test_every_exported_name_resolves():
    missing = [name for name in mds.__all__ if not hasattr(mds, name)]
    assert missing == []


def test_star_import():
    names: dict = {}
    exec("from mds import *", names)
    assert set(mds.__all__) <= set(names)


def test_the_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(mds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports are the package's own
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0]
                        not in sys.stdlib_module_names]
    assert outside == []

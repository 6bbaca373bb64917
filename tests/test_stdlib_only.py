"""The runtime stays standard-library only: every import in the package
is relative or names a standard-library module."""

import ast
import pathlib
import sys

import quatlat


def test_imports_are_relative_or_standard_library():
    sources = sorted(pathlib.Path(quatlat.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, n) for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign

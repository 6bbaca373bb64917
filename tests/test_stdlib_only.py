"""The runtime stays standard-library only: every import in the package
is relative or names a standard-library module, and each stands at the
top of its module, none inside a function.  And the package parses as
the oldest Python that pyproject.toml declares, and importing it loads
neither `dataclasses` nor `inspect`."""

import ast
import os
import pathlib
import re
import subprocess
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


def test_no_function_imports_a_module():
    """A function-level import hides a cycle between modules; the ones
    annotations need stand under `typing.TYPE_CHECKING` instead."""
    sources = sorted(pathlib.Path(quatlat.__file__).parent.glob("*.py"))
    assert sources
    nested = []
    for path in sources:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    (path.name, fn.name, node.lineno)
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not nested


def test_sources_parse_as_the_declared_python_floor():
    root = pathlib.Path(quatlat.__file__).parent
    pyproject = (root.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    sources = sorted(root.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=floor)


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(quatlat.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, quatlat.cli, quatlat.acceptance; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

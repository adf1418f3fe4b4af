"""Every coilsim module imports its dependencies at its top, so an import
cycle among them fails at import time, where a test sees it."""

import ast
from pathlib import Path

import coilsim


def test_no_import_inside_a_function():
    paths = sorted(Path(coilsim.__file__).parent.glob("*.py"))
    assert "config.py" in {p.name for p in paths}
    inner = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        inner += [f"{path.name}:{node.lineno} in {func.name}"
                  for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []

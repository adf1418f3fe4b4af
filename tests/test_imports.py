"""Every coilsim module imports its dependencies at its top, so an import
cycle among them fails at import time, where a test sees it; and takes
from its siblings only their public names, so a private name has one
module that owns it."""

import ast
from pathlib import Path

import coilsim

PATHS = sorted(Path(coilsim.__file__).parent.glob("*.py"))


def test_no_import_inside_a_function():
    assert "config.py" in {p.name for p in PATHS}
    inner = []
    for path in PATHS:
        tree = ast.parse(path.read_text(), filename=str(path))
        inner += [f"{path.name}:{node.lineno} in {func.name}"
                  for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


def test_no_private_name_from_a_sibling():
    # the private module _table is the one exception: the writer its
    # siblings share; `from . import _table` imports the module itself
    private = []
    for path in PATHS:
        tree = ast.parse(path.read_text(), filename=str(path))
        private += [f"{path.name}:{node.lineno} {alias.name} from .{node.module or ''}"
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names
                    if alias.name.startswith("_") and (node.module or alias.name) != "_table"]
    assert private == []

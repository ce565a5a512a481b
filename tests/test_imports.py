"""Every name a top-level import binds in a `treelab` module is read there, so
no import outlives the code that used it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treelab"
#: Bound but never read: the `__future__` flag, and the binding in `solvers`
#: that perfbench's tracer test reads (`perfbench/test_perfbench.py`).
ALLOWED = {"annotations", "solvers.is_minor"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_top_level_import_is_read(path):
    module = ast.parse(path.read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in module.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    unused = [name for name in bound
              if name not in read and not {name, f"{path.stem}.{name}"} & ALLOWED]
    assert unused == [], f"{path.name} imports names it never reads: {unused}"

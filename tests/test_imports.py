"""Static checks on the `treelab` source.  Every name a top-level import binds
in a module is read there, so no import outlives the code that used it; every
private top-level name is read in the package, so no test-only helper hides
in it; and only `embeddings` raises `EmbeddingError`, so one rule decides what
a failed map check means."""

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


MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def _defined_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_top_level_name_is_read_in_the_package():
    # a private helper only the tests call is test-only API: it belongs in
    # tests/conftest.py; a read inside the name's own definition does not count
    reads: dict[str, set[int]] = {}
    for module in MODULES.values():
        for statement in module.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add(id(statement))
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, set()).add(id(statement))
    unread = [f"{stem}.{name}" for stem, module in sorted(MODULES.items())
              for statement in module.body for name in _defined_names(statement)
              if name.startswith("_") and not name.startswith("__")
              and not reads.get(name, set()) - {id(statement)}]
    assert unread == [], f"private names that no code in src/treelab reads: {unread}"


def test_only_embeddings_raises_embedding_error():
    # one rule for a failed map check: `embeddings._require_valid` refuses a map
    # a caller handed in; a map the library built goes to `_require_built`
    makers = sorted({stem for stem, module in MODULES.items() for node in ast.walk(module)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "EmbeddingError"})
    assert makers == ["embeddings"]


def test_records_declare_their_fields_once():
    # a record's fields are its `__slots__`, bound by the one base constructor
    # `trees._Record.__init__`; `Digraph` alone adds a check of its arcs
    classes = [node for module in MODULES.values() for node in ast.walk(module)
               if isinstance(node, ast.ClassDef)]
    records = {"_Record"}
    for _ in classes:  # a class's bases may come later in the walk
        records |= {c.name for c in classes
                    if {getattr(b, "id", getattr(b, "attr", None)) for b in c.bases} & records}
    constructors = sorted(c.name for c in classes if c.name in records - {"_Record"}
                          and any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                                  for f in c.body))
    assert constructors == ["Digraph"]

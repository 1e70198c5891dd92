"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hrgc"

# imported for other modules to read: bench/test_bench.py asserts that
# hmbr.helper_response is hmsr's function
READ_ELSEWHERE = {("hmbr", "helper_response")}


def _exported(tree):
    """The names that a module's ``__all__`` lists."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_every_imported_name_is_used():
    """An imported name that its module never reads is a dead helper left
    behind, unless ``__all__`` exports it or another module reads it."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and (path.stem, name) not in READ_ELSEWHERE:
                    unused.append(f"{path.stem}: {name}")
    assert unused == []

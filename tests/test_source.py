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


CACHES = {"cache", "lru_cache"}


def _process_wide_caches(tree):
    """Where a module keeps state for the life of the process: any
    functools.cache or lru_cache, and an ArgumentParser (or a subclass
    defined in the module) built outside a function body."""
    found = []
    functools_names = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import)
                       for alias in node.names if alias.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"line {node.lineno}: functools.{alias.name}"
                      for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and getattr(node.value, "id", None) in functools_names):
            found.append(f"line {node.lineno}: functools.{node.attr}")
    parsers = {"ArgumentParser"} | {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any("ArgumentParser" in ast.unparse(b) for b in node.bases)}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue      # built per call
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).rsplit(".", 1)[-1]
            if name in parsers:
                found.append(f"line {node.lineno}: module-level {name}")
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_no_process_wide_cache():
    """Nothing is kept between calls: a process-wide table once cost 6.5% of
    the peak RSS, and each command-line call builds only what it uses."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.stem}: {where}" for where in _process_wide_caches(tree)]
    assert found == []


def test_the_cache_scan_catches_each_form():
    caught = {
        "from functools import lru_cache": 1,
        "import functools as ft\n@ft.cache\ndef f(): pass": 1,
        "import functools\nf = functools.lru_cache(maxsize=None)(len)": 1,
        "import argparse\nPARSER = argparse.ArgumentParser()": 1,
        "import argparse\nclass P(argparse.ArgumentParser): pass\nP()": 1,
        "import argparse\nclass C:\n    parser = argparse.ArgumentParser()": 1,
        "import argparse\ndef build():\n    return argparse.ArgumentParser()": 0,
        "from functools import cached_property, reduce": 0,
    }
    for source, n in caught.items():
        assert len(_process_wide_caches(ast.parse(source))) == n, source

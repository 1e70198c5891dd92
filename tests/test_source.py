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


# the public defaults that a caller may leave out: decode's guarantee limit
# and the process's own arguments
NONE_DEFAULTS = {("decoder", "decode", "tau_max"), ("cli", "main", "argv")}


def _is_none_test(node, name, op=(ast.Is, ast.IsNot)):
    """Whether ``node`` is ``name is None`` (or ``is not None``)."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], op)
            and getattr(node.left, "id", None) == name
            and getattr(node.comparators[0], "value", 0) is None)


def _computed_when_none(node, name):
    """Whether ``node`` holds ``name or ...`` or a conditional that is
    ``name`` itself unless ``name`` is None."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.BoolOp) and isinstance(sub.op, ast.Or)
                and getattr(sub.values[0], "id", None) == name):
            return True
        if isinstance(sub, ast.IfExp) and _is_none_test(sub.test, name):
            is_none = _is_none_test(sub.test, name, ast.Is)
            kept = sub.orelse if is_none else sub.body
            if getattr(kept, "id", None) == name:
                return True
    return False


def _none_fallbacks(tree):
    """(function, parameter) for each parameter defaulting to None that its
    own function replaces with a value it computes: ``x = x or f(...)``,
    ``if x is None: x = ...`` and ``x = ... if x is None else x``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):],
                         a.defaults)) + list(zip(a.kwonlyargs, a.kw_defaults))
        for arg, default in pairs:
            if getattr(default, "value", 0) is not None:
                continue
            x = arg.arg
            for node in ast.walk(fn):
                replaced = (
                    isinstance(node, (ast.Assign, ast.AnnAssign))
                    and node.value is not None
                    and _computed_when_none(node.value, x)
                ) or (
                    isinstance(node, ast.If) and _is_none_test(node.test, x)
                    and any(getattr(t, "id", None) == x for stmt in node.body
                            if isinstance(stmt, ast.Assign)
                            for t in stmt.targets))
                if replaced:
                    found.append((fn.name, x))
                    break
    return found


def test_no_parameter_defaults_to_a_value_its_function_computes():
    """Hoisted state is passed, never rebuilt as a fallback: a None default
    that the function replaces gives it a second call shape that only tests
    reach, unless it is one of the documented public defaults."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.stem, *pair) for pair in _none_fallbacks(tree)]
    assert sorted(found) == sorted(NONE_DEFAULTS)


def test_the_fallback_scan_catches_each_form():
    caught = {
        "def f(x=None):\n    x = x or g()": 1,
        "def f(x=None):\n    if x is None:\n        x = g()": 1,
        "def f(x=None):\n    x = g() if x is None else x": 1,
        "def f(x=None):\n    x = tuple(g() if x is None else x)": 1,
        "def f(x=None):\n    n = x if x is not None else g()": 1,
        "def f(y, *, x=None):\n    h = {**(x or g())}": 1,
        "class C:\n    def f(self, x=None):\n        x = x or g()": 1,
        "def f(x=None):\n    y = None if x is None else g(x)": 0,
        "def f(x=None):\n    t = () if x is None else (x,)": 0,
        "def f(x=None):\n    if x is None:\n        return g()": 0,
        "def f(x=None):\n    return [v for v in g() if x is None or v]": 0,
        "def f(x=0):\n    x = x or g()": 0,
        "def f(x):\n    if x is None:\n        x = g()": 0,
    }
    for source, n in caught.items():
        assert len(_none_fallbacks(ast.parse(source))) == n, source


# top-level definitions that no src module names, each with its reason
UNNAMED_IN_SRC = {
    **{(mod, f"{op}_{mode}"): "sim._entry resolves it by getattr"
       for mod, ops in (("hmsr", ("regenerate", "reconstruct")),
                        ("hmbr", ("regenerate_mbr", "reconstruct_mbr")))
       for op in ops for mode in ("plain", "detect", "recover")},
    ("sim", "bandwidth_audit"): "the bench's traffic gate reads it",
    ("linalg", "vec_mat"): "the bench's tracer wraps it by name",
    **{("capability", name): "the paper's closed form, which the "
       "acceptance tests check" for name in (
           "cutset_bound", "msr_point", "mbr_point", "layer_equivalents",
           "recon_capability")},
    ("curve", "encode_column"): "the tests' reference encoder",
}


def _unnamed_definitions(trees):
    """(module, name) for each top-level function and class of ``trees``
    (module -> parsed source) that no module names as a ``Name`` or an
    ``Attribute``; a mention inside a string does not count."""
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name not in named)


def test_every_src_definition_has_a_src_reference():
    """A definition that only tests reach is test-only code in the package:
    delete it with its tests, or state here why it stays."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _unnamed_definitions(trees) == sorted(UNNAMED_IN_SRC)


def test_the_reference_scan_catches_each_form():
    caught = {
        "def f(): pass": ["f"],
        "class C: pass": ["C"],
        "def f(): pass\ng = f": [],
        "def f(): pass\nclass C:\n    def g(self): return self.f": ["C"],
        "def f(): pass\nx = 'f'": ["f"],
        "def f(): pass\nassert 1, 'f applies here'": ["f"],
        "def f():\n    def g(): pass": ["f"],
        "class C:\n    def g(self): pass": ["C"],
    }
    for source, names in caught.items():
        found = _unnamed_definitions({"m": ast.parse(source)})
        assert found == [("m", name) for name in names], source
    # a name in one module counts for a definition in another
    assert _unnamed_definitions({"a": ast.parse("def f(): pass"),
                                 "b": ast.parse("import a\na.f()")}) == []

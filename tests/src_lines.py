"""Source line counts of the package, per module and summed.

Run it on a tree to see how many of its ``src/hrgc`` lines are code:

    python3 tests/src_lines.py [<tree>]

``<tree>`` is a checkout's root (this file's checkout by default).  Each
line of a module counts once, as the first that applies of: docstring (a
line of a module, class or function docstring, found with ``ast``),
code (a line that holds a token other than a comment, found with
``tokenize``; a line that ends in a comment counts here), comment (a line
whose only token is a comment) and blank.  It prints one line per module,
``<module> total=<n> docstring=<n> comment=<n> blank=<n> code=<n>``, and
the sum as module ``src``.  Only the standard library is used; pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("total", "docstring", "comment", "blank", "code")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text):
    """{kind: lines} of one module's source ``text``."""
    doc = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(KINDS, 0)
    for n in range(1, len(text.splitlines()) + 1):
        out["total"] += 1
        kind = ("docstring" if n in doc else "code" if n in code
                else "comment" if n in comment else "blank")
        out[kind] += 1
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tree", nargs="?",
                   default=str(Path(__file__).resolve().parent.parent))
    args = p.parse_args(argv)
    total = dict.fromkeys(KINDS, 0)
    for path in sorted((Path(args.tree) / "src" / "hrgc").glob("*.py")):
        c = counts(path.read_text())
        for kind in KINDS:
            total[kind] += c[kind]
        print(path.stem, " ".join(f"{kind}={c[kind]}" for kind in KINDS))
    print("src", " ".join(f"{kind}={total[kind]}" for kind in KINDS))


if __name__ == "__main__":
    main()

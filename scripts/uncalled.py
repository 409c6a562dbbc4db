#!/usr/bin/env python3
"""Print each function and method of ``src/aggraded`` that nothing names.

A definition is listed, as ``module.qualname``, when its name occurs as an
identifier token nowhere in ``src/aggraded`` (``__init__.py``, whose
re-exports are no caller, left out), in ``scripts/`` or in ``perfbench/``,
its own ``def`` line aside.  Dunder methods are never listed.  A name in a
string, such as a span that ``perfbench`` binds by qualified name, does not
count.  The output is sorted; CI compares it with ``tests/uncalled.txt``, so a
new definition without a caller fails there until it gets one or is pinned::

    python scripts/uncalled.py | diff tests/uncalled.txt -
"""

import ast
import collections
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aggraded"


def _definitions(path):
    """(qualname, name) of each function and method defined in ``path``."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")

    walk(ast.parse(path.read_text()), "")
    return out


def _identifiers(path, counts):
    """Count the identifier tokens of ``path``, less the name after each ``def``."""
    prev = None
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME and prev != "def":
                counts[tok.string] += 1
            prev = tok.string


def main():
    counts = collections.Counter()
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in sources + sorted((ROOT / "scripts").rglob("*.py")) \
            + sorted((ROOT / "perfbench").rglob("*.py")):
        _identifiers(path, counts)
    names = sorted(f"{path.stem}.{qual}" for path in PACKAGE.glob("*.py")
                   for qual, name in _definitions(path)
                   if not (name.startswith("__") and name.endswith("__"))
                   and not counts[name])
    print("\n".join(names))


if __name__ == "__main__":
    main()

"""Every function and method of the package is used somewhere.

A name counts as used when it is referenced (as a name, an attribute, or
a dotted string such as a benchmark entry point) anywhere in src/,
tests/ or perfbench/ outside its own definition.  Dunder methods are
called by the language and are exempt.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fcrystals")


def _sources():
    for top in ("src", "tests", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path) as fh:
                        yield path, ast.parse(fh.read(), path)


def _references(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.split(".")[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")
    return []


def test_no_unused_functions():
    defined = []     # (name, path, first line, last line)
    used = []        # (name, path, line)
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.startswith(PACKAGE) and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.append((node.name, path, node.lineno,
                                    node.end_lineno))
            line = getattr(node, "lineno", None)
            for name in _references(node):
                used.append((name, path, line))
    by_name = {}
    for name, path, line in used:
        by_name.setdefault(name, []).append((path, line))
    unused = []
    for name, path, first, last in defined:
        if not any(p != path or line is None or not first <= line <= last
                   for p, line in by_name.get(name, [])):
            unused.append(f"{os.path.relpath(path, ROOT)}:{first} {name}")
    assert unused == []

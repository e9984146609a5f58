"""Every function and method of the package is used somewhere, every
defaulted parameter is set by some call, every top-level import of a
module is read in it, and no import hides inside a function.

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



# Defaulted parameters that calls set in a way the scan cannot see:
# perfbench's stairs workload calls lang_run through getattr, with the
# datum in position.
SET_OUT_OF_SIGHT = {("lang_run", "datum")}


def _defaulted(tree):
    """(callee, parameter, position, line) for each defaulted parameter of
    the module's functions and methods.  A call with more positional
    arguments than `position` sets it (None: keyword only); a method's
    self or cls is not counted, and __init__ is called by the class name.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            fns = [(node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            fns = [(node.name if fn.name == "__init__" else fn.name, fn,
                    0 if any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list) else 1)
                   for fn in node.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for callee, fn, skip in fns:
            a = fn.args
            pos = a.posonlyargs + a.args
            for i in range(len(pos) - len(a.defaults), len(pos)):
                yield callee, pos[i].arg, i - skip, fn.lineno
            for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    yield callee, arg.arg, None, fn.lineno


def test_every_default_is_set_by_some_call():
    params = []      # (callee, parameter, position, where)
    calls = {}       # callee -> [(positional count, keyword names)]
    for path, tree in _sources():
        if path.startswith(PACKAGE):
            rel = os.path.relpath(path, ROOT)
            params += [(c, arg, at, f"{rel}:{line}")
                       for c, arg, at, line in _defaulted(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _references(node.func)
                star = any(isinstance(x, ast.Starred) for x in node.args)
                calls.setdefault(name[-1] if name else None, []).append(
                    (float("inf") if star else len(node.args),
                     {k.arg for k in node.keywords}))
    unset = [f"{where} {callee}({arg}=...)"
             for callee, arg, at, where in params
             if (callee, arg) not in SET_OUT_OF_SIGHT
             and not any(arg in kws or None in kws
                         or (at is not None and npos > at)
                         for npos, kws in calls.get(callee, []))]
    assert unset == []


def _scope_nodes(fn):
    """The nodes of a function's own scope: nested functions, lambdas and
    classes are cut off, comprehensions are kept."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_local_is_stored_and_never_read():
    """A local name (not starting with "_") that is assigned, unpacked or
    bound by a loop but read nowhere in its function, nested functions
    included, is dead."""
    dead = []
    for path, tree in _sources():
        if not path.startswith(PACKAGE):
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            outer = {n for node in _scope_nodes(fn)
                     if isinstance(node, (ast.Global, ast.Nonlocal))
                     for n in node.names}
            stored = {}
            for node in _scope_nodes(fn):
                if isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store) and node.id not in outer:
                    stored.setdefault(node.id, node.lineno)
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)}
            rel = os.path.relpath(path, ROOT)
            dead += [f"{rel}:{line} {fn.name}: {name}"
                     for name, line in stored.items()
                     if not name.startswith("_") and name not in read]
    assert dead == [], dead


def test_no_module_import_is_unused():
    """A name that a module of the package (not __init__, which
    re-exports) imports at its top level is read somewhere in that
    module."""
    unused = []
    for path, tree in _sources():
        if not path.startswith(PACKAGE) or path.endswith("__init__.py"):
            continue
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported.setdefault(name, node.lineno)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        rel = os.path.relpath(path, ROOT)
        unused += [f"{rel}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == [], unused


def test_no_import_inside_a_function():
    """Modules of the package import at their top level only: the
    intra-package import graph has no cycle, so no import has to wait for
    a call, and a function-local import only hides a dependency."""
    local = set()
    for path, tree in _sources():
        if not path.startswith(PACKAGE):
            continue
        rel = os.path.relpath(path, ROOT)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local |= {f"{rel}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(local) == [], sorted(local)

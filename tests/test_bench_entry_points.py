"""The benchmark's traced entry points still exist on the package.

`perfbench/spans.py` wraps each (module, name) of its ENTRY_POINTS by
name: a function where it is bound, a method through its class's own
`__dict__`, and a class through its own `__init__`.  A rename, a move or
an inherited `__init__` would break `perfbench/run.py --trace 1`, so the
list is read from that file (parsed, not imported) and checked here.
"""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def _entry_points():
    with open(SPANS) as fh:
        tree = ast.parse(fh.read(), SPANS)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "ENTRY_POINTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no ENTRY_POINTS in {SPANS}")


def test_entry_points_resolve_on_the_package():
    points = _entry_points()
    broken = []
    for module, name in points:
        mod = importlib.import_module(f"fcrystals.{module}")
        head, _, attr = name.partition(".")
        obj = getattr(mod, head, None)
        if attr:
            ok = isinstance(obj, type) and callable(obj.__dict__.get(attr))
        elif isinstance(obj, type):
            ok = callable(obj.__dict__.get("__init__"))
        else:
            ok = callable(obj)
        if not ok:
            broken.append(f"{module}.{name}")
    assert ("plinalg", "IntSolver") in points \
        and ("plinalg", "howell_form") in points
    assert broken == []

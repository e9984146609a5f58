"""The benchmark's traced entry points still exist on the package.

`perfbench/spans.py` wraps each (module, name) of its ENTRY_POINTS by
name: a function where it is bound, a method through its class's own
`__dict__`, and a class through its own `__init__`.  A rename, a move or
an inherited `__init__` would break `perfbench/run.py --trace 1`, so the
list is read from that file (parsed, not imported) and checked here.
"""

import ast
import importlib
import importlib.util
import os
import random

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


def _perfbench_arith():
    spec = importlib.util.spec_from_file_location(
        "perfbench_arith", os.path.join(ROOT, "perfbench", "arith.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_matrix_api_the_benchmark_uses():
    """perfbench builds matrices from grids of WittElems, reads them back
    through `entries` (arith.mat_of), and traces these names."""
    from fcrystals import plinalg, semilinear
    from fcrystals.plinalg import Matrix
    from fcrystals.witt import make_witt_ring

    arith = _perfbench_arith()
    rng = random.Random(5)
    for ring in (make_witt_ring(3, 1, 3), make_witt_ring(2, 3, 4)):
        R = arith.Ring.of(ring)
        grid = [[ring.random_element(rng) for _ in range(3)]
                for _ in range(3)]
        M = Matrix(ring, grid)
        assert arith.mat_of(M) == [[e.coeffs for e in row] for row in grid]
        ident = arith.mat_of(Matrix.identity(ring, 3))
        assert ident == [[R.one if i == j else R.zero for j in range(3)]
                         for i in range(3)]
        assert arith.mat_of(M + Matrix.identity(ring, 3)) == [
            [R.add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(arith.mat_of(M), ident)]
        assert arith.mat_of(M @ M) == arith.matmul(
            R, arith.mat_of(M), arith.mat_of(M))
    for name in ("__matmul__", "sigma"):
        assert callable(Matrix.__dict__.get(name)), name
    for name in ("smith_normal_form", "exp_trunc", "unit_inverse_matrix"):
        assert callable(getattr(plinalg, name, None)), name
    assert callable(getattr(semilinear, "solve_circular", None))

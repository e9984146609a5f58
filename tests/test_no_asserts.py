"""No library check relies on `assert`, which `python -O` strips.

Every `assert` statement under src/fcrystals is flagged, the checks of
the built-in verification suite (verify.py) included.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fcrystals")


def test_no_assert_statements_in_the_library():
    found = []
    for dirpath, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Assert):
                    found.append(
                        f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    assert found == []

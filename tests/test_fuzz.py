"""Fuzzing the crystal file reader and the CLI with mutated crystal files.

Each example starts from a valid file and drops keys, swaps values for
JSON values of the wrong type (bools, floats, strings, nested lists), makes
the matrix ragged, or sets ``n`` anywhere up to 300.  The reader must
either return a crystal or raise a ``CrystalError``; ``fcrystals polygon``
must exit 0 or 2, print no traceback, and write either nothing or one JSON
document to stdout.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystals.cli import main
from fcrystals.crystal import PolarizedCrystal, builtin_crystal
from fcrystals.errors import CrystalError
from fcrystals.files import crystal_to_dict, dict_to_crystal
from fcrystals.plinalg import Matrix
from fcrystals.witt import make_witt_ring

FUZZ = settings(derandomize=True, max_examples=200, deadline=None,
                database=None)


def _valid_dicts():
    W = make_witt_ring(2, 2, 3)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    J = Matrix.from_ints(W, [[0, 1], [W.pn - 1, 0]])
    return [crystal_to_dict(C),
            crystal_to_dict(builtin_crystal(make_witt_ring(3, 1, 4),
                                            "supersingular", d=1)),
            crystal_to_dict(PolarizedCrystal(C, J, 1))]


VALID = _valid_dicts()
KEYS = sorted({k for d in VALID for k in d}) + ["stairs", "extra"]

leaves = (st.none() | st.booleans() | st.integers(-3, 300)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.text(max_size=2))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8)


@st.composite
def mutated_dicts(draw):
    data = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=2)):
        data.pop(key, None)
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=2)):
        data[key] = draw(json_values)
    if draw(st.booleans()):
        data["n"] = draw(st.integers(-1, 300))
    for key in ("matrix", "gram"):
        rows = data.get(key)
        if not (isinstance(rows, list) and rows
                and all(isinstance(r, list) and r for r in rows)):
            continue
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["entry", "drop", "row", "none"]))
        if kind == "entry":
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(json_values)
        elif kind == "drop":
            rows[i].pop()
        elif kind == "row":
            rows[i] = draw(json_values)
    return data


@FUZZ
@given(mutated_dicts())
def test_reader_returns_or_raises_crystal_error(data):
    try:
        dict_to_crystal(data)
    except CrystalError:
        pass


@FUZZ
@given(mutated_dicts())
def test_polygon_exits_cleanly_on_mutated_files(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                main(["polygon", path])
            except SystemExit as exc:
                code = exc.code
    finally:
        os.remove(path)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if text:
        assert text.endswith("\n") and text.count("\n") == 1
        json.loads(text)

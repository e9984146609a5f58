"""Fuzzing the crystal file reader and the CLI with mutated crystal files.

Each example starts from a valid file and drops keys, swaps values for
JSON values of the wrong type (bools, floats, strings, nested lists), makes
the matrix ragged, or sets ``n`` anywhere up to 300.  The reader must
either return a crystal or raise a ``CrystalError``; ``fcrystals polygon``
and ``fcrystals hom`` must exit 0 or 2, print no traceback, and write
either nothing or one JSON document to stdout.  ``hom``, ``isom`` and
``probe`` also get valid files with other well-typed p, q, n, shift and
entries, so that their Hom computations and unit scans run; ``isom`` and
``probe`` may exit with any code of the CLI contract (0 to 4).  Stairs blocks get wrong keys and types, or well-typed
values that break the datum; their reader must return a datum or raise a
``CrystalError``, and ``fcrystals stairs`` on them, or on mutated crystal
files, must exit with a code of the contract.  ``fcrystals deviation``
gets tuples (one above the 500-entry cap) and stray text, and ``fcrystals bound`` any mix of its flags
with small, large and over-long numbers; both must exit 0 or 2.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcrystals.cli import main
from fcrystals.crystal import PolarizedCrystal, builtin_crystal
from fcrystals.errors import CrystalError
from fcrystals.files import (
    crystal_to_dict,
    dict_to_crystal,
    dict_to_stairs_datum,
    stairs_datum_to_dict,
)
from fcrystals.plinalg import Matrix
from fcrystals.stairs import build_stairs_datum
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


def _run_main(argv, data):
    """Exit code, stdout and stderr of main(argv) with every "F" in argv
    replaced by a file holding data."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                main([path if a == "F" else a for a in argv])
            except SystemExit as exc:
                code = exc.code
    finally:
        os.remove(path)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, text, err, codes=(0, 2)):
    assert code in codes, err
    assert "Traceback" not in err
    if text:
        assert text.endswith("\n") and text.count("\n") == 1
        json.loads(text)


@FUZZ
@given(mutated_dicts())
def test_polygon_exits_cleanly_on_mutated_files(data):
    _assert_clean_exit(*_run_main(["polygon", "F"], data))


@st.composite
def retuned_dicts(draw):
    """Valid files with well-typed but arbitrary p, q, n, shift and
    matrix entries, so that most of them reach the Hom computation."""
    data = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    if draw(st.booleans()):
        data["p"] = draw(st.sampled_from([2, 3, 5, 7, 9, 11]))
    if draw(st.booleans()):
        data["n"] = draw(st.integers(0, 6))
    if draw(st.booleans()):
        data["shift"] = draw(st.integers(-1, 1))
    q = data["q"] = draw(st.integers(1, 13)) if draw(st.booleans()) \
        else data["q"]
    for key in ("matrix", "gram"):
        if key in data:
            data[key] = [[(e + [0] * q)[:q] for e in row]
                         for row in data[key]]
    rows = data["matrix"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        rows[i][j][draw(st.integers(0, q - 1))] = draw(st.integers(-3, 300))
    return data


@settings(FUZZ, max_examples=100)
@given(retuned_dicts() | mutated_dicts())
def test_hom_exits_cleanly_on_mutated_files(data):
    _assert_clean_exit(*_run_main(["hom", "F", "F"], data))


@FUZZ
@given(retuned_dicts() | mutated_dicts())
def test_isom_exits_cleanly_on_mutated_files(data):
    _assert_clean_exit(*_run_main(["isom", "F", "F"], data),
                       codes=(0, 1, 2, 3, 4))


@FUZZ
@given(retuned_dicts() | mutated_dicts())
def test_probe_exits_cleanly_on_mutated_files(data):
    _assert_clean_exit(*_run_main(["probe", "F", "--trials", "1"], data),
                       codes=(0, 1, 2, 3, 4))


def _stairs_case():
    C = builtin_crystal(make_witt_ring(3, 1, 4), "ordinary", r=2, d=1)
    return C, stairs_datum_to_dict(build_stairs_datum(C))


STAIRS_CRYSTAL, STAIRS = _stairs_case()
STAIRS_KEYS = sorted(STAIRS) + ["extra"]


def _set_leaf(draw, tree, values):
    """Replace one leaf of a nested list (or, sometimes, its parent)."""
    path, node = [], tree
    while isinstance(node, list) and node:
        path.append(draw(st.integers(0, len(node) - 1)))
        node = node[path[-1]]
    if len(path) > 1 and draw(st.booleans()):
        path.pop()
    for i in path[:-1]:
        tree = tree[i]
    tree[path[-1]] = draw(values)


@st.composite
def mutated_stairs(draw):
    """Wrong keys and types, or well-typed values that break the datum."""
    data = json.loads(json.dumps(STAIRS))
    if draw(st.booleans()):
        for key in draw(st.lists(st.sampled_from(STAIRS_KEYS), max_size=2)):
            data.pop(key, None)
        for key in draw(st.lists(st.sampled_from(STAIRS_KEYS), max_size=2)):
            data[key] = draw(json_values)
        for key in ("permutation", "exponents", "signs", "basis"):
            if isinstance(data.get(key), list) and data[key] \
                    and draw(st.booleans()):
                _set_leaf(draw, data[key], json_values)
        return data
    size = len(data["basis"])
    if draw(st.booleans()):
        data["permutation"] = draw(st.permutations(range(size)))
    if draw(st.booleans()):
        data["exponents"][draw(st.integers(0, size - 1))] = \
            draw(st.integers(-3, 3))
    if draw(st.booleans()):
        data["signs"] = [-s for s in data["signs"]]
    if draw(st.booleans()):
        data["torsion"] = draw(st.integers(-2, 9))
    if draw(st.booleans()):
        _set_leaf(draw, data["basis"], st.integers(-2, 90))
    return data


@FUZZ
@given(mutated_stairs())
def test_stairs_reader_returns_or_raises_crystal_error(data):
    try:
        dict_to_stairs_datum(data, STAIRS_CRYSTAL)
    except CrystalError:
        pass


@st.composite
def stairs_files(draw):
    """The stairs crystal with its stairs block or a mutated one, or a
    valid, retuned or mutated crystal file without one, so that `stairs`
    builds the datum."""
    kind = draw(st.sampled_from(["datum", "mutated datum", "file"]))
    if kind == "file":
        return draw(st.sampled_from(VALID) | retuned_dicts()
                    | mutated_dicts())
    data = crystal_to_dict(STAIRS_CRYSTAL)
    data["stairs"] = STAIRS if kind == "datum" else draw(mutated_stairs())
    return data


@settings(FUZZ, max_examples=100)
@given(stairs_files(), st.integers(-1, 5), st.integers(0, 3))
def test_stairs_exits_cleanly_on_mutated_files(data, level, seed):
    argv = ["stairs", "F", "--twist-level", str(level), "--seed", str(seed)]
    _assert_clean_exit(*_run_main(argv, data), codes=(0, 1, 2, 3, 4))


@FUZZ
@example(",".join(["1", "-1"] * 1500))
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8).map(
    lambda tau: ",".join(map(str, tau)))
    | st.text(alphabet="0123456789-, x", max_size=12))
def test_deviation_exits_cleanly(text):
    _assert_clean_exit(*_run_main(["deviation", text], None))


NUMBERS = (st.integers(-3, 600) | st.integers(0, 10 ** 12)).map(str) \
    | st.integers(1, 4500).map(lambda k: "9" * k)


@st.composite
def bound_argvs(draw):
    argv = ["bound"]
    for flag, count in (("--rank", 1), ("--s", 1), ("--h-number", 1),
                        ("--pdiv", 2), ("--polarized", 1), ("--p", 1)):
        if draw(st.booleans()):
            argv += [flag] + [draw(NUMBERS) for _ in range(count)]
    if draw(st.booleans()):
        argv.append("--fam")
    return argv


@FUZZ
@example(["bound", "--rank", "500", "--h-number", "9" * 4000])
@given(bound_argvs())
def test_bound_exits_cleanly(argv):
    _assert_clean_exit(*_run_main(argv, None))

"""Bit-exact JSON files for crystals, polarizations, and stairs data.

Schema (version 1): {"version": 1, "p", "q", "n", "rank", "shift",
"matrix": row-major entries, each entry the list of q coefficients},
optional "gram" (same entry format) with "gram_c", optional "stairs"
block.  Unknown keys are rejected.
"""

import json

from .crystal import FCrystal, PolarizedCrystal
from .errors import BadShape
from .plinalg import Matrix
from .stairs import StairsDatum
from .witt import make_witt_ring

_TOP_KEYS = {"version", "p", "q", "n", "rank", "shift", "matrix",
             "gram", "gram_c", "stairs"}
_STAIRS_KEYS = {"basis", "permutation", "exponents", "torsion", "signs",
                "multiplicative", "unital", "square_zero", "strategy"}
_STAIRS_OPTIONAL = {"square_zero", "strategy"}
# largest precision n of a file: above the smallest nontrivial truncation
# bound (`bound --pdiv 2 1`, 204), while `polygon` on a rank-3 crystal over
# W_256(F_{2^12}) takes under a second (15 s at n = 1000)
MAX_N = 256


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def matrix_to_entries(M: Matrix):
    return [[list(e) for e in row] for row in M._rows()]


def _is_int_list(value):
    return isinstance(value, list) and all(_is_int(x) for x in value)


def entries_to_matrix(ring, rows, cols, entries):
    if not isinstance(entries, list) or len(entries) != rows or any(
            not isinstance(r, list) or len(r) != cols for r in entries):
        raise BadShape("matrix entry shape mismatch")
    if not all(_is_int_list(e) and len(e) == ring.q
               for r in entries for e in r):
        raise BadShape(f"matrix entries must be lists of {ring.q} integers")
    return Matrix.from_flat_ints(ring, rows, cols, [
        c for r in entries for e in r for c in e])


def crystal_to_dict(obj) -> dict:
    pol = None
    if isinstance(obj, PolarizedCrystal):
        pol = obj
        obj = obj.base
    ring = obj.ring
    out = {
        "version": 1,
        "p": ring.p,
        "q": ring.q,
        "n": ring.n,
        "rank": obj.rank,
        "shift": obj.shift,
        "matrix": matrix_to_entries(obj.B),
    }
    if pol is not None:
        out["gram"] = matrix_to_entries(pol.J)
        out["gram_c"] = pol.c
    return out


def dict_to_crystal(data: dict):
    if not isinstance(data, dict):
        raise BadShape("expected a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise BadShape(f"unknown keys: {sorted(unknown)}")
    if not _is_int(data.get("version")) or data["version"] != 1:
        raise BadShape("unsupported or missing version (need 1)")
    for key in ("p", "q", "n", "rank", "shift", "matrix"):
        if key not in data:
            raise BadShape(f"missing key {key!r}")
    for key in ("p", "q", "n", "rank", "shift", "gram_c"):
        if key in data and not _is_int(data[key]):
            raise BadShape(f"{key!r} must be an integer")
    for key in ("q", "n", "rank"):
        if data[key] < 1:
            raise BadShape(f"{key!r} must be at least 1")
    if data["n"] > MAX_N:
        raise BadShape(f"'n' must be at most {MAX_N}")
    ring = make_witt_ring(data["p"], data["q"], data["n"])
    r = data["rank"]
    B = entries_to_matrix(ring, r, r, data["matrix"])
    # entries must already be reduced
    if not all(0 <= c < ring.pn for r in data["matrix"] for e in r for c in e):
        raise BadShape("matrix entries are not reduced")
    C = FCrystal(ring, B, data["shift"])
    if (C.B, C.shift) != (B, data["shift"]):
        raise BadShape("matrix/shift are not in normalized form")
    if "gram" in data:
        J = entries_to_matrix(ring, r, r, data["gram"])
        if "gram_c" not in data:
            raise BadShape("gram needs gram_c")
        return PolarizedCrystal(C, J, data["gram_c"])
    if "gram_c" in data:
        raise BadShape("gram_c without gram")
    return C


def stairs_datum_to_dict(datum) -> dict:
    return {
        "basis": [matrix_to_entries(e) for e in datum.basis],
        "permutation": list(datum.perm),
        "exponents": list(datum.exponents),
        "torsion": datum.torsion,
        "signs": list(datum.signs),
        "multiplicative": datum.multiplicative,
        "unital": datum.unital,
        "square_zero": datum.square_zero,
        "strategy": datum.strategy,
    }


def dict_to_stairs_datum(data: dict, crystal):
    unknown = set(data) - _STAIRS_KEYS
    if unknown:
        raise BadShape(f"unknown stairs keys: {sorted(unknown)}")
    missing = _STAIRS_KEYS - _STAIRS_OPTIONAL - set(data)
    if missing:
        raise BadShape(f"missing stairs keys: {sorted(missing)}")
    if not isinstance(data["basis"], list):
        raise BadShape("stairs 'basis' must be a list of matrices")
    size = len(data["basis"])
    perm = data["permutation"]
    if not _is_int_list(perm) or sorted(perm) != list(range(size)):
        raise BadShape(f"stairs 'permutation' must permute range({size})")
    if not _is_int_list(data["exponents"]) or len(data["exponents"]) != size:
        raise BadShape(f"stairs 'exponents' must be {size} integers")
    if not _is_int(data["torsion"]):
        raise BadShape("stairs 'torsion' must be an integer")
    if not isinstance(data.get("strategy", "file"), str):
        raise BadShape("stairs 'strategy' must be a string")
    ring = crystal.ring
    r = crystal.rank
    basis = [entries_to_matrix(ring, r, r, e) for e in data["basis"]]
    datum = StairsDatum(crystal, basis, list(perm), list(data["exponents"]),
                        data["torsion"], data.get("strategy", "file"))
    # integers only: True == 1 would pass the comparison
    if not _is_int_list(data["signs"]) or data["signs"] != datum.signs:
        raise BadShape(f"stairs 'signs' must be {datum.signs}, the signs of "
                       "the cycles' exponents")
    datum.verify()
    for key in ("multiplicative", "unital", "square_zero"):
        want = getattr(datum, key)
        # identity: 1 == True would pass the comparison
        if data.get(key, want) is not want:
            raise BadShape(f"stairs {key!r} must be {json.dumps(want)}, "
                           "what its basis gives")
    return datum


def write_crystal(path, obj, datum=None):
    data = crystal_to_dict(obj)
    if datum is not None:
        data["stairs"] = stairs_datum_to_dict(datum)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def read_crystal(path, want_datum=False):
    with open(path) as fh:
        data = json.load(fh)
    obj = dict_to_crystal(data)
    if not want_datum:
        return obj
    datum = None
    if "stairs" in data:
        base = obj.base if isinstance(obj, PolarizedCrystal) else obj
        datum = dict_to_stairs_datum(data["stairs"], base)
    return obj, datum

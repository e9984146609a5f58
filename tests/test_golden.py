"""Bit-identity guard for the certified outputs.

Every value below is canonical (lexicographically first unit, Howell
bases, first trivializer in enumeration order), so any change to the
scanners, eliminators or span builders that alters a witness, a JSON
document or a decision shows up here.  The expected values live in
`golden.json` next to this file.
"""

import contextlib
import io
import json
import os
import random

import fcrystals.cli
from fcrystals.bounds import epsilon_p
from fcrystals.crystal import (
    PolarizedCrystal,
    builtin_crystal,
    new_crystal,
    random_twist,
)
from fcrystals.files import matrix_to_entries, stairs_datum_to_dict, \
    write_crystal
from fcrystals.plinalg import Matrix, smith_normal_form, unit_inverse_matrix
from fcrystals.semilinear import sigma_conjugacy_trivialize
from fcrystals.stairs import (
    _fixed_datum,
    build_stairs_datum,
    lang_run,
    stairs_algebra_run,
    stairs_run,
    thirds_family_certificate,
)
from fcrystals.witt import make_witt_ring
from test_truncation import (
    _span_has_unit_outside,
    aut_image_stabilization_check,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden.json")


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            fcrystals.cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    return {"exit": code, "stdout": json.loads(text) if text else None}


def _random_unit(ring, r, rng):
    while True:
        u = Matrix(ring, [[ring.random_element(rng) for _ in range(r)]
                          for _ in range(r)])
        if not any(smith_normal_form(u)):
            return u


def _conjugate(C, u):
    return new_crystal(C.ring, u @ C.B @ unit_inverse_matrix(u.sigma()), 0)


def _cli_outputs(d):
    rng = random.Random(11)
    out = {}

    def path(name, obj, datum=None):
        p = os.path.join(d, name + ".json")
        write_crystal(p, obj, datum)
        return p

    W24 = make_witt_ring(2, 2, 4)
    ss = builtin_crystal(W24, "supersingular", d=1)
    ordi = builtin_crystal(W24, "ordinary", r=2, d=1)
    ss_conj = _conjugate(ss, _random_unit(W24, 2, rng))
    f_ss, f_ord, f_ssc = path("ss", ss), path("ord", ordi), \
        path("ssc", ss_conj)
    out["hom ss ssc"] = _cli(["hom", f_ss, f_ssc])
    out["hom ord ss prec 2"] = _cli(["hom", f_ord, f_ss, "--prec", "2"])
    out["isom ss ssc"] = _cli(["isom", f_ss, f_ssc])
    out["isom ord ss"] = _cli(["isom", f_ord, f_ss])

    # polarized: an integral conjugate of the polarized ordinary crystal,
    # with det(u) != 1 so that the identity is not the witness
    W3 = make_witt_ring(3, 1, 3)
    O3 = builtin_crystal(W3, "ordinary", r=2, d=1)
    J = Matrix.from_ints(W3, [[0, 1], [-1, 0]])
    u = Matrix.from_ints(W3, [[2, 1], [1, 0]])
    ui = unit_inverse_matrix(u)
    P1 = PolarizedCrystal(O3, J, 1)
    P2 = PolarizedCrystal(_conjugate(O3, u), ui.transpose() @ J @ ui, 1)
    out["isom polarized"] = _cli(["isom", path("p1", P1), path("p2", P2)])
    W234 = make_witt_ring(2, 3, 4)
    P = builtin_crystal(W234, "polarized_4_5_4", alpha=1)
    fp = path("p454", P)
    out["isom polarized_4_5_4"] = _cli(["isom", fp, fp, "--prec", "2"])

    stored = builtin_crystal(make_witt_ring(5, 1, 6), "ordinary", r=3, d=1)
    f_st = path("stored", stored, build_stairs_datum(stored))
    out["stairs stored"] = _cli(["stairs", f_st, "--twist-level", "1",
                                 "--seed", "4"])
    ss25 = builtin_crystal(make_witt_ring(2, 2, 5), "supersingular", d=1)
    out["stairs ss base change"] = _cli(
        ["stairs", path("ss25", ss25), "--twist-level", "4", "--seed", "1"])
    iso = builtin_crystal(make_witt_ring(2, 3, 5), "isoclinic_3_3_6",
                          r=3, c=2)
    out["stairs isoclinic"] = _cli(
        ["stairs", path("iso", iso), "--twist-level", "4", "--seed", "2"])

    for name, (p, q, n), fam, kw in (
            ("etale", (3, 1, 6), "ordinary", {"r": 2, "d": 0}),
            ("ordinary", (3, 1, 6), "ordinary", {"r": 2, "d": 1}),
            ("supersingular", (3, 2, 4), "supersingular", {"d": 1})):
        C = builtin_crystal(make_witt_ring(p, q, n), fam, **kw)
        out[f"probe {name}"] = _cli(["probe", path(name, C), "--trials",
                                     "2", "--seed", "3"])
    return out


def _library_outputs():
    out = {}
    rng = random.Random(4)
    for p, q, r in ((2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 1, 2)):
        F = make_witt_ring(p, q, 1)
        for k in range(2):
            g = _random_unit(F, r, rng)
            x, big, D = sigma_conjugacy_trivialize(g)
            out[f"sigma_conjugacy {p} {q} {r} #{k}"] = {
                "x": matrix_to_entries(x), "degree": big.q, "D": D}
    rng = random.Random(5)
    for p, q, n, fam, kw in ((2, 2, 2, "supersingular", {"d": 1}),
                             (3, 2, 2, "supersingular", {"d": 1}),
                             (3, 1, 1, "ordinary", {"r": 2, "d": 0})):
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, fam, **kw)
        for k in range(2):
            if n == 1:
                g = _random_unit(ring, 2, rng)
            else:
                g = Matrix.identity(ring, 2) + Matrix(ring, [
                    [ring.random_element(rng) * p for _ in range(2)]
                    for _ in range(2)])
            cert = lang_run(C, g)
            out[f"lang_run {p} {q} {n} {fam} #{k}"] = {
                "witness": matrix_to_entries(cert.witness),
                "level": cert.level, "extension": cert.extension}

    for p, q, n, fam, kw in ((2, 2, 4, "supersingular", {"d": 1}),
                             (3, 2, 4, "supersingular", {"d": 1}),
                             (2, 1, 4, "ordinary", {"r": 2, "d": 1})):
        C = builtin_crystal(make_witt_ring(p, q, n), fam, **kw)
        dat = _fixed_datum(C)
        out[f"fixed datum {p} {q} {n} {fam}"] = \
            None if dat is None else stairs_datum_to_dict(dat)
    cert = thirds_family_certificate(make_witt_ring(2, 3, 4), alpha=1)
    out["thirds certificate"] = json.loads(json.dumps(cert))

    cases = [(2, 2, 7, "supersingular", {"d": 1}, 0),
             (3, 1, 7, "ordinary", {"r": 2, "d": 1}, 1),
             (3, 1, 7, "ordinary", {"r": 1, "d": 0}, 0)]
    out["aut_image_stabilization"] = [
        aut_image_stabilization_check(
            builtin_crystal(make_witt_ring(p, q, n), fam, **kw), t)
        for p, q, n, fam, kw, t in cases]
    # coset scans: E21 + span(E12) holds units, E11 + span(E12) does not
    O = builtin_crystal(make_witt_ring(3, 2, 2), "ordinary", r=2, d=1)
    e11, e12, e21 = ([1 if k == c else 0 for k in range(8)] for c in (0, 2, 4))
    out["span_has_unit_outside"] = [
        _span_has_unit_outside(O, [e12, e21], [e12], 2),
        _span_has_unit_outside(O, [e11, e12], [e12], 2)]
    return out


def _engine_outputs():
    """Certificates of the stairs engine on the stairs-witness families:
    a -1 cycle (ordinary, p = 2), solution fields of degree D = 2 and
    D = 3, and the W_3(F_5) algebra runs whose circular systems reach the
    end of the field table."""
    out = {}
    for family, kw, (p, q, n), kind in (
            ("ordinary", {"r": 2, "d": 1}, (2, 1, 4), "general"),
            ("ordinary", {"r": 2, "d": 1}, (3, 1, 2), "general"),
            ("supersingular", {"d": 1}, (2, 2, 5), "general"),
            ("supersingular", {"d": 1}, (3, 2, 4), "lattice"),
            ("isoclinic_3_3_6", {"r": 3, "c": 2}, (2, 3, 5), "general"),
            ("isoclinic_3_3_6", {"r": 3, "c": 2}, (3, 3, 4), "lattice")):
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, family, **kw)
        datum = build_stairs_datum(C)
        level = 2 * datum.torsion + epsilon_p(p)
        for seed in range(2):
            rng = random.Random(seed)
            if kind == "general":
                g = random_twist(ring, C.rank, level, rng)
            else:
                g = Matrix.identity(ring, C.rank) + datum.combine([
                    ring.element([rng.randrange(ring.pn) * p ** level
                                  for _ in range(q)])
                    for _ in datum.basis])
            out[f"stairs_run {family} {p} {q} {n} #{seed}"] = \
                _certificate(stairs_run(C, g, datum))
    for p, q, n, j in ((3, 1, 3, 1), (5, 1, 3, 1)):
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, "ordinary", r=2, d=1)
        datum = build_stairs_datum(C)
        for seed in range(2):
            g = random_twist(ring, C.rank, j, random.Random(seed))
            out[f"stairs_algebra_run ordinary {p} {q} {n} #{seed}"] = \
                _certificate(stairs_algebra_run(C, g, datum))
    return out


def _certificate(cert):
    R = cert.ring
    return {"witness": matrix_to_entries(cert.witness), "level": cert.level,
            "ring": [R.p, R.q, R.n], "extension": cert.extension}


def current_outputs(d):
    return {"cli": _cli_outputs(d), "library": _library_outputs(),
            "engine": _engine_outputs()}


def test_outputs_match_golden(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(current_outputs(str(tmp_path))))
    for part in ("cli", "library", "engine"):
        assert sorted(got[part]) == sorted(golden[part])
        for key in golden[part]:
            assert got[part][key] == golden[part][key], key

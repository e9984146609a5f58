import hashlib
import json
import random
from dataclasses import replace

import pytest

from fcrystals.bounds import epsilon_p
from fcrystals.crystal import builtin_crystal, new_crystal, random_twist
from fcrystals.errors import (
    BadShape,
    CrystalError,
    ExtensionCapExceeded,
    PreconditionTooWeak,
    SingularAtPrecision,
    UnsupportedShape,
)
from fcrystals.files import read_crystal, write_crystal
from fcrystals.plinalg import (
    IntSolver,
    Matrix,
    smith_normal_form,
    unit_inverse_matrix,
)
from fcrystals.semilinear import (
    fixed_lattice,
    hom_module,
    sigma_conjugacy_trivialize,
)
from fcrystals import semilinear, stairs
from fcrystals.stairs import (
    StairsDatum,
    _block_diag_datum,
    _fixed_datum,
    _matrix_unit_datum,
    _select_w_basis,
    _structure_constants,
    build_stairs_datum,
    fixed_datum,
    lang_run,
    stairs_algebra_run,
    stairs_run,
    thirds_family_certificate,
)
from fcrystals.witt import make_witt_ring


def _general_twist(ring, r, level, rng):
    delta = Matrix(ring, [
        [ring.random_element(rng) * ring.p ** level for _ in range(r)]
        for _ in range(r)])
    return Matrix.identity(ring, r) + delta


def test_monomial_datum_ordinary():
    W = make_witt_ring(3, 1, 4)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    d = build_stairs_datum(C)
    assert d.strategy == "monomial"
    assert d.torsion == 0 and d.multiplicative and d.unital
    d.verify()


def test_monomial_datum_supersingular():
    W = make_witt_ring(2, 2, 4)
    SS = builtin_crystal(W, "supersingular", d=1)
    d = build_stairs_datum(SS)
    assert d.strategy == "monomial" and d.torsion == 1
    d.verify()


def test_datum_falls_back_to_the_fixed_lattice():
    # supersingular(d=1) conjugated by u = [[1, 1], [0, 1]] is not monomial,
    # but its End has slope 0, so the fixed points give the datum
    W = make_witt_ring(3, 2, 4)
    SS = builtin_crystal(W, "supersingular", d=1)
    u = Matrix.from_ints(W, [[1, 1], [0, 1]])
    d = build_stairs_datum(new_crystal(
        W, u @ SS.B @ unit_inverse_matrix(u.sigma())))
    assert (d.strategy, d.torsion) == ("fixed", 1)
    assert d.unital and d.multiplicative
    d.verify()


def test_unsupported_shape():
    # ordinary(r=2, d=1) conjugated by [[1, 1], [0, 1]]: not monomial, and
    # its End has nonzero slopes, so no fixed lattice spans it
    W = make_witt_ring(2, 1, 4)
    F = new_crystal(W, Matrix.from_ints(W, [[1, 1], [0, 2]]))
    with pytest.raises(UnsupportedShape):
        build_stairs_datum(F)


def test_fixed_datum_waits_for_the_cubic_field():
    # isoclinic_3_3_6(r=3, c=2) over W_4(F_2): the fixed points of End have
    # free rank 1, 1, 3, 1, 1, 3 over F_(2^D), D = 1..6, so a test that
    # stops once the free rank stops growing would give up at D = 2; the
    # datum first exists over F_8
    W = make_witt_ring(2, 1, 4)
    C = builtin_crystal(W, "isoclinic_3_3_6", r=3, c=2)
    free = [fixed_lattice(C.base_change(make_witt_ring(2, D, 4)))[0]
            .rank_free() for D in range(1, 7)]
    assert free == [1, 1, 3, 1, 1, 3]
    d = _fixed_datum(C)
    assert (d.crystal.ring.q, d.torsion, d.strategy) == (3, 1, "fixed")
    assert len(d.basis) == 9 and d.multiplicative and d.unital
    d.verify()


def test_fixed_datum_walks_past_equal_howell_row_counts():
    """B = [[1, 0], [t, 2]] over W_3(F_49): the fixed points of End have 2
    Howell rows at degrees 1 and 2, and the first full selection comes at
    degree 3, over F_(7^6), within the walk's degree bound."""
    W = make_witt_ring(7, 2, 3)
    C = new_crystal(W, Matrix.from_flat_ints(W, 2, 2,
                                             [1, 0, 0, 0, 0, 1, 2, 0]))
    d = _fixed_datum(C)
    assert (d.crystal.ring.q, d.torsion, d.strategy) == (6, 2, "fixed")
    assert d.verify()


def test_extension_is_measured_against_the_input_field():
    """The same crystal over F_49 with its datum over F_(7^6): both stairs
    runs report extension 3 = 6 / 2, the input's residue degree below."""
    W = make_witt_ring(7, 2, 3)
    C = new_crystal(W, Matrix.from_flat_ints(W, 2, 2,
                                             [1, 0, 0, 0, 0, 1, 2, 0]))
    g = Matrix.identity(W, 2)
    assert stairs_run(C, g).extension == 3
    assert stairs_algebra_run(C, g).extension == 3


@pytest.mark.parametrize("run, family, kw, q, g", [
    (stairs_run, "ordinary", {"r": 3, "d": 1}, 1, [[5, 4], [0, 1]]),
    (stairs_algebra_run, "ordinary", {"r": 3, "d": 1}, 1, [[5, 4], [0, 1]]),
    (lang_run, "supersingular", {"d": 1}, 2,
     [[5, 4, 0], [0, 1, 0], [0, 0, 1]]),
])
def test_a_twist_of_the_wrong_size_is_an_input_error(run, family, kw, q, g):
    """g = 1 mod 4 of another size than the crystal's rank."""
    W = make_witt_ring(2, q, 4)
    with pytest.raises(BadShape, match="twist must be"):
        run(builtin_crystal(W, family, **kw), Matrix.from_ints(W, g))


def test_precondition():
    W = make_witt_ring(2, 2, 5)
    SS = builtin_crystal(W, "supersingular", d=1)
    d = build_stairs_datum(SS)
    rng = random.Random(0)
    weak = _general_twist(W, 2, 1, rng)  # below 2m + eps_2 = 4
    with pytest.raises(PreconditionTooWeak):
        stairs_run(SS, weak, d)


def _inverse_reverify(cert):
    """The conjugation identity through the exact inverse of sigma(w)."""
    w, B = cert.witness, cert.crystal.B
    diff = w @ cert.twist @ B @ unit_inverse_matrix(w.sigma()) - B
    return diff.is_zero() or diff.min_valuation() >= cert.level


def test_reverify_is_sharp_at_the_level():
    """A witness moved by p^level X still conjugates g phi to phi mod
    p^level, one moved by p^(level - 1) X does not; a corrupted witness
    fails and a non-unit one raises, as through the exact inverse."""
    rng = random.Random(16)
    for (p, q, n), fam, kw in (((2, 1, 4), "ordinary", {"r": 2, "d": 1}),
                               ((2, 2, 5), "supersingular", {"d": 1})):
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, fam, **kw)
        datum = build_stairs_datum(C)
        g = _general_twist(ring, 2, 2 * datum.torsion + epsilon_p(p), rng)
        cert = stairs_run(C, g, datum)
        big, w = cert.ring, cert.witness
        assert cert.level == n and cert.reverify()
        X = Matrix(big, [[big.random_element(rng) for _ in range(2)]
                         for _ in range(2)])
        for level in range(2, n + 1):
            for k, ok in ((level, True), (level - 1, False)):
                moved = replace(cert, level=level,
                                witness=w + X.scale(p ** k))
                assert moved.reverify() is ok, (p, level, k)
                assert _inverse_reverify(moved) is ok
        shear = Matrix.from_ints(big, [[1, 1], [0, 1]])
        corrupt = replace(cert, witness=w @ shear)
        assert corrupt.reverify() is False
        assert _inverse_reverify(corrupt) is False
        singular = replace(cert, witness=w.scale(p))
        for check in (singular.reverify, lambda: _inverse_reverify(singular)):
            with pytest.raises(SingularAtPrecision):
                check()


def test_identity_twist():
    W = make_witt_ring(3, 1, 4)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    cert = stairs_run(C, Matrix.identity(W, 2))
    assert cert.witness == Matrix.identity(W, 2)
    assert cert.level == 4 and cert.reverify()


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2)])
def test_stairs_ordinary(p, n):
    ring = make_witt_ring(p, 1, n)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = build_stairs_datum(C)
    n0 = 2 * datum.torsion + epsilon_p(p)
    rng = random.Random(1)
    for _ in range(6):
        g = _general_twist(ring, 2, n0, rng)
        cert = stairs_run(C, g, datum)
        assert cert.reverify()
        assert cert.level == cert.ring.n


@pytest.mark.parametrize("p", [2, 3])
def test_stairs_supersingular(p):
    n0 = 2 * 1 + epsilon_p(p)
    ring = make_witt_ring(p, 2, n0 + 1)
    SS = builtin_crystal(ring, "supersingular", d=1)
    datum = build_stairs_datum(SS)
    rng = random.Random(2)
    for _ in range(4):
        if p == 2:
            g = _general_twist(ring, 2, n0, rng)
        else:
            co = [ring.random_element(rng) * p ** n0 for _ in datum.basis]
            g = Matrix.identity(ring, 2) + datum.combine(co)
        cert = stairs_run(SS, g, datum)
        assert cert.reverify()
        assert cert.level > n0


@pytest.mark.parametrize("p", [2, 3])
def test_algebra_stairs_ordinary(p):
    ring = make_witt_ring(p, 1, 3)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = build_stairs_datum(C)
    rng = random.Random(3)
    for _ in range(4):
        g = _general_twist(ring, 2, 1, rng)
        cert = stairs_algebra_run(C, g, datum)
        assert cert.reverify() and cert.level == 3


@pytest.mark.parametrize("p", [2, 3])
def test_lang_supersingular(p):
    # p = 3 runs can exhaust the field table (the residue trivializer and
    # the follow-up digit both extend); at least half the witnesses land
    ring = make_witt_ring(p, 2, 2)
    SS = builtin_crystal(ring, "supersingular", d=1)
    rng = random.Random(4)
    ok = 0
    for _ in range(6):
        g = _general_twist(ring, 2, 1, rng)
        try:
            cert = lang_run(SS, g)
        except ExtensionCapExceeded:
            continue
        assert cert.reverify()
        ok += 1
    assert ok >= 3


def test_lang_etale_any_unit():
    # at precision 1 the residue trivializer is the whole witness; it
    # exists inside the table for every unit (element orders are small)
    ring = make_witt_ring(3, 1, 1)
    ET = builtin_crystal(ring, "ordinary", r=2, d=0)
    rng = random.Random(5)
    for _ in range(4):
        while True:
            g = Matrix(ring, [[ring.random_element(rng) for _ in range(2)]
                              for _ in range(2)])
            if not any(smith_normal_form(g)):
                break
        cert = lang_run(ET, g)
        assert cert.reverify() and cert.level == 1


def test_lang_stops_at_the_field_table():
    # the fixed-lattice search over W_2(F_49) runs into the end of the
    # table (no F_{7^12}) before finding a full lattice
    W = make_witt_ring(7, 2, 2)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    g = Matrix.identity(W, 2) + Matrix.scalar(W, 2, 7)
    with pytest.raises(UnsupportedShape):
        lang_run(C, g)


@pytest.mark.parametrize("p, q, n", [(3, 1, 4), (2, 2, 3), (5, 1, 3)])
def test_lang_reads_fixedness_off_the_datum(p, q, n):
    """The monomial datum of ordinary(r=2, d=1) labelled "fixed" is
    refused, since its arrows scale the off-diagonal units; that of the
    etale ordinary(r=2, d=0), whose arrows fix every unit, is taken."""
    ring = make_witt_ring(p, q, n)
    rng = random.Random(p * q)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = replace(build_stairs_datum(C), strategy="fixed")
    for _ in range(3):
        with pytest.raises(UnsupportedShape):
            lang_run(C, _general_twist(ring, 2, 1, rng), datum)
    ET = builtin_crystal(ring, "ordinary", r=2, d=0)
    datum = build_stairs_datum(ET)
    assert lang_run(ET, datum.random_twist(1, rng), datum).reverify()


def test_lang_takes_the_block_fixed_datum(monkeypatch):
    """The span's units are decided on the residues of its basis: the
    block-fixed datum has 18 elements, yet every determinant scanned,
    the Lang search's included, is 6 x 6."""
    scan, sizes = semilinear._scan_range, []

    def recorded(ring, rows, r, base=None):
        sizes.append(r)
        return scan(ring, rows, r, base)

    monkeypatch.setattr(semilinear, "_scan_range", recorded)
    ring = make_witt_ring(2, 3, 4)
    C0 = builtin_crystal(ring, "phi_alpha_4_5", alpha=0)
    datum, _ = _block_diag_datum(C0, 3)
    g = datum.random_twist(1, random.Random(3))
    assert len(datum.basis) == 18
    assert lang_run(C0, g, datum).reverify()
    assert sizes and set(sizes) == {6}


def test_lang_refuses_a_twist_that_is_not_a_unit():
    """x g = sigma(x) with x a unit makes g one, so a singular g is an
    input error before any field is tried, on the span and on matrices
    alike; so is a g that is not square."""
    W = make_witt_ring(3, 1, 1)
    g = Matrix.from_ints(W, [[1, 1], [1, 1]])
    with pytest.raises(BadShape, match="not a unit"):
        lang_run(builtin_crystal(W, "ordinary", r=2, d=0), g)
    with pytest.raises(BadShape, match="not a unit"):
        sigma_conjugacy_trivialize(g)
    with pytest.raises(BadShape, match="square"):
        sigma_conjugacy_trivialize(Matrix.from_ints(W, [[1, 0, 0],
                                                        [0, 1, 0]]))


def test_stairs_agrees_with_unit_search():
    from fcrystals.semilinear import isom_search
    ring = make_witt_ring(3, 1, 2)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = build_stairs_datum(C)
    rng = random.Random(6)
    for _ in range(3):
        g = _general_twist(ring, 2, 1, rng)
        cert = stairs_run(C, g, datum)
        assert cert.reverify()
        res = isom_search(cert.crystal, cert.crystal.twist(cert.twist))
        assert res.witness is not None


def test_thirds_family_certificate():
    cert = thirds_family_certificate(make_witt_ring(2, 3, 4), alpha=1)
    assert cert["upper"] == 3
    assert cert["components"]["upper_block"]["s_values"] == [0, 0, 1]
    assert cert["components"]["lower_block"]["square_zero"]
    assert cert["components"]["diagonal_blocks"]["torsions"] == (1, 1)
    assert all(v >= 1 for v in cert["evidence"].values())


def test_datum_verify_rejects_corruption():
    W = make_witt_ring(3, 1, 4)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    d = build_stairs_datum(C)
    bad = StairsDatum(crystal=C, basis=d.basis, perm=list(d.perm),
                      exponents=[e + 1 for e in d.exponents],
                      torsion=d.torsion, strategy=d.strategy)
    with pytest.raises(BadShape):
        bad.verify()


def _tail_datum(torsion):
    """Over W_8(F_2) with B = 1, the basis with flat coordinates
    (2,1,0,0), (0,4,0,0), (0,0,1,0), (0,0,0,1): its Howell pivots are 2
    and 4, yet 4 E_11 lies outside the span (8 E_11 inside), so its
    lattice exponent is 3."""
    W = make_witt_ring(2, 1, 8)
    C = new_crystal(W, Matrix.identity(W, 2))
    basis = [Matrix.from_flat_ints(W, 2, 2, flat) for flat in
             ([2, 1, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])]
    return StairsDatum(C, basis, [0, 1, 2, 3], [0] * 4, torsion, "file")


def test_datum_torsion_is_the_largest_smith_exponent():
    assert _tail_datum(2).coordinate_solver().exps == [0, 0, 0, 3]
    with pytest.raises(BadShape, match="p\\^m End"):
        _tail_datum(2).verify()
    assert _tail_datum(3).verify()
    # an empty basis spans nothing, whatever the torsion: refused when
    # the datum is made
    with pytest.raises(BadShape, match="nonempty basis"):
        replace(_tail_datum(7), basis=[], perm=[], exponents=[])


@pytest.mark.parametrize("p, found", [(3, None), (5, (12, 1, True))])
def test_fixed_datum_refuses_a_span_that_is_not_full(p, found):
    """isoclinic_3_3_6(r=3, c=2) over W_2(F_(p^2)): at degree 3 the nine
    selected fixed elements have a Howell pivot in every column, yet their
    W-span holds no p End (a Smith exponent 2), so the walk goes on."""
    C = builtin_crystal(make_witt_ring(p, 2, 2), "isoclinic_3_3_6", r=3, c=2)
    CD = C.base_change(make_witt_ring(p, 6, 2))
    assert _select_w_basis(hom_module(CD, CD), CD) is None
    d = _fixed_datum(C)
    assert (d and (d.crystal.ring.q, d.torsion, d.multiplicative)) == found


def _certificate_fields(cert):
    return (cert.witness, cert.level, cert.ring, cert.extension,
            cert.crystal, cert.twist)


def test_base_change_is_memoized_per_ring():
    # stairs on ordinary(r=2, d=1) over W_4(F_2) base-changes to F_4 or F_16
    ring = make_witt_ring(2, 1, 4)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = build_stairs_datum(C)
    fresh = build_stairs_datum(C)
    g = _general_twist(ring, 2, 2 * datum.torsion + epsilon_p(2),
                       random.Random(5))
    first = stairs_run(C, g, datum)
    assert first.extension > 1 and datum._base_changes
    for big in list(datum._base_changes):
        assert datum.base_change(big) is datum.base_change(big)
    # a second run on the filled memo certifies exactly as the first, and
    # as a run on a datum with an empty memo
    again = stairs_run(C, g, datum)
    assert _certificate_fields(again) == _certificate_fields(first)
    assert _certificate_fields(stairs_run(C, g, fresh)) == \
        _certificate_fields(first)
    # the memo is a cache: it does not take part in equality
    assert datum._base_changes and datum == build_stairs_datum(C)


def test_memoized_base_change_equals_a_fresh_one():
    ring = make_witt_ring(2, 1, 4)
    datum = build_stairs_datum(builtin_crystal(ring, "ordinary", r=2, d=1))
    for q in (2, 4):
        big = make_witt_ring(2, q, 4)
        memo = datum.base_change(big)
        memo.coordinate_solver()
        ref = replace(datum, crystal=datum.crystal.base_change(big),
                      basis=[e.embed(big) for e in datum.basis],
                      _solver=None, _base_changes={})
        assert (memo.crystal, memo.basis) == (ref.crystal, ref.basis)
        new, old = memo.coordinate_solver(), ref.coordinate_solver()
        assert (new.exps, new._log, new._rt) == (old.exps, old._log, old._rt)


def test_fixed_datum_memo_hit_equals_a_fresh_crystal(monkeypatch):
    # the lang_run crystal of the stairs-witness benchmark, and a crystal
    # the Newton certificate proves not isoclinic (a kept None)
    C = builtin_crystal(make_witt_ring(2, 2, 2), "supersingular", d=1)
    N = builtin_crystal(make_witt_ring(2, 3, 4), "phi_alpha_4_5", alpha=1)
    assert C.fixed_memo == () and N.fixed_memo == ()
    datum = fixed_datum(C)
    assert C.fixed_memo == (datum,) and fixed_datum(N) is None
    assert N.fixed_memo == (None,)
    fresh = new_crystal(C.ring, C.B, C.shift)
    assert fresh.fixed_memo == () and _fixed_datum(fresh) == datum
    prods = datum.product_coords()
    assert _structure_constants(datum) == _structure_constants(
        _fixed_datum(fresh))

    def walked(*args):
        raise AssertionError("a memo hit computed again")

    kept = []

    def constants(d):
        kept.append(d._products is prods)
        return _structure_constants(d)

    monkeypatch.setattr(stairs, "_fixed_datum", walked)
    monkeypatch.setattr(stairs, "_structure_constants", constants)
    assert fixed_datum(C) is datum and fixed_datum(N) is None
    g = Matrix.identity(C.ring, 2) + Matrix.from_ints(C.ring,
                                                      [[0, 2], [2, 0]])
    assert lang_run(C, g).reverify() and kept == [True]


def test_derived_crystals_start_without_a_fixed_datum():
    C = builtin_crystal(make_witt_ring(2, 2, 4), "supersingular", d=1)
    datum = fixed_datum(C)
    assert C.fixed_memo == (datum,) and datum is not None
    for D in (C.twist(Matrix.identity(C.ring, 2)),
              C.reduce_to(make_witt_ring(2, 2, 3)),
              C.base_change(make_witt_ring(2, 4, 4))):
        assert D.fixed_memo == ()
    datum.product_coords()
    assert datum.base_change(make_witt_ring(2, 4, 4))._products is None


# sha256 of `_engine_outputs()` as the general-basis engine printed it:
# every stairs, algebra and lang run of the corpus below keeps its
# witness, level and extension (or its error) bit for bit
ENGINE_DIGEST = \
    "2eed918aa236ce06ac0fd7162e258403931b9811c67b50dd3457f0d7982399ff"


def _engine_corpus():
    """(label, run, C, g, datum): the stairs-witness families and r = 3
    over W_6(F_5) and W_4(F_2), with general and lattice twists (seed 3
    one level short of the threshold); algebra runs, with p = 2 at j = 1
    (the plain step and its unit inverse) and j = 0 (refused), and q = 2
    base changes; lang on the fixed datum of supersingular over W_2(F_4).
    """
    for fam, kw, (p, q, n), kind in (
            ("ordinary", {"r": 2, "d": 1}, (2, 1, 4), "general"),
            ("ordinary", {"r": 2, "d": 1}, (3, 1, 2), "general"),
            ("supersingular", {"d": 1}, (2, 2, 5), "general"),
            ("supersingular", {"d": 1}, (3, 2, 4), "lattice"),
            ("isoclinic_3_3_6", {"r": 3, "c": 2}, (2, 3, 5), "general"),
            ("isoclinic_3_3_6", {"r": 3, "c": 2}, (3, 3, 4), "lattice"),
            ("ordinary", {"r": 3, "d": 1}, (5, 1, 6), "general"),
            ("ordinary", {"r": 3, "d": 1}, (2, 1, 4), "general"),
            ("ordinary", {"r": 2, "d": 1}, (3, 2, 3), "general")):
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, fam, **kw)
        datum = build_stairs_datum(C)
        level = 2 * datum.torsion + epsilon_p(p)
        for seed in range(4):
            rng = random.Random(seed)
            if kind == "general":
                g = random_twist(ring, C.rank, level - (seed == 3), rng)
            else:
                g = Matrix.identity(ring, C.rank) + datum.combine([
                    ring.element([rng.randrange(ring.pn) * p ** level
                                  for _ in range(q)]) for _ in datum.basis])
            yield f"stairs {fam} {p} {q} {n} #{seed}", stairs_run, C, g, datum
    for fam, kw, (p, q, n), levels in (
            ("ordinary", {"r": 2, "d": 1}, (3, 1, 3), (1, 2)),
            ("ordinary", {"r": 2, "d": 1}, (5, 1, 3), (1,)),
            ("ordinary", {"r": 3, "d": 1}, (5, 1, 6), (1, 3)),
            ("ordinary", {"r": 3, "d": 1}, (2, 1, 4), (0, 1, 2)),
            ("ordinary", {"r": 2, "d": 1}, (2, 2, 4), (1, 2))):
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, fam, **kw)
        datum = build_stairs_datum(C)
        for j in levels:
            for seed in range(3):
                g = random_twist(ring, C.rank, j, random.Random(seed))
                yield (f"algebra {fam} {p} {q} {n} j{j} #{seed}",
                       stairs_algebra_run, C, g, datum)
    ring = make_witt_ring(2, 2, 2)
    C = builtin_crystal(ring, "supersingular", d=1)
    for seed in range(3):
        g = random_twist(ring, 2, 1, random.Random(seed))
        yield f"lang supersingular 2 2 2 #{seed}", lang_run, C, g, None


def _engine_outcome(run, C, g, datum):
    try:
        cert = run(C, g, datum)
    except CrystalError as exc:
        return type(exc).__name__
    return [list(cert.witness.flat), cert.level, cert.extension]


def _engine_outputs(monkeypatch):
    out = {label: _engine_outcome(run, C, g, datum)
           for label, run, C, g, datum in _engine_corpus()}
    # the thirds family over W_4(F_8) and W_4(F_64): its certificate and
    # the outcome of each algebra run inside it (square-zero blocks and
    # the block-diagonal fixed lattice)
    inner = []
    real = stairs.stairs_algebra_run

    def recorded(C, g, datum):
        inner.append(_engine_outcome(real, C, g, datum))
        return real(C, g, datum)

    monkeypatch.setattr(stairs, "stairs_algebra_run", recorded)
    for q in (3, 6):
        cert = thirds_family_certificate(make_witt_ring(2, q, 4), alpha=1)
        out[f"thirds 2 {q} 4"] = [cert, inner[:]]
        inner.clear()
    return out


def test_engine_outputs_match_the_pinned_digest(monkeypatch):
    out = _engine_outputs(monkeypatch)
    assert len(out) == 67
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ENGINE_DIGEST


def _solver_coords(datum, X):
    """The coordinates of X read off the datum's `IntSolver`."""
    sol = datum.coordinate_solver().solve(X.flat)
    if sol is None:
        return None
    ring = datum.crystal.ring
    q = ring.q
    return [ring.element(sol[l * q:l * q + q])
            for l in range(len(datum.basis))]


def _matrix_unit_data(tmp_path):
    """A full monomial datum with a rescaled unit, a square-zero block of
    the thirds family (9 of 36 cells), and a datum read from a file whose
    strategy string says nothing of its shape."""
    SS = builtin_crystal(make_witt_ring(3, 2, 4), "supersingular", d=1)
    full = build_stairs_datum(SS)
    ring = make_witt_ring(2, 3, 4)
    C0 = builtin_crystal(ring, "phi_alpha_4_5", alpha=0)
    block, _ = _matrix_unit_datum(C0, C0.B, [(i, j) for i in (0, 1, 2)
                                             for j in (3, 4, 5)])
    I3 = builtin_crystal(make_witt_ring(3, 1, 3), "isoclinic_3_3_6",
                         r=3, c=2)
    path = tmp_path / "datum.json"
    write_crystal(path, I3, datum=replace(build_stairs_datum(I3),
                                          strategy="fixed"))
    _, read = read_crystal(path, want_datum=True)
    return full, block, read


def test_matrix_unit_coords_match_the_solver(tmp_path):
    rng = random.Random(8)
    data = _matrix_unit_data(tmp_path)
    assert data[0].torsion == 1 and data[2].strategy == "fixed"
    for datum in data:
        assert datum._units is not None
        ring, r = datum.crystal.ring, datum.crystal.rank
        seen = set()
        for v in range(ring.n + 1):
            pv = ring.p ** v
            for _ in range(6):
                inside = datum.combine([ring.random_element(rng) * pv
                                        for _ in datum.basis])
                anywhere = Matrix(ring, [[ring.random_element(rng) * pv
                                          for _ in range(r)]
                                         for _ in range(r)])
                for X in (inside, anywhere, inside + anywhere):
                    ys = datum.coords(X)
                    assert ys == _solver_coords(datum, X)
                    seen.add(ys is None)
        assert seen == {True, False}


def test_cell_flags_match_the_solver_route(tmp_path):
    """`unital`, `multiplicative` and `square_zero` from integer checks on
    the cells equal those of the same data on the solver route, on the
    data above, on 2 E_11, E_12, E_21, E_22 over W_8(F_2) with B = 1,
    whose diagonal holds a rescaled unit, so 1 and E_12 E_21 leave the
    span, and on 2 E_12, 2 E_23 over W_2(F_2) with B = 1, whose product
    4 E_13 is zero at the precision though E_13 is outside the span."""
    W = make_witt_ring(2, 1, 8)
    C = new_crystal(W, Matrix.identity(W, 2))
    basis = [Matrix.from_flat_ints(W, 2, 2, flat) for flat in
             ([2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])]
    rescaled = StairsDatum(C, basis, [0, 1, 2, 3], [0] * 4, 1, "file")
    assert rescaled.verify()
    W = make_witt_ring(2, 1, 2)
    basis = [Matrix.from_flat_ints(W, 3, 3, [2 * (t == k) for t in range(9)])
             for k in (1, 5)]
    vanishing = StairsDatum(new_crystal(W, Matrix.identity(W, 3)), basis,
                            [0, 1], [0, 0], 1, "file")
    assert vanishing.verify(full_end=False)
    seen = set()
    for datum in (*_matrix_unit_data(tmp_path), rescaled, vanishing):
        general = replace(datum, _flags=None)
        general._units = None
        flags = (datum.unital, datum.multiplicative, datum.square_zero)
        assert datum._units is not None
        assert flags == (general.unital, general.multiplicative,
                         general.square_zero)
        seen.add(flags)
    assert seen == {(True, True, False), (False, True, True),
                    (False, False, False)}


def _counted_engine(monkeypatch):
    """Lists of the `IntSolver.solve` calls and of the row counts of the
    `exp_trunc` arguments made from here on."""
    solves, sizes = [], []
    solve, exp = IntSolver.solve, stairs.exp_trunc

    def counted_solve(self, b):
        solves.append(len(b))
        return solve(self, b)

    def counted_exp(X):
        sizes.append(X.rows)
        return exp(X)

    monkeypatch.setattr(IntSolver, "solve", counted_solve)
    monkeypatch.setattr(stairs, "exp_trunc", counted_exp)
    return solves, sizes


def test_matrix_unit_data_take_the_cell_route(monkeypatch):
    # odd p, so every round is a product of exponentials: ordinary over
    # W_2(F_3) (base change to F_27), and lattice twists on supersingular
    # over W_4(F_9) and isoclinic_3_3_6(3, 2) over W_4(F_27).  The
    # diagonal factors take the series on their cell, not exp_trunc
    solves, sizes = _counted_engine(monkeypatch)
    cells, series = [], stairs.exp_series
    monkeypatch.setattr(stairs, "exp_series", lambda ring, c, mul: (
        cells.append(c) or series(ring, c, mul)))
    rng = random.Random(9)
    for fam, kw, (p, q, n) in (
            ("ordinary", {"r": 2, "d": 1}, (3, 1, 2)),
            ("supersingular", {"d": 1}, (3, 2, 4)),
            ("isoclinic_3_3_6", {"r": 3, "c": 2}, (3, 3, 4))):
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, fam, **kw)
        datum = build_stairs_datum(C)
        level = 2 * datum.torsion + epsilon_p(p)
        for _ in range(3):
            g = _general_twist(ring, C.rank, level, rng)
            if datum.torsion:
                g = Matrix.identity(ring, C.rank) + datum.combine([
                    ring.random_element(rng) * p ** level
                    for _ in datum.basis])
            assert stairs_run(C, g, datum).reverify()
    assert solves == [] and sizes == [] and cells


def test_a_fixed_datum_takes_the_general_route(monkeypatch):
    W = make_witt_ring(3, 2, 4)
    SS = builtin_crystal(W, "supersingular", d=1)
    u = Matrix.from_ints(W, [[1, 1], [0, 1]])
    C = new_crystal(W, u @ SS.B @ unit_inverse_matrix(u.sigma()))
    datum = replace(build_stairs_datum(C), strategy="monomial")
    assert datum._units is None
    solves, sizes = _counted_engine(monkeypatch)
    g = _general_twist(W, 2, 2 * datum.torsion + 1, random.Random(10))
    assert stairs_run(C, g, datum).reverify()
    assert solves and 2 in sizes

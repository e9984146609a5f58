import random
from dataclasses import replace

import pytest

from fcrystals.bounds import epsilon_p
from fcrystals.crystal import builtin_crystal, new_crystal
from fcrystals.errors import (
    BadShape,
    ExtensionCapExceeded,
    PreconditionTooWeak,
    SingularAtPrecision,
    UnsupportedShape,
)
from fcrystals.plinalg import Matrix, smith_normal_form, unit_inverse_matrix
from fcrystals.semilinear import fixed_lattice, hom_module
from fcrystals import stairs
from fcrystals.stairs import (
    StairsDatum,
    _fixed_datum,
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
                      torsion=d.torsion, multiplicative=d.multiplicative,
                      unital=d.unital, square_zero=d.square_zero,
                      strategy=d.strategy)
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
    return StairsDatum(C, basis, [0, 1, 2, 3], [0] * 4, torsion, False,
                       False, False, "file")


def test_datum_torsion_is_the_largest_smith_exponent():
    assert _tail_datum(2).coordinate_solver().exps == [0, 0, 0, 3]
    with pytest.raises(BadShape, match="p\\^m End"):
        _tail_datum(2).verify()
    assert _tail_datum(3).verify()
    # an empty basis spans nothing, whatever the torsion
    with pytest.raises(BadShape, match="p\\^m End"):
        replace(_tail_datum(7), basis=[], perm=[], exponents=[]).verify()


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
    gamma = datum.structure_constants()
    assert gamma == _structure_constants(_fixed_datum(fresh))

    def walked(*args):
        raise AssertionError("a memo hit computed again")

    monkeypatch.setattr(stairs, "_fixed_datum", walked)
    monkeypatch.setattr(stairs, "_structure_constants", walked)
    assert fixed_datum(C) is datum and fixed_datum(N) is None
    assert datum.structure_constants() is gamma
    g = Matrix.identity(C.ring, 2) + Matrix.from_ints(C.ring,
                                                      [[0, 2], [2, 0]])
    assert lang_run(C, g).reverify()


def test_derived_crystals_start_without_a_fixed_datum():
    C = builtin_crystal(make_witt_ring(2, 2, 4), "supersingular", d=1)
    datum = fixed_datum(C)
    assert C.fixed_memo == (datum,) and datum is not None
    for D in (C.twist(Matrix.identity(C.ring, 2)),
              C.reduce_to(make_witt_ring(2, 2, 3)),
              C.base_change(make_witt_ring(2, 4, 4))):
        assert D.fixed_memo == ()
    datum.structure_constants()
    assert datum.base_change(make_witt_ring(2, 4, 4))._gamma is None

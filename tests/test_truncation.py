import random
from itertools import product

import pytest

from fcrystals.bounds import epsilon_p
from fcrystals.crystal import (
    PolarizedCrystal,
    builtin_crystal,
    direct_sum_crystal,
    hodge_data,
    new_crystal,
)
from fcrystals.errors import (
    BadParams,
    BadShape,
    LiftFailed,
    NotDieudonne,
    PrecisionExhausted,
    SearchSpaceTooLarge,
)
from fcrystals.plinalg import (
    Matrix,
    _intertwiner_system,
    howell_coefficients,
    howell_contains,
    howell_form,
    inverse_with_shift,
    pack_rows,
    smith_normal_form,
)
from fcrystals.semilinear import (
    EXHAUSTIVE_CAP,
    HomModule,
    _row_combination,
    _scan_range,
    hom_image,
)
from fcrystals.stairs import build_stairs_datum
from fcrystals.truncation import (
    congruence_upgrade,
    d_trunc_hom_module,
    d_trunc_isom_search,
    detect_split_form,
    i_number_probe,
    polarized_isom_search,
    verschiebung,
)
from fcrystals.witt import make_witt_ring


def test_verschiebung_invariants():
    for p in (2, 3):
        ring = make_witt_ring(p, 2, 4)
        for name, kw in (("supersingular", {"d": 1}),
                         ("ordinary", {"r": 2, "d": 1})):
            T = verschiebung(builtin_crystal(ring, name, **kw))
            T.check_invariants()
    ring = make_witt_ring(2, 1, 4)
    O = builtin_crystal(ring, "ordinary", r=2, d=1)
    # e = 1: the default level is n - e = 3
    assert verschiebung(O).V == Matrix.from_ints(
        make_witt_ring(2, 1, 3), [[2, 0], [0, 1]])


def test_verschiebung_below_n_minus_e_agrees_across_lifts():
    # B mod p^n fixes V mod p^(n-e) only: levels up to n - e agree for
    # every lift B + p^n X, and level n is refused
    rng = random.Random(5)
    for p, q, n in ((3, 2, 3), (3, 1, 3), (2, 1, 4)):
        W, big = make_witt_ring(p, q, n), make_witt_ring(p, q, n + 2)
        for name, kw in (("supersingular", {"d": 1}),
                         ("ordinary", {"r": 2, "d": 1})):
            C = builtin_crystal(W, name, **kw)
            assert inverse_with_shift(C.B)[1] == 1
            flat = C.B.flat
            for _ in range(4):
                lift = new_crystal(big, Matrix.from_flat_ints(big, 2, 2, [
                    c + p ** n * rng.randrange(p ** 2) for c in flat]))
                for level in range(1, n):
                    assert verschiebung(lift, level).V == \
                        verschiebung(C, level).V, (p, q, name, level)
            assert verschiebung(C).ring.n == n - 1
            with pytest.raises(PrecisionExhausted):
                verschiebung(C, n)


def test_verschiebung_rejects_non_dieudonne():
    ring = make_witt_ring(2, 1, 8)
    C = builtin_crystal(ring, "example_2_3_2", r=3)
    with pytest.raises(NotDieudonne):
        verschiebung(C)
    C2 = new_crystal(ring, Matrix.scalar(ring, 2, 4))
    with pytest.raises(NotDieudonne):
        verschiebung(C2)


def test_reduction_compatibility():
    ring = make_witt_ring(3, 2, 5)
    C = builtin_crystal(ring, "supersingular", d=1)
    T3 = verschiebung(C, 3)
    T2 = verschiebung(C, 2)
    low = T2.ring
    assert T3.F.reduce_to(low) == T2.F
    assert T3.V.reduce_to(low) == T2.V


def test_d_trunc_isom():
    W = make_witt_ring(2, 1, 3)
    O = builtin_crystal(W, "ordinary", r=2, d=1)
    S = builtin_crystal(W, "supersingular", d=1)
    T1 = verschiebung(O, 1)
    T2 = verschiebung(S, 1)
    assert d_trunc_isom_search(T1, T1).witness is not None
    res = d_trunc_isom_search(T1, T2)
    assert res.witness is None and res.regime == "exhaustive"
    rng = random.Random(4)
    delta = Matrix(W, [[W.random_element(rng) * 2 for _ in range(2)]
                       for _ in range(2)])
    T3 = verschiebung(O.twist(Matrix.identity(W, 2) + delta), 1)
    assert d_trunc_isom_search(T1, T3).witness is not None


def test_d_truncation_hom_module_needs_the_v_rows():
    """The V rows of `d_trunc_hom_module` are not implied by its F rows mod
    p^level, since F has a p-torsion kernel there: over W_4(F_4) at level
    1 the module of the F rows alone is strictly larger."""
    ring = make_witt_ring(2, 2, 4)
    ss = verschiebung(builtin_crystal(ring, "supersingular", d=1), 1)
    od = verschiebung(builtin_crystal(ring, "ordinary", r=2, d=1), 1)
    for T1, T2, types in ((ss, od, ((1, 1), ())),
                          (od, od, ((1, 1, 1), (1, 1)))):
        f_only = HomModule(T1.ring, (T2.rank, T1.rank),
                           *_intertwiner_system(T1.F, T2.F, T1.ring))
        both = d_trunc_hom_module(T1, T2)
        assert (f_only.group_type, both.group_type) == types
        assert all(f_only.contains(f) for f in both.basis)


def test_split_form_and_upgrade():
    for p in (2, 3):
        ring = make_witt_ring(p, 1, 5)
        C = builtin_crystal(ring, "ordinary", r=2, d=1)
        split = detect_split_form(C)
        assert split.grading == [0, 1] and split.dim == 1
        rng = random.Random(8)
        delta = Matrix(ring, [[ring.random_element(rng) * p
                               for _ in range(2)] for _ in range(2)])
        g = Matrix.identity(ring, 2) + delta
        gp, gq = congruence_upgrade(C, g, Matrix.identity(ring, 2), 1, split)
        assert gq.congruence_level() >= 1


def test_upgrade_from_found_truncation_isom():
    ring = make_witt_ring(3, 2, 5)
    SS = builtin_crystal(ring, "supersingular", d=1)
    split = detect_split_form(SS)
    rng = random.Random(9)
    delta = Matrix(ring, [[ring.random_element(rng) * 3 for _ in range(2)]
                          for _ in range(2)])
    g = Matrix.identity(ring, 2) + delta
    T1 = verschiebung(SS, 1)
    T2 = verschiebung(SS.twist(g), 1)
    res = d_trunc_isom_search(T1, T2)
    assert res.witness is not None
    f = Matrix.from_flat_ints(
        ring, 2, 2, [c % ring.pn for c in res.witness.flat])
    gp, gq = congruence_upgrade(SS, g, f, 1, split)
    assert gq.congruence_level() >= 1


def test_i_number_probes():
    ring = make_witt_ring(3, 1, 6)
    et = i_number_probe(builtin_crystal(ring, "ordinary", r=2, d=0))
    assert (et["upper"], et["upper_source"]) == (0, "h0")
    o = i_number_probe(builtin_crystal(ring, "ordinary", r=2, d=1))
    assert (o["upper"], o["upper_source"]) == (1, "stairs")
    assert o["floor_evidence"] == 0
    ss = i_number_probe(
        builtin_crystal(make_witt_ring(2, 2, 4), "supersingular", d=1))
    assert (ss["upper"], ss["upper_source"]) == (1, "lang")
    with pytest.raises(BadParams):
        i_number_probe(builtin_crystal(ring, "ordinary", r=2, d=1),
                       trials=-1)


def test_probe_does_not_hide_a_solver_bug(monkeypatch):
    """Only library errors count as "no evidence"; a bug propagates."""
    import fcrystals.truncation as T

    def broken(*args, **kwargs):
        raise ZeroDivisionError("solver bug")

    C = builtin_crystal(make_witt_ring(3, 1, 6), "ordinary", r=2, d=1)
    monkeypatch.setattr(T, "isom_search", broken)
    with pytest.raises(ZeroDivisionError):
        i_number_probe(C)
    monkeypatch.undo()
    monkeypatch.setattr(T, "_monomial_datum", broken)
    with pytest.raises(ZeroDivisionError):
        i_number_probe(C)


def test_probe_builds_the_fixed_datum_once(monkeypatch):
    """A non-monomial crystal with no datum: one `_fixed_datum` call."""
    import fcrystals.stairs as S

    calls, fixed = [], S._fixed_datum

    def counting(*args, **kwargs):
        calls.append(args)
        return fixed(*args, **kwargs)

    # the probe's own call and any through build_stairs_datum: both reach
    # the walk through stairs.fixed_datum, which keeps it on the crystal
    monkeypatch.setattr(S, "_fixed_datum", counting)
    W = make_witt_ring(2, 1, 4)
    dense = new_crystal(W, Matrix.from_ints(W, [[1, 1], [0, 2]]))
    report = i_number_probe(dense)
    assert (report["upper"], report["upper_source"]) == (None, "none")
    assert len(calls) == 1


def test_probe_upper_from_the_lattice_torsion():
    # supersingular(d=1) + ordinary(r=1, d=0): no unital multiplicative
    # fixed datum, and the monomial datum has torsion m = 1, so the bound
    # is 2m + eps_p
    for p, upper in ((3, 3), (2, 4)):
        W = make_witt_ring(p, 1, 6)
        C = direct_sum_crystal(builtin_crystal(W, "supersingular", d=1),
                               builtin_crystal(W, "ordinary", r=1, d=0))
        report = i_number_probe(C)
        assert (report["upper"], report["upper_source"]) == (upper, "stairs")
        assert report["evidence"]["lattice_torsion"] == 1


# -- Aut-image stabilization, built on the library's Hom images


def _span_has_unit_outside(C, big_basis, small_basis, to_level):
    """Any unit in span(big) outside span(small), at the residue level?"""
    ring = C.ring
    p = ring.p
    r = C.rank
    # cosets of small inside big: big's rows outside span(small)
    reps = [row for row in big_basis
            if not howell_contains(small_basis, [row], p, to_level)]
    if not reps:
        return False
    if p ** len(reps) > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge("too many cosets to scan")
    if p ** len(small_basis) > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge("mod-p span too large to scan")
    if not howell_contains(small_basis, [[p * x for x in row]
                                         for row in big_basis], p, to_level):
        # some p y lies outside small, and x + p y keeps x's residue: every
        # unit of big has one outside small
        if p ** len(big_basis) > EXHAUSTIVE_CAP:
            raise SearchSpaceTooLarge("mod-p span too large to scan")
        return _scan_range(ring, big_basis, r) is not None
    # p kills big / small, so the cosets are the digit combinations of reps:
    # scan (coset rep combo) x (mod-p span of small) for units not in small
    for combo in product(range(p), repeat=len(reps)):
        if not any(combo):
            continue
        base = _row_combination(combo, reps, r * r * ring.q)
        if howell_contains(small_basis, [base], p, to_level):
            continue  # fell into the small span after all
        if _scan_range(ring, small_basis, r, base) is not None:
            return True
    return False


def aut_image_stabilization_check(C, t):
    """Aut images at level n - m + t agree from level n + h + t up to full.

    n = 2m + eps_p with m the lattice torsion of the datum; images are
    compared as unit sets: the module chain is decreasing, so equality
    fails only when a deeper coset still contains a unit.
    """
    ring = C.ring
    _, _, h = hodge_data(C)
    m = build_stairs_datum(C).torsion
    n = 2 * m + epsilon_p(ring.p)
    to_level = n - m + t
    hi = n + h + t
    if hi > ring.n or to_level < 1:
        raise BadShape("ring precision too small for the stabilization check")
    # Aut images as Howell bases of End images: units mod p lift to units
    ref = hom_image(C, C, hi, to_level)
    for N in range(hi + 1, ring.n + 1):
        img = hom_image(C, C, N, to_level)
        if img == ref:
            continue
        # modules differ: compare unit sets (img is contained in ref)
        if _span_has_unit_outside(C, ref, img, to_level):
            return False
    return True


def test_aut_image_stabilization():
    ring = make_witt_ring(2, 2, 7)
    SS = builtin_crystal(ring, "supersingular", d=1)
    assert aut_image_stabilization_check(SS, 0)
    ring2 = make_witt_ring(3, 1, 7)
    O = builtin_crystal(ring2, "ordinary", r=2, d=1)
    assert aut_image_stabilization_check(O, 1)
    ET = builtin_crystal(ring2, "ordinary", r=1, d=0)
    assert aut_image_stabilization_check(ET, 0)


def _howell(rows, p, n):
    return howell_form(*pack_rows(rows, p, n))


def _brute_unit_outside(big, small, p, n):
    """Any 2 x 2 matrix over Z/p^n (q = 1) in span(big) \\ span(small)
    with unit determinant, by enumerating both spans."""
    def span(basis):
        out = set()
        for coeffs in howell_coefficients(basis, p, n):
            acc = [0] * 4
            for c, row in zip(coeffs, basis):
                acc = [a + c * x for a, x in zip(acc, row)]
            out.add(tuple(a % p ** n for a in acc))
        return out
    inner = span(small)
    return any((a * d - b * c) % p and (a, b, c, d) not in inner
               for a, b, c, d in span(big))


def test_span_has_unit_outside_sees_cosets_below_the_residues():
    # diag(3, 1) = I + 2 E11 lies in span(I, E11) \ span(I) and is a unit,
    # though its coset has no representative with digits below p
    C = builtin_crystal(make_witt_ring(2, 1, 2), "ordinary", r=2, d=1)
    eye, e11 = [1, 0, 0, 1], [1, 0, 0, 0]
    assert _span_has_unit_outside(C, _howell([eye, e11], 2, 2),
                                  _howell([eye], 2, 2), 2)


def test_span_has_unit_outside_matches_brute_force():
    rng = random.Random(20)
    n = 2
    for p in (2, 3):
        C = builtin_crystal(make_witt_ring(p, 1, n), "ordinary", r=2, d=1)
        for _ in range(150):
            # small inside big; multiples of p make the cosets that no
            # digit combination of big's rows reaches
            gens = [[rng.randrange(p ** n) * rng.choice((1, p))
                     for _ in range(4)] for _ in range(rng.randint(1, 3))]
            small = _howell(gens[:rng.randint(0, len(gens) - 1)], p, n)
            big = _howell(gens, p, n)
            assert _span_has_unit_outside(C, big, small, n) == \
                _brute_unit_outside(big, small, p, n), (p, gens)


def test_polarized_isom():
    ring = make_witt_ring(2, 3, 4)
    P = builtin_crystal(ring, "polarized_4_5_4", alpha=1)
    res = polarized_isom_search(P, P, precision=2)
    assert res.witness is not None


def test_polarized_isom_builds_one_hom_module(monkeypatch):
    import fcrystals.semilinear as SL
    import fcrystals.truncation as T
    real, built = SL.hom_module, []

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    ring = make_witt_ring(2, 3, 4)
    P = builtin_crystal(ring, "polarized_4_5_4", alpha=1)
    expected = polarized_isom_search(P, P, precision=2)
    monkeypatch.setattr(SL, "hom_module", counting)
    monkeypatch.setattr(T, "hom_module", counting)
    res = polarized_isom_search(P, P, precision=2)
    assert len(built) == 1
    assert expected.witness is not None
    assert res.witness == expected.witness
    assert res.regime == expected.regime


def test_polarized_search_shapes():
    ring = make_witt_ring(2, 3, 4)
    P1 = builtin_crystal(ring, "polarized_4_5_4", alpha=1)
    res = polarized_isom_search(P1, P1, precision=2)
    assert res.witness is not None and res.regime == "exhaustive"


@pytest.mark.parametrize("u, want", [
    (2, None), (5, None), (4, [2, 3, 2, 2]), (7, [1, 3, 2, 1])])
def test_polarized_isom_enumerates_the_whole_module(u, want):
    """B = [[0, -p], [1, 0]] with J = [[0, 1], [-1, 0]] (c = 1) against
    (B, u J) over W_2(F_3): the plain crystals are equal and the identity
    fails the form, so the search enumerates the module.  A witness is an
    automorphism of determinant 1/u, since f^T (u J) f = u det(f) J; for
    u = 2, 5 there is none.  The witnesses are those of the search that
    also tested each candidate for a unit."""
    W = make_witt_ring(3, 1, 2)
    C = new_crystal(W, Matrix.from_ints(W, [[0, -3], [1, 0]]))
    J = Matrix.from_ints(W, [[0, 1], [-1, 0]])
    res = polarized_isom_search(PolarizedCrystal(C, J, 1), PolarizedCrystal(
        C, J.scale(W.from_int(u)), 1))
    assert res.regime == "exhaustive"
    assert (None if res.witness is None else list(res.witness.flat)) == want


def test_truncation_determines_pipeline():
    """Level-1 truncation isomorphism upgrades to a full witness.

    The chain: D-truncation isomorphism at the witnessed i-number level,
    then the congruence upgrade, then the multiplicative stairs, gives a
    verified isomorphism of the crystals themselves.
    """
    from fcrystals.stairs import build_stairs_datum, stairs_algebra_run
    from fcrystals.plinalg import unit_inverse_matrix
    ring = make_witt_ring(2, 1, 3)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = build_stairs_datum(C)
    split = detect_split_form(C)
    rng = random.Random(21)
    upgraded = 0
    for _ in range(12):
        g = Matrix(ring, [[ring.random_element(rng) for _ in range(2)]
                          for _ in range(2)])
        if any(smith_normal_form(g)):
            continue
        Ct = C.twist(g)
        T1 = verschiebung(C, 1)
        T2 = verschiebung(Ct, 1)
        res = d_trunc_isom_search(T1, T2)
        if res.witness is None:
            continue
        f = Matrix.from_flat_ints(
            ring, 2, 2, [c % ring.pn for c in res.witness.flat])
        try:
            gp, gq = congruence_upgrade(C, g, f, 1, split)
        except LiftFailed:
            continue
        assert gq.congruence_level() >= 1
        cert = stairs_algebra_run(C, gq, datum)
        assert cert.reverify()
        # compose: the total map conjugates (M, g phi) onto (M, phi);
        # clearing B^{-1} in the upgrade costs one digit (h = 1), so the
        # composite is certified at ring precision minus one
        total = cert.witness @ gp.embed(cert.ring)
        B = cert.crystal.B
        lhs = total @ g.embed(cert.ring) @ B \
            @ unit_inverse_matrix(total.sigma())
        diff = lhs - B
        assert diff.is_zero() or \
            diff.min_valuation() >= min(cert.level, ring.n - 1)
        upgraded += 1
    assert upgraded >= 3

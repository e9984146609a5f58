import random
from fractions import Fraction
from itertools import accumulate

import pytest

from fcrystals.crystal import (
    Polygon,
    builtin_crystal,
    cyclic_from_exponents,
    direct_sum_crystal,
    dual_crystal,
    end_crystal,
    hodge_data,
    new_crystal,
    newton_polygon,
    tensor_crystal,
)
from fcrystals.errors import (
    BadParams,
    PrecisionExhausted,
    RingMismatch,
    SingularAtPrecision,
    UnknownCorpusName,
)
from fcrystals.plinalg import (
    Matrix,
    smith_normal_form,
    unit_inverse_matrix,
)
from fcrystals.witt import make_witt_ring


def test_constructor_normalization():
    W = make_witt_ring(2, 1, 6)
    C = new_crystal(W, Matrix.scalar(W, 2, 2), 1)
    assert C.shift == 0 and C.B == Matrix.identity(W, 2)
    with pytest.raises(SingularAtPrecision):
        new_crystal(make_witt_ring(2, 1, 1), Matrix.scalar(
            make_witt_ring(2, 1, 1), 2, 2), 0)
    # phi over another ring is refused, not kept with its own ring
    for other in (make_witt_ring(2, 2, 6), make_witt_ring(2, 1, 5)):
        with pytest.raises(RingMismatch):
            new_crystal(W, Matrix.identity(other, 2))


def test_exponents_are_those_of_the_normalized_matrix():
    """The Smith exponents a crystal keeps belong to its own B, after the
    shift normalization and for every crystal built from another."""
    W = make_witt_ring(2, 2, 6)
    g = Matrix.identity(W, 2) + Matrix.from_ints(W, [[2, 4], [0, 6]])
    C = new_crystal(W, Matrix.from_ints(W, [[4, 0], [0, 8]]), 3)
    assert (C.shift, C.exponents) == (1, [0, 1])
    SS = builtin_crystal(W, "supersingular", d=1)
    made = [C, SS, SS.twist(g), SS.twist(g).reduce_to(make_witt_ring(2, 2, 3)),
            SS.base_change(make_witt_ring(2, 4, 6)), dual_crystal(SS),
            dual_crystal(C)]
    for D in made:
        assert D.exponents == smith_normal_form(D.B), D


@pytest.mark.parametrize("p, q, n", [(2, 1, 5), (2, 3, 3), (3, 2, 4),
                                     (5, 1, 3), (7, 2, 3)])
def test_base_change_keeps_the_smith_exponents(p, q, n):
    """Unramified base change leaves the Smith form as it is (P B Q =
    diag(p^e) holds over the bigger ring), so the crystal keeps its
    exponents: they equal a fresh elimination of the embedded matrix."""
    ring, rng = make_witt_ring(p, q, n), random.Random(p * 100 + q)
    made = 0
    while made < 4:
        r = rng.randint(1, 3)
        # a random matrix times a diagonal of 1s and ps, so that nonzero
        # exponents occur
        B = Matrix(ring, [[ring.random_element(rng) for _ in range(r)]
                          for _ in range(r)])
        D = Matrix.from_ints(ring, [[p ** rng.randint(0, 1) if i == j else 0
                                     for j in range(r)] for i in range(r)])
        try:
            C = new_crystal(ring, B @ D, rng.randint(0, 1))
        except SingularAtPrecision:
            continue
        made += 1
        for d in (2, 3):
            big = make_witt_ring(p, q * d, n)
            assert C.base_change(big).exponents == smith_normal_form(
                C.B.embed(big)), (C.B, d)


def test_hodge_data():
    W = make_witt_ring(2, 1, 8)
    C = new_crystal(W, Matrix.identity(W, 2))
    pol, s, h = hodge_data(C)
    assert (s, h) == (0, 0) and pol.slopes() == [0, 0]
    SS = builtin_crystal(W, "supersingular", d=1)
    pol, s, h = hodge_data(SS)
    assert (s, h) == (0, 1) and pol.slopes() == [0, 1]
    EX = builtin_crystal(W, "example_2_3_2", r=4)
    pol, s, h = hodge_data(EX)
    assert s == 1 and h == 2


def test_newton_polygons():
    W = make_witt_ring(2, 1, 12)
    SS = builtin_crystal(W, "supersingular", d=1)
    assert newton_polygon(SS).points == ((Fraction(1, 2), 2),)
    O = builtin_crystal(W, "ordinary", r=3, d=1)
    assert newton_polygon(O).slopes() == [0, 0, 1]
    for r in (3, 5):
        ring = make_witt_ring(3, 1, 2 * r + 3)
        C = builtin_crystal(ring, "example_2_3_2", r=r)
        assert newton_polygon(C).points == ((Fraction(r - 2, r), r),)


def test_newton_gate():
    W = make_witt_ring(2, 1, 2)
    SS = builtin_crystal(W, "supersingular", d=1)
    with pytest.raises(PrecisionExhausted):
        newton_polygon(SS)


def test_dual_and_end():
    W = make_witt_ring(3, 1, 8)
    SS = builtin_crystal(W, "supersingular", d=1)
    D = dual_crystal(SS)
    _, s, h = hodge_data(D)
    assert (s, h) == (1, 1)  # s* = max(0, h - s)
    DD = dual_crystal(D)
    red = SS.reduce_to(DD.ring)
    assert DD.B == red.B and DD.shift == red.shift
    E = end_crystal(SS)
    assert E.rank == 4
    ET = new_crystal(W, Matrix.identity(W, 2))
    assert dual_crystal(ET).B == Matrix.identity(dual_crystal(ET).ring, 2)


def _lies_on_or_above(upper, lower):
    """Dominance: the same endpoints, and every partial sum of upper's
    slopes at least lower's."""
    a, b = upper.slopes(), lower.slopes()
    return len(a) == len(b) and sum(a) == sum(b) and all(
        x >= y for x, y in zip(accumulate(a), accumulate(b)))


def test_newton_invariance_and_dominance():
    rng = random.Random(0)
    W = make_witt_ring(2, 1, 10)
    C = builtin_crystal(W, "supersingular", d=1)
    npC = newton_polygon(C)
    for _ in range(5):
        g = Matrix(W, [[W.random_element(rng) for _ in range(2)]
                       for _ in range(2)])
        if any(smith_normal_form(g)):
            continue
        B2 = g @ C.B @ unit_inverse_matrix(g.sigma())
        assert newton_polygon(new_crystal(W, B2)).points == npC.points
    big = make_witt_ring(2, 2, 10)
    assert newton_polygon(C.base_change(big)).points == npC.points
    for name, kw in (("ordinary", {"r": 2, "d": 1}),
                     ("supersingular", {"d": 1})):
        C = builtin_crystal(W, name, **kw)
        hp, _, _ = hodge_data(C)
        assert _lies_on_or_above(newton_polygon(C), hp)


def test_direct_sum_union():
    W = make_witt_ring(2, 1, 12)
    A = builtin_crystal(W, "ordinary", r=2, d=1)
    B = builtin_crystal(W, "supersingular", d=1)
    S = direct_sum_crystal(A, B)
    assert sorted(newton_polygon(S).slopes()) == sorted(
        newton_polygon(A).slopes() + newton_polygon(B).slopes())


@pytest.mark.parametrize("combine", [tensor_crystal, direct_sum_crystal])
def test_combining_aligns_precision_and_refuses_other_fields(combine):
    """Only n is aligned, to the smaller one; a crystal over another p or
    q is a ring mismatch, not coordinate tuples of two lengths mixed."""
    fine = builtin_crystal(make_witt_ring(3, 1, 8), "ordinary", r=2, d=1)
    coarse = builtin_crystal(make_witt_ring(3, 1, 6), "supersingular", d=1)
    both = combine(fine, coarse)
    assert both.ring == coarse.ring
    assert both == combine(fine.reduce_to(coarse.ring), coarse)
    assert combine(coarse, fine) == combine(
        coarse, fine.reduce_to(coarse.ring))
    for ring in (make_witt_ring(3, 2, 3), make_witt_ring(2, 1, 3)):
        other = builtin_crystal(ring, "supersingular", d=1)
        with pytest.raises(RingMismatch):
            combine(builtin_crystal(make_witt_ring(3, 1, 3),
                                    "supersingular", d=1), other)
        with pytest.raises(RingMismatch):
            combine(other, coarse)


def test_cyclic_constructor():
    W = make_witt_ring(3, 1, 6)
    C = cyclic_from_exponents(W, [0])
    assert C.rank == 1 and C.shift == 0
    C2 = cyclic_from_exponents(W, [1, 0])
    assert newton_polygon(C2).points == ((Fraction(1, 2), 2),)
    C3 = cyclic_from_exponents(W, [1, -1])
    assert C3.shift == 1


def test_builtin_families():
    W = make_witt_ring(3, 3, 6)
    I = builtin_crystal(W, "isoclinic_3_3_6", r=3, c=2)
    assert I.rank == 3 and I.shift == 0
    with pytest.raises(BadParams):
        builtin_crystal(W, "isoclinic_3_3_6", r=4, c=2)
    with pytest.raises(UnknownCorpusName):
        builtin_crystal(W, "nope")
    F = builtin_crystal(W, "phi_alpha_4_5", alpha=1)
    assert F.rank == 6
    P = builtin_crystal(W, "polarized_4_5_4", alpha=W.gen())
    assert P.c == 1
    ss2 = builtin_crystal(W, "supersingular", d=2)
    assert ss2.rank == 4
    with pytest.raises(BadParams):
        builtin_crystal(W, "ordinary", r=2, d=3)


def test_polygon_helpers():
    P1 = Polygon.from_slopes([0, 1, 1])
    assert P1.points == ((Fraction(0), 1), (Fraction(1), 2))
    P2 = Polygon.from_slopes([Fraction(1, 2)] * 3 + [Fraction(1, 2)])
    assert P2.points == ((Fraction(1, 2), 4),)


def test_dual_h_number_relation():
    # s > 0 case: the dual's h-number equals max(s, h)
    W = make_witt_ring(3, 1, 10)
    C = builtin_crystal(W, "example_2_3_2", r=4)
    _, s, h = hodge_data(C)
    assert s == 1 and h == 2
    D = dual_crystal(C)
    _, s2, h2 = hodge_data(D)
    assert s2 == max(0, h - s) and h2 == max(s, h)


def test_single_cycle_newton_slope():
    # a single cyclic orbit has the unique slope (sum of exponents)/length
    rng = random.Random(10)
    for _ in range(12):
        l = rng.randrange(1, 5)
        tau = [rng.randrange(-1, 3) for _ in range(l)]
        total = sum(tau)
        ring = make_witt_ring(2, 1, 4 * l * max(1, abs(total)) + 6)
        C = cyclic_from_exponents(ring, tau)
        np_ = newton_polygon(C)
        assert np_.points == ((Fraction(total, l), l),), (tau, np_)

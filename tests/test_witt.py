import random

import pytest

from fcrystals.conway import CONWAY_TABLE
from fcrystals.errors import (
    BadParams,
    BadShape,
    NoEmbedding,
    NotAUnit,
    NotPrime,
    RingMismatch,
    UnknownField,
)
from fcrystals.witt import INFINITY, WittRing, make_witt_ring


def test_small_rings_are_integers_mod_p_n():
    assert make_witt_ring(2, 1, 3).pn == 8
    assert make_witt_ring(3, 1, 2).pn == 9
    r = make_witt_ring(2, 1, 3)
    assert (r.from_int(3) + r.from_int(7)).coeffs == (2,)
    assert (r.from_int(3) * r.from_int(3)).coeffs == (1,)


def test_unknown_field_and_bad_prime():
    with pytest.raises(UnknownField):
        make_witt_ring(2, 13, 2)
    with pytest.raises(UnknownField):
        make_witt_ring(11, 1, 2)
    with pytest.raises(NotPrime):
        make_witt_ring(4, 1, 2)
    # n < 1 is refused before the field table is read
    with pytest.raises(BadParams):
        make_witt_ring(11, 1, 0)
    with pytest.raises(BadParams):
        make_witt_ring(2, 0, 3)
    # a wrong coefficient count is a shape error
    R = make_witt_ring(2, 2, 3)
    for call in (lambda: R.element([1, 0, 1]), lambda: R.teichmuller([1])):
        with pytest.raises(BadShape):
            call()
    with pytest.raises(BadParams):
        R.reduce_to(4)


def test_primes_above_the_cap_are_rejected_without_trial_division():
    # 2^61 - 1 is prime: trial division would take 1.5 * 10^9 steps
    with pytest.raises(NotPrime, match="exceeds the maximum 2\\^32"):
        make_witt_ring(2 ** 61 - 1, 1, 2)
    with pytest.raises(UnknownField):
        make_witt_ring(4294967291, 1, 2)   # the largest prime below 2^32


def test_ring_check_accepts_equal_rings_outside_the_cache():
    cached = make_witt_ring(3, 2, 3)
    fresh = WittRing(3, 2, 3)
    assert fresh is not cached and fresh == cached
    a, b = cached.gen(), fresh.from_int(5)
    assert (a + b) == (b + a) and (a * b) == (b * a)
    assert (a - b).coeffs == cached._sub(a.coeffs, b.coeffs)
    other = make_witt_ring(3, 2, 2)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(RingMismatch):
            op(a, other.gen())
        with pytest.raises(RingMismatch):
            op(fresh.gen(), other.one())


def _table_fields():
    return [pq for pq, f in sorted(CONWAY_TABLE.items()) if f is not None]


def test_teichmuller_modulus_makes_generator_torsion():
    # by Hensel's lemma these three facts determine the modulus
    for p, q in _table_fields():
        for n in (1, 2, 3, 5, 8, 19):
            ring = make_witt_ring(p, q, n)
            f = ring.modulus_lift
            assert len(f) == q + 1 and f[q] == 1, (p, q, n)
            assert tuple(c % p for c in f) == CONWAY_TABLE[p, q], (p, q, n)
            t = ring.gen().coeffs
            assert ring._pow(t, p ** q) == t, (p, q, n)


@pytest.mark.parametrize("p,q,n", [(2, 3, 4), (3, 2, 3), (5, 2, 2), (7, 1, 3)])
def test_ring_axioms_random(p, q, n):
    ring = make_witt_ring(p, q, n)
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (ring.random_element(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * ring.one() == a
        assert (a - a).is_zero()


def test_frobenius_is_ring_hom_of_order_q():
    ring = make_witt_ring(2, 3, 3)
    rng = random.Random(1)
    for _ in range(40):
        a, b = ring.random_element(rng), ring.random_element(rng)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        x = a
        for _ in range(ring.q):
            x = x.frobenius()
        assert x == a
        assert a.frobenius().frobenius(-1) == a
    t = ring.gen()
    assert t.frobenius() == t * t  # sigma(t) = t^p


def test_frobenius_fixes_teichmuller_compatibly():
    ring = make_witt_ring(3, 2, 3)
    rng = random.Random(2)
    for _ in range(30):
        abar = tuple(rng.randrange(3) for _ in range(2))
        w = ring.teichmuller(abar)
        # sigma(omega(a)) = omega(a^p)
        apow = w * w * w
        assert w.frobenius() == ring.teichmuller(apow.residue())


def test_teichmuller_values():
    assert make_witt_ring(3, 1, 2).teichmuller((2,)).coeffs == (8,)
    ring = make_witt_ring(2, 3, 2)
    tbar = (0, 1, 0)
    assert ring.teichmuller(tbar) == ring.gen()
    assert ring.teichmuller((0, 0, 0)).is_zero()
    assert ring.teichmuller((1, 0, 0)) == ring.one()


def test_teichmuller_multiplicative():
    ring = make_witt_ring(2, 3, 4)
    rng = random.Random(3)
    for _ in range(50):
        a = tuple(rng.randrange(2) for _ in range(3))
        b = tuple(rng.randrange(2) for _ in range(3))
        ta, tb = ring.teichmuller(a), ring.teichmuller(b)
        assert ta * tb == ring.teichmuller((ta * tb).residue())


def test_valuation():
    ring = make_witt_ring(2, 1, 3)
    assert ring.from_int(4).valuation() == 2
    assert ring.from_int(1).valuation() == 0
    assert ring.from_int(0).valuation() == INFINITY
    ring2 = make_witt_ring(3, 2, 3)
    rng = random.Random(4)
    for _ in range(40):
        a, b = ring2.random_element(rng), ring2.random_element(rng)
        va, vb = a.valuation(), b.valuation()
        if va + vb < ring2.n:
            assert (a * b).valuation() == va + vb


def test_unit_inverse():
    ring = make_witt_ring(2, 1, 3)
    assert ring.from_int(3).unit_inverse().coeffs == (3,)
    rng = random.Random(5)
    for p, q in _table_fields():
        for n in (1, 4):
            ring = make_witt_ring(p, q, n)
            for _ in range(5):
                a = ring.random_unit(rng)
                assert a * a.unit_inverse() == ring.one(), (p, q, n)
            for x in (ring.zero(), p * a):
                with pytest.raises(NotAUnit):
                    x.unit_inverse()


def test_precision_reduction_commutes():
    ring = make_witt_ring(3, 2, 4)
    low = ring.reduce_to(2)
    rng = random.Random(6)
    for _ in range(40):
        a, b = ring.random_element(rng), ring.random_element(rng)
        assert (a * b).reduce_to(low) == a.reduce_to(low) * b.reduce_to(low)
        assert (a + b).reduce_to(low) == a.reduce_to(low) + b.reduce_to(low)


def test_embed():
    small = make_witt_ring(2, 2, 3)
    big = make_witt_ring(2, 4, 3)
    rng = random.Random(8)
    t = small.gen().embed(big)
    assert small.one().embed(big) == big.one()
    assert small.from_int(5).embed(big) == big.from_int(5)
    for _ in range(25):
        a = small.random_element(rng)
        b = small.random_element(rng)
        assert (a * b).embed(big) == a.embed(big) * b.embed(big)
        assert a.frobenius().embed(big) == a.embed(big).frobenius()
    with pytest.raises(NoEmbedding):
        small.gen().embed(make_witt_ring(2, 3, 3))
    assert small.gen().embed(small) == small.gen()

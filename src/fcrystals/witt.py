"""Exact arithmetic in truncated Witt rings of finite fields.

W_n(F_{p^q}) is realized as (Z/p^n)[t]/(f) where f is the unique monic
lift of the Conway polynomial of F_{p^q} whose roots are Teichmuller
representatives (equivalently f divides x^(p^q) - x at precision n).
With this choice the Frobenius is the ring map t -> t^p, and Teichmuller
lifts, base change and sigma-inverse are all exact polynomial algebra.

The packed product (`_mul`, `_pow`: Kronecker substitution, then the
high slots folded back with the rows t^(q+i) mod f) is the only
polynomial arithmetic here.  f itself is read off it: in the ring
presented by the Conway polynomial, the Teichmuller lift
tau = t^(p^(q(n-1))) of t satisfies tau^q = sum_j c_j tau^j, and
f = x^q - sum_j c_j x^j.  A unit's inverse starts from its residue's
a^(p^q - 2) and lifts by Newton's iteration.

Elements are coefficient tuples of length q with entries in [0, p^n).
"""

import math
from itertools import count
from operator import mul

from .conway import conway_polynomial
from .errors import (
    BadParams,
    BadShape,
    InternalError,
    NoEmbedding,
    NotAUnit,
    RingMismatch,
    UnknownField,
)

INFINITY = math.inf

_ring_cache = {}


def make_witt_ring(p: int, q: int, n: int) -> "WittRing":
    """Return W_n(F_{p^q}), cached.

    Raises NotPrime / UnknownField for parameters outside the built-in
    Conway table.
    """
    key = (p, q, n)
    ring = _ring_cache.get(key)
    if ring is None:
        ring = WittRing(p, q, n)
        _ring_cache[key] = ring
    return ring


def field_walk(p, q, n):
    """Yield (D, W_n(F_{p^(qD)})) for D = 1, 2, ... while the built-in
    Conway table has the field."""
    for D in count(1):
        try:
            ring = make_witt_ring(p, q * D, n)
        except UnknownField:
            return
        yield D, ring


def _int_val(c, p, n):
    if c % p ** n == 0:
        return n
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


class WittRing:
    """W_n(F_{p^q}) as (Z/p^n)[t]/(modulus_lift); immutable once built."""

    def __init__(self, p, q, n):
        if n < 1 or q < 1:
            raise BadParams("need q >= 1 and n >= 1")
        self.p = p
        self.q = q
        self.n = n
        self.pn = p ** n
        self._zero = tuple([0] * q)
        self._one = tuple([1] + [0] * (q - 1))
        self._w = self.slot_width(1)
        # Any monic lift of the Conway polynomial presents the ring.  In
        # that presentation tau^q = sum_j c_j tau^j for the Teichmuller
        # lift tau of t, and M, whose columns are tau^0, ..., tau^(q-1),
        # is I mod p: each round of c <- tau^q - (M - I) c fixes at least
        # one more digit of c, and a round that changes nothing has found
        # M c = tau^q exactly.  Then f = t^q - sum_j c_j t^j.
        self._set_modulus(conway_polynomial(p, q))
        tau = self.teichmuller(self.gen()).coeffs
        powers, top = self._packed_powers(tau, q), self._pow(tau, q)
        c, last = top, None
        while c != last:
            last = c
            c = self._add(self._sub(top, self._apply_rows(c, powers)), c)
        self._set_modulus(self._neg(c) + (1,))
        # the valuation of each p^v dividing p^n: a gcd with p^n is one
        self._pow_val = {p ** v: v for v in range(n + 1)}
        self._frobenius_cache = {}
        # plinalg.coordinate_rows' tables, by (sigma-power, sign)
        self._coordinate_cache = {}
        self._embed_cache = {}
        # semilinear.solve_circular's maps for b_j, d_j in {0, 1}
        self._circular_cache = {}
        # Matrix.identity's matrices, by size
        self._identities = {}

    def _set_modulus(self, f):
        """Present the ring as (Z/p^n)[t]/(f), f monic of degree q."""
        pn, q = self.pn, self.q
        self.modulus_lift = f
        # t^(q+i) mod f for i = 0..q-2: folding a product's slot q+i back
        # adds its coefficient times row i
        row, rows = [(-c) % pn for c in f[:q]], []
        for _ in range(q - 1):
            rows.append(tuple(row))
            top = row[-1]
            row = [(x - top * c) % pn for x, c in zip([0] + row[:-1], f)]
        self._red_coeffs = rows
        self._red_cache = {}

    # -- raw coefficient-tuple arithmetic ---------------------------------

    def _add(self, a, b):
        pn = self.pn
        return tuple((x + y) % pn for x, y in zip(a, b))

    def _sub(self, a, b):
        pn = self.pn
        return tuple((x - y) % pn for x, y in zip(a, b))

    def _neg(self, a):
        pn = self.pn
        return tuple((-x) % pn for x in a)

    def slot_width(self, k):
        """Bits per packed coefficient when k products are summed.

        A coefficient of the sum is at most k q (p^n - 1)^2 and folding
        the high slots back adds at most (q - 1)(p^n - 1)^2.
        """
        q = self.q
        return ((k * q + q - 1) * (self.pn - 1) ** 2).bit_length() or 1

    def _pack(self, a, w):
        """Kronecker substitution t -> 2^w; coefficients must be in [0, p^n)."""
        x = 0
        for c in reversed(a):
            x = (x << w) | c
        return x

    def _reduce(self, x, w):
        """Coefficients of a packed polynomial of degree < 2q - 1, mod (f, p^n)."""
        pn, qw = self.pn, self.q * w
        mask = (1 << w) - 1
        acc = x & ((1 << qw) - 1)
        x >>= qw
        if x:
            rows = self._red_cache.get(w)
            if rows is None:
                rows = [self._pack(r, w) for r in self._red_coeffs]
                self._red_cache[w] = rows
            for r in rows:
                acc += ((x & mask) % pn) * r
                x >>= w
        return tuple([((acc >> s) & mask) % pn for s in range(0, qw, w)])

    # -- flat level: one packed int per entry of a Matrix.flat; at q = 1
    # that is the entry's one coordinate, and a reduction is one % p^n

    def _pack_flat(self, flat, w):
        """The entries of flat (q coordinates each), packed at width w."""
        if self.q == 1:
            return list(flat)
        q, pack = self.q, self._pack
        return [pack(flat[k:k + q], w) for k in range(0, len(flat), q)]

    def _reduce_flat(self, xs, w):
        """The flat coordinates of packed sums of products at width w."""
        pn, reduce, zero = self.pn, self._reduce, self._zero
        if self.q == 1:
            return [x % pn for x in xs]
        return [c for x in xs for c in (reduce(x, w) if x else zero)]

    def _reduce_packed(self, x, w):
        """A packed sum of products at width w, reduced and packed again."""
        if self.q == 1:
            return x % self.pn
        return self._pack(self._reduce(x, w), w)

    def _embed_flat(self, flat, S):
        """flat's entries embedded into S, as S's flat coordinates; at
        q = 1 an entry c is the constant (c, 0, ..., 0), with no product.
        `_embed_rows` also raises `NoEmbedding` when S is no extension."""
        rows, q, pad = self._embed_rows(S), self.q, S._zero[1:]
        if q == 1:
            return [y for c in flat for y in (c, *pad)]
        return S._reduce_flat([sum(map(mul, flat[k:k + q], rows))
                               for k in range(0, len(flat), q)], S._w)

    def _mul(self, a, b):
        if self.q == 1:
            return ((a[0] * b[0]) % self.pn,)
        w = self._w
        return self._reduce(self._pack(a, w) * self._pack(b, w), w)

    def _pow(self, a, e):
        if self.q == 1:
            return (pow(a[0], e, self.pn),)
        result = self._one
        while e:
            if e & 1:
                result = self._mul(result, a)
            a = self._mul(a, a)
            e >>= 1
        return result

    def _packed_powers(self, u, k):
        """1, u, ..., u^(k-1), packed at the product width (k <= q)."""
        rows, upow = [], self._one
        for _ in range(k):
            rows.append(self._pack(upow, self._w))
            upow = self._mul(upow, u)
        return rows

    def _apply_rows(self, a, rows):
        """sum_j a_j rows_j for rows from _packed_powers."""
        return self._reduce(sum(map(mul, a, rows)), self._w)

    def _smul(self, c, a):
        pn = self.pn
        return tuple((c * x) % pn for x in a)

    def _frobenius_rows(self, power):
        """sigma^power(t^j) = (t^(p^power))^j for j < q, packed; cached."""
        rows = self._frobenius_cache.get(power)
        if rows is None:
            rows = self._frobenius_cache[power] = self._packed_powers(
                self._pow(self.gen().coeffs, self.p ** power), self.q)
        return rows

    def _embed_rows(self, S):
        """Images in S of 1, t, ..., t^(q-1) under the Frobenius-equivariant
        embedding of this ring into S, packed for `_apply_rows`; cached."""
        pows = self._embed_cache.get(S)
        if pows is None:
            if self.p != S.p or self.n != S.n or S.q % self.q != 0:
                raise NoEmbedding(f"no embedding {self!r} -> {S!r}")
            u = S._pow(S.gen().coeffs,
                       (S.p ** S.q - 1) // (self.p ** self.q - 1))
            # the image must be a root of this ring's modulus
            acc = S._zero
            for c in reversed(self.modulus_lift):
                acc = S._mul(acc, u)
                acc = S._add(acc, tuple([c] + [0] * (S.q - 1)))
            if any(acc):
                raise InternalError("embedding image is not a modulus root")
            pows = self._embed_cache[S] = S._packed_powers(u, self.q)
        return pows

    def _val(self, a):
        v = self._pow_val[math.gcd(self.pn, *a)]
        return INFINITY if v == self.n else v

    def _inv(self, a):
        # the residue's inverse by Fermat, a^(p^q - 2) in F_{p^q}, then
        # Newton's y <- y (2 - a y), doubling the precision each round
        if self._val(a) != 0:
            raise NotAUnit(f"{a} has positive valuation")
        p, q = self.p, self.q
        y = make_witt_ring(p, q, 1)._pow(tuple(c % p for c in a), p ** q - 2)
        prec = 1
        while prec < self.n:
            ay = self._mul(a, y)
            two_minus = self._sub(self._smul(2, self._one), ay)
            y = self._mul(y, two_minus)
            prec *= 2
        return y

    # -- public element API ------------------------------------------------

    def element(self, coeffs) -> "WittElem":
        coeffs = tuple(int(c) % self.pn for c in coeffs)
        if len(coeffs) != self.q:
            raise BadShape(f"need exactly {self.q} coefficients")
        return WittElem(self, coeffs)

    def from_int(self, c) -> "WittElem":
        return WittElem(self, tuple([int(c) % self.pn] + [0] * (self.q - 1)))

    def zero(self):
        return WittElem(self, self._zero)

    def one(self):
        return WittElem(self, self._one)

    def gen(self):
        """The Teichmuller generator t (for q = 1, the lifted field generator)."""
        if self.q == 1:
            return WittElem(self, ((-self.modulus_lift[0]) % self.pn,))
        return WittElem(self, tuple([0, 1] + [0] * (self.q - 2)))

    def teichmuller(self, a) -> "WittElem":
        """Multiplicative lift of a residue-field element.

        ``a`` is a coefficient sequence mod p (or a WittElem, reduced mod p
        first).
        """
        if isinstance(a, WittElem):
            a = a.coeffs
        x = tuple(int(c) % self.p for c in a)
        if len(x) != self.q:
            raise BadShape(f"need exactly {self.q} coefficients")
        return WittElem(self, self._pow(x, self.p ** (self.q * (self.n - 1))))

    def reduce_to(self, m):
        """Natural projection W_n -> W_m (m <= n)."""
        if m > self.n:
            raise BadParams("cannot increase precision")
        return make_witt_ring(self.p, self.q, m)

    def random_element(self, rng):
        return WittElem(
            self, tuple(rng.randrange(self.pn) for _ in range(self.q))
        )

    def random_unit(self, rng):
        while True:
            a = self.random_element(rng)
            if a.valuation() == 0:
                return a

    def __eq__(self, other):
        return (
            isinstance(other, WittRing)
            and (self.p, self.q, self.n) == (other.p, other.q, other.n)
        )

    def __hash__(self):
        return hash((self.p, self.q, self.n))

    def __repr__(self):
        return f"WittRing(p={self.p}, q={self.q}, n={self.n})"


class WittElem:
    """An element of a WittRing; immutable."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        # rings come from the make_witt_ring cache, so identity almost
        # always decides before the tuple comparison of WittRing.__eq__
        if not isinstance(other, WittElem) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise RingMismatch(f"{self!r} vs {other!r}")

    def __add__(self, other):
        self._check(other)
        return WittElem(self.ring, self.ring._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return WittElem(self.ring, self.ring._sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return WittElem(self.ring, self.ring._neg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return WittElem(self.ring, self.ring._smul(other, self.coeffs))
        self._check(other)
        return WittElem(self.ring, self.ring._mul(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, int):
            return WittElem(self.ring, self.ring._smul(other, self.coeffs))
        return NotImplemented

    def unit_inverse(self):
        return WittElem(self.ring, self.ring._inv(self.coeffs))

    def frobenius(self, power=1):
        """sigma^power; sigma is the lift of x -> x^p, of order q."""
        ring = self.ring
        power %= ring.q
        if not power:
            return self
        return WittElem(ring, ring._apply_rows(
            self.coeffs, ring._frobenius_rows(power)))

    def valuation(self):
        """Largest v < n with self in p^v * ring; INFINITY when zero."""
        return self.ring._val(self.coeffs)

    def divide_exact(self, k):
        """Divide by p^k; every coefficient must be divisible."""
        pk = self.ring.p ** k
        if any(c % pk for c in self.coeffs):
            raise ValueError(f"not divisible by p^{k}")
        return WittElem(self.ring, tuple(c // pk for c in self.coeffs))

    def reduce_to(self, target_ring):
        """Project to a lower-precision ring with the same (p, q)."""
        if (
            target_ring.p != self.ring.p
            or target_ring.q != self.ring.q
            or target_ring.n > self.ring.n
        ):
            raise RingMismatch("reduce_to needs same (p, q), lower n")
        pm = target_ring.pn
        return WittElem(target_ring, tuple(c % pm for c in self.coeffs))

    def residue(self):
        """Coefficients mod p, as a tuple (an F_{p^q} element)."""
        p = self.ring.p
        return tuple(c % p for c in self.coeffs)

    def embed(self, target: WittRing) -> "WittElem":
        """Frobenius-equivariant embedding W_n(F_{p^q}) -> W_n(F_{p^Q}), q | Q."""
        R, S = self.ring, target
        if R == S:
            return self
        return WittElem(S, tuple(R._embed_flat(self.coeffs, S)))

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, WittElem)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring.p, self.ring.q, self.ring.n, self.coeffs))

    def __repr__(self):
        return f"W({list(self.coeffs)})"

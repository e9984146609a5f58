"""Exact arithmetic for the benchmark's output checks.

The checks must not share code with the computations they judge, so this
module re-implements the little they need on raw coefficient tuples:
products and Frobenius in (Z/p^n)[t]/(f), matrix products, the embedding
into a bigger residue field, and determinants over the residue field.
The only input taken from the program is the modulus f that defines the
ring (the Teichmuller lift of the Conway polynomial).
"""


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Ring:
    """(Z/p^n)[t]/(f) with f monic of degree q; sigma(t) = t^p."""

    def __init__(self, p, q, n, modulus):
        self.p, self.q, self.n = p, q, n
        self.pn = p ** n
        self.f = tuple(int(c) for c in modulus)
        require(len(self.f) == q + 1 and self.f[-1] % self.pn == 1,
                "modulus is not monic of degree q")
        self.zero = (0,) * q
        self.one = (1,) + (0,) * (q - 1)
        t = (0, 1) + (0,) * (q - 2) if q > 1 else ((-self.f[0]) % self.pn,)
        self.t = t
        self._tp = self.power(t, p)

    @classmethod
    def of(cls, witt_ring):
        return cls(witt_ring.p, witt_ring.q, witt_ring.n,
                   witt_ring.modulus_lift)

    def add(self, a, b):
        pn = self.pn
        return tuple((x + y) % pn for x, y in zip(a, b))

    def sub(self, a, b):
        pn = self.pn
        return tuple((x - y) % pn for x, y in zip(a, b))

    def mul(self, a, b):
        q, pn, f = self.q, self.pn, self.f
        prod = [0] * (2 * q - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for d in range(2 * q - 2, q - 1, -1):
            c = prod[d] % pn
            if c:
                for k in range(q):
                    prod[d - q + k] -= c * f[k]
        return tuple(x % pn for x in prod[:q])

    def power(self, a, e):
        acc, base = self.one, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def sigma(self, a):
        acc = self.zero
        for c in reversed(a):
            acc = self.add(self.mul(acc, self._tp), (c,) + (0,) * (self.q - 1))
        return acc

    def embedding(self, big):
        """Coefficient map into `big` sending t to t_big^((p^Q-1)/(p^q-1)).

        Compatible Conway polynomials make that power a root of f, which
        is re-checked here.
        """
        require(big.p == self.p and big.n == self.n and big.q % self.q == 0,
                "no embedding between these rings")
        u = big.power(big.t, (self.p ** big.q - 1) // (self.p ** self.q - 1))
        acc = big.zero
        for c in reversed(self.f):
            acc = big.add(big.mul(acc, u), (c % big.pn,) + (0,) * (big.q - 1))
        require(not any(acc), "embedding image is not a root of the modulus")
        powers = [big.one]
        for _ in range(self.q - 1):
            powers.append(big.mul(powers[-1], u))

        def embed(a):
            acc = big.zero
            for c, up in zip(a, powers):
                if c:
                    acc = big.add(acc, tuple((c * x) % big.pn for x in up))
            return acc
        return embed


# -- matrices: lists of rows of coefficient tuples ---------------------------


def mat_from_entries(entries):
    return [[tuple(int(c) for c in e) for e in row] for row in entries]


def mat_of(M):
    """Coefficient tuples of a program Matrix."""
    return [[e.coeffs for e in row] for row in M.entries]


def matmul(R, A, B):
    out = []
    for row in A:
        orow = []
        for j in range(len(B[0])):
            acc = R.zero
            for k, a in enumerate(row):
                acc = R.add(acc, R.mul(a, B[k][j]))
            orow.append(acc)
        out.append(orow)
    return out


def mat_sigma(R, A):
    return [[R.sigma(e) for e in row] for row in A]


def mat_map(fn, A):
    return [[fn(e) for e in row] for row in A]


def equal_mod(R, A, B, level):
    """A == B modulo p^level, entrywise."""
    m = R.p ** min(level, R.n)
    return all((x - y) % m == 0
               for ra, rb in zip(A, B) for ea, eb in zip(ra, rb)
               for x, y in zip(ea, eb))


def congruence_level(R, A):
    """Largest l <= n with A = 1 mod p^l."""
    level = R.n
    for i, row in enumerate(A):
        for j, e in enumerate(row):
            d = R.sub(e, R.one if i == j else R.zero)
            for c in d:
                v = 0
                while v < level and c % R.p ** (v + 1) == 0:
                    v += 1
                level = min(level, v)
    return level


def residue_det(R, A):
    """Determinant of A over the residue field, as a tuple mod p."""
    p, q = R.p, R.q
    F = Ring(p, q, 1, [c % p for c in R.f])
    m = [[tuple(c % p for c in e) for e in row] for row in A]
    r = len(m)
    order = p ** q - 1
    det = F.one
    for k in range(r):
        piv = next((i for i in range(k, r) if any(m[i][k])), None)
        if piv is None:
            return F.zero
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = F.sub(F.zero, det)
        det = F.mul(det, m[k][k])
        inv = F.power(m[k][k], order - 1)
        for i in range(k + 1, r):
            if any(m[i][k]):
                c = F.mul(m[i][k], inv)
                m[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(m[i], m[k])]
    return det


def is_invertible(R, A):
    """A square matrix over the local ring W_n is invertible iff its
    reduction mod p is."""
    return any(residue_det(R, A))

"""F-crystals at truncated precision: constructors, polygons, built-in families.

An FCrystal is (ring, rank, B, shift) encoding the semilinear map
phi(x) = p^(-shift) * B * sigma(x) in the standard basis.  B is always
integral; after normalization either shift = 0 or B has a unit entry.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    BadParams,
    BadShape,
    PrecisionExhausted,
    RingMismatch,
    SingularAtPrecision,
    UnknownCorpusName,
)
from .plinalg import Matrix, inverse_with_shift, smith_normal_form
from .semilinear import is_unit


class FCrystal:
    """A latticed F-isocrystal with chosen basis, at finite precision."""

    # exponents: the Smith exponents of B, kept from the injectivity check;
    # end_types: the group type of End_m per precision m, filled on first
    # use by `semilinear.end_type`; fixed_memo: (`stairs.fixed_datum(C)`,)
    # once computed, () before (B never changes, so neither can go stale)
    __slots__ = ("ring", "rank", "B", "shift", "exponents", "end_types",
                 "fixed_memo")

    def __init__(self, ring, B, shift=0):
        if B.ring is not ring and B.ring != ring:
            raise RingMismatch(f"phi is over {B.ring!r}, not {ring!r}")
        if B.rows != B.cols:
            raise BadShape("matrix of phi must be square")
        if shift < 0:
            raise BadShape("shift must be >= 0")
        while shift > 0 and (B.is_zero() or B.min_valuation() >= 1):
            B = B.divide_exact(1)
            shift -= 1
        exps = smith_normal_form(B)
        if any(e >= ring.n for e in exps) or sum(exps) >= ring.n:
            raise SingularAtPrecision("phi is not injective at this precision")
        self._set(ring, B, shift, exps)

    def _set(self, ring, B, shift, exps):
        self.ring = ring
        self.rank = B.rows
        self.B = B
        self.shift = shift
        self.exponents = exps
        self.end_types = {}
        self.fixed_memo = ()
        return self

    def twist(self, g: Matrix) -> "FCrystal":
        """The crystal with phi replaced by g o phi."""
        return FCrystal(self.ring, g @ self.B, self.shift)

    def reduce_to(self, ring) -> "FCrystal":
        return FCrystal(ring, self.B.reduce_to(ring), self.shift)

    def base_change(self, ring) -> "FCrystal":
        """The crystal over the unramified extension `ring`, which keeps
        B's Smith exponents: P B Q = diag(p^e) holds there too."""
        return object.__new__(FCrystal)._set(
            ring, self.B.embed(ring), self.shift, self.exponents)

    def __eq__(self, other):
        return (
            isinstance(other, FCrystal)
            and self.ring == other.ring
            and self.B == other.B
            and self.shift == other.shift
        )

    def __repr__(self):
        return (f"FCrystal(rank={self.rank}, shift={self.shift}, "
                f"ring={self.ring!r})")


def new_crystal(ring, B: Matrix, shift: int = 0) -> FCrystal:
    """Validated, normalized crystal constructor."""
    return FCrystal(ring, B, shift)


@dataclass(frozen=True)
class Polygon:
    """Slopes with multiplicities, slopes strictly increasing."""

    points: tuple  # of (Fraction, int)

    @staticmethod
    def from_slopes(slopes):
        counts = {}
        for s in slopes:
            s = Fraction(s)
            counts[s] = counts.get(s, 0) + 1
        return Polygon(tuple(sorted(counts.items())))

    def slopes(self):
        out = []
        for s, m in self.points:
            out.extend([s] * m)
        return out

    def __repr__(self):
        return "Polygon(" + ", ".join(
            f"{s}x{m}" for s, m in self.points) + ")"


def hodge_data(C: FCrystal):
    """(hodge polygon of p^s phi, s-number, h-number).

    Read off the Smith exponents kept by FCrystal, each below n.
    """
    exps = C.exponents
    e = C.shift
    s = max(0, e - min(exps)) if exps else 0
    slopes = sorted(x + s - e for x in exps)
    h = slopes[-1] if slopes else 0
    return Polygon.from_slopes(slopes), s, h


def newton_polygon(C: FCrystal) -> Polygon:
    """Exact Newton slopes, certified by the precision gate n > q*r*h."""
    ring = C.ring
    q, r = ring.q, C.rank
    _, _, h = hodge_data(C)
    if ring.n < q * r * h + 1:
        raise PrecisionExhausted(
            f"newton polygon needs precision >= {q * r * h + 1}, "
            f"have {ring.n}"
        )
    hull = _lower_hull(_exact_newton_points(C))
    if hull[-1][0] != r:
        raise PrecisionExhausted("constant coefficient vanishes at precision")
    slopes = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        lam = Fraction(y1 - y0, x1 - x0) / q - C.shift
        slopes.extend([lam] * (x1 - x0))
    return Polygon.from_slopes(slopes)


def _exact_newton_points(C):
    """The points (i, v) of the Newton polygon of L = B sigma(B) ...
    sigma^(q-1)(B) that B mod p^n determines: (0, 0), and (i, v) for each
    coefficient of x^(r-i) in det(xI - L) whose valuation v is below n."""
    ring, r = C.ring, C.rank
    L = C.B
    for k in range(1, ring.q):
        L = L @ C.B.sigma(k)
    coeffs = L.charpoly()  # c[0..r], det(xI - L) = sum c[i] x^i
    pts = [(0, 0)]
    for i in range(1, r + 1):
        v = coeffs[r - i].valuation()
        if v < ring.n:
            pts.append((i, int(v)))
    return pts


def certified_not_isoclinic(C: FCrystal) -> bool:
    """True when an exact Newton point lies strictly below the chord.

    The polygon of L ends at (r, q * sum of the Smith exponents), exactly
    at any precision, and passes on or below every exact point.  A point
    strictly below the chord from (0, 0) to that end proves the polygon
    is not a line, so C is not isoclinic and End(C) has a nonzero slope.
    False proves nothing.
    """
    r = C.rank
    end = C.ring.q * sum(C.exponents)
    return any(v * r < i * end for i, v in _exact_newton_points(C))


def _lower_hull(pts):
    pts = sorted(pts)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (p[0] - x0) >= (p[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def dual_crystal(C: FCrystal) -> FCrystal:
    """The dual crystal, phi* = p^shift (B^{-1})^T.

    Clearing the denominator p^e of B^{-1} costs precision: the result
    lives at n - e (PrecisionExhausted at zero).
    """
    Cmat, e = inverse_with_shift(C.B)
    new_n = C.ring.n - e
    if new_n < 1:
        raise PrecisionExhausted("dual exhausts the available precision")
    ring = C.ring.reduce_to(new_n)
    Bstar = Cmat.transpose().reduce_to(ring)
    # phi* = p^shift * (B^{-1})^T = p^(shift - e) * Bstar
    if e >= C.shift:
        return FCrystal(ring, Bstar, e - C.shift)
    return FCrystal(ring, Bstar.scale(ring.p ** (C.shift - e)), 0)


def end_crystal(C: FCrystal) -> FCrystal:
    """End(C) = C tensor its dual, at the dual's precision."""
    D = dual_crystal(C)
    return tensor_crystal(C.reduce_to(D.ring), D)


def _at_common_precision(C1, C2):
    """C1 and C2 at the smaller n; RingMismatch across residue fields."""
    R1, R2 = C1.ring, C2.ring
    if (R1.p, R1.q) != (R2.p, R2.q):
        raise RingMismatch(f"{R1!r} vs {R2!r}: residue fields differ")
    return (C1.reduce_to(R2) if R1.n > R2.n else C1,
            C2.reduce_to(R1) if R2.n > R1.n else C2)


def tensor_crystal(C1: FCrystal, C2: FCrystal) -> FCrystal:
    """Tensor product, at the smaller of the two precisions."""
    C1, C2 = _at_common_precision(C1, C2)
    return FCrystal(C1.ring, C1.B.kron(C2.B), C1.shift + C2.shift)


def direct_sum_crystal(C1: FCrystal, C2: FCrystal) -> FCrystal:
    """Direct sum, at the smaller of the two precisions."""
    C1, C2 = _at_common_precision(C1, C2)
    ring = C1.ring
    e = max(C1.shift, C2.shift)
    B1 = C1.B.scale(ring.p ** (e - C1.shift))
    B2 = C2.B.scale(ring.p ** (e - C2.shift))
    return FCrystal(ring, Matrix.block_diag(B1, B2), e)


def cyclic_from_exponents(ring, tau) -> FCrystal:
    """Cyclic crystal with phi(e_i) = p^(n_i) * e_(i+1), indices cyclic."""
    tau = list(tau)
    l = len(tau)
    if l < 1:
        raise BadParams("need at least one exponent")
    shift = max(0, -min(tau))
    z = ring.zero()
    ents = [[z] * l for _ in range(l)]
    for i in range(l):
        ents[(i + 1) % l][i] = ring.one() * ring.p ** (tau[i] + shift)
    return FCrystal(ring, Matrix(ring, ents), shift)


def random_twist(ring, r, level, rng) -> Matrix:
    """1 + p^level X with the r x r entries of X drawn row-major by
    ring.random_element(rng).  The power is p^min(level, n): from level n
    on, p^level is 0 mod p^n, and a huge level must not cost a huge int."""
    pk = ring.p ** min(level, ring.n)
    delta = Matrix(ring, [[ring.random_element(rng) * pk for _ in range(r)]
                          for _ in range(r)])
    return Matrix.identity(ring, r) + delta


class PolarizedCrystal:
    """Crystal with a perfect alternating form scaled by p^c under phi."""

    __slots__ = ("base", "J", "c")

    def __init__(self, base: FCrystal, J: Matrix, c: int):
        if base.shift != 0:
            raise BadShape("polarized crystals need shift 0")
        ring = base.ring
        r = base.rank
        if J.rows != r or J.cols != r:
            raise BadShape("Gram matrix shape mismatch")
        if not is_unit(J):
            raise BadShape("Gram matrix must be perfect")
        if J.transpose() != -J or any(
                not J[i, i].is_zero() for i in range(r)):
            raise BadShape("Gram matrix must be alternating")
        lhs = base.B.transpose() @ J @ base.B
        rhs = J.scale(ring.p ** c)
        if lhs != rhs:
            raise BadShape("form does not scale by p^c under phi")
        self.base = base
        self.J = J
        self.c = c


# -- built-in families -------------------------------------------------------


def builtin_crystal(ring, name, **params):
    """Construct one of the named built-in families over the given ring.

    Names: example_2_3_2(r), isoclinic_3_3_6(r, c), phi_alpha_4_5(alpha),
    supersingular(d), ordinary(r, d), polarized_4_5_4(alpha).
    """
    if name == "example_2_3_2":
        r = params["r"]
        if r < 3:
            raise BadParams("need r >= 3")
        return cyclic_from_exponents(ring, [1] * (r - 1) + [-1])
    if name == "isoclinic_3_3_6":
        return _isoclinic_cyclic(ring, params["r"], params["c"])
    if name == "phi_alpha_4_5":
        return _slope_thirds_family(ring, params.get("alpha", 0))
    if name == "supersingular":
        d = params["d"]
        if d < 1:
            raise BadParams("need d >= 1")
        C = cyclic_from_exponents(ring, [0, 1])
        for _ in range(d - 1):
            C = direct_sum_crystal(C, cyclic_from_exponents(ring, [0, 1]))
        return C
    if name == "ordinary":
        r, d = params["r"], params["d"]
        if not (0 <= d <= r and r >= 1):
            raise BadParams("need 0 <= d <= r")
        return FCrystal(ring, Matrix.from_ints(
            ring,
            [[(1 if i < r - d else ring.p) if i == j else 0
              for j in range(r)] for i in range(r)]
        ), 0)
    if name == "polarized_4_5_4":
        base = _slope_thirds_family(ring, params.get("alpha", 0))
        J = _alternating_gram(ring, 6, [(0, 5), (2, 4), (1, 3)])
        lhs = base.B.transpose() @ J @ base.B
        c = None
        for cc in range(ring.n):
            if lhs == J.scale(ring.p ** cc):
                c = cc
                break
        if c is None:
            raise BadShape("no scaling exponent found")
        return PolarizedCrystal(base, J, c)
    raise UnknownCorpusName(name)


def _isoclinic_cyclic(ring, r, c):
    """Basis e_0..e_{r-1}; phi(e_i) = e_{i+d} for i < c, else p*e_{i+d}."""
    if not (1 <= c <= r - 1):
        raise BadParams("need 1 <= c <= r-1")
    d = r - c
    if gcd(c, d) != 1:
        raise BadParams("need gcd(c, r-c) = 1")
    z = ring.zero()
    ents = [[z] * r for _ in range(r)]
    for i in range(r):
        ents[(i + d) % r][i] = ring.one() if i < c else ring.from_int(ring.p)
    return FCrystal(ring, Matrix(ring, ents), 0)


def _slope_thirds_family(ring, alpha):
    """Rank 6, slopes 1/3 and 2/3; alpha twists e_5 -> e_6 + alpha*e_1."""
    if isinstance(alpha, int):
        alpha = ring.from_int(alpha)
    z, o, p = ring.zero(), ring.one(), ring.from_int(ring.p)
    cols = {
        0: [(1, o)],
        1: [(2, p)],
        2: [(0, p)],
        3: [(4, o)],
        4: [(5, o), (0, alpha)],
        5: [(3, p)],
    }
    ents = [[z] * 6 for _ in range(6)]
    for j, hits in cols.items():
        for i, val in hits:
            ents[i][j] = val
    return FCrystal(ring, Matrix(ring, ents), 0)


def _alternating_gram(ring, r, pairs):
    z, o = ring.zero(), ring.one()
    ents = [[z] * r for _ in range(r)]
    for i, j in pairs:
        ents[i][j] = o
        ents[j][i] = -o
    return Matrix(ring, ents)

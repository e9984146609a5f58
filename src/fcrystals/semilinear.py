"""Solving sigma-semilinear equations at finite precision.

The central trick: sigma is Z/p^m-linear on Witt coordinates, so modules
of intertwiners, fixed lattices, and circular residue systems all reduce
to exact linear algebra over Z/p^m.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import count

from .errors import (
    BadShape,
    ExtensionCapExceeded,
    InternalError,
    SearchSpaceTooLarge,
    ShiftUnsupported,
    SingularAtPrecision,
    UnknownField,
)
from .plinalg import (
    IntSolver,
    Matrix,
    SwarMod,
    _PackedRows,
    fp_independent_rows,
    fp_kernel,
    fp_row_reduce,
    howell_form,
    howell_pivots,
    in_howell_span,
    pack_rows,
    smith_normal_form,
    swar_slot,
    w_span_rows,
)
from .witt import make_witt_ring

EXHAUSTIVE_CAP = 1 << 20
# random candidates tried when the mod-p span exceeds EXHAUSTIVE_CAP
RANDOMIZED_TRIALS = 20000


def _intertwiner_system(B1, B2, ring, sigma_power=1):
    """(P, rows): {g : g @ B1 = B2 @ sigma^power(g)} as equations packed
    by P, a `_PackedRows` over Z/p^n; g's coordinates are row-major.

    Equation (i, j, t) is coordinate t of entry (i, j) of g B1 - B2
    sigma^power(g): g[i,k]'s coordinate s enters with coordinate t of
    B1[k,j] t^s, g[k,j]'s with minus that of B2[i,k] sigma^power(t^s).
    Each entry's q products are packed once into pieces of rows, which
    one `reduce` ends: a slot gets at most two terms below p^n.
    """
    q, pn, W = ring.q, ring.pn, ring._w
    r2, r1 = B2.rows, B1.cols
    P = _PackedRows(ring.p, ring.n, r2 * r1 * q)
    stride = r1 * q * P.w   # bits of a row of g
    sig = [tuple(int(s == u) for u in range(q)) for s in range(q)]
    for _ in range(sigma_power % q):
        sig = [ring._sigma_raw(x) for x in sig]
    sig, ts = [ring._pack(x, W) for x in sig], [1 << s * W for s in range(q)]

    def block(a, cols):
        # products a * u for packed u in cols, one after another: entry
        # s * q + t is coordinate t of the s-th
        pa = ring._pack(a.coeffs, W)
        return [c for u in cols for c in ring._reduce(pa * u, W)]

    left, right = [], []
    for j in range(r1):
        flat = [c for k in range(B1.rows) for c in block(B1[k, j], ts)]
        left.append([P.pack(flat[t::q]) for t in range(q)])
    for i in range(r2):
        negs = [[(pn - c) % pn for c in block(B2[i, k], sig)]
                for k in range(B2.rows)]
        right.append([sum(P.pack(neg[t::q]) << k * stride
                          for k, neg in enumerate(negs)) for t in range(q)])
    return P, [P.reduce((left[j][t] << i * stride)
                        + (right[i][t] << j * q * P.w))
               for i in range(r2) for j in range(r1) for t in range(q)]


@dataclass
class HomModule:
    """Howell basis of {g : g phi_1 = phi_2 g} at precision m."""

    ring: object
    shape: tuple          # (rank of target, rank of source)
    precision: int
    profile: list         # pivot valuations
    _howell: list         # the Howell rows, flat row-major coordinates

    def rank_free(self):
        return sum(1 for v in self.profile if v == 0)

    @classmethod
    def from_system(cls, ring, shape, P, rows):
        """The module of solutions over `ring` of the system `rows`, packed
        by P."""
        kern = howell_form(P, IntSolver(P, rows).kernel_generators())
        profile = [v for (_, v) in howell_pivots(kern, ring.p, ring.n)]
        return cls(ring, shape, ring.n, profile, kern)

    @cached_property
    def basis(self):
        """The Howell rows as Matrix objects over the precision-m ring,
        built on first read."""
        return [Matrix.from_flat_ints(self.ring, *self.shape, v)
                for v in self._howell]

    def mod_p_spanning_subset(self):
        """Howell rows whose residues form an F_p-basis of the mod-p image.

        A row's residue can be nonzero when its pivot valuation is
        positive, so all rows take part; each row whose residue is
        independent of the earlier ones is kept (`fp_independent_rows`),
        to allow lifting hits back into the module.
        """
        r, c = self.shape
        P = _PackedRows(self.ring.p, self.precision, r * c * self.ring.q)
        return [self._howell[i] for i in fp_independent_rows(
            P, list(map(P.pack, self._howell)))]

    def element(self, coeffs):
        r, c = self.shape
        return Matrix.from_flat_ints(self.ring, r, c, _row_combination(
            coeffs, self._howell, r * c * self.ring.q))

    def size_log(self):
        """log_p of the number of module elements."""
        n = self.precision
        return sum(n - v for v in self.profile)

    def contains(self, g: Matrix) -> bool:
        return in_howell_span(g.flatten_ints(), self._howell, self.ring.p,
                              self.precision)


def hom_module(C1, C2, precision=None) -> HomModule:
    """All g with g o phi_1 = phi_2 o g over W_precision, a Howell basis."""
    if C1.shift != 0 or C2.shift != 0:
        raise ShiftUnsupported("clear denominators first")
    if C1.ring != C2.ring:
        raise BadShape("crystals must share a ring")
    ring = C1.ring
    m = ring.n if precision is None else precision
    if m > ring.n:
        raise BadShape("precision exceeds the ring's")
    rm = make_witt_ring(ring.p, ring.q, m)
    return HomModule.from_system(rm, (C2.rank, C1.rank), *_intertwiner_system(
        C1.B.reduce_to(rm), C2.B.reduce_to(rm), rm))


def fixed_lattice(C):
    """(HomModule of End fixed points, lattice exponent of their W-span).

    The exponent is the smallest e with p^e * End inside the W-span of
    the fixed elements; equals the ring precision when the span is not
    full.
    """
    H = hom_module(C, C)
    rm = H.ring
    m = H.precision
    hw = howell_form(*pack_rows(w_span_rows(H.basis, rm), rm.p, m))
    piv = howell_pivots(hw, rm.p, m)
    ncoords = C.rank * C.rank * rm.q
    if len(piv) < ncoords:
        return H, m
    return H, max(v for (_, v) in piv)


# -- unit search --------------------------------------------------------------


def _row_combination(coeffs, rows, width):
    """sum of c * row over coeffs and flat coordinate rows, unreduced;
    `width` zeros when there are no rows."""
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            for t, x in enumerate(row):
                acc[t] += c * x
    return acc


@dataclass
class IsomResult:
    witness: object         # Matrix or None
    regime: str             # "exhaustive" | "randomized"
    trials: int = 0

    @property
    def definitive(self):
        return self.witness is not None or self.regime == "exhaustive"


def isom_search(C1, C2, precision=None, seed=0) -> IsomResult:
    """Search the Hom module for a unit; exhaustive below the span cap.

    The mod-p span of the Hom module is scanned for a unit determinant;
    a hit lifts to an isomorphism witness at the working precision, and
    an exhaustive miss certifies None.
    """
    if C1.rank != C2.rank:
        return IsomResult(None, "exhaustive", 0)
    H = hom_module(C1, C2, precision)
    return unit_search(H, seed=seed)


def unit_search(H: HomModule, seed=0) -> IsomResult:
    """Search the mod-p span of the module for a unit-determinant element.

    Up to EXHAUSTIVE_CAP elements the span is scanned in index order, so
    the witness is the lexicographically smallest unit (base-p digit
    vectors over the spanning subset).  Beyond it, RANDOMIZED_TRIALS
    random combinations are tried, and the first unit among them lifts.
    """
    ring = H.ring
    p = ring.p
    r = H.shape[0]
    if H.shape[0] != H.shape[1]:
        return IsomResult(None, "exhaustive", 0)
    free = H.mod_p_spanning_subset()
    k = len(free)
    if k == 0:
        return IsomResult(None, "exhaustive", 0)

    def lift(coeffs):
        return Matrix.from_flat_ints(ring, r, r, _row_combination(
            coeffs, free, r * r * ring.q))

    if p ** k <= EXHAUSTIVE_CAP:
        idx = _scan_range(ring, free, r)
        if idx is None:
            return IsomResult(None, "exhaustive", 0)
        return IsomResult(lift([idx // p ** d % p for d in range(k)]),
                          "exhaustive")
    hit = _first_unit_trial(ring, free, r, random.Random(seed))
    if hit is None:
        return IsomResult(None, "randomized", RANDOMIZED_TRIALS)
    trial, coeffs = hit
    return IsomResult(lift(coeffs), "randomized", trial)


def _first_unit_trial(ring, rows, r, rng):
    """(number, coefficients) of the first of RANDOMIZED_TRIALS random
    combinations of the flat coordinate rows that is a unit, or None.

    Trials are drawn one after another, coefficients in row order, and
    evaluated in batches of consecutive trials: lane x of a batch is its
    x-th trial, so the lowest unit lane is the first successful trial.
    Batches double from one trial up to one block of lanes.
    """
    p, k = ring.p, len(rows)
    Lanes, w, b = _layout(ring, r, k)
    zero = [0] * (r * r * ring.q)
    done, n = 0, 1
    while done < RANDOMIZED_TRIALS:
        n = min(n, RANDOMIZED_TRIALS - done)
        trials = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        coeffs = [sum(t[d] << x * w for x, t in enumerate(trials))
                  for d in range(k)]
        units = Lanes(ring, rows, coeffs, r, n).units(zero)
        if units:
            x = ((units & -units).bit_length() - 1) // w
            return done + x + 1, trials[x]
        done += n
        n = min(2 * n, p ** b)
    return None


def _scan_range(ring, rows, r, base=None):
    """First index in [0, p^k) whose combination of the k flat coordinate
    rows (plus the flat row base) is a unit modulo p.

    Index digits are base-p coefficients, digit 0 (rows[0]) fastest.
    Blocks of p^b indices are evaluated at once: lane x of every int, a
    slot of w bits, stands for the index start + x.  The low b digits
    come from fixed lane patterns, the base and the block's high digits
    are constants.  The lowest unit lane is the first unit in index order.
    """
    p, k = ring.p, len(rows)
    Lanes, w, b = _layout(ring, r, k)
    size = p ** b
    block = Lanes(ring, rows[:b], _digit_lanes(p, b, w), r, size)
    for start in range(0, p ** k, size):
        const = list(base) if base else [0] * (r * r * ring.q)
        for d in range(b, k):
            c = start // p ** d % p
            if c:
                const = [x + c * v for x, v in zip(const, rows[d])]
        units = block.units(const)
        if units:
            return start + ((units & -units).bit_length() - 1) // w
    return None


# log2 of the bits of one lane-block int: the indices of a block share
# every digit from b up, where p^b slots fill at most this many bits
_BLOCK_BITS = 12


def _layout(ring, r, k):
    """(lane class, slot bits w, block digits b) for r x r matrices over
    the residue field of ring, b the largest b <= k with p^b slots in at
    most 2^_BLOCK_BITS bits."""
    p = ring.p
    w = 1 if p == 2 else swar_slot(p, _det_bound(p, ring.q, r))
    b = 0
    while b < k and p ** (b + 1) * w <= 1 << _BLOCK_BITS:
        b += 1
    return (_Gf2Lanes if p == 2 else _FpLanes), w, b


def _digit_lanes(p, b, w):
    """Ints over p^b lanes of w bits whose lane x holds digit d of x
    (base p), for d < b."""
    full = (1 << p ** b * w) - 1
    out = []
    for d in range(b):
        run = p ** d
        rep = ((1 << run * w) - 1) // ((1 << w) - 1)
        period = sum(c * rep << c * run * w for c in range(1, p))
        out.append(period * (full // ((1 << p * run * w) - 1)))
    return out


def _entries(flat, r, q):
    """The r x r matrix of q-coordinate entries of a flat row-major list."""
    return [[flat[(i * r + j) * q:(i * r + j + 1) * q] for j in range(r)]
            for i in range(r)]


class _Gf2Lanes:
    """Lanes at p = 2, one bit per lane.

    A flat coordinate is a bit plane: the coordinates of the rows `rows`
    taken mod 2, each masked by its coefficient int (one bit per lane),
    added up, plus a constant coordinate (any int, taken mod 2) that is
    the same in every lane.
    """

    def __init__(self, ring, rows, coeffs, r, lanes):
        q = self.q = ring.q
        self.r, self.ones = r, (1 << lanes) - 1
        # t^q = sum of t^s over these s, modulo the Conway polynomial mod 2
        self.fold = [s for s in range(q) if ring.field.modulus[s] % 2]
        low = self.low = [0] * (r * r * q)
        for row, c in zip(rows, coeffs):
            for s, v in enumerate(row):
                if v & 1:
                    low[s] ^= c

    def units(self, const):
        ones = self.ones
        flat = [x ^ ones if c & 1 else x for x, c in zip(self.low, const)]
        return _det_lanes_gf2(_entries(flat, self.r, self.q), self.r,
                              self.q, self.fold)


def _det_lanes_gf2(M, r, q, fold):
    """Lanes where the bit-sliced r x r matrix M has a nonzero determinant.

    Subset expansion D[S + {j}] += D[S] M[i][j], rows in order: in
    characteristic 2 the determinant is the permanent, so no lane needs
    a sign or a pivot.  Entries zero in every lane are skipped, and the
    expansion stops once every partial sum is zero in every lane.
    """
    D = {1 << j: M[0][j] for j in range(r) if any(M[0][j])}
    for i in range(1, r):
        row = [(j, e) for j, e in enumerate(M[i]) if any(e)]
        nxt = {}
        for S, a in D.items():
            for j, e in row:
                if S >> j & 1:
                    continue
                acc = nxt.get(S | 1 << j)
                if acc is None:
                    acc = nxt[S | 1 << j] = [0] * (2 * q - 1)
                for u, au in enumerate(a):
                    if au:
                        for v, ev in enumerate(e):
                            if ev:
                                acc[u + v] ^= au & ev
        D = {}
        for S, acc in nxt.items():
            for s in range(2 * q - 2, q - 1, -1):
                if acc[s]:
                    for t in fold:
                        acc[s - q + t] ^= acc[s]
            if any(acc[:q]):
                D[S] = acc[:q]
        if not D:
            return 0
    out = 0
    for plane in D.get((1 << r) - 1, ()):
        out |= plane
    return out


def _det_bound(p, q, r):
    """Largest slot of a determinant coefficient at odd p: a sum of at
    most r products of q pairs, one factor below p and one at most p (a
    negation p - a), before q - 1 reduced high coefficients fold into it."""
    return (r + 1) * q * p * (p - 1)


class _FpLanes(SwarMod):
    """Lanes at odd p, one F_p value per lane in a slot.

    A flat coordinate is an int: the coordinates of the rows `rows` taken
    mod p, each times its coefficient int (one value below p per lane),
    added up, plus a constant coordinate (any int, taken mod p) added to
    every slot.  Slots add up unreduced, and the SWAR Barrett step of
    `SwarMod` brings every slot of an int back below p.
    """

    def __init__(self, ring, rows, coeffs, r, lanes):
        p, q = self.p, self.q = ring.p, ring.q
        self.r = r
        bound = _det_bound(p, q, r)
        super().__init__(p, bound, lanes, swar_slot(p, bound))
        # t^(q+i) modulo the Conway polynomial mod p, as (t, coefficient)
        top = [(-c) % p for c in ring.field.modulus[:q]]
        row, self.fold = top, []
        for _ in range(q - 1):
            self.fold.append([(t, c) for t, c in enumerate(row) if c])
            row = [(a + row[-1] * c) % p for a, c in zip([0] + row, top)]
        low = self.low = [0] * (r * r * q)
        for row, c in zip(rows, coeffs):
            for s, v in enumerate(row):
                if v % p:
                    low[s] = self.reduce(low[s] + v % p * c)

    def _reduce_poly(self, acc):
        """acc (2q - 1 coefficients) modulo the Conway polynomial and p."""
        q, red = self.q, self.reduce
        out = acc[:q]
        for h, row in zip(acc[q:], self.fold):
            if h:
                h = red(h)
                for t, c in row:
                    out[t] += h * c
        return [red(x) if x else 0 for x in out]

    def units(self, const):
        p, ones = self.p, self.ones
        flat = [self.lower(x + c % p * ones) if c % p else x
                for x, c in zip(self.low, const)]
        return self._det(_entries(flat, self.r, self.q))

    def _det(self, M):
        """Lanes where the r x r matrix M over F_{p^q} has a nonzero
        determinant.

        Signed subset expansion, rows in order:
        D[S + {j}] += (-1)^#{s in S: s > j} D[S] M[i][j], a negative term
        taken as (p - D[S]) M[i][j].  A lanewise product a * v is the sum
        of a << s over the set bits s of v, each selected by a slot mask.
        Entries zero in every lane are skipped, and the expansion stops
        once every partial sum is zero in every lane.
        """
        r, q, ones = self.r, self.q, self.ones
        p_lanes = self.p * ones
        keep = (1 << self.p.bit_length()) - 1
        bits = range((self.p - 1).bit_length())
        D = {1 << j: e for j, e in enumerate(M[0]) if any(e)}
        for i in range(1, r):
            row = []
            for j, e in enumerate(M[i]):
                terms = [(v, m, s) for v, x in enumerate(e) if x
                         for s in bits if (m := (x >> s & ones) * keep)]
                if terms:
                    row.append((j, terms))
            nxt = {}
            for S, a in D.items():
                minus = [p_lanes - x if x else 0 for x in a]
                for j, terms in row:
                    if S >> j & 1:
                        continue
                    acc = nxt.get(S | 1 << j)
                    if acc is None:
                        acc = nxt[S | 1 << j] = [0] * (2 * q - 1)
                    for u, au in enumerate(
                            minus if (S >> j).bit_count() & 1 else a):
                        if au:
                            for v, m, s in terms:
                                acc[u + v] += (au & m) << s
            D = {}
            for S, acc in nxt.items():
                red = self._reduce_poly(acc)
                if any(red):
                    D[S] = red
            if not D:
                return 0
        out = 0
        for x in D.get((1 << r) - 1, ()):
            out |= x
        return out


def cokernel_length(f: Matrix, C1, C2) -> int:
    """Length of coker(f) for an injective morphism f: C1 -> C2."""
    lhs = f @ C1.B
    rhs = C2.B @ f.sigma()
    if lhs != rhs:
        raise BadShape("f does not intertwine the semilinear maps")
    ring = f.ring
    exps = smith_normal_form(f).exponents
    if any(e >= ring.n for e in exps):
        raise SingularAtPrecision("f is singular at this precision")
    return sum(exps)


# -- circular residue systems -------------------------------------------------


@dataclass
class CircularSystem:
    """b_j x_j + c_j - d_j x_{j-1}^p = 0 over a residue field (indices cyclic)."""

    ring: object    # WittRing at precision 1
    length: int
    b: list         # field elements (WittElem at precision 1)
    c: list
    d: list


@dataclass
class CircularSolution:
    values: list
    ring: object         # field ring containing the solution
    extension: int       # D with the solution field F_{p^(Q*D)}


def solve_circular(sys: CircularSystem, case: int) -> CircularSolution:
    """Solve the cyclic residue system; case +1 may need a field extension.

    case -1 (all d_j units, some b_j zero): back-substitution with p-th
    roots; unique solution in the base field.  case +1 (all b_j units):
    elimination to a single additive equation x = u + v * x^(p^L),
    solved by F_p-linear algebra over F_{p^(Q*D)} for the smallest D
    that works (the equation is etale, so some D works; the built-in
    field table bounds the search).
    """
    ring = sys.ring
    if ring.n != 1:
        raise BadShape("circular systems live over residue fields")
    L = sys.length
    if case == -1:
        for d in sys.d:
            if d.valuation() != 0:
                raise BadShape("case -1 needs unit d_j")
        j0 = None
        for j in range(L):
            if sys.b[j].is_zero():
                j0 = j
                break
        if j0 is None:
            raise BadShape("case -1 needs some b_j = 0")
        x = [None] * L
        # equation j gives x_{j-1} = ((b_j x_j + c_j) / d_j)^(1/p)
        j = j0
        for _ in range(L):
            prev = (j - 1) % L
            if sys.b[j].is_zero() or x[j] is None:
                val = sys.c[j]
            else:
                val = sys.b[j] * x[j] + sys.c[j]
            x[prev] = _pth_root(val * sys.d[j].unit_inverse())
            j = prev
        _check_circular(sys, x)
        return CircularSolution(x, ring, 1)
    if case != 1:
        raise BadShape("case must be +1 or -1")
    for b in sys.b:
        if b.valuation() != 0:
            raise BadShape("case +1 needs unit b_j")
    # eliminate: x_j = (d_j x_{j-1}^p - c_j) / b_j; go around the cycle
    # starting from x_0 symbolic: x_j = A_j + V_j * x_0^(p^j) with
    # A, V in increasing extensions... done over the base ring directly:
    # A_j, V_j live in the base field.
    A = ring.zero()
    V = ring.one()
    # after the full loop: x_0 = A + V * x_0^(p^L)
    for j in range(1, L + 1):
        jj = j % L
        binv = sys.b[jj].unit_inverse()
        A = (sys.d[jj] * _frob(A) - sys.c[jj]) * binv
        V = sys.d[jj] * _frob(V) * binv
    for D in count(1):
        try:
            big = make_witt_ring(ring.p, ring.q * D, 1)
        except UnknownField:
            raise ExtensionCapExceeded(
                f"no root within the built-in field table (degree "
                f"{ring.q * D} needed)"
            ) from None
        x0 = _solve_additive(big, A.embed(big), V.embed(big), L)
        if x0 is not None:
            xs = [None] * L
            xs[0] = x0
            bigsys = CircularSystem(
                big, L,
                [b.embed(big) for b in sys.b],
                [c.embed(big) for c in sys.c],
                [d.embed(big) for d in sys.d],
            )
            for j in range(1, L):
                prev = xs[j - 1]
                xs[j] = (bigsys.d[j] * _frob(prev) - bigsys.c[j]) \
                    * bigsys.b[j].unit_inverse()
            # cyclic indexing: values are x_1..x_L with x_0 = x_L; we
            # store x_j at position j, position 0 holding x_0 = x_L
            _check_circular(bigsys, xs)
            return CircularSolution(xs, big, D)


def _frob(a):
    return a.frobenius()


def _pth_root(a):
    """Inverse Frobenius on a residue field element."""
    return a.frobenius_inv() if a.ring.q > 1 else a


def _check_circular(sys, xs):
    L = sys.length
    for j in range(L):
        lhs = sys.b[j] * xs[j] + sys.c[j] - sys.d[j] * _frob(xs[(j - 1) % L])
        if not lhs.is_zero():
            raise InternalError(f"circular equation {j} violated")


def _solve_additive(big, A, V, L):
    """Solve x = A + V * x^(p^(q0*L)) in the field `big`, or None.

    sigma on `big` has order big.q; x^(p^k) is sigma^k.  The map
    x - V*sigma^L(x) is F_p-linear on the F_p-vector space of dimension
    big.q; solve by row reduction.
    """
    p, q = big.p, big.q
    cols = []
    for j in range(q):
        basis = big.element(tuple(1 if t == j else 0 for t in range(q)))
        img = basis - V * basis.frobenius(L % q)
        cols.append(img.coeffs)
    # matrix over F_p of size q x q: entry [i][j] = cols[j][i]
    aug = [[cols[j][i] for j in range(q)] + [A.coeffs[i]] for i in range(q)]
    red, pivots = fp_row_reduce(aug, p)
    if q in pivots:
        return None  # a pivot in the augmented column: inconsistent
    sol = [0] * q
    for row, c in zip(red, pivots):
        sol[c] = row[q]
    return big.element(sol)


def sigma_conjugacy_trivialize(gbar: Matrix):
    """x with x * gbar * sigma(x)^{-1} = 1 over the first F_{p^(Q*D)} with one.

    Equivalent to sigma(x) = x * gbar, an F_p-linear condition; the
    solution space is scanned for an invertible element (such x exist
    over the algebraic closure, so some D works; the built-in field
    table bounds the search).
    """
    ring = gbar.ring
    if ring.n != 1:
        raise BadShape("Lang trivialization happens over the residue field")
    r = gbar.rows
    for D in count(1):
        try:
            big = make_witt_ring(ring.p, ring.q * D, 1)
        except UnknownField:
            raise ExtensionCapExceeded(
                f"no trivializer within the built-in field table"
            ) from None
        g = gbar.embed(big)
        x = _lang_search(big, g, r)
        if x is not None:
            return x, big, D


def _lang_search(big, g, r):
    """First invertible solution x of sigma(x) = x g, in coefficient order
    over the kernel basis (first coefficient outermost), or None."""
    p, q = big.p, big.q
    nv = r * r * q
    images = []
    for k in range(nv):
        X = Matrix.from_flat_ints(big, r, r, [int(t == k) for t in range(nv)])
        images.append((X.sigma() - X @ g).flatten_ints())
    kern = fp_kernel([list(col) for col in zip(*images)], p)
    if not kern:
        return None
    k = len(kern)
    if p ** k > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge(f"Lang solution space has p^{k} elements")
    # the scan turns digit 0 fastest, so the last kernel vector goes
    # first; index 0 (the zero matrix) is never a unit
    rows = kern[::-1]
    idx = _scan_range(big, rows, r)
    if idx is None:
        return None
    return Matrix.from_flat_ints(big, r, r, _row_combination(
        [idx // p ** d % p for d in range(k)], rows, nv))


# -- restriction images and descent ------------------------------------------


def hom_image(C1, C2, from_prec, to_prec):
    """Howell basis of Im(Hom at from_prec -> Hom at to_prec)."""
    H = hom_module(C1, C2, from_prec)
    return howell_form(*pack_rows(H._howell, C1.ring.p, to_prec))


def hom_stabilization_check(C1, C2, m12, h12, t):
    """Check the restriction-image chain stabilizes at the predicted level.

    With v12 = m12 + h12 and n12 = m12 + eps_p, the image of
    Hom(n12 + v12 + t) inside Hom(n12 + t) must equal the image from
    every higher precision up to the ring's.
    """
    from .bounds import epsilon_p
    ring = C1.ring
    eps = epsilon_p(ring.p)
    n12 = m12 + eps
    v12 = m12 + h12
    lo = n12 + t
    hi = n12 + v12 + t
    if hi > ring.n:
        raise BadShape("ring precision too small for the predicted level")
    stable = hom_image(C1, C2, hi, lo)
    for N in range(hi + 1, ring.n + 1):
        img = hom_image(C1, C2, N, lo)
        # Howell bases are not canonical: compare the spans
        if not all(in_howell_span(v, b, ring.p, lo)
                   for a, b in ((img, stable), (stable, img)) for v in a):
            return False, (hi, N)
    return True, (hi, ring.n)


def descends_to_subfield(mats, subfield_degree: int) -> bool:
    """Every entry of the matrices fixed by sigma^subfield_degree."""
    for b in mats:
        for row in b.entries:
            for e in row:
                if e.frobenius(subfield_degree % e.ring.q) != e:
                    return False
    return True

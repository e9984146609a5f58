"""Solving sigma-semilinear equations at finite precision.

The central trick: sigma is Z/p^m-linear on Witt coordinates, so modules
of intertwiners, fixed lattices, and circular residue systems all reduce
to exact linear algebra over Z/p^m.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from operator import mul

from .bounds import epsilon_p
from .errors import (
    BadShape,
    ExtensionCapExceeded,
    InternalError,
    RingMismatch,
    ShiftUnsupported,
    SingularAtPrecision,
)
from .plinalg import (
    IntSolver,
    Matrix,
    SwarMod,
    _intertwiner_system,
    fp_independent_rows,
    fp_kernel,
    howell_contains,
    howell_form,
    howell_pivots,
    pack_rows,
    packing,
    smith_normal_form,
    swar_slot,
    w_span_rows,
    w_span_solver,
)
from .witt import WittElem, field_walk, make_witt_ring

EXHAUSTIVE_CAP = 1 << 20
# random candidates tried when the mod-p span exceeds EXHAUSTIVE_CAP
RANDOMIZED_TRIALS = 20000


class HomModule:
    """Howell basis of {g : g phi_1 = phi_2 g} at precision m.

    The group type comes with the system's elimination; the kernel's
    Howell basis, its pivot valuations (`profile`) and the rows packed
    for the mod-p subset are built on first read, so a caller that reads
    only the type (a group-type negative) never eliminates the kernel.
    The solver is let go once the basis exists.
    """

    def __init__(self, ring, shape, P, rows):
        """The module of solutions over `ring` of the system `rows`, packed
        by P."""
        solver = IntSolver(P, rows)
        self.ring = ring
        self.shape = shape                    # (rank of target, of source)
        self.precision = ring.n
        # sorted e over the cyclic factors Z/p^e
        self.group_type = solver.kernel_type()
        self._solver = solver

    def rank_free(self):
        """The number of Howell rows whose pivot is a unit (`free_rank` of
        `hom`); not the number of Z/p^m summands, which `group_type`
        counts: supersingular(d=1) over W_4(F_2) at precision 2 has
        profile [0, 1, 1], one such row, and group type (2, 2)."""
        return sum(1 for v in self.profile if v == 0)

    @cached_property
    def _packed(self):
        """(P, the Howell rows as P packs them), for the mod-p subset."""
        solver, self._solver = self._solver, None
        P = solver.packing
        return P, howell_form(P, solver.kernel_generators(), packed=True)

    @cached_property
    def _howell(self):
        """The Howell rows, flat row-major coordinates."""
        P, packed = self._packed
        return [P.unpack(r) for r in packed]

    @cached_property
    def profile(self):
        """The pivot valuations of the Howell rows."""
        return [v for (_, v) in howell_pivots(self._howell, self.ring.p,
                                              self.precision)]

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
        return [self._howell[i] for i in fp_independent_rows(*self._packed)]

    def element(self, coeffs):
        r, c = self.shape
        return Matrix.from_flat_ints(self.ring, r, c, _row_combination(
            coeffs, self._howell, r * c * self.ring.q))

    def size_log(self):
        """log_p of the number of module elements."""
        return sum(self.group_type)

    def contains(self, g: Matrix) -> bool:
        return howell_contains(self._howell, [g.flat], self.ring.p,
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
    return HomModule(rm, (C2.rank, C1.rank), *_intertwiner_system(
        C1.B.reduce_to(rm), C2.B.reduce_to(rm), rm))


def end_type(C, rm):
    """The group type of End_m(C) over rm = W_m, as `hom_module(C, C, m)`
    gives it, kept on C per m: one elimination, with no kernel basis."""
    t = C.end_types.get(rm.n)
    if t is None:
        t = C.end_types[rm.n] = hom_module(C, C, rm.n).group_type
    return t


def fixed_lattice(C):
    """(HomModule of End fixed points, lattice exponent of their W-span).

    The exponent is the smallest e with p^e * End inside the W-span of
    the fixed elements, the largest Smith exponent of the span
    (`IntSolver.cokernel_exponent`); equals the ring precision when the
    span is not full.
    """
    H = hom_module(C, C)
    return H, min(H.precision,
                  w_span_solver(H.basis, H.ring).cokernel_exponent())


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
    # "exhaustive": definitive, the span scanned or ruled out by group
    # type; "randomized": random trials above EXHAUSTIVE_CAP
    regime: str
    trials: int = 0

    @property
    def definitive(self):
        return self.witness is not None or self.regime == "exhaustive"


def isom_search(C1, C2, precision=None, seed=0) -> IsomResult:
    """Search the Hom module for a unit; exhaustive below the span cap.

    The mod-p span of the Hom module is scanned for a unit determinant;
    a hit lifts to an isomorphism witness at the working precision, and
    an exhaustive miss certifies None, as does a group type of the Hom
    module other than End(C1)'s (see `unit_search`).
    """
    if C1.rank != C2.rank:
        return IsomResult(None, "exhaustive", 0)
    H = hom_module(C1, C2, precision)
    return unit_search(H, seed=seed, source=C1)


def unit_search(H: HomModule, seed=0, source=None) -> IsomResult:
    """Search the mod-p span of the module for a unit-determinant element.

    Up to EXHAUSTIVE_CAP elements the span is scanned in index order, so
    the witness is the lexicographically smallest unit (base-p digit
    vectors over the spanning subset).  Beyond it, RANDOMIZED_TRIALS
    random combinations are tried, and the first unit among them lifts.

    With `source` the crystal C1 of H = Hom_m(C1, C2), a unit g would
    make f -> g f a group isomorphism End_m(C1) -> H, so H holds none
    when the group types differ: the miss is exhaustive without a scan.
    The types are compared first (End_m's kept on C1 by `end_type`),
    before H's Howell basis is built.
    """
    ring = H.ring
    p = ring.p
    r = H.shape[0]
    if H.shape[0] != H.shape[1]:
        return IsomResult(None, "exhaustive", 0)
    if source is not None and H.group_type != end_type(source, ring):
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


def is_unit(M: Matrix) -> bool:
    """Whether the square matrix M is a unit: the lane determinant of its
    residue (`_scan_range` with no rows) is nonzero."""
    return _scan_range(M.ring, [], M.rows, base=M.flat) is not None


def _scan_range(ring, rows, r, base=None):
    """First index in [0, p^k) whose combination of the k flat coordinate
    rows (plus the flat row base) is a unit modulo p.

    Index digits are base-p coefficients, digit 0 (rows[0]) fastest.
    Blocks of p^b indices are evaluated at once: lane x of every int, a
    slot of w bits, stands for the index start + x.  The low b digits
    come from fixed lane patterns; the base and the high digits make one
    constant mod p, stepped like an odometer.  The lowest unit lane is
    the first unit in index order.
    """
    p, k = ring.p, len(rows)
    Lanes, w, b = _layout(ring, r, k)
    size = p ** b
    block = Lanes(ring, rows[:b], _digit_lanes(p, b, w), r, size)
    const = [x % p for x in base] if base else [0] * (r * r * ring.q)
    for blk in range(p ** (k - b)):
        d = b
        while blk and not blk % p ** (d - b):   # digit d goes up by 1 mod p
            const = [(x + v) % p for x, v in zip(const, rows[d])]
            d += 1
        units = block.units(const)
        if units:
            return blk * size + ((units & -units).bit_length() - 1) // w
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
        # t^(q+i) = sum of t^s over the s in fold[i], mod (f, 2)
        self.fold = [[s for s, c in enumerate(row) if c & 1]
                     for row in ring._red_coeffs]
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
            for h, row in zip(acc[q:], fold):
                if h:
                    for t in row:
                        acc[t] ^= h
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
        # t^(q+i) mod (f, p), as (t, coefficient)
        self.fold = [[(t, c % p) for t, c in enumerate(row) if c % p]
                     for row in ring._red_coeffs]
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
    exps = smith_normal_form(f)
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

    case -1 (all d_j units, some b_j zero): the solution is unique and
    lies in the base field.  case +1 (all b_j units): the root over
    F_{p^(Q*D)} for the smallest D that has one (the system is etale, so
    some D works; the built-in field table bounds the search), the one
    whose x_0 has zero free coordinates.  Both cases read one reduced
    echelon form of the whole cycle per field, as F_p-linear maps of c
    (`circular_map`, which the stairs engine calls on coordinates).
    """
    ring = sys.ring
    if ring.n != 1:
        raise BadShape("circular systems live over residue fields")
    if {len(sys.b), len(sys.c), len(sys.d)} != {sys.length}:
        raise BadShape(f"a circular system of length {sys.length} needs "
                       f"that many b_j, c_j and d_j")
    if any(e.ring is not ring and e.ring != ring
           for e in (*sys.b, *sys.c, *sys.d)):
        raise RingMismatch("circular coefficients must lie in the ring")
    b, d = (tuple([e.coeffs for e in v]) for v in (sys.b, sys.d))
    xs, big, D = circular_map(ring, case, b, d).solve(
        [c.coeffs for c in sys.c])
    return CircularSolution([WittElem(big, x) for x in xs], big, D)


def circular_map(fld, case, b, d):
    """`solve_circular`'s map over the residue field fld for b and d, tuples
    of coordinate tuples; its checks depend on the key alone and run when
    a map is built, and the maps for b_j, d_j in {0, 1} are kept on fld."""
    key = (case, b, d)
    cmap = fld._circular_cache.get(key)
    if cmap is None:
        if case == -1:
            if not all(map(any, d)):
                raise BadShape("case -1 needs unit d_j")
            if all(map(any, b)):
                raise BadShape("case -1 needs some b_j = 0")
        elif case != 1:
            raise BadShape("case must be +1 or -1")
        elif not all(map(any, b)):
            raise BadShape("case +1 needs unit b_j")
        cmap = _CircularMap(fld, b, d)
        if set(b + d) <= {fld._zero, fld._one}:
            fld._circular_cache[key] = cmap
    return cmap


class _CircularMap:
    """The circular systems over `ring` with fixed b and d (coordinate
    tuples), solved as F_p-linear maps of c.

    Over a solution field big = F_(p^(qD)) the whole cycle is one F_p
    system E x = -c: for g = diag(x_0, ..., x_(L-1)) and the cyclic
    matrices B1, B2 with b_j, d_j at (j, j-1), entry (j, j-1) of
    g B1 - B2 sigma(g) is b_j x_j - d_j sigma(x_(j-1)), so E is those rows
    of `_intertwiner_system(B1, B2, big)` on the diagonal columns.  With T
    the right half of the `howell_form` of [E | I] (at n = 1 the reduced
    echelon form), -c has a root over big iff the rows of T(-c) past the
    rank are zero, and the rows before it are the pivot coordinates of
    the root (the free ones are zero).  The columns run x_1, ...,
    x_(L-1), x_0, so every free column is x_0's: a nonzero kernel vector
    has x_0 != 0 when the b_j are units (case +1), and E is invertible
    when the d_j are units and some b_j is zero (case -1, root at D = 1).

    The map for D is built on first use.  Column k, for coordinate
    t = k mod q of c_(k div q), holds the test rows, then the
    coordinates of every x_j.  A column is one int with a slot per
    output, wide enough for a sum of Lq products of two residues, so a
    call is one multiply-add per coordinate of c and one reduction mod p
    per slot.
    """

    def __init__(self, ring, b, d):
        self.ring, self.b, self.d = ring, b, d
        self.w = (len(b) * ring.q * (ring.p - 1) ** 2).bit_length()
        self._walk = field_walk(ring.p, ring.q, 1)
        # per D: (D, big, number of test rows, columns, b and d over big)
        self.degrees = []

    def solve(self, c):
        """(xs, big, D): the root over the first field big = F_(p^(qD))
        of the walk that has one, for the coordinate tuples c; checked."""
        ring, w = self.ring, self.w
        p, L = ring.p, len(c)
        cs = [x for e in c for x in e]
        mask = (1 << w) - 1
        for k in count():
            if k == len(self.degrees):
                nxt = next(self._walk, None)
                if nxt is None:
                    raise ExtensionCapExceeded(
                        "no root within the built-in field table")
                D, big = nxt
                emb = ring._embed_rows(big)
                b, d = ([big._apply_rows(e, emb) for e in v]
                        for v in (self.b, self.d))
                self.degrees.append((D, big, *self._build(big, b, d), b, d))
            D, big, ntest, cols, b, d = self.degrees[k]
            acc = sum(map(mul, cs, cols))
            if not any((acc >> s & mask) % p for s in range(0, ntest * w, w)):
                break
        acc >>= ntest * w
        Q = big.q
        out = [(acc >> s & mask) % p for s in range(0, L * Q * w, w)]
        xs = [tuple(out[j * Q:j * Q + Q]) for j in range(L)]
        if D > 1:
            rows = ring._embed_rows(big)
            c = [big._apply_rows(e, rows) for e in c]
        _check_circular(big, b, c, d, xs)
        return xs, big, D

    def _build(self, big, b, d):
        """(number of test rows, columns) of the map over big, for b and d
        as coordinate tuples over big."""
        p, Q, L, w = big.p, big.q, len(b), self.w
        N = L * Q

        def cyclic(xs):
            return Matrix._of_rows(big, [[xs[j] if k == (j - 1) % L
                                          else big._zero for k in range(L)]
                                         for j in range(L)])

        P, rows = _intertwiner_system(cyclic(b), cyclic(d), big)
        # coordinate s of x_i is column (i (L + 1)) Q + s of g; x_0 last
        order = [i % L * (L + 1) * Q + s for i in range(1, L + 1)
                 for s in range(Q)]
        eqs = [P.unpack(rows[(j * L + (j - 1) % L) * Q + t])
               for j in range(L) for t in range(Q)]
        # row i of [E | I]: equation i on the diagonal columns, then e_i
        PE = packing(p, 1, 2 * N)
        red = howell_form(PE, [PE.pack([e[k] for k in order])
                               | 1 << (N - 1 - i) * PE.w
                               for i, e in enumerate(eqs)])
        at = {c: i for i, (c, _) in enumerate(howell_pivots(red, p, 1))
              if c < N}
        rank = len(at)
        # the row of T(-c) holding coordinate s of x_j, in the natural order
        slots = [at.get((j - 1) % L * Q + s) for j in range(L)
                 for s in range(Q)]
        # the coordinates over big of the images of 1, t, ..., t^(q-1)
        emb = [big._reduce(r, big._w) for r in self.ring._embed_rows(big)]
        cols = []
        for j in range(L):
            for e in emb:
                Ty = [-sum(map(mul, row[N + j * Q:N + j * Q + Q], e)) % p
                      for row in red]
                out = Ty[rank:] + [0 if i is None else Ty[i] for i in slots]
                cols.append(sum(v << o * w for o, v in enumerate(out)))
        return N - rank, cols


def _check_circular(big, b, c, d, xs):
    """Raise unless b_j x_j + c_j = d_j sigma(x_(j-1)) for every j, on
    coordinate tuples over the field `big`.  The stairs engine passes
    b_j, d_j in {0, 1}, which take no product."""
    frob = big._frobenius_rows(1) if big.q > 1 else None
    zero, one = big._zero, big._one

    def times(a, x):
        return x if a == one else zero if a == zero else big._mul(a, x)

    for j in range(len(xs)):
        prev = xs[j - 1]
        if frob:
            prev = big._apply_rows(prev, frob)
        if big._add(times(b[j], xs[j]), c[j]) != times(d[j], prev):
            raise InternalError(f"circular equation {j} violated")


def sigma_conjugacy_trivialize(gbar: Matrix):
    """x with x * gbar * sigma(x)^{-1} = 1 over the first F_{p^(Q*D)} with one.

    Equivalent to sigma(x) = x * gbar in M_r, whose basis is the matrix
    units E_ij (index i r + j, E_ik E_kj = E_ij, coordinates row-major);
    see `lang_trivializer`.  BadShape unless gbar is a square unit.
    """
    ring = gbar.ring
    if ring.n != 1:
        raise BadShape("Lang trivialization happens over the residue field")
    r = gbar.rows
    if gbar.cols != r:
        raise BadShape(f"twist must be square, not {r} x {gbar.cols}")
    gamma, units = _matrix_units(ring, r)
    x, big, D = lang_trivializer(gamma, [y for row in gbar.entries
                                         for y in row], units)
    return Matrix.from_flat_ints(big, r, r, x), big, D


def _matrix_units(ring, r):
    """(structure constants, matrices) of M_r's matrix units E_ij over
    ring, E_ij at index i r + j: E_ik E_kj = E_ij, other products 0."""
    v = r * r
    gamma = [[[int(b // r == a % r and c == a - a % r + b % r)
               for c in range(v)] for b in range(v)] for a in range(v)]
    return gamma, [Matrix.from_flat_ints(ring, r, r, [
        int(t == a * ring.q) for t in range(v * ring.q)]) for a in range(v)]


def lang_trivializer(gamma, gbar, mats):
    """(x, fld, D): `lang_unit` over F_(p^(qD)) for the first D of the
    built-in field table where it finds a unit, gbar and mats given over
    the residue field W_1(F_(p^q)) and embedded into each fld.

    A unit x with sigma(x) = x g makes g a unit, so BadShape at once
    unless sum g_a mats[a] is one (see `lang_unit`).  For a unit g some D
    always works (Lang's theorem over the algebraic closure), so only the
    end of the built-in field table stops the search.
    """
    res = mats[0].ring
    if not is_unit(sum(map(Matrix.scale, mats, gbar),
                       Matrix.zero(res, mats[0].rows))):
        raise BadShape("the twist is not a unit")
    for D, fld in field_walk(res.p, res.q, 1):
        x = lang_unit(gamma, [y.embed(fld) for y in gbar],
                      [m.embed(fld) for m in mats], fld)
        if x is not None:
            return x, fld, D
    raise ExtensionCapExceeded(
        "no trivializer within the built-in field table")


def lang_unit(gamma, gbar, mats, fld):
    """First unit x with sigma(x) = x g in an algebra A over the field fld
    (n = 1), as flat F_p coordinates over the F_p basis t^s e_a of A
    (index a q + s), or None.

    A is unital with basis e_0, ..., e_(v-1), structure constants
    gamma[a][b][c] in F_p (e_a e_b = sum_c gamma_ab^c e_c), so sigma acts
    on coordinates, and gbar holds g's v coordinates.  As a row vector
    x g is x R, R[a][c] = sum_b gamma_ab^c g_b: the equations are the
    `_intertwiner_system` of R with the 1 x 1 identity.  The unit group
    of A is connected, so by Lang's theorem the solutions over the
    algebraic closure are A_0(F_p) x_0 for a unit x_0, A_0 the F_p form:
    the kernel over fld (`fp_kernel`) holds a unit exactly when its
    F_p-dimension is v; below that the answer is None with no scan.

    mats[a] is an r x r matrix over fld for e_a such that x is a unit
    exactly when sum x_a mats[a] is: a faithful representation, or the
    residues of a unital W-lattice of matrices closed under products,
    even where those are dependent (a lift of x with a unit determinant
    has its inverse in W[x], inside the lattice, by Cayley-Hamilton, and
    p times the lattice is nilpotent).  A full kernel is scanned on
    those matrices with `_scan_range`, index digit 0 on the last kernel
    vector (the first kernel coefficient outermost); its first unit is
    returned.
    """
    q, p, v = fld.q, fld.p, len(gamma)
    g = [y.coeffs for y in gbar]
    R = Matrix.from_flat_ints(fld, v, v, [
        sum(gamma[a][b][c] * g[b][t] for b in range(v))
        for a in range(v) for c in range(v) for t in range(q)])
    kern = fp_kernel(*_intertwiner_system(R, Matrix.identity(fld, 1), fld))
    if len(kern) < v:
        return None
    rows = kern[::-1]
    span = w_span_rows(mats, fld)
    scan = [[c % p for c in _row_combination(k, span, len(span[0]))]
            for k in rows]
    idx = _scan_range(fld, scan, mats[0].rows)
    if idx is None:
        raise InternalError("a full Lang kernel holds no unit")
    return [c % p for c in _row_combination(
        [idx // p ** d % p for d in range(len(rows))], rows, v * q)]


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
        if hom_image(C1, C2, N, lo) != stable:
            return False, (hi, N)
    return True, (hi, ring.n)


def descends_to_subfield(mats, subfield_degree: int) -> bool:
    """Every entry of the matrices fixed by sigma^subfield_degree."""
    return all(b.sigma(subfield_degree) == b for b in mats)

"""Matrix algebra over truncated Witt rings.

Everything here is exact at the ring's precision: one Smith-form
elimination over Z/p^n (`IntSolver`) for solution modules, Smith
exponents and inverses with denominator exponents, canonical (Howell)
solution modules, and truncated exponentials.
"""

import math
from bisect import insort
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count, product, repeat, takewhile
from operator import add, lshift, mul, sub

from .conway import require_prime
from .errors import (
    BadParams,
    BadShape,
    OutsideExpDomain,
    RingMismatch,
    SingularAtPrecision,
)
from .witt import INFINITY, WittElem, _int_val, make_witt_ring


class Matrix:
    """Immutable rows x cols matrix over a WittRing.

    `flat` holds the row-major Z/p^n coordinates, q per entry, each in
    [0, p^n): the format `IntSolver`, `howell_form` and the unit scan
    read.  Arithmetic runs on the coordinates; a WittElem is made only by
    `M[i, j]`, the `entries` view and the grid constructor.
    """

    __slots__ = ("ring", "rows", "cols", "flat")

    def __init__(self, ring, entries):
        """The matrix of a grid (rows of WittElems over ring)."""
        m = Matrix._of_rows(ring, [[e.coeffs for e in row] for row in entries])
        self.ring, self.rows, self.cols, self.flat = (ring, m.rows, m.cols,
                                                       m.flat)

    @staticmethod
    def _make(ring, rows, cols, flat):
        """A matrix of coordinates already reduced, as a tuple."""
        m = object.__new__(Matrix)
        m.ring, m.rows, m.cols, m.flat = ring, rows, cols, flat
        return m

    @staticmethod
    def _of_rows(ring, rows):
        """A matrix of rows of reduced entry coordinate tuples."""
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise BadShape("ragged rows")
        return Matrix._make(ring, len(rows), cols, tuple([
            c for row in rows for e in row for c in e]))

    def _cells(self):
        """The coordinate tuple of each entry, row-major."""
        f, q = self.flat, self.ring.q
        return [f[k:k + q] for k in range(0, len(f), q)]

    def _rows(self):
        """Rows of entry coordinate tuples, as lists."""
        cells, c = self._cells(), self.cols
        return [cells[i * c:i * c + c] for i in range(self.rows)]

    def _like(self, flat):
        return Matrix._make(self.ring, self.rows, self.cols, flat)

    def _map_cells(self, fn):
        """fn on every nonzero entry's coordinate tuple; zeros stay zero."""
        zero, out = self.ring._zero, []
        for e in self._cells():
            out.extend(fn(e) if any(e) else zero)
        return self._like(tuple(out))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(ring, r):
        """The r x r identity, built once per ring and size and shared:
        a Matrix is immutable."""
        m = ring._identities.get(r)
        if m is None:
            one, zero = ring._one, ring._zero
            m = ring._identities[r] = Matrix._of_rows(ring, [
                [one if i == j else zero for j in range(r)]
                for i in range(r)])
        return m

    @staticmethod
    def zero(ring, rows, cols=None):
        cols = rows if cols is None else cols
        return Matrix._make(ring, rows, cols, (0,) * (rows * cols * ring.q))

    @staticmethod
    def from_ints(ring, int_rows):
        pad = (0,) * (ring.q - 1)
        return Matrix._of_rows(ring, [[(int(x) % ring.pn, *pad) for x in row]
                                      for row in int_rows])

    @staticmethod
    def from_flat_ints(ring, rows, cols, flat):
        """The matrix of row-major coordinates, taken mod p^n."""
        pn = ring.pn
        flat = tuple([int(c) % pn for c in flat])
        if len(flat) != rows * cols * ring.q:
            raise BadShape(f"need {rows * cols * ring.q} coordinates")
        return Matrix._make(ring, rows, cols, flat)

    @staticmethod
    def scalar(ring, r, c):
        return Matrix.identity(ring, r).scale(c)

    @staticmethod
    def block_diag(A, B):
        """The block-diagonal matrix with blocks A and B."""
        zero = A.ring._zero
        return Matrix._of_rows(A.ring, [
            row + [zero] * B.cols for row in A._rows()] + [
            [zero] * A.cols + row for row in B._rows()])

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        # cached rings: identity decides before WittRing.__eq__
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def _pointwise(self, op, other):
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise BadShape("shape mismatch")
        pn = self.ring.pn
        return self._like(tuple([x % pn for x in map(op, self.flat,
                                                      other.flat)]))

    def __add__(self, other):
        return self._pointwise(add, other)

    def __sub__(self, other):
        return self._pointwise(sub, other)

    def __neg__(self):
        pn = self.ring.pn
        return self._like(tuple([(-a) % pn for a in self.flat]))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_ring(other)
        if self.cols != other.rows:
            raise BadShape("shape mismatch")
        ring, k, m = self.ring, self.cols, other.cols
        # pack each entry once; an output entry sums k packed products
        # and is reduced once, at a slot width sized for that many
        w = ring.slot_width(k)
        a, b = ring._pack_flat(self.flat, w), ring._pack_flat(other.flat, w)
        cols = [b[j::m] for j in range(m)]
        return Matrix._make(ring, self.rows, m, tuple(ring._reduce_flat([
            sum(map(mul, a[i * k:i * k + k], col))
            for i in range(self.rows) for col in cols], w)))

    def scale(self, c):
        """Multiply entrywise by an integer or a WittElem scalar."""
        ring = self.ring
        if isinstance(c, WittElem):
            if c.ring is not ring and c.ring != ring:
                raise RingMismatch(f"{ring!r} vs {c.ring!r}")
            if ring.q > 1:
                return self._map_cells(lambda e: ring._mul(e, c.coeffs))
            c = c.coeffs[0]
        pn = ring.pn
        return self._like(tuple([c * x % pn for x in self.flat]))

    def transpose(self):
        return Matrix._of_rows(self.ring, list(zip(*self._rows())))

    def sigma(self, power=1):
        """Apply Frobenius entrywise."""
        ring = self.ring
        power %= ring.q
        if not power:
            return self
        apply, rows = ring._apply_rows, ring._frobenius_rows(power)
        return self._map_cells(lambda e: apply(e, rows))

    def kron(self, other):
        prod, zero = self.ring._mul, self.ring._zero
        return Matrix._of_rows(self.ring, [
            [prod(e, f) if any(e) and any(f) else zero for e in r1 for f in r2]
            for r1 in self._rows() for r2 in other._rows()])

    # -- queries -----------------------------------------------------------

    def __getitem__(self, ij):
        q = self.ring.q
        k = (ij[0] * self.cols + ij[1]) * q
        return WittElem(self.ring, self.flat[k:k + q])

    @property
    def entries(self):
        """The rows of WittElems (a read-only view, built on each read)."""
        return tuple(tuple(WittElem(self.ring, e) for e in row)
                     for row in self._rows())

    def is_zero(self):
        return not any(self.flat)

    def min_valuation(self):
        """Smallest entry valuation, INFINITY at zero: gcd(p^n, flat) = p^v."""
        ring = self.ring
        v = ring._pow_val[math.gcd(ring.pn, *self.flat)]
        return INFINITY if v == ring.n else v

    def congruence_level(self, other=None):
        """Valuation of (self - other); other defaults to the identity."""
        if other is None:
            other = Matrix.identity(self.ring, self.rows)
        return (self - other).min_valuation()

    def divide_exact(self, k):
        pk = self.ring.p ** k
        if k < 0 or any(c % pk for c in self.flat):
            raise BadParams(f"not divisible by p^{k}")
        return self._like(tuple([c // pk for c in self.flat]))

    def reduce_to(self, ring):
        R = self.ring
        if ring.p != R.p or ring.q != R.q or ring.n > R.n:
            raise RingMismatch("reduce_to needs same (p, q), lower n")
        pm = ring.pn
        return Matrix._make(ring, self.rows, self.cols,
                            tuple([c % pm for c in self.flat]))

    def embed(self, ring):
        if ring == self.ring:
            return self
        return Matrix._make(ring, self.rows, self.cols,
                            tuple(self.ring._embed_flat(self.flat, ring)))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.flat == other.flat
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.flat))

    def __repr__(self):
        return f"Matrix({[[list(e.coeffs) for e in r] for r in self.entries]})"

    # -- characteristic polynomial (division-free) --------------------------

    def charpoly(self):
        """Coefficients c[0..r] of det(x*I - self), low degree first."""
        ring, r = self.ring, self.rows
        if r != self.cols:
            raise BadShape("charpoly needs a square matrix")
        E = self._rows()
        p_cur = [ring.one()]  # char poly of the empty matrix
        for k in range(r):
            # A the leading k x k block, R and S the row and column beside
            # it: p_new = (x - E[k][k]) p_cur - sum_j (R A^j S) q_j(x)
            A = Matrix._of_rows(ring, [row[:k] for row in E[:k]])
            S = Matrix._of_rows(ring, [[row[k]] for row in E[:k]])
            w = Matrix._of_rows(ring, [E[k][:k]])   # R A^j
            akk = self[k, k]
            p_new = [ring.zero()] + p_cur
            for i, c in enumerate(p_cur):
                p_new[i] = p_new[i] - akk * c
            for j in range(k):
                # q_j(x) = sum_{i >= j+1} p_cur[i] x^(i-j-1)
                dot = (w @ S)[0, 0]
                for i in range(j + 1, k + 1):
                    p_new[i - j - 1] = p_new[i - j - 1] - dot * p_cur[i]
                w = w @ A
            p_cur = p_new
        return p_cur


# -- integer linear algebra over Z/p^n ---------------------------------------


def swar_slot(m, bound):
    """Slot bits `SwarMod` needs for modulus m and slots at most `bound`."""
    return (bound * ((1 << bound.bit_length()) // m)).bit_length()


class SwarMod:
    """SWAR Barrett reduction mod m of every w-bit slot (at most `bound`)
    of an int: one multiply by floor(2^shift / m) gives each slot's
    quotient or one less, and one masked conditional subtraction of m
    finishes.  Every w from `swar_slot(m, bound)` up is exact.  `reduce`
    and `lower` are closures over the constants: one call, no attribute
    reads."""

    def __init__(self, m, bound, slots, w):
        shift = bound.bit_length()
        mult = (1 << shift) // m
        ones = self.ones = ((1 << slots * w) - 1) // ((1 << w) - 1)
        quot = ones * ((1 << w - shift) - 1)
        half, top = ones * ((1 << w - 1) - m), w - 1

        def lower(x):
            """x with m taken off every slot in [m, 2m)."""
            return x - ((x + half) >> top & ones) * m

        def reduce(x):
            x -= (x * mult >> shift & quot) * m
            return x - ((x + half) >> top & ones) * m

        self.lower, self.reduce = lower, reduce


class _PackedRows:
    """Rows over Z/p^n as ints, one w-bit slot per column, column 0 in the
    highest slot: column j sits at shift (cols - 1 - j) * w, so a row
    whose first columns are zero is a short int.

    A row update r - c * piv is r + (p^n - c) * piv, or r + c * (-piv)
    with -piv reduced, whose slots are at most (p^n - 1) + (p^n - 1)^2,
    then one `reduce`.  At p = 2, w is the bit length of that bound and
    `reduce` is an AND with 2^n - 1 in every slot; at odd p both come from
    `SwarMod` with modulus p^n.  The slots mod p^t, for valuations, are an
    AND or a `SwarMod` at width w too; `residue` (t = 1) also serves row
    updates over F_p at this width.  `masks[j]` covers column j's slot.
    """

    def __init__(self, p, n, cols):
        self.p, self.n, self.cols = p, n, cols
        pn = self.pn = p ** n
        bound = (pn - 1) + (pn - 1) ** 2
        if p == 2:
            w = self.w = bound.bit_length()
            ones = ((1 << cols * w) - 1) // ((1 << w) - 1)
            self.reduce = (ones * (pn - 1)).__and__
            self._rems = [(ones * ((1 << t) - 1)).__and__
                          for t in range(1, n)]
        else:
            w = self.w = swar_slot(pn, bound)
            self.reduce = SwarMod(pn, bound, cols, w).reduce
            self._rems = [SwarMod(p ** t, pn - 1, cols, w).reduce
                          for t in range(1, n)]
        self.residue = self._rems[0] if n > 1 else self.reduce
        low = (1 << w) - 1
        self.masks = [low << s for s in range((cols - 1) * w, -1, -w)]

    def pack(self, row):
        """One row of ints in [0, p^n), at most `cols` of them, as an int;
        a short row ends in zero slots."""
        w, b, x = self.w, self.w >> 3, 0
        if w % 8 == 0:
            x = int.from_bytes(bytes(row) if b == 1 else b"".join(map(
                int.to_bytes, row, repeat(b), repeat("big"))), "big")
        else:
            for c in row:
                x = x << w | c
        return x << (self.cols - len(row)) * w

    def unpack(self, x):
        w, b, m = self.w, self.w >> 3, (1 << self.w) - 1
        if w % 8:
            return [x >> s & m for s in range((self.cols - 1) * w, -1, -w)]
        raw = x.to_bytes(b * self.cols, "big")
        return list(raw) if b == 1 else [int.from_bytes(raw[s:s + b], "big")
                                         for s in range(0, len(raw), b)]

    def valuation(self, x):
        """Minimal valuation of the row's slots; n for the zero row."""
        for t, rem in enumerate(self._rems):
            if rem(x):
                return t
        return self.n - 1 if x else self.n


# the `_PackedRows` of (p, n, cols), built on first use and shared: it
# holds only constants
packing = cache(_PackedRows)


def pack_rows(rows, p, n):
    """(P, the rows packed by P): the one way list rows, taken mod p^n,
    reach `IntSolver` and `howell_form`."""
    P, pn = packing(p, n, len(rows[0]) if rows else 0), p ** n
    return P, [P.pack(r if not r or 0 <= min(r) <= max(r) < pn
                      else [int(c) % pn for c in r]) for r in rows]


def howell_form(P, rows, packed=False):
    """Echelon basis of the row span inside (Z/p^n)^m, Howell-closed.

    Rows are ints packed by P (a `_PackedRows`; `pack_rows` packs lists);
    the result is lists of ints (ints packed by P with `packed`) with
    pivots p^e, entries below pivots zero, and span-closure rows
    included.  In column j the first row of
    minimal valuation v is the pivot, scaled to p^v; it clears the
    others, and for v > 0 p^(n - v) times it joins them.  The entries
    above the pivots are then reduced from the first pivot to the last:
    a later pivot row is zero in every earlier pivot column, so each
    entry above a pivot p^v ends in [0, p^v).  This is the unique Howell
    basis of the span (Howell 1986; Storjohann & Mulders 1998): it does
    not depend on the order of the rows or on how they were produced.
    """
    p, n, pn = P.p, P.n, P.pn
    red, w, low = P.reduce, P.w, (1 << P.w) - 1
    work = rows
    basis, at = [], []   # pivot rows, (slot shift, p^v) of each
    for s in range((P.cols - 1) * w, -1, -w):   # column 0 first
        work = [(r, r >> s & low) for r in work if r]
        cand = [(r, e) for r, e in work if e]
        rest = [r for r, e in work if not e]
        if not cand:
            work = rest
            continue
        v, i = min((_int_val(e, p, n), i) for i, (_, e) in enumerate(cand))
        piv, e = cand.pop(i)
        pv = p ** v
        piv = red(pow(e // pv, -1, pn) * piv)
        # p^(n - v) times the pivot joins (a zero row when v = 0)
        work = [red(r + (pn - e // pv) * piv) for r, e in cand]
        work += [red(p ** (n - v) * piv)] + rest
        basis.append(piv)
        at.append((s, pv))
    # reduce entries above each pivot into [0, p^v)
    for idx in range(len(basis)):
        s, pv = at[idx]
        for i in range(idx):
            c = (basis[i] >> s & low) // pv
            if c:
                basis[i] = red(basis[i] + (pn - c) * basis[idx])
    return basis if packed else [P.unpack(r) for r in basis]


def howell_pivots(basis, p, n):
    """(column, valuation) pairs for a Howell basis."""
    out = []
    for r in basis:
        for j, c in enumerate(r):
            if c:
                out.append((j, _int_val(c, p, n)))
                break
    return out


def howell_coefficients(basis, p, n):
    """Every coefficient vector of a Howell basis, first row outermost.

    Coefficient i runs over [0, p^(n - v_i)) with v_i the valuation of
    row i's pivot, so each element of the span appears exactly once.
    """
    return product(*[range(p ** (n - v))
                      for (_, v) in howell_pivots(basis, p, n)])


@dataclass
class SolutionModule:
    """Canonical description of {x : A x = b} over Z/p^n."""
    has_solution: bool
    particular: list  # empty marker when no solution
    basis: list       # Howell basis of the homogeneous kernel
    p: int
    n: int

    def size_log(self):
        """log_p of the number of solutions (kernel size)."""
        piv = howell_pivots(self.basis, self.p, self.n)
        return sum(self.n - v for (_, v) in piv)


class IntSolver:
    """Smith-form elimination of an integer matrix mod p^n, reusable for
    many solves.

    A's rows are ints packed by P (`pack_rows` packs lists); R's rows and
    the kernel generators stay packed by P, for `howell_form`.  The pivot
    is the first row of minimal valuation v, at its first column from
    position k, in the current column order, whose slot is nonzero mod
    p^(v + 1); a column swap swaps two entries of `perm`, the slot of each
    elimination column.  The pivot columns are scattered over the slots
    (on the thirds-family Hom system over W_4(F_64) the first are 6-11,
    150-161 and 24-35), so the rows keep most of their length: a row is
    tested and read at the pivot's slot through an AND with the slot's
    mask, and the elimination unpacks no row.  The row operations are not
    multiplied into a left transform: each pivot's row swap, unit inverse
    and (row, multiplier) lists are logged and replayed on b by `solve`.
    The right transform R is built on first read (by `solve` or
    `kernel_generators`), from the negated scaled pivot rows that the
    updates used, kept packed, so a caller that reads only `exps` (a
    group type) never pays for it.  R is kept transposed and by slot: its
    column operations are row updates, and a column swap moves nothing;
    `_rt[t]`, column t of R in elimination order, is the column of slot
    perm[t].
    """

    def __init__(self, P, a_rows):
        p, n = self.p, self.n = P.p, P.n
        self.pn = pn = P.pn
        self.packing = P
        rows = self.rows = len(a_rows)
        cols = self.cols = P.cols
        red, w, rems, masks = P.reduce, P.w, P._rems, P.masks
        A = list(a_rows)
        perm = list(range(cols))   # the slot of each elimination column
        exps = []
        log = []   # per pivot: (swapped row, unit inverse, rows, multipliers)
        cops = []   # per pivot, for R: (slot, p^v, minus the scaled row)
        # lower bounds of the row valuations, exact unless stale: an update
        # r - c * piv never lowers v(r), since v(c) >= v(r) - v(piv) and
        # the pivot row has no entry below v(piv)
        val = [0] * rows
        stale = [True] * rows
        dim = min(rows, cols)
        for k in range(dim):
            best, bi = n, -1
            for i in range(k, rows):
                v = val[i]
                if v < best:   # a row whose bound is >= best cannot win
                    if stale[i]:
                        stale[i] = False
                        v = val[i] = P.valuation(A[i])
                        if v >= best:
                            continue
                    best, bi = v, i
                    if v == 0:
                        break
            if bi < 0:
                exps.extend([n] * (dim - k))
                break
            v, pv = best, p ** best
            Ak = A[bi]
            # the row vanishes at columns < k and has no entry of valuation
            # below v: the first column from k whose slot is nonzero mod
            # p^(v + 1) is the pivot's
            res, bj = rems[v](Ak) if v < n - 1 else Ak, k
            while not res & masks[perm[bj]]:
                bj += 1
            A[k], A[bi] = Ak, A[k]
            val[bi], stale[bi] = val[k], stale[k]
            sk = perm[bj]
            perm[k], perm[bj] = sk, perm[k]
            m, s = masks[sk], (cols - 1 - sk) * w
            ui = pow(((Ak & m) >> s) // pv, -1, pn)
            neg = red((pn - ui) * Ak)   # minus the scaled pivot row
            idx = [i for i in range(k + 1, rows) if A[i] & m]
            mults = [((A[i] & m) >> s) // pv for i in idx]
            for i, c in zip(idx, mults):
                A[i] = red(A[i] + c * neg)
                stale[i] = True
            log.append((bi, ui, idx, mults))
            cops.append((sk, pv, neg))
            exps.append(v)
        self.exps = exps
        self._log = log
        self._perm = perm
        self._cops = cops

    @cached_property
    def _rt(self):
        """The columns of R in elimination order, packed by P, replayed
        from the record of column operations (dropped afterwards)."""
        P, pn, cols = self.packing, self.pn, self.cols
        red, w = P.reduce, P.w
        RS = [1 << (cols - 1 - j) * w for j in range(cols)]   # slot columns
        for sk, pv, neg in self._cops:
            # column sk is now p^v e_sk, so the column operations only
            # clear the scaled pivot row's other nonzero slots, p^n - neg[j]
            Rk = RS[sk]
            for j, a in enumerate(P.unpack(neg)):
                if a and j != sk:
                    RS[j] = red(RS[j] + (pn - (pn - a) // pv) * Rk)
        del self._cops
        return [RS[s] for s in self._perm]

    def solve(self, b):
        """One solution of A x = b, or None."""
        p, n, pn = self.p, self.n, self.pn
        Lb = [int(c) % pn for c in b[:self.rows]]
        for k, (bi, ui, idx, mults) in enumerate(self._log):
            Lb[k], Lb[bi] = Lb[bi], Lb[k]
            c = Lb[k] = ui * Lb[k] % pn
            if c:
                for i, m in zip(idx, mults):
                    Lb[i] = (Lb[i] - m * c) % pn
        red, x = self.packing.reduce, 0
        for i in range(self.rows):
            if i < len(self.exps):
                e = self.exps[i]
                if e >= n:
                    if Lb[i]:
                        return None
                    continue
                pe = p ** e
                if Lb[i] % pe:
                    return None
                y = Lb[i] // pe
                if y:
                    x = red(x + y * self._rt[i])
            elif Lb[i]:
                return None
        return self.packing.unpack(x)

    def kernel_generators(self):
        """Packed p^(n - e_i) times column i of R, for each e_i > 0."""
        p, n, red = self.p, self.n, self.packing.reduce
        exps = self.exps + [n] * (self.cols - len(self.exps))
        gens = [red(p ** (n - e) * x) for e, x in zip(exps, self._rt) if e]
        return [g for g in gens if g]

    def kernel_type(self):
        """The kernel's group type: the sorted exponents e of its cyclic
        factors Z/p^e, one per e_i > 0, a column past the pivots giving
        e = n (the factors of `kernel_generators`)."""
        pad = [self.n] * (self.cols - len(self.exps))
        return tuple(sorted([e for e in self.exps if e] + pad))

    def cokernel_exponent(self):
        """The least e with p^e (Z/p^n)^rows inside the span of A's
        columns: the largest Smith exponent, or INFINITY when none below n
        exists (an exponent n, or fewer pivots than rows)."""
        e = max(self.exps, default=0)
        return INFINITY if e >= self.n or len(self.exps) < self.rows else e


def _coordinate_table(ring, k, sign):
    """[t][c]: coordinate t of sign t^c sigma^k(t^s) in slot s < q, slot 0
    highest, at the width of the ring's `_PackedRows`; cached on the ring.
    Column c + 1 is t times column c: row i is row i - 1 plus r_i times
    row q - 1, for t^q = sum_i r_i t^i, and one `reduce`."""
    table = ring._coordinate_cache.get((k, sign))
    if table is None:
        q, pn, W = ring.q, ring.pn, ring._w
        P, mask = packing(ring.p, ring.n, q), (1 << W) - 1
        cols = [[P.pack([sign * (u >> t * W & mask) % pn
                         for u in ring._frobenius_rows(k)]) for t in range(q)]]
        while len(cols) < q:
            col = cols[-1]
            cols.append([P.reduce(a + r * col[-1]) for a, r in zip(
                [0] + col[:-1], ring._red_coeffs[0])])
        table = ring._coordinate_cache[k, sign] = list(zip(*cols))
    return table


def coordinate_rows(P, ring, k, sign, lines, gap):
    """Rows packed by P, q per line of entries e_b over ring, given as the
    q sequences of their c-th coordinates: row t holds coordinate t of
    e_b u_s, u_s = sign sigma^k(t^s), at column b gap + s of the last
    columns (gap >= q).  As coord_t(e u_s) = sum_c e_c coord_t(t^c u_s),
    each (t, c) is one product: the ring's packed table[t][c] times the
    c-th coordinates spread gap slots apart.  A `reduce` after each keeps
    slots below p^n, so a slot holds at most (p^n - 1) + (p^n - 1)^2,
    P's bound."""
    table = _coordinate_table(ring, k, sign)
    red, step, out = P.reduce, gap * P.w, []
    for line in lines:
        # the last entry in the lowest block
        spreads = [sum(map(lshift, reversed(col), count(0, step)))
                   for col in line]
        for consts in table:
            x = 0
            for spread, const in zip(spreads, consts):
                if spread:
                    x = red(x + spread * const)
            out.append(x)
    return out


def _coordinate_lines(M, of_rows):
    """M's rows (or columns) as `coordinate_rows` lines, slices of flat."""
    f, q, m = M.flat, M.ring.q, M.cols * M.ring.q
    if of_rows:
        return [[f[i * m + c:i * m + m:q] for c in range(q)]
                for i in range(M.rows)]
    return [[f[j + c::m] for c in range(q)] for j in range(0, m, q)]


def _intertwiner_system(B1, B2, ring, sigma_power=1):
    """(P, rows): {g : g @ B1 = B2 @ sigma^power(g)} as equations packed
    by P, a `_PackedRows` over Z/p^n; g's coordinates are row-major.

    Equation (i, j, t) is coordinate t of entry (i, j) of g B1 - B2
    sigma^power(g): g[i,k]'s coordinate s enters with coordinate t of
    B1[k,j] t^s, g[k,j]'s with minus that of B2[i,k] sigma^power(t^s).
    `coordinate_rows` builds the B1 terms of column j for g's last row
    and the B2 terms of row i for g's last column, with negated
    constants; shifted into place and added, a slot holds at most two
    terms below p^n, and one `reduce` ends each equation.
    """
    q, r2, r1 = ring.q, B2.rows, B1.cols
    P = packing(ring.p, ring.n, r2 * r1 * q)
    w = P.w
    stride = r1 * q * w   # bits of a row of g
    left = coordinate_rows(P, ring, 0, 1, _coordinate_lines(B1, False), q)
    right = coordinate_rows(P, ring, sigma_power % q, -1,
                            _coordinate_lines(B2, True), r1 * q)
    return P, [P.reduce((left[j * q + t] << (r2 - 1 - i) * stride)
                        + (right[i * q + t] << (r1 - 1 - j) * q * w))
               for i in range(r2) for j in range(r1) for t in range(q)]


# -- Smith exponents and inverses --------------------------------------------


def _smith_solver(A: Matrix):
    """(`IntSolver` on the rows of x -> A x over Z/p^n, the Smith
    exponents of A, sorted).

    Row (i, t) and column (j, s) of this q r x q r matrix hold coordinate
    t of A[i][j] t^s.  Its exponents are A's over the unramified W, each
    repeated q times, so every q-th of the sorted list is one.  Exponent
    n stands for "zero at this precision".
    """
    ring, q = A.ring, A.ring.q
    if A.rows != A.cols:
        raise BadShape("need a square matrix")
    P = packing(ring.p, ring.n, A.cols * q)
    solver = IntSolver(P, coordinate_rows(
        P, ring, 0, 1, _coordinate_lines(A, True), q))
    return solver, sorted(solver.exps)[::q]


def smith_normal_form(A: Matrix) -> list:
    """The Smith exponents of the square matrix A, sorted (see
    `_smith_solver`)."""
    return _smith_solver(A)[1]


def inverse_with_shift(A: Matrix):
    """(C, e) with A @ C = p^e * I exactly and e minimal.

    Column j of C is `IntSolver.solve` on p^e e_j.  For e = 0, C is the
    inverse and C @ A = I exactly; for e > 0, C @ A = p^e * I holds mod
    p^(n - e), the precision to which C is unique.
    """
    ring = A.ring
    solver, exps = _smith_solver(A)
    if any(x >= ring.n for x in exps) or sum(exps) >= ring.n:
        raise SingularAtPrecision("determinant valuation >= precision")
    e = max(exps, default=0)
    q, r, pe = ring.q, A.rows, ring.p ** e
    cols = [solver.solve([pe if k == j * q else 0 for k in range(r * q)])
            for j in range(r)]
    return Matrix._make(ring, r, r, tuple([
        c for i in range(r) for x in cols for c in x[i * q:i * q + q]])), e


def unit_inverse_matrix(A: Matrix) -> Matrix:
    """Exact inverse of a unit matrix (det a unit)."""
    C, e = inverse_with_shift(A)
    if e != 0:
        raise SingularAtPrecision("matrix is not a unit")
    return C


def solve_linear_module(a_rows, b, p, n) -> SolutionModule:
    """Canonical solution module of A x = b over Z/p^n."""
    require_prime(p)
    if n < 1:
        raise BadParams("need n >= 1")
    if len(b) != len(a_rows) or len({len(r) for r in a_rows}) > 1:
        raise BadShape("need rows of one length and one b entry per row")
    solver = IntSolver(*pack_rows(a_rows, p, n))
    x = solver.solve(b)
    if x is None:
        return SolutionModule(False, [], [], p, n)
    basis = howell_form(solver.packing, solver.kernel_generators())
    # the coset representative: the Howell row of [1 | x] over [0 | basis]
    x = howell_form(*pack_rows([[1] + x] + [[0] + r for r in basis],
                               p, n))[0][1:]
    return SolutionModule(True, x, basis, p, n)


def howell_contains(basis, rows, p, n):
    """Whether every row lies in the span of `basis`, a `howell_form`
    output at the same p and n: the Howell basis is unique, so adding
    rows of the span leaves it as it is."""
    return howell_form(*pack_rows(basis + rows, p, n)) == basis


def w_span_rows(mats, ring):
    """Z/p^n rows spanning the W-span of the matrices: each times 1..t^(q-1)."""
    t = ring.gen()
    rows = []
    for e in mats:
        rows.append(e.flat)
        for _ in range(1, ring.q):
            e = e.scale(t)
            rows.append(e.flat)
    return rows


def w_span_solver(mats, ring):
    """`IntSolver` for X = sum y_l mats[l] over W: column (l, s) is
    t^s mats[l] flattened (`w_span_rows`, transposed)."""
    q = ring.q
    P = packing(ring.p, ring.n, len(mats) * q)
    by_coord = list(zip(*[m.flat for m in mats]))   # each across mats
    return IntSolver(P, coordinate_rows(P, ring, 0, 1, [
        by_coord[k:k + q] for k in range(0, len(by_coord), q)], q))


# -- linear algebra over F_p -------------------------------------------------


def fp_independent_rows(P, rows):
    """Indices of the rows, packed by P, whose residues mod p are
    independent of those of the rows before them: the pivot columns of
    the reduced echelon form of the transposed residues.  What is left of
    each such residue joins an echelon, normalised, by leading slot."""
    p, red, w, low = P.p, P.residue, P.w, (1 << P.w) - 1
    ech, keep = [], []   # (slot shift, residue led by 1 there), top first
    for i, x in enumerate(rows):
        x = red(x)
        for s, e in ech:
            if c := x >> s & low:
                x = red(x + (p - c) * e)
        if x:
            s = (x.bit_length() - 1) // w * w
            insort(ech, (s, red(pow(x >> s & low, -1, p) * x)),
                   key=lambda se: -se[0])
            keep.append(i)
    return keep


def fp_kernel(P, rows):
    """F_p basis of {x : rows x = 0}, rows packed by P at n = 1: one vector
    per free column of `howell_form`, which at n = 1 is the reduced
    echelon form."""
    p, red = P.p, howell_form(P, rows)
    pivots = [c for c, _ in howell_pivots(red, p, 1)]
    kern = []
    for c in sorted(set(range(P.cols)) - set(pivots)):
        vec = [0] * P.cols
        vec[c] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = (-row[c]) % p
        kern.append(vec)
    return kern


# -- truncated exponential ---------------------------------------------------


def _vp_factorial(i, p):
    v, pk = 0, p
    while pk <= i:
        v += i // pk
        pk *= p
    return v


@cache
def _exp_plan(ring, l):
    """The plan of exp(X), X of valuation l over ring: None at p = 2, l = 1
    (then exp(X) = 1 + X if X^2 = 0), else (big, [(p^v, (i! / p^v)^-1 mod
    big.pn) for i >= 2, v = v_p(i!)]), big at precision n + v_p(i!) for the
    last i with val(X^i / i!) >= i l - (i - 1) / (p - 1) below n + 1."""
    p, n = ring.p, ring.n
    if l < 1:
        raise OutsideExpDomain("need X in p*End for p >= 3" if p >= 3
                               else "need X in 2*End")
    if p == 2 and l == 1:
        return None
    idxs = list(takewhile(lambda i: i * l - (i - 1) // (p - 1) < n + 1,
                          count(1)))
    big = make_witt_ring(p, ring.q, n + _vp_factorial(idxs[-1], p))
    return big, [(pv, pow(math.factorial(i) // pv, -1, big.pn))
                 for i in idxs[1:] for pv in [p ** _vp_factorial(i, p)]]


def exp_series(ring, x, mul):
    """exp(x) - 1 for a nonzero flat coordinate tuple x over ring, mul(R,
    a, b) the product of two over R of the same p and q: the one series of
    `exp_trunc` and of the cells of matrix-unit data (mul WittRing._mul)."""
    plan = _exp_plan(ring, ring._val(x))
    if plan is None:
        if any(mul(ring, x, x)):
            raise OutsideExpDomain(
                "p = 2 with valuation 1 needs a square-zero argument")
        return x
    big, terms = plan
    acc = term = x
    for pk, inv in terms:
        term = mul(big, term, x)
        if not any(term):   # so is every later power
            break
        if any(t % pk for t in term):
            raise OutsideExpDomain(f"a series term is not divisible by {pk}")
        acc = [(a + t // pk * inv) % big.pn for a, t in zip(acc, term)]
    return tuple([a % ring.pn for a in acc])


def exp_trunc(X: Matrix) -> Matrix:
    """Sum of X^i / i!, exact at the ring's precision.

    Domain: p >= 3 with X in p*End; p = 2 with X in 4*End, or X in 2*End
    with X @ X = 0 at this precision (the square-zero part of the
    nilpotent case; the series is then 1 + X exactly).
    """
    ring, r = X.ring, X.rows
    if r != X.cols:
        raise BadShape("exp_trunc needs a square matrix")
    if X.is_zero():
        return Matrix.identity(ring, r)
    return Matrix.identity(ring, r) + X._like(exp_series(
        ring, X.flat, lambda R, a, b: (Matrix._make(R, r, r, a)
                                       @ Matrix._make(R, r, r, b)).flat))

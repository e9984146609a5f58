"""Matrix algebra over truncated Witt rings.

Everything here is exact at the ring's precision: Smith normal form with
unimodular transforms, canonical (Howell) solution modules for linear
systems over Z/p^n, inverses with denominator exponents, and truncated
exponentials.
"""

from bisect import insort
from dataclasses import dataclass
from itertools import product, repeat
from operator import mul

from .errors import OutsideExpDomain, SingularAtPrecision
from .witt import INFINITY, WittElem, _int_val, make_witt_ring


class Matrix:
    """Immutable matrix with WittElem entries, all sharing one ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(ring, r):
        z, o = ring.zero(), ring.one()
        return Matrix(ring, [[o if i == j else z for j in range(r)]
                             for i in range(r)])

    @staticmethod
    def zero(ring, rows, cols=None):
        z = ring.zero()
        cols = rows if cols is None else cols
        return Matrix(ring, [[z] * cols for _ in range(rows)])

    @staticmethod
    def from_ints(ring, int_rows):
        return Matrix(ring, [[ring.from_int(c) for c in row]
                             for row in int_rows])

    @staticmethod
    def scalar(ring, r, c):
        m = Matrix.zero(ring, r, r).mutable()
        e = ring.from_int(c) if isinstance(c, int) else c
        for i in range(r):
            m[i][i] = e
        return Matrix(ring, m)

    def mutable(self):
        return [list(row) for row in self.entries]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return Matrix(self.ring, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        return Matrix(self.ring, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in row] for row in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # pack each entry once; an output entry sums `cols` packed products
        # and is reduced once, at a slot width sized for that many
        ring = self.ring
        w = ring.slot_width(self.cols)
        pack, reduce = ring._pack, ring._reduce
        rows = [[pack(e.coeffs, w) for e in row] for row in self.entries]
        cols = [[pack(e.coeffs, w) for e in col]
                for col in zip(*other.entries)]
        return Matrix(ring, [
            [WittElem(ring, reduce(sum(map(mul, r, c)), w)) for c in cols]
            for r in rows
        ])

    def scale(self, c):
        """Multiply entrywise by an integer or a WittElem scalar."""
        return Matrix(self.ring,
                      [[e * c for e in row] for row in self.entries])

    def transpose(self):
        return Matrix(self.ring, list(zip(*self.entries)))

    def sigma(self, power=1):
        """Apply Frobenius entrywise."""
        return Matrix(self.ring, [[e.frobenius(power) for e in row]
                                  for row in self.entries])

    def kron(self, other):
        out = []
        for r1 in self.entries:
            for r2 in other.entries:
                out.append([a * b for a in r1 for b in r2])
        return Matrix(self.ring, out)

    # -- queries -----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def min_valuation(self):
        v = INFINITY
        for row in self.entries:
            for e in row:
                ev = e.valuation()
                if ev < v:
                    v = ev
        return v

    def congruence_level(self, other=None):
        """Valuation of (self - other); other defaults to the identity."""
        if other is None:
            other = Matrix.identity(self.ring, self.rows)
        return (self - other).min_valuation()

    def divide_exact(self, k):
        return Matrix(self.ring, [[e.divide_exact(k) for e in row]
                                  for row in self.entries])

    def reduce_to(self, ring):
        return Matrix(ring, [[e.reduce_to(ring) for e in row]
                             for row in self.entries])

    def embed(self, ring):
        return Matrix(ring, [[e.embed(ring) for e in row]
                             for row in self.entries])

    def flatten_ints(self):
        """Row-major Z/p^n coordinates (q per entry)."""
        return [c for row in self.entries for e in row for c in e.coeffs]

    @staticmethod
    def from_flat_ints(ring, rows, cols, flat):
        q = ring.q
        return Matrix(ring, [[ring.element(flat[k:k + q]) for k in range(
            i * cols * q, (i + 1) * cols * q, q)] for i in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        return f"Matrix({[[list(e.coeffs) for e in r] for r in self.entries]})"

    # -- characteristic polynomial (division-free) --------------------------

    def charpoly(self):
        """Coefficients c[0..r] of det(x*I - self), low degree first."""
        ring, r = self.ring, self.rows
        if r != self.cols:
            raise ValueError("charpoly needs a square matrix")
        one, zero = ring.one(), ring.zero()
        p_cur = [one]  # char poly of the empty matrix
        for k in range(1, r + 1):
            a = self.entries[k - 1][k - 1]
            # p_new = (x - a) * p_cur - sum_j (R M^j S) q_j(x)
            p_new = [zero] * (k + 1)
            for i, c in enumerate(p_cur):
                p_new[i + 1] = p_new[i + 1] + c
                p_new[i] = p_new[i] - a * c
            if k >= 2:
                R = [self.entries[k - 1][j] for j in range(k - 1)]
                S = [self.entries[i][k - 1] for i in range(k - 1)]
                w = R
                for j in range(k - 1):
                    dot = zero
                    for x, y in zip(w, S):
                        dot = dot + x * y
                    if not dot.is_zero():
                        # q_j(x) = sum_{i >= j+1} p_cur[i] x^(i-j-1)
                        for i in range(j + 1, k):
                            p_new[i - j - 1] = p_new[i - j - 1] - dot * p_cur[i]
                    if j < k - 2:
                        w = [
                            _dot(ring, w, [self.entries[t][col]
                                           for t in range(k - 1)])
                            for col in range(k - 1)
                        ]
            p_cur = p_new
        return p_cur


def _dot(ring, xs, ys):
    acc = ring.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


# -- Smith normal form ------------------------------------------------------


@dataclass
class SnfResult:
    exponents: list  # length min(rows, cols); value n means ">= precision"
    left: Matrix
    right: Matrix
    diagonal: Matrix


def smith_normal_form(A: Matrix) -> SnfResult:
    """Diagonalize A as left @ A @ right = diag(p^e_i), exactly.

    Pivots are minimal-valuation entries with (row, col) tie-break; the
    transforms are invertible over the ring and the diagonal entries are
    exact powers of p.  Exponent n stands for "zero at this precision".
    """
    ring = A.ring
    n = ring.n
    M = A.mutable()
    rows, cols = A.rows, A.cols
    L = Matrix.identity(ring, rows).mutable()
    R = Matrix.identity(ring, cols).mutable()
    k = 0
    exps = []
    dim = min(rows, cols)
    while k < dim:
        best, bi, bj = INFINITY, -1, -1
        for i in range(k, rows):
            for j in range(k, cols):
                v = M[i][j].valuation()
                if v < best:
                    best, bi, bj = v, i, j
        if best == INFINITY:
            exps.extend([n] * (dim - k))
            break
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
            L[k], L[bi] = L[bi], L[k]
        if bj != k:
            for row in M:
                row[k], row[bj] = row[bj], row[k]
            for row in R:
                row[k], row[bj] = row[bj], row[k]
        v = int(best)
        u_inv = M[k][k].divide_exact(v).unit_inverse()
        M[k] = [u_inv * e for e in M[k]]
        L[k] = [u_inv * e for e in L[k]]
        for i in range(rows):
            if i == k:
                continue
            e = M[i][k]
            if e.is_zero():
                continue
            c = e.divide_exact(v)
            M[i] = [x - c * y for x, y in zip(M[i], M[k])]
            L[i] = [x - c * y for x, y in zip(L[i], L[k])]
        for j in range(cols):
            if j == k:
                continue
            e = M[k][j]
            if e.is_zero():
                continue
            c = e.divide_exact(v)
            for i in range(rows):
                M[i][j] = M[i][j] - c * M[i][k]
            for i in range(cols):
                R[i][j] = R[i][j] - c * R[i][k]
        exps.append(v)
        k += 1
    return SnfResult(exps, Matrix(ring, L), Matrix(ring, R), Matrix(ring, M))


def det_valuation(A: Matrix):
    """Valuation of det(A); INFINITY when not determined at this precision."""
    exps = smith_normal_form(A).exponents
    n = A.ring.n
    if A.rows != A.cols:
        raise ValueError("need a square matrix")
    if any(e >= n for e in exps):
        return INFINITY
    return sum(exps)


def inverse_with_shift(A: Matrix):
    """(C, e) with A @ C = C @ A = p^e * I exactly and e minimal."""
    ring = A.ring
    snf = smith_normal_form(A)
    if any(x >= ring.n for x in snf.exponents) or \
            sum(snf.exponents) >= ring.n:
        raise SingularAtPrecision("determinant valuation >= precision")
    e = max(snf.exponents) if snf.exponents else 0
    # A^{-1} = right @ diag(p^{-exp}) @ left
    mid = snf.right.mutable()
    for j, x in enumerate(snf.exponents):
        c = ring.p ** (e - x)
        for i in range(len(mid)):
            mid[i][j] = mid[i][j] * c
    C = Matrix(ring, mid) @ snf.left
    return C, e


def unit_inverse_matrix(A: Matrix) -> Matrix:
    """Exact inverse of a unit matrix (det a unit)."""
    C, e = inverse_with_shift(A)
    if e != 0:
        raise SingularAtPrecision("matrix is not a unit")
    return C


# -- integer linear algebra over Z/p^n ---------------------------------------


def swar_slot(m, bound):
    """Slot bits `SwarMod` needs for modulus m and slots at most `bound`."""
    return (bound * ((1 << bound.bit_length()) // m)).bit_length()


class SwarMod:
    """SWAR Barrett reduction mod m of every w-bit slot (at most `bound`)
    of an int: one multiply by floor(2^shift / m) gives each slot's
    quotient or one less, and one masked conditional subtraction of m
    finishes.  Every w from `swar_slot(m, bound)` up is exact."""

    def __init__(self, m, bound, slots, w):
        self.m = m
        shift = self.shift = bound.bit_length()
        self.mult = (1 << shift) // m
        self.slot = w
        ones = self.ones = ((1 << slots * w) - 1) // ((1 << w) - 1)
        self.quot = ones * ((1 << w - shift) - 1)
        self.half = ones * ((1 << w - 1) - m)

    def lower(self, x):
        """x with m taken off every slot in [m, 2m)."""
        return x - ((x + self.half) >> self.slot - 1 & self.ones) * self.m

    def reduce(self, x):
        return self.lower(
            x - (x * self.mult >> self.shift & self.quot) * self.m)


class _PackedRows:
    """Rows over Z/p^n as ints, one w-bit slot per column.

    A row update r - c * piv is r + (p^n - c) * piv, whose slots are at
    most (p^n - 1) + (p^n - 1)^2, then one `reduce`.  At p = 2, w is the
    bit length of that bound and `reduce` is an AND with 2^n - 1 in every
    slot; at odd p both come from `SwarMod` with modulus p^n.  The slots
    mod p^t, for valuations, are an AND or a `SwarMod` at width w too;
    `residue` (t = 1) also serves row updates over F_p at this width.
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

    def pack(self, row):
        """One row of ints in [0, p^n), at most `cols` of them, as an int."""
        w, b, x = self.w, self.w >> 3, 0
        if w % 8 == 0:
            return int.from_bytes(bytes(row) if b == 1 else b"".join(map(
                int.to_bytes, row, repeat(b), repeat("little"))), "little")
        for c in reversed(row):
            x = x << w | c
        return x

    def unpack(self, x):
        w, b, m = self.w, self.w >> 3, (1 << self.w) - 1
        if w % 8:
            return [x >> s & m for s in range(0, self.cols * w, w)]
        raw = x.to_bytes(b * self.cols, "little")
        return list(raw) if b == 1 else [int.from_bytes(raw[s:s + b], "little")
                                         for s in range(0, len(raw), b)]

    def valuation(self, x):
        """Minimal valuation of the row's slots; n for the zero row."""
        for t, rem in enumerate(self._rems):
            if rem(x):
                return t
        return self.n - 1 if x else self.n


def pack_rows(rows, p, n):
    """(P, the rows packed by P): the one way list rows, taken mod p^n,
    reach `IntSolver` and `howell_form`."""
    P, pn = _PackedRows(p, n, len(rows[0]) if rows else 0), p ** n
    return P, [P.pack(r if not r or 0 <= min(r) <= max(r) < pn
                      else [int(c) % pn for c in r]) for r in rows]


def howell_form(P, rows):
    """Echelon basis of the row span inside (Z/p^n)^m, Howell-closed.

    Rows are ints packed by P (a `_PackedRows`; `pack_rows` packs lists);
    the result is lists of ints with pivots p^e, entries below pivots
    zero, and span-closure rows included.  In column j the first row of
    minimal valuation v is the pivot, scaled to p^v; it clears the
    others, and for v > 0 p^(n - v) times it joins them.  It is not the
    unique Howell basis: the entries above the pivots are reduced from
    the last pivot to the first, so a later step undoes an earlier
    reduction and an entry above a pivot p^v may lie outside [0, p^v).
    The basis then depends on the order of the input rows.  `hom` prints
    this basis, so a fix changes its output.
    """
    p, n, pn = P.p, P.n, P.pn
    red, w, low = P.reduce, P.w, (1 << P.w) - 1
    work = rows
    basis, at = [], []   # pivot rows, (slot shift, p^v) of each
    for j in range(P.cols):
        s = j * w
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
    # reduce entries above each pivot, each time by the pivot row as
    # reduced so far
    for idx in range(len(basis) - 1, -1, -1):
        s, pv = at[idx]
        for i in range(idx):
            c = (basis[i] >> s & low) // pv
            if c:
                basis[i] = red(basis[i] + (pn - c) * basis[idx])
    return [P.unpack(r) for r in basis]


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

    def all_elements(self):
        """Iterate every solution (exponential; caller caps size)."""
        if not self.has_solution:
            return
        pn = self.p ** self.n
        for coeffs in howell_coefficients(self.basis, self.p, self.n):
            acc = list(self.particular)
            for c, row in zip(coeffs, self.basis):
                if c:
                    acc = [(a + c * x) % pn for a, x in zip(acc, row)]
            yield acc

    def size_log(self):
        """log_p of the number of solutions (kernel size)."""
        piv = howell_pivots(self.basis, self.p, self.n)
        return sum(self.n - v for (_, v) in piv)


class IntSolver:
    """Smith-form elimination of an integer matrix mod p^n, reusable for
    many solves.

    A's rows are ints packed by P (`pack_rows` packs lists); R's rows and
    the kernel generators stay packed by P, for `howell_form`.  The pivot
    is the first row of minimal valuation, at its first column of that
    valuation in the current column order; a column swap swaps two
    entries of `perm`, the slot of each elimination column.  The row
    operations are not multiplied into a left transform: each pivot's row
    swap, unit inverse and (row, multiplier) lists are logged and
    replayed on b by `solve`.  The right transform R is kept transposed
    (`_rt[j]` is column j of R), so its column operations are row updates.
    """

    def __init__(self, P, a_rows):
        p, n = self.p, self.n = P.p, P.n
        self.pn = pn = P.pn
        self.packing = P
        rows = self.rows = len(a_rows)
        cols = self.cols = P.cols
        red, w, low = P.reduce, P.w, (1 << P.w) - 1
        A = list(a_rows)
        RT = [1 << j * w for j in range(cols)]
        perm = list(range(cols))   # the slot of each elimination column
        pos = list(range(cols))    # and its inverse
        exps = []
        log = []   # per pivot: (swapped row, unit inverse, rows, multipliers)
        val = [None] * rows   # row valuations; None: changed since
        dim = min(rows, cols)
        for k in range(dim):
            best, bi = n, -1
            for i in range(k, rows):
                v = val[i]
                if v is None:
                    v = val[i] = P.valuation(A[i])
                if v < best:
                    best, bi = v, i
                    if v == 0:
                        break
            if bi < 0:
                exps.extend([n] * (dim - k))
                break
            v, pv = best, p ** best
            Ak = A[bi]
            ak = P.unpack(Ak)
            # the row vanishes at columns < k: its support is at k or later
            nz = [j for j, a in enumerate(ak) if a]
            bj = min(pos[j] for j in nz if ak[j] % (pv * p))
            A[k], A[bi] = Ak, A[k]
            val[bi] = val[k]
            sk = perm[bj]
            perm[k], perm[bj] = sk, perm[k]
            pos[perm[k]], pos[perm[bj]] = k, bj
            RT[k], RT[bj] = RT[bj], RT[k]
            ui = pow(ak[sk] // pv, -1, pn)
            piv = red(ui * Ak)
            s = sk * w
            idx = [i for i in range(k + 1, rows) if A[i] >> s & low]
            mults = [(A[i] >> s & low) // pv for i in idx]
            for i, c in zip(idx, mults):
                A[i] = red(A[i] + (pn - c) * piv)
                val[i] = None
            log.append((bi, ui, idx, mults))
            # column k is now p^v e_k, so the column operations only
            # clear the pivot row
            Rk = RT[k]
            for j in nz:
                if j != sk:
                    t = pos[j]
                    RT[t] = red(RT[t] + (pn - ui * ak[j] % pn // pv) * Rk)
            exps.append(v)
        self.exps = exps
        self._log = log
        self._rt = RT

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


def solve_linear_module(a_rows, b, p, n) -> SolutionModule:
    """Canonical solution module of A x = b over Z/p^n."""
    solver = IntSolver(*pack_rows(a_rows, p, n))
    x = solver.solve(b)
    if x is None:
        return SolutionModule(False, [], [], p, n)
    basis = howell_form(solver.packing, solver.kernel_generators())
    x = reduce_against_howell(x, basis, p, n)
    return SolutionModule(True, x, basis, p, n)


def reduce_against_howell(x, basis, p, n):
    """Canonical coset representative of x modulo a Howell-spanned module."""
    pn = p ** n
    x = [int(c) % pn for c in x]
    for row in basis:
        j = next(i for i, c in enumerate(row) if c)
        v = _int_val(row[j], p, n)
        c = x[j] // p ** v
        if c:
            for t in range(len(x)):
                x[t] = (x[t] - c * row[t]) % pn
    return x


def in_howell_span(x, basis, p, n):
    return not any(reduce_against_howell(x, basis, p, n))


def w_span_rows(mats, ring):
    """Z/p^n rows spanning the W-span of the matrices: each times 1..t^(q-1)."""
    t = ring.gen()
    rows = []
    for e in mats:
        rows.append(e.flatten_ints())
        for _ in range(1, ring.q):
            e = e.scale(t)
            rows.append(e.flatten_ints())
    return rows


# -- linear algebra over F_p -------------------------------------------------


def fp_row_reduce(rows, p):
    """(Reduced row echelon form over F_p, its pivot columns)."""
    work = [[c % p for c in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(inv * x) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work[:len(pivots)], pivots


def fp_independent_rows(P, rows):
    """Indices of the rows, packed by P, whose residues mod p are
    independent of those of the rows before them: the pivot columns
    `fp_row_reduce` finds on the transposed residues.  What is left of
    each such residue joins an echelon, normalised, by leading slot."""
    p, red, w, low = P.p, P.residue, P.w, (1 << P.w) - 1
    ech, keep = [], []   # (slot shift, residue with leading entry 1 there)
    for i, x in enumerate(rows):
        x = red(x)
        for s, e in ech:
            if c := x >> s & low:
                x = red(x + (p - c) * e)
        if x:
            s = ((x & -x).bit_length() - 1) // w * w
            insort(ech, (s, red(pow(x >> s & low, -1, p) * x)))
            keep.append(i)
    return keep


def fp_kernel(rows, p):
    """F_p basis of {x : rows x = 0}, one vector per free column."""
    red, pivots = fp_row_reduce(rows, p)
    ncols = len(rows[0])
    kern = []
    for c in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
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


def exp_trunc(X: Matrix) -> Matrix:
    """Sum of X^i / i!, exact at the ring's precision.

    Domain: p >= 3 with X in p*End; p = 2 with X in 4*End, or X in 2*End
    with X @ X = 0 at this precision (the square-zero part of the
    nilpotent case; the series is then 1 + X exactly).
    """
    ring = X.ring
    p, n = ring.p, ring.n
    if X.is_zero():
        return Matrix.identity(ring, X.rows)
    l = X.min_valuation()
    if p >= 3:
        if l < 1:
            raise OutsideExpDomain("need X in p*End for p >= 3")
    else:
        if l < 1:
            raise OutsideExpDomain("need X in 2*End")
        if l == 1:
            if not (X @ X).is_zero():
                raise OutsideExpDomain(
                    "p = 2 with valuation 1 needs a square-zero argument"
                )
            return Matrix.identity(ring, X.rows) + X
    l = int(l)
    # indices with a chance to contribute below p^n, via the crude bound
    # val(X^i / i!) >= i*l - (i-1)/(p-1)
    idxs = []
    i = 1
    while True:
        if i * l - (i - 1) // (p - 1) < n + 1:
            idxs.append(i)
            i += 1
        else:
            break
    extra = max(_vp_factorial(i, p) for i in idxs)
    big = make_witt_ring(p, ring.q, n + extra)
    XL = Matrix.from_flat_ints(big, X.rows, X.cols, X.flatten_ints())
    acc = Matrix.identity(big, X.rows)
    term = Matrix.identity(big, X.rows)
    fact_unit, fact_val = 1, 0
    for i in idxs:
        term = term @ XL
        fact_val += _vp_factorial(i, p) - _vp_factorial(i - 1, p)
        f = i
        while f % p == 0:
            f //= p
        fact_unit = (fact_unit * f) % big.pn
        contrib = term.divide_exact(fact_val).scale(pow(fact_unit, -1, big.pn))
        acc = acc + contrib
    return acc.reduce_to(ring)


def extract_congruence_digit(g: Matrix, l: int) -> Matrix:
    """z with g = 1 + p^l z exactly, for unit g congruent to 1 mod p^l."""
    diff = g - Matrix.identity(g.ring, g.rows)
    if not diff.is_zero() and diff.min_valuation() < l:
        raise ValueError(f"matrix is not congruent to 1 mod p^{l}")
    return diff.divide_exact(l)

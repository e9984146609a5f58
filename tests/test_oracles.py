"""Enumerative oracles on tiny rings, cross-checking the linear-algebra
routes against raw brute force."""

import hashlib
import itertools
import random
from dataclasses import dataclass
from math import gcd
from operator import mul

import pytest

from fcrystals import deviation, plinalg, semilinear, stairs, truncation
from fcrystals.conway import CONWAY_TABLE, conway_polynomial
from fcrystals.crystal import (
    PolarizedCrystal,
    builtin_crystal,
    certified_not_isoclinic,
    direct_sum_crystal,
    new_crystal,
    newton_polygon,
)
from fcrystals.errors import (
    BadShape,
    CrystalError,
    ExtensionCapExceeded,
    InternalError,
    OutsideExpDomain,
    PrecisionExhausted,
    ShiftUnsupported,
    SingularAtPrecision,
)
from fcrystals.plinalg import (
    IntSolver,
    Matrix,
    _PackedRows,
    _vp_factorial,
    exp_trunc,
    fp_independent_rows,
    fp_kernel,
    howell_contains,
    howell_form,
    howell_pivots,
    inverse_with_shift,
    pack_rows,
    smith_normal_form,
    solve_linear_module,
    unit_inverse_matrix,
    w_span_rows,
    w_span_solver,
)
from fcrystals.semilinear import (
    CircularSolution,
    CircularSystem,
    IsomResult,
    _FpLanes,
    _Gf2Lanes,
    _first_unit_trial,
    _matrix_units,
    _scan_range,
    end_type,
    fixed_lattice,
    hom_module,
    is_unit,
    isom_search,
    lang_unit,
    solve_circular,
    unit_search,
)
from fcrystals.stairs import (
    _block_diag_datum,
    _fixed_datum,
    _matrix_unit_datum,
    _monomial_datum,
    _select_w_basis,
    _structure_constants,
    build_stairs_datum,
)
from fcrystals.truncation import polarized_isom_search
from fcrystals.witt import INFINITY, WittElem, field_walk, make_witt_ring
from fcrystals.witt import _int_val as _ival
from test_bench_entry_points import _perfbench_arith


def _all_matrices(ring, r):
    cells = r * r
    for combo in itertools.product(range(ring.pn), repeat=cells):
        yield Matrix.from_ints(
            ring, [list(combo[i * r:(i + 1) * r]) for i in range(r)])


def test_hom_module_matches_brute_force():
    ring = make_witt_ring(2, 1, 2)
    rng = random.Random(0)
    tried = 0
    while tried < 4:
        B1 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        B2 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        try:
            C1 = new_crystal(ring, B1)
            C2 = new_crystal(ring, B2)
        except SingularAtPrecision:
            continue
        tried += 1
        H = hom_module(C1, C2)
        brute = {
            tuple(g.flat)
            for g in _all_matrices(ring, 2)
            if (g @ C1.B) == (C2.B @ g.sigma())
        }
        module = {tuple(g.flat)
                  for g in _all_matrices(ring, 2) if H.contains(g)}
        assert brute == module
        # Howell size matches the count
        assert len(brute) == 2 ** H.size_log()


def test_isom_search_matches_brute_force():
    ring = make_witt_ring(2, 1, 2)
    rng = random.Random(1)
    tried = 0
    while tried < 6:
        B1 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        B2 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        try:
            C1 = new_crystal(ring, B1)
            C2 = new_crystal(ring, B2)
        except SingularAtPrecision:
            continue
        tried += 1
        res = isom_search(C1, C2)
        brute_found = False
        for g in _all_matrices(ring, 2):
            if (g @ C1.B) != (C2.B @ g.sigma()):
                continue
            if not any(smith_normal_form(g)):
                brute_found = True
                break
        assert (res.witness is not None) == brute_found
        if res.witness is not None:
            w = res.witness
            assert (w @ C1.B) == (C2.B @ w.sigma())
            assert not any(smith_normal_form(w))


def test_solve_circular_matches_enumeration():
    fld = make_witt_ring(2, 2, 1)
    elems = [fld.element((a, b)) for a in range(2) for b in range(2)]
    rng = random.Random(2)
    for _ in range(10):
        L = rng.randrange(1, 4)
        c = [elems[rng.randrange(4)] for _ in range(L)]
        d = [fld.one() if rng.randrange(2) else fld.zero() for _ in range(L)]
        sol = solve_circular(
            CircularSystem(fld, L, [fld.one()] * L, c, d), +1)
        big = sol.ring
        # every reported value solves; enumeration over the solution field
        # finds at least one solution too
        bigel = [big.element(co) for co in
                 itertools.product(range(2), repeat=big.q)]
        found = False
        for xs in itertools.product(bigel, repeat=L):
            ok = True
            for j in range(L):
                lhs = xs[j] + c[j].embed(big) \
                    - d[j].embed(big) * xs[(j - 1) % L].frobenius()
                if not lhs.is_zero():
                    ok = False
                    break
            if ok:
                found = True
                break
        assert found
        # and the minimal extension claim: if solvable over the base, the
        # solver must have reported extension 1
        if sol.extension > 1:
            for xs in itertools.product(
                    [fld.element(co) for co in
                     itertools.product(range(2), repeat=2)], repeat=L):
                for j in range(L):
                    lhs = xs[j] + c[j] - d[j] * xs[(j - 1) % L].frobenius()
                    if not lhs.is_zero():
                        break
                else:
                    raise AssertionError("missed a base-field solution")


def test_fixed_lattice_matches_enumeration():
    from fcrystals.semilinear import fixed_lattice
    ring = make_witt_ring(2, 1, 2)
    rng = random.Random(3)
    tried = 0
    while tried < 4:
        B = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                    for _ in range(2)])
        try:
            C = new_crystal(ring, B)
        except SingularAtPrecision:
            continue
        tried += 1
        H, expo = fixed_lattice(C)
        brute = {tuple(g.flat) for g in _all_matrices(ring, 2)
                 if (g @ C.B) == (C.B @ g.sigma())}
        module = {tuple(g.flat) for g in _all_matrices(ring, 2)
                  if H.contains(g)}
        assert brute == module


def _residue_pack(p, q, res):
    """Pack an F_{p^q} element (coefficient tuple) into an int, base p."""
    v = 0
    for c in reversed(res):
        v = v * p + c % p
    return v


def _residue_unpack(p, q, a):
    """The coefficient tuple of a packed F_{p^q} element."""
    return tuple(a // p ** i % p for i in range(q))


class _ResidueField:
    """Packed-residue arithmetic on F_{p^q} with one determinant per
    matrix by Gaussian elimination: the per-candidate kernel that the
    lane blocks replaced, kept as a reference."""

    def __init__(self, ring):
        self.p, self.q, self.ring = ring.p, ring.q, ring
        self.size = ring.p ** ring.q
        self._log = None
        if 2 < self.size <= 1 << 14:
            gen = ring.gen().residue() if ring.q > 1 else \
                ((-ring.modulus_lift[0]) % ring.p,)
            self._log, self._exp = {}, []
            cur = tuple([1] + [0] * (ring.q - 1))
            for k in range(self.size - 1):
                idx = self.pack(cur)
                self._exp.append(idx)
                self._log[idx] = k
                cur = ring._mul(tuple(c % ring.p for c in cur), gen)

    def pack(self, coeffs):
        return _residue_pack(self.p, self.q, coeffs)

    def unpack(self, a):
        return _residue_unpack(self.p, self.q, a)

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.pack([x + y for x, y in zip(self.unpack(a),
                                                 self.unpack(b))])

    def scalar_mul(self, c, a):
        if self.p == 2:
            return a if c else 0
        return self.pack([c * x for x in self.unpack(a)])

    def mul(self, a, b):
        if not a or not b:
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.size - 1)]
        return self.pack(self.ring._mul(self.unpack(a), self.unpack(b)))

    def inv(self, a):
        if self._log is not None:
            return self._exp[(-self._log[a]) % (self.size - 1)]
        return self.pack(self.ring._inv(self.unpack(a)))

    def det(self, mat, r):
        m = [row[:] for row in mat]
        det = 1
        for k in range(r):
            piv = next((i for i in range(k, r) if m[i][k]), None)
            if piv is None:
                return 0
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = self.scalar_mul(self.p - 1, det)
            det = self.mul(det, m[k][k])
            inv = self.inv(m[k][k])
            for i in range(k + 1, r):
                if m[i][k]:
                    c = self.scalar_mul(self.p - 1, self.mul(m[i][k], inv))
                    for j in range(k, r):
                        if m[k][j]:
                            m[i][j] = self.add(m[i][j], self.mul(c, m[k][j]))
        return det


def _combine(rf, packed, coeffs, r, base=None):
    mat = [row[:] for row in base] if base else [[0] * r for _ in range(r)]
    for c, B in zip(coeffs, packed):
        if c:
            for i in range(r):
                for j in range(r):
                    if B[i][j]:
                        mat[i][j] = rf.add(mat[i][j],
                                           rf.scalar_mul(c, B[i][j]))
    return mat


def _first_unit_by_index(rf, packed, r, base):
    """The unit scan's contract, one determinant per index."""
    p, k = rf.p, len(packed)
    for idx in range(p ** k):
        coeffs = [(idx // p ** d) % p for d in range(k)]
        if rf.det(_combine(rf, packed, coeffs, r, base), r):
            return idx
    return None


def _first_unit_by_trial(rf, packed, r, rng, trials):
    """The randomized regime's contract, one determinant per trial."""
    for t in range(trials):
        coeffs = [rng.randrange(rf.p) for _ in packed]
        if rf.det(_combine(rf, packed, coeffs, r), r):
            return t + 1, coeffs
    return None


def _flat_row(rng, rf, B, n):
    """A row-major coordinate row mod p^n over the packed residues of B:
    each coordinate plus a random multiple of p."""
    p = rf.p
    return [c + p * rng.randrange(p ** (n - 1)) for row in B for e in row
            for c in rf.unpack(e)]


def _random_scan_case(rng, q, r, k, with_base, p=2):
    """Packed matrices over F_{p^q}; a row that the low digits leave zero
    pushes the first unit past them, so hits land deep in the span."""
    dens = rng.choice([0.3, 0.7, 1.0])
    zero_row = rng.randrange(r)
    late = rng.randint(0, k)

    def entry():
        return rng.randrange(p ** q) if rng.random() < dens else 0

    packed = []
    for d in range(k):
        B = [[entry() for _ in range(r)] for _ in range(r)]
        if d < late:
            B[zero_row] = [0] * r
        packed.append(B)
    base = None
    if with_base:
        base = [[entry() for _ in range(r)] for _ in range(r)]
        if rng.random() < 0.5:
            base[zero_row] = [0] * r
    return packed, base


def _scan_range_outcomes(monkeypatch, rng, p, cases, block_bits, qs, rmax,
                         kmax, base_period):
    """Compare _scan_range on rows mod p, p^2 and p^3 with the index-order
    oracle on their residues, and count the hits, the empty spans, the
    spans with a base and the spans that cross a block edge."""
    outcomes = {"hit": 0, "none": 0, "base": 0, "crossing": 0}
    for case in range(cases):
        monkeypatch.setattr(semilinear, "_BLOCK_BITS",
                            block_bits[case % len(block_bits)])
        q = qs[case % len(qs)]
        r = rng.randint(1, rmax)
        k = rng.randint(0, kmax)
        n = 1 + case % 3
        ring = make_witt_ring(p, q, 1)
        rf = _ResidueField(ring)
        packed, base = _random_scan_case(
            rng, q, r, k, case % base_period >= base_period // 2, p)
        rows = [_flat_row(rng, rf, B, n) for B in packed]
        flat_base = base and _flat_row(rng, rf, base, n)
        got = _scan_range(ring, rows, r, flat_base)
        want = _first_unit_by_index(rf, packed, r, base)
        assert got == want, (q, r, k, n)
        outcomes["none" if want is None else "hit"] += 1
        outcomes["base"] += base is not None
        outcomes["crossing"] += k > semilinear._layout(ring, r, k)[2]
    return outcomes


@pytest.mark.parametrize("block_bits", [2, 3])
def test_scan_range_gf2_matches_index_order(monkeypatch, block_bits):
    # narrow blocks, so that spans cross block edges
    outcomes = _scan_range_outcomes(
        monkeypatch, random.Random(40 + block_bits), 2, 120, (block_bits,),
        (1, 2, 3, 4, 6, 12), 6, 8, 2)
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("p, block_bits", [
    (3, (6, 7)), (5, (7, 9)), (7, (8, 10))])
def test_scan_range_oddp_matches_index_order(monkeypatch, p, block_bits):
    # blocks narrowed to p or p^2 lanes (the slot width grows with r and
    # q), so that spans cross block edges
    outcomes = _scan_range_outcomes(
        monkeypatch, random.Random(50 + p), p, 90, block_bits,
        (1, 2, 3, 4, 6, 11), 5, {3: 5, 5: 3, 7: 3}[p], 4)
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("q, block_bits", [(1, 6), (2, 6), (1, 7), (2, 7)])
def test_scan_range_oddp_carries_ripple_through_high_digits(
        monkeypatch, q, block_bits):
    # p = 3 with b = 1 or 2 lane digits: row 1 is zero up to digit b + 3,
    # which makes it (0, 1), and entry (0, 0) comes from the high digits
    # b, b + 1, b + 2 alone.  Digits b..b + 2 wrap from 2 to 0 together
    # at block 27, where (0, 0) is zero again, so the first unit is the
    # first lane of block 28, on rows mod 9 and 27
    monkeypatch.setattr(semilinear, "_BLOCK_BITS", block_bits)
    p, rng = 3, random.Random(60 + 10 * q + block_bits)
    ring = make_witt_ring(p, q, 1)
    rf = _ResidueField(ring)
    b = semilinear._layout(ring, 2, 6)[2]
    assert b == block_bits - 5

    def entry(nonzero=False):
        return rng.randrange(1 if nonzero else 0, p ** q)

    packed = ([[[0, entry()], [0, 0]] for _ in range(b)]
              + [[[entry(True), entry()], [0, 0]] for _ in range(3)]
              + [[[0, entry()], [0, rf.pack(ring._one)]]])
    base = [[0, entry()], [0, 0]]
    for n in (2, 3):
        rows = [_flat_row(rng, rf, B, n) for B in packed]
        got = _scan_range(ring, rows, 2, _flat_row(rng, rf, base, n))
        assert got == _first_unit_by_index(rf, packed, 2, base)
        assert got == (p ** 3 + 1) * p ** b


def test_scan_range_gf2_full_blocks():
    # the shipped block width: first units past one block of 2^12 on
    # rows mod 8, and an empty span
    rng = random.Random(12)
    for q in (1, 3, 6):
        ring = make_witt_ring(2, q, 1)
        rf = _ResidueField(ring)
        # digits below 12 never touch row 1; digit 12 makes it a unit
        packed = [[[rng.randrange(1 << q), rng.randrange(1 << q)], [0, 0]]
                  for _ in range(12)]
        packed.append([[0, 0], [0, 1]])
        base = [[0, 1], [0, 0]]   # index 4096 itself is singular
        rows = [_flat_row(rng, rf, B, 3) for B in packed]
        hit = _scan_range(ring, rows, 2, _flat_row(rng, rf, base, 3))
        assert hit == _first_unit_by_index(rf, packed, 2, base), q
        assert hit > 4096
        # two equal rows: singular at every index, an empty span
        flat = [[[B[0][0], B[0][1]], [B[0][0], B[0][1]]] for B in packed]
        rows = [_flat_row(rng, rf, B, 3) for B in flat]
        assert _scan_range(ring, rows, 2) is None
        assert _first_unit_by_index(rf, flat, 2, None) is None


def _rare_unit_case(rng, p, pairs):
    """Diagonal entries c_2s - i c_2s+1 for i = 1 .. p - 1, rows shuffled:
    a combination is a unit iff in every pair exactly one coefficient is
    zero, so first units land many trials deep."""
    r = pairs * (p - 1)
    packed = [[[0] * r for _ in range(r)] for _ in range(2 * pairs)]
    rows = rng.sample(range(r), r)
    for s in range(pairs):
        for i in range(1, p):
            x = s * (p - 1) + i - 1
            packed[2 * s][rows[x]][x] = 1
            packed[2 * s + 1][rows[x]][x] = p - i
    return r, packed


@pytest.mark.parametrize("p, block_bits", [(2, 3), (3, 6), (5, 7), (7, 8)])
def test_trial_batches_match_trial_order(monkeypatch, p, block_bits):
    # blocks of a few lanes and a cap of 40 trials, so that batches grow,
    # stop at the block, and the last one is cut by the cap; rows mod p,
    # p^2 and p^3
    monkeypatch.setattr(semilinear, "_BLOCK_BITS", block_bits)
    monkeypatch.setattr(semilinear, "RANDOMIZED_TRIALS", 40)
    rng = random.Random(60 + p)
    outcomes = {"first": 0, "early": 0, "past a block": 0, "none": 0}
    for case in range(60):
        ring = make_witt_ring(p, (1, 2, 3)[case % 3], 1)
        rf = _ResidueField(ring)
        if case % 2:
            r, packed = _rare_unit_case(rng, p, {2: 4, 3: 3, 5: 2, 7: 2}[p])
        else:
            r = rng.randint(1, 4)
            packed, _ = _random_scan_case(rng, ring.q, r, rng.randint(1, 6),
                                          False, p)
        rows = [_flat_row(rng, rf, B, 1 + case // 2 % 3) for B in packed]
        seed = rng.randrange(1 << 30)
        got = _first_unit_trial(ring, rows, r, random.Random(seed))
        want = _first_unit_by_trial(rf, packed, r, random.Random(seed), 40)
        assert got == want, (ring.q, r, len(packed), seed)
        size = p ** semilinear._layout(ring, r, len(packed))[2]
        outcomes["none" if want is None else "first" if want[0] == 1 else
                 "early" if want[0] <= 2 * size else "past a block"] += 1
    assert min(outcomes.values()) >= 5, outcomes


class _TwoSidedSolver:
    """The two-sided elimination that IntSolver replaced, as a reference:
    explicit L and R with L A R = diag(p^e), same pivot rule (the first
    entry of minimal valuation in row-major order)."""

    def __init__(self, a_rows, p, n):
        self.p, self.n, self.pn = p, n, p ** n
        pn = self.pn
        A = [[c % pn for c in row] for row in a_rows]
        self.rows, self.cols = len(A), len(A[0]) if A else 0
        L = [[int(i == j) for j in range(self.rows)]
             for i in range(self.rows)]
        R = [[int(i == j) for j in range(self.cols)]
             for i in range(self.cols)]
        self.exps = []
        dim = min(self.rows, self.cols)
        for k in range(dim):
            best, bi, bj = n, -1, -1
            for i in range(k, self.rows):
                for j in range(k, self.cols):
                    v = _valuation(A[i][j], p, n)
                    if v < best:
                        best, bi, bj = v, i, j
            if bi < 0:
                self.exps.extend([n] * (dim - k))
                break
            A[k], A[bi] = A[bi], A[k]
            L[k], L[bi] = L[bi], L[k]
            for M in (A, R):
                for row in M:
                    row[k], row[bj] = row[bj], row[k]
            pv = p ** best
            ui = pow(A[k][k] // pv, -1, pn)
            A[k] = [ui * c % pn for c in A[k]]
            L[k] = [ui * c % pn for c in L[k]]
            for i in range(self.rows):
                if i != k and A[i][k]:
                    c = A[i][k] // pv
                    A[i] = [(x - c * y) % pn for x, y in zip(A[i], A[k])]
                    L[i] = [(x - c * y) % pn for x, y in zip(L[i], L[k])]
            for j in range(self.cols):
                if j != k and A[k][j]:
                    c = A[k][j] // pv
                    for M in (A, R):
                        for row in M:
                            row[j] = (row[j] - c * row[k]) % pn
            self.exps.append(best)
        self.L, self.R = L, R

    def solve(self, b):
        p, n, pn = self.p, self.n, self.pn
        Lb = [sum(c * x for c, x in zip(row, b)) % pn for row in self.L]
        y = [0] * self.cols
        for i in range(self.rows):
            e = self.exps[i] if i < len(self.exps) else n
            if Lb[i] % p ** e:
                return None
            if e < n:
                y[i] = Lb[i] // p ** e
        return [sum(r * v for r, v in zip(row, y)) % pn for row in self.R]

    def kernel_generators(self):
        p, n, pn = self.p, self.n, self.pn
        gens = []
        for i in range(self.cols):
            e = self.exps[i] if i < len(self.exps) else n
            g = [p ** (n - e) * row[i] % pn for row in self.R]
            if e and any(g):
                gens.append(g)
        return gens


def _valuation(c, p, n):
    v = 0
    while v < n and c % p ** (v + 1) == 0:
        v += 1
    return v


def _apply(A, x, pn):
    return [sum(a * v for a, v in zip(row, x)) % pn for row in A]


def _type_from_killed(killed, p):
    """The group type (sorted e over the factors Z/p^e) of a finite
    abelian p-group whose elements killed by p^j number killed[j]: each
    factor with e >= j multiplies killed[j] / killed[j - 1] by p."""
    at_least = [0]
    for a, b in zip(killed, killed[1:]):
        c, q = 0, b // a
        while q > 1:
            q //= p
            c += 1
        at_least.append(c)
    at_least.append(0)
    return tuple(e for e in range(1, len(killed))
                 for _ in range(at_least[e] - at_least[e + 1]))


def _int_systems(p, rng):
    """Seeded systems over Z/p^n for n = 1..5: square, wide and tall, with
    zero rows, rows of p-multiples (non-unit pivots), sparse and dense."""
    shapes = ((1, 1), (3, 3), (5, 5), (2, 5), (3, 6), (5, 2), (6, 3))
    for n in range(1, 6):
        pn = p ** n
        for rows, cols in shapes:
            for fill in (0.3, 1.0):
                A = []
                for _ in range(rows):
                    row = [rng.randrange(pn) if rng.random() < fill else 0
                           for _ in range(cols)]
                    kind = rng.random()
                    if kind < 0.15:
                        row = [0] * cols
                    elif kind < 0.5 and n > 1:
                        s = p ** rng.randint(1, n - 1)
                        row = [s * c % pn for c in row]
                    A.append(row)
                yield n, A


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_int_solver_matches_two_sided_elimination(p):
    from fcrystals.plinalg import SolutionModule
    rng = random.Random(500 + p)
    seen = {"non-unit pivot": 0, "zero row": 0, "brute force": 0,
            "unsolvable b": 0}
    for n, A in _int_systems(p, rng):
        pn = p ** n
        rows, cols = len(A), len(A[0])
        ref, new = _TwoSidedSolver(A, p, n), IntSolver(*pack_rows(A, p, n))
        assert new.exps == ref.exps, (n, A)
        packed = new.kernel_generators()
        gens = [new.packing.unpack(g) for g in packed]
        assert gens == ref.kernel_generators(), (n, A)
        # checks that do not share the elimination
        for g in gens:
            assert not any(_apply(A, g, pn)), (n, A, g)
        exps = new.exps + [n] * (cols - len(new.exps))
        ker_log = sum(exps[:cols])
        span = SolutionModule(True, [0] * cols,
                              howell_form(new.packing, packed), p, n)
        assert span.size_log() == ker_log, (n, A)
        images = None
        if pn ** cols <= 3 ** 8:
            seen["brute force"] += 1
            images, ker = set(), 0
            killed = [0] * (n + 1)   # kernel elements killed by p^j
            for x in itertools.product(range(pn), repeat=cols):
                ax = tuple(_apply(A, x, pn))
                images.add(ax)
                if not any(ax):
                    ker += 1
                    killed[n - min(_valuation(v, p, n) for v in x)] += 1
            assert ker == p ** ker_log, (n, A)
            assert new.kernel_type() == _type_from_killed(
                list(itertools.accumulate(killed)), p), (n, A)
        bs = [_apply(A, [rng.randrange(pn) for _ in range(cols)], pn)
              for _ in range(3)]
        bs += [[rng.randrange(-pn, 2 * pn) for _ in range(rows)]
               for _ in range(3)]
        for i, b in enumerate(bs):
            x = new.solve(b)
            assert x == ref.solve(b), (n, A, b)
            if x is None:
                assert i >= 3, (n, A, b)
                seen["unsolvable b"] += 1
            else:
                assert _apply(A, x, pn) == [c % pn for c in b], (n, A, b)
            if images is not None:
                assert (x is not None) == \
                    (tuple(c % pn for c in b) in images), (n, A, b)
        seen["non-unit pivot"] += any(0 < e < n for e in new.exps)
        seen["zero row"] += any(not any(row) for row in A)
    assert min(seen.values()) >= 5, seen


def test_cokernel_exponent_is_the_least_covering_power():
    """`IntSolver.cokernel_exponent` of the system whose columns span L in
    (Z/p^n)^m, against the least e < n with p^e e_j in L for every unit
    vector e_j (`howell_contains`), INFINITY when there is none; random
    generators, some entries scaled by p, so Howell rows carry tails past
    their pivots: a pivot in every column and the largest pivot
    valuation, read off the Howell basis, can then undercount."""
    seen = {"full": 0, "not full": 0, "Howell undercounts": 0}
    for p in (2, 3, 5, 7):
        rng = random.Random(900 + p)
        for _ in range(80):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            pn = p ** n
            gens = [[rng.randrange(pn) * p ** rng.choice((0, 0, 1, 2)) % pn
                     for _ in range(m)]
                    for _ in range(rng.randint(m - 1, m + 2))]
            basis = howell_form(*pack_rows(gens, p, n)) if gens else []
            units = [[int(i == j) for i in range(m)] for j in range(m)]
            want = next((e for e in range(n) if howell_contains(
                basis, [[p ** e * c for c in u] for u in units], p, n)),
                INFINITY)
            solver = IntSolver(*pack_rows([[g[i] for g in gens]
                                           for i in range(m)], p, n))
            assert solver.cokernel_exponent() == want, (p, n, gens)
            seen["not full" if want == INFINITY else "full"] += 1
            piv = howell_pivots(basis, p, n)
            if len(piv) == m and max(v for _, v in piv) < want:
                seen["Howell undercounts"] += 1
    assert min(seen.values()) >= 5, seen


# -- the "-1" deviation side, against copies of its direct version -------------


def _direct_reduce_nonpos_side(tau):
    """The "-1" side reducer written out, as it was before the reflection:
    widest forward window from t whose prefix sums stay >= 0; positions
    t+1 .. t+u+1 are rescaled by those sums."""
    l = len(tau)
    a = [0] * l
    done = [False] * l
    while True:
        best_u, best_t = -1, None
        for t in range(l):
            if done[t] or tau[t] < 0:
                continue
            s, u = 0, -1
            for v in range(l):
                i = (t + v) % l
                if done[i]:
                    break
                s += tau[i]
                if s < 0:
                    break
                u = v
            if u > best_u:
                best_u, best_t = u, t
            elif u == best_u and u >= 0:
                if best_t is None or best_t > t:
                    best_t = t
        if best_t is None or best_u < 0:
            break
        t, u = best_t, best_u
        s = 0
        for v in range(u + 1):
            i = (t + v) % l
            s += tau[i]
            a[(i + 1) % l] = s
            done[i] = True
    new = [tau[i] + a[i] - a[(i + 1) % l] for i in range(l)]
    return a, new


def _direct_sign_deviation_minus(tau):
    """The "-1" sign deviation written out: windows whose suffix sums are
    all >= 0, value +sum."""
    l = len(tau)
    best = 0
    for t in range(l):
        s = 0
        for v in range(l):
            s += tau[(t - v) % l]
            if s < 0:
                break
            best = max(best, s)
    return best


def _small_tuples():
    """Every tuple of length <= 6 with entries in [-3, 3]."""
    for l in range(1, 7):
        for tau in itertools.product(range(-3, 4), repeat=l):
            yield list(tau)


def test_reflected_reducer_matches_the_direct_one():
    checked = 0
    for tau in _small_tuples():
        if sum(tau) > 0:
            continue
        a, new = _direct_reduce_nonpos_side(tau)
        assert deviation._reduce_nonpos_side(tau) == a, tau
        if sum(tau) < 0:
            red = deviation.df_reduce(tau)
            assert (red.rescale, red.new_exponents, red.sign) == \
                (a, new, -1), tau
        checked += 1
    assert checked == 74_157


def test_reflected_deviations_match_the_direct_ones():
    for tau in _small_tuples():
        flip = deviation._reflect(tau)
        assert deviation._sign_deviation(flip) == \
            _direct_sign_deviation_minus(tau), tau
        assert deviation._value_deviation(flip) == \
            sum(x for x in tau if x >= 0), tau


# -- stairs coordinates, against the system built through _mult_matrix --------


def _mult_matrix_coordinate_rows(datum):
    """Row (pos, crd), column (l, s): coordinate crd of entry pos of
    t^s e_l, read off the multiplication matrix of that entry of e_l."""
    ring = datum.crystal.ring
    blocks = [[_mult_matrix(ring, ent) for row in e.entries for ent in row]
              for e in datum.basis]
    rows = []
    for t in range(len(datum.basis[0].flat)):
        pos, crd = divmod(t, ring.q)
        rows.append([c for blk in blocks for c in blk[pos][crd]])
    return rows


def _golden_datums():
    """The stairs datums behind tests/golden.json, and base changes of them."""
    datums = [build_stairs_datum(builtin_crystal(make_witt_ring(p, q, n), fam,
                                                 **kw))
              for p, q, n, fam, kw in (
                  (5, 1, 6, "ordinary", {"r": 3, "d": 1}),
                  (2, 2, 5, "supersingular", {"d": 1}),
                  (2, 3, 5, "isoclinic_3_3_6", {"r": 3, "c": 2}))]
    for p, q in ((2, 2), (3, 2)):
        C = builtin_crystal(make_witt_ring(p, q, 4), "supersingular", d=1)
        datums.append(_fixed_datum(C))
    for dat in list(datums):
        ring = dat.crystal.ring
        datums.append(dat.base_change(make_witt_ring(ring.p, 2 * ring.q,
                                                     ring.n)))
    return datums


def test_coordinate_solver_matches_the_mult_matrix_system():
    rng = random.Random(12)
    for dat in _golden_datums():
        ring = dat.crystal.ring
        new = dat.coordinate_solver()
        ref = IntSolver(*pack_rows(_mult_matrix_coordinate_rows(dat),
                                   ring.p, ring.n))
        assert (new.exps, new._log, new._rt) == \
            (ref.exps, ref._log, ref._rt), (ring.p, ring.q)
        for _ in range(3):
            ys = [ring.random_element(rng) for _ in dat.basis]
            assert dat.combine(dat.coords(dat.combine(ys))) == \
                dat.combine(ys)


# -- the packed Witt kernel, against schoolbook products ------------------------


def _poly_mul_mod(a, b, f, mod):
    """(a * b) mod (f, mod) for coefficient tuples, f monic."""
    q = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % mod
    for i in range(len(res) - 1, q - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(q):
                res[i - q + j] = (res[i - q + j] - c * f[j]) % mod
    res = res[:q]
    res.extend([0] * (q - len(res)))
    return tuple(res)


def _poly_pow_mod(a, e, f, mod):
    q = len(f) - 1
    result = tuple([1] + [0] * (q - 1))
    base = a
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, f, mod)
        base = _poly_mul_mod(base, base, f, mod)
        e >>= 1
    return result


def _table_fields(min_q=1):
    return [(p, q) for (p, q), f in sorted(CONWAY_TABLE.items())
            if f is not None and q >= min_q]


def _samples(ring, rng, count):
    """Seeded random elements plus the extremes: zero, one, all p^n - 1."""
    top = ring.pn - 1
    out = [ring._zero, ring._one, (top,) * ring.q]
    out += [tuple(rng.randrange(ring.pn) for _ in range(ring.q))
            for _ in range(count)]
    return out


def test_packed_mul_matches_schoolbook():
    rng = random.Random(31)
    for p, q in _table_fields(min_q=2):
        for n in (1, 2, 4, 8):
            ring = make_witt_ring(p, q, n)
            f, pn = ring.modulus_lift, ring.pn
            xs = _samples(ring, rng, 6)
            for a in xs:
                for b in xs[2:5]:
                    assert ring._mul(a, b) == _poly_mul_mod(a, b, f, pn), \
                        (p, q, n, a, b)


def _conway_fold_rows(p, q):
    """t^(q+i) modulo the Conway polynomial mod p, i = 0..q-2, by the
    recurrence t^(q+i+1) = t * t^(q+i)."""
    top = [(-c) % p for c in conway_polynomial(p, q)[:q]]
    row, rows = top, []
    for _ in range(q - 1):
        rows.append(row)
        row = [(a + row[-1] * c) % p for a, c in zip([0] + row, top)]
    return rows


def test_lane_folds_match_the_conway_recurrence():
    for p, q in _table_fields():
        rows = _conway_fold_rows(p, q)
        for n in (1, 4):
            ring = make_witt_ring(p, q, n)
            if p == 2:
                fold = _Gf2Lanes(ring, [], [], 1, 1).fold
                assert fold == [[s for s, c in enumerate(row) if c]
                                for row in rows], (q, n)
            else:
                fold = _FpLanes(ring, [], [], 1, 1).fold
                assert fold == [[(s, c) for s, c in enumerate(row) if c]
                                for row in rows], (p, q, n)


def _schoolbook_matmul(A, B):
    ring = A.ring
    f, pn = ring.modulus_lift, ring.pn
    out = []
    for row in A.entries:
        orow = []
        for col in zip(*B.entries):
            acc = ring._zero
            for a, b in zip(row, col):
                acc = ring._add(acc, _poly_mul_mod(a.coeffs, b.coeffs, f, pn))
            orow.append(acc)
        out.append(orow)
    return out


@pytest.mark.parametrize("p, q, n", [(2, 1, 5), (3, 1, 4), (2, 2, 3),
                                     (3, 3, 3), (5, 2, 2), (2, 12, 5)])
def test_packed_matmul_matches_schoolbook(p, q, n):
    ring = make_witt_ring(p, q, n)
    rng = random.Random(41 + q)
    top = ring.element([ring.pn - 1] * q)
    for k in range(1, 41):
        rows, cols = 1 + k % 3, 1 + (k * 7) % 4  # non-square shapes
        for fill in ("random", "top"):
            def entry():
                return ring.random_element(rng) if fill == "random" else top
            A = Matrix(ring, [[entry() for _ in range(k)]
                              for _ in range(rows)])
            B = Matrix(ring, [[entry() for _ in range(cols)]
                              for _ in range(k)])
            got = [[e.coeffs for e in row] for row in (A @ B).entries]
            assert got == _schoolbook_matmul(A, B), (k, fill)


def _embed_by_powers(x, S):
    """The per-element power loop: sum_j c_j u^j, u the image of t."""
    R = x.ring
    f, pn = S.modulus_lift, S.pn
    e = (S.p ** S.q - 1) // (R.p ** R.q - 1)
    u = _poly_pow_mod(S.gen().coeffs, e, f, pn)
    res, upow = S._zero, S._one
    for c in x.coeffs:
        res = S._add(res, S._smul(c, upow))
        upow = _poly_mul_mod(upow, u, f, pn)
    return res


def test_embed_matches_the_power_loop():
    rng = random.Random(51)
    fields = set(_table_fields())
    for p, big in fields:
        for small in range(1, big):
            if big % small or (p, small) not in fields:
                continue
            for n in (1, 5):
                R, S = make_witt_ring(p, small, n), make_witt_ring(p, big, n)
                for a in _samples(R, rng, 3):
                    x = R.element(a)
                    assert x.embed(S).coeffs == _embed_by_powers(x, S), \
                        (p, small, big, n, a)


# -- packed-row elimination, against the list-based code it replaced ---------
# The two copies below are the list-based IntSolver and howell_form as they
# were before the rows were packed into ints, kept verbatim as the oracle.


class _ListIntSolver:
    """Smith-form elimination of an integer matrix mod p^n, reusable for
    many solves.

    The pivot is the first entry of minimal valuation in row-major order.
    The row operations are not multiplied into a left transform: each
    pivot's row swap, unit inverse and (row, multiplier) lists are logged
    and replayed on b by `solve`.  The right transform R is kept
    transposed (`_rt[j]` is column j of R), so its column operations are
    row updates.
    """

    def __init__(self, a_rows, p, n):
        self.p = p
        self.n = n
        self.pn = pn = p ** n
        A = [[int(c) % pn for c in row] for row in a_rows]
        rows = self.rows = len(A)
        cols = self.cols = len(A[0]) if A else 0
        RT = [[0] * cols for _ in range(cols)]
        for j in range(cols):
            RT[j][j] = 1
        exps = []
        log = []   # per pivot: (swapped row, unit inverse, rows, multipliers)
        # rows >= k vanish left of column k, so the gcd of a row with p^n
        # is p^(its minimal valuation); 0 marks a row changed since
        row_gcd = [0] * rows
        dim = min(rows, cols)
        for k in range(dim):
            best, bi = pn, -1
            for i in range(k, rows):
                g = row_gcd[i] = row_gcd[i] or gcd(pn, *A[i])
                if g < best:
                    best, bi = g, i
                    if g == 1:
                        break
            if bi < 0:
                exps.extend([n] * (dim - k))
                break
            pv = best
            v = _ival(pv, p, n)
            Ak = A[bi]
            bj = next(j for j in range(k, cols) if Ak[j] % (pv * p))
            A[k], A[bi] = Ak, A[k]
            row_gcd[bi] = row_gcd[k]
            if bj != k:
                for row in A[k:]:
                    row[k], row[bj] = row[bj], row[k]
                RT[k], RT[bj] = RT[bj], RT[k]
            ui = pow(Ak[k] // pv, -1, pn)
            # the pivot row after scaling by ui, beyond column k
            tail = [(t, ui * Ak[t] % pn) for t in range(k + 1, cols) if Ak[t]]
            idx, mults = [], []
            for i in range(k + 1, rows):
                Ai = A[i]
                e = Ai[k]
                if e:
                    c = e // pv
                    Ai[k] = row_gcd[i] = 0
                    for t, a in tail:
                        Ai[t] = (Ai[t] - c * a) % pn
                    idx.append(i)
                    mults.append(c)
            log.append((bi, ui, idx, mults))
            # column k is now p^v e_k, so the column operations only
            # clear the pivot row; R follows them at the support of column k
            Rk = [(j, y) for j, y in enumerate(RT[k]) if y]
            for t, a in tail:
                c = a // pv
                Rt = RT[t]
                for j, y in Rk:
                    Rt[j] = (Rt[j] - c * y) % pn
                Ak[t] = 0
            Ak[k] = pv
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
        x = [0] * self.cols
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
                    x = [a + y * r for a, r in zip(x, self._rt[i])]
            elif Lb[i]:
                return None
        return [a % pn for a in x]

    def kernel_generators(self):
        p, n, pn = self.p, self.n, self.pn
        gens = []
        for i in range(self.cols):
            e = self.exps[i] if i < len(self.exps) else n
            if e == 0:
                continue
            c = p ** (n - e)
            g = [c * r % pn for r in self._rt[i]]
            if any(g):
                gens.append(g)
        return gens




def _list_howell_form(rows, p, n):
    """Echelon basis of the row span inside (Z/p^n)^m, Howell-closed.

    Rows are lists of ints; the result has pivots p^e, entries below
    pivots zero, and span-closure rows included.  The entries above the
    pivots are reduced from the first pivot to the last, into [0, p^v),
    which makes the basis the unique Howell basis of the span.
    """
    pn = p ** n
    work = [list(int(c) % pn for c in r) for r in rows if any(c % pn for c in r)]
    if not work:
        return []
    m = len(work[0])
    result = []
    for j in range(m):
        live = [r for r in work if any(r)]
        cand = [r for r in live if r[j] % pn]
        rest = [r for r in live if not r[j] % pn]
        if not cand:
            work = live
            continue
        v, piv = None, None
        for r in cand:
            rv = _ival(r[j], p, n)
            if v is None or rv < v:
                v, piv = rv, r
        cand.remove(piv)
        u = piv[j] // p ** v
        ui = pow(u, -1, pn)
        piv = [(ui * c) % pn for c in piv]
        for r in cand:
            c = r[j] // p ** v
            for t in range(m):
                r[t] = (r[t] - c * piv[t]) % pn
        if v > 0:
            extra = [(p ** (n - v) * c) % pn for c in piv]
            if any(extra):
                cand.append(extra)
        result.append((j, v, piv))
        work = cand + rest
    # reduce entries above each pivot
    basis = [piv for (_, _, piv) in result]
    for idx in range(len(result)):
        j, v, piv = result[idx]
        pv = p ** v
        for r in basis[:idx]:
            c = r[j] // pv
            if c:
                for t in range(m):
                    r[t] = (r[t] - c * piv[t]) % pn
    return basis


def _packed_systems(p, rng):
    """Seeded systems over Z/p^n for n = 1..8: square, wide and tall, with
    zero rows, rows of p-multiples, duplicate rows and all-zero input."""
    shapes = ((1, 1), (4, 4), (7, 7), (3, 8), (2, 9), (8, 3), (9, 2))
    for n in range(1, 9):
        pn = p ** n
        yield n, [[0] * 5 for _ in range(3)]
        for rows, cols in shapes:
            for fill in (0.3, 1.0):
                A = []
                for _ in range(rows):
                    row = [rng.randrange(pn) if rng.random() < fill else 0
                           for _ in range(cols)]
                    kind = rng.random()
                    if kind < 0.15:
                        row = [0] * cols
                    elif kind < 0.3 and A:
                        row = list(rng.choice(A))
                    elif kind < 0.6 and n > 1:
                        s = p ** rng.randint(1, n - 1)
                        row = [s * c % pn for c in row]
                    A.append(row)
                yield n, A


def _assert_same_elimination(A, p, n, bs):
    new, ref = IntSolver(*pack_rows(A, p, n)), _ListIntSolver(A, p, n)
    P = new.packing
    assert (new.exps, new._log, [P.unpack(x) for x in new._rt]) == \
        (ref.exps, ref._log, ref._rt)
    packed = new.kernel_generators()
    gens = [P.unpack(g) for g in packed]
    assert gens == ref.kernel_generators()
    assert howell_form(P, packed) == _list_howell_form(gens, p, n)
    assert howell_form(*pack_rows(A, p, n)) == _list_howell_form(A, p, n)
    sols = [new.solve(b) for b in bs]
    assert sols == [ref.solve(b) for b in bs]
    return new, sols


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_rows_match_the_list_elimination(p):
    rng = random.Random(900 + p)
    seen = {"non-unit pivot": 0, "zero row": 0, "duplicate row": 0,
            "all zero": 0, "unsolvable b": 0, "b outside [0, p^n)": 0}
    for n, A in _packed_systems(p, rng):
        pn = p ** n
        rows, cols = len(A), len(A[0])
        bs = [_apply(A, [rng.randrange(pn) for _ in range(cols)], pn)
              for _ in range(2)]
        bs += [[rng.randrange(-pn, 2 * pn) for _ in range(rows)]
               for _ in range(3)]
        new, sols = _assert_same_elimination(A, p, n, bs)
        seen["non-unit pivot"] += any(0 < e < n for e in new.exps)
        seen["zero row"] += any(not any(row) for row in A)
        seen["duplicate row"] += any(A[i] == A[j] and any(A[i])
                                     for j in range(rows) for i in range(j))
        seen["all zero"] += not any(map(any, A))
        seen["unsolvable b"] += sols.count(None)
        seen["b outside [0, p^n)"] += sum(
            x is not None and any(not 0 <= c < pn for c in b)
            for x, b in zip(sols, bs))
    assert min(seen.values()) >= 5, seen


def test_packed_rows_match_on_the_thirds_family():
    """The 216 x 216 Hom system of the rank-6 thirds family over W_4(F_64)."""
    ring = make_witt_ring(2, 6, 4)
    C1 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.one())
    C2 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.gen())
    A = _list_intertwiner_system(C1.B, C2.B, ring)
    assert (len(A), len(A[0])) == (216, 216)
    P, packed = semilinear._intertwiner_system(C1.B, C2.B, ring)
    assert packed == [P.pack(row) for row in A]
    rng = random.Random(7)
    bs = [_apply(A, [rng.randrange(16) for _ in range(216)], 16),
          [rng.randrange(16) for _ in range(216)]]
    new, sols = _assert_same_elimination(A, 2, 4, bs)
    assert any(0 < e < 4 for e in new.exps) and sols[0] is not None


@pytest.mark.parametrize("p", [2, 3])
def test_an_exponent_only_reader_never_builds_r(p):
    """`kernel_type` and `cokernel_exponent` read the exponents alone; R is
    replayed from the kept record only when `solve` first asks, and then
    agrees with the list elimination."""
    rng = random.Random(1190 + p)
    for n, A in _packed_systems(p, rng):
        pn = p ** n
        S, ref = IntSolver(*pack_rows(A, p, n)), _ListIntSolver(A, p, n)
        S.kernel_type()
        S.cokernel_exponent()
        assert "_rt" not in vars(S) and hasattr(S, "_cops"), (n, A)
        b = _apply(A, [rng.randrange(pn) for _ in range(len(A[0]))], pn)
        assert S.solve(b) == ref.solve(b) is not None, (n, A)


# -- canonical Howell bases: one basis per span -------------------------------


def _random_generators(rng, p, n):
    """A few rows over Z/p^n: sparse or dense, some zero or p-multiples."""
    pn, m = p ** n, rng.randint(1, 6)
    fill = rng.choice([0.3, 0.7, 1.0])
    gens = []
    for _ in range(rng.randint(1, 6)):
        row = [rng.randrange(pn) if rng.random() < fill else 0
               for _ in range(m)]
        if n > 1 and rng.random() < 0.4:
            s = p ** rng.randint(1, n - 1)
            row = [s * c % pn for c in row]
        gens.append(row)
    return gens


def _recombined(rng, gens, p, n):
    """The same span from other generators: unimodular row mixes, unit
    scalings, added multiples of combinations and zero rows, shuffled."""
    pn, m = p ** n, len(gens[0])
    rows = [list(r) for r in gens]
    for _ in range(rng.randint(0, 2 * len(rows))):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i == j:
            u = rng.choice([c for c in range(1, min(pn, 50)) if c % p])
            rows[i] = [u * c % pn for c in rows[i]]
        else:
            c = rng.randrange(pn)
            rows[i] = [(a + c * b) % pn for a, b in zip(rows[i], rows[j])]
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.randrange(pn) for _ in rows]
        rows.append([sum(c * r[t] for c, r in zip(coeffs, rows)) % pn
                     for t in range(m)])
    rows += [[0] * m] * rng.randint(0, 2)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_howell_form_is_canonical(p):
    rng = random.Random(1400 + p)
    outcomes = {"non-unit pivot": 0, "reduced above a non-unit pivot": 0,
                "closure row": 0, "zero span": 0}
    for case in range(150):
        n = 1 + case % 5
        pn = p ** n
        gens = _random_generators(rng, p, n)
        basis = howell_form(*pack_rows(gens, p, n))
        for _ in range(4):
            assert howell_form(*pack_rows(
                _recombined(rng, gens, p, n), p, n)) == basis, (n, gens)
        pivots = howell_pivots(basis, p, n)
        assert [j for j, _ in pivots] == sorted({j for j, _ in pivots})
        for idx, (j, v) in enumerate(pivots):
            assert basis[idx][j] == p ** v
            assert all(0 <= row[j] < p ** v for row in basis[:idx])
            assert not any(row[j] for row in basis[idx + 1:])
        # each spans the other: the generators reduce to zero against the
        # basis, and every basis row solves x G = row
        assert all(in_howell_span(g, basis, p, n) for g in gens)
        transposed = IntSolver(*pack_rows(
            [list(col) for col in zip(*gens)], p, n))
        assert all(transposed.solve(row) is not None for row in basis)
        outcomes["non-unit pivot"] += any(v for _, v in pivots)
        outcomes["reduced above a non-unit pivot"] += any(
            row[j] for idx, (j, v) in enumerate(pivots) if v
            for row in basis[:idx])
        outcomes["closure row"] += len(basis) > len(gens)
        outcomes["zero span"] += not basis
    assert min(outcomes.values()) >= 3, outcomes


# -- the packed intertwiner system, against the list builder it replaced -----
# The three functions below build the system as lists, as it was built
# before its rows were packed; kept verbatim (the builder renamed) as the
# oracle.  _mult_matrix also builds the stairs-coordinate oracle above.


def _mult_matrix(ring, a):
    """q x q int matrix of multiplication by a on Witt coordinates."""
    cols = []
    t_pow = ring._one
    for j in range(ring.q):
        cols.append(ring._mul(a.coeffs, t_pow))
        if j + 1 < ring.q:
            t_pow = ring._mul(t_pow, tuple(
                [0, 1] + [0] * (ring.q - 2)) if ring.q > 1 else ring._one)
    return [[cols[j][i] for j in range(ring.q)] for i in range(ring.q)]


def _sigma_matrix(ring, power=1):
    q = ring.q
    cols = []
    for j in range(q):
        basis = tuple(1 if t == j else 0 for t in range(q))
        img = basis
        for _ in range(power % q):
            img = ring.element(img).frobenius().coeffs
        cols.append(img)
    return [[cols[j][i] for j in range(q)] for i in range(q)]


def _list_intertwiner_system(B1, B2, ring, sigma_power=1):
    """Int rows for {g : g @ B1 = B2 @ sigma^power(g)}, coords row-major."""
    q = ring.q
    r2, r1 = B2.rows, B1.cols
    nvars = r2 * r1 * q
    sig = _sigma_matrix(ring, sigma_power)
    mul1 = [[_mult_matrix(ring, B1[i, j]) for j in range(B1.cols)]
            for i in range(B1.rows)]
    mul2 = [[_mult_matrix(ring, B2[i, j]) for j in range(B2.cols)]
            for i in range(B2.rows)]
    pn = ring.pn
    rows = []
    # equation (i, j): sum_k g[i,k] B1[k,j] - sum_k B2[i,k] sigma(g[k,j]) = 0
    for i in range(r2):
        for j in range(r1):
            for t in range(q):  # coordinate of the equation
                row = [0] * nvars
                for k in range(B1.rows):
                    M = mul1[k][j]
                    base = (i * r1 + k) * q
                    for s in range(q):
                        row[base + s] = (row[base + s] + M[t][s]) % pn
                for k in range(B2.rows):
                    M2 = mul2[i][k]
                    base = (k * r1 + j) * q
                    for s in range(q):
                        c = 0
                        for u in range(q):
                            c += M2[t][u] * sig[u][s]
                        row[base + s] = (row[base + s] - c) % pn
                rows.append(row)
    return rows



def _sparse_matrix(ring, rng, rows, cols):
    """Entries drawn as zero, as p times an element, or as any element."""
    def entry():
        kind = rng.random()
        if kind < 0.3:
            return ring.zero()
        x = ring.random_element(rng)
        return x * ring.from_int(ring.p) if kind < 0.6 else x
    return Matrix(ring, [[entry() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_intertwiner_system_matches_the_list_builder(p):
    rng = random.Random(1200 + p)
    seen = {"zero entry": 0, "p-multiple entry": 0, "r1 != r2": 0,
            "sigma^(q-1)": 0, "two terms in a slot": 0}
    for q in (1, 2, 3, 6):
        for n in range(1, 7):
            ring = make_witt_ring(p, q, n)
            for r2, r1 in ((1, 1), (2, 3), (3, 2), (2, 2)):
                B1 = _sparse_matrix(ring, rng, r1, r1)
                B2 = _sparse_matrix(ring, rng, r2, r2)
                for power in sorted({1, q - 1}):
                    P, packed = semilinear._intertwiner_system(
                        B1, B2, ring, sigma_power=power)
                    ref = _list_intertwiner_system(B1, B2, ring,
                                                   sigma_power=power)
                    assert P.cols == r1 * r2 * q, (p, q, n, r1, r2)
                    assert packed == [P.pack(row) for row in ref], \
                        (p, q, n, r1, r2, power)
                    seen["sigma^(q-1)"] += power == q - 1 > 1
                    # g[i, i] meets both B1[i, i] and B2[i, i]
                    seen["two terms in a slot"] += any(
                        not B1[i, i].is_zero() and not B2[i, i].is_zero()
                        for i in range(min(r1, r2)))
                entries = [e for B in (B1, B2) for row in B.entries
                           for e in row]
                seen["zero entry"] += any(e.is_zero() for e in entries)
                seen["p-multiple entry"] += n > 1 and any(
                    not e.is_zero() and all(c % p == 0 for c in e.coeffs)
                    for e in entries)
                seen["r1 != r2"] += r1 != r2
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_d_truncation_hom_module_matches_the_list_route(p):
    """The F system and the sigma^(q-1) V system, concatenated, solved by
    the list elimination."""
    from fcrystals.truncation import DTruncation, d_trunc_hom_module
    rng = random.Random(1300 + p)
    for q in (1, 2, 3):
        for n in (1, 2, 3):
            ring = make_witt_ring(p, q, n)
            for r2, r1 in ((2, 2), (1, 2), (2, 1)):
                T1 = DTruncation(ring, r1, _sparse_matrix(ring, rng, r1, r1),
                                 _sparse_matrix(ring, rng, r1, r1))
                T2 = DTruncation(ring, r2, _sparse_matrix(ring, rng, r2, r2),
                                 _sparse_matrix(ring, rng, r2, r2))
                rows = _list_intertwiner_system(T1.F, T2.F, ring)
                rows += _list_intertwiner_system(T1.V, T2.V, ring,
                                                 sigma_power=q - 1)
                ref = _list_howell_form(
                    _ListIntSolver(rows, p, n).kernel_generators(), p, n)
                assert d_trunc_hom_module(T1, T2)._howell == ref, \
                    (p, q, n, r1, r2)


# -- the coordinate rows of the Smith and W-span systems, as lists -----------
# `plinalg.coordinate_rows` builds every Z/p^n system from one product per
# (coordinate t, coordinate c).  These list builders read each entry's
# multiplication matrix instead.


def _list_smith_rows(A):
    """Rows (i, t) of x -> A x over Z/p^n: column (j, s) holds coordinate
    t of A[i][j] t^s."""
    rows = []
    for i in range(A.rows):
        mults = [_mult_matrix(A.ring, A[i, j]) for j in range(A.cols)]
        rows += [[M[t][s] for M in mults for s in range(A.ring.q)]
                 for t in range(A.ring.q)]
    return rows


def _list_w_span_columns(mats, ring):
    """The rows of `w_span_solver`: `w_span_rows` transposed."""
    return [list(col) for col in zip(*w_span_rows(mats, ring))]


def _coordinate_cases(ring, rng, rows, cols):
    """Name and matrix: sparse entries, every coordinate p^n - 1, and for
    each c < q coordinate c zero in every entry."""
    pn, q, size = ring.pn, ring.q, rows * cols * ring.q
    yield "sparse", _sparse_matrix(ring, rng, rows, cols)
    yield "extreme", Matrix.from_flat_ints(ring, rows, cols, [pn - 1] * size)
    for c in range(q):
        yield f"coordinate {c} zero", Matrix.from_flat_ints(
            ring, rows, cols,
            [0 if k % q == c else rng.randrange(pn) for k in range(size)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coordinate_rows_match_the_list_builders(p, monkeypatch):
    """The intertwiner system at every sigma-power, the Smith rows and
    the W-span columns, bit for bit, on rectangular pairs, on entries
    whose coordinate c is zero throughout and at all-(p^n - 1) entries,
    where each slot gets the largest products."""
    rng = random.Random(3700 + p)
    seen, real = [], plinalg.IntSolver   # the (P, rows) of each IntSolver
    monkeypatch.setattr(plinalg, "IntSolver", lambda P, rows: (
        seen.append((P, list(rows))) or real(P, rows)))
    for q in (1, 2, 3, 4, 6):
        for n in (1, 2, 3, 4):
            ring = make_witt_ring(p, q, n)
            for r2, r1 in ((1, 2), (3, 1), (2, 3), (2, 2)):
                B1s = dict(_coordinate_cases(ring, rng, r1, r1))
                B2s = dict(_coordinate_cases(ring, rng, r2, r2))
                for power in range(q):
                    zero = f"coordinate {power} zero"
                    for k1, k2 in (("extreme", "extreme"), ("sparse", zero),
                                   (zero, "sparse")):
                        P, packed = semilinear._intertwiner_system(
                            B1s[k1], B2s[k2], ring, sigma_power=power)
                        ref = _list_intertwiner_system(
                            B1s[k1], B2s[k2], ring, sigma_power=power)
                        assert packed == [P.pack(row) for row in ref], (
                            p, q, n, r2, r1, power, k1, k2)
            for r in (1, 2, 3):
                cases = list(_coordinate_cases(ring, rng, r, r))
                for name, A in cases:
                    seen.clear()
                    plinalg._smith_solver(A)
                    P, rows = seen[0]
                    assert rows == [P.pack(row) for row in
                                    _list_smith_rows(A)], (p, q, n, r, name)
                mats = [A for _, A in cases]
                for chosen in (mats, mats[1:2], mats[2:]):
                    seen.clear()
                    w_span_solver(chosen, ring)
                    P, rows = seen[0]
                    assert rows == [P.pack(row) for row in
                                    _list_w_span_columns(chosen, ring)], (
                        p, q, n, r, len(chosen))


# -- the list F_p eliminator, against howell_form at n = 1 -------------------
# `fp_row_reduce` and `_list_fp_kernel` (plinalg.fp_kernel on list rows)
# are the list eliminator that howell_form replaced at n = 1, verbatim.


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


def _list_fp_kernel(rows, p):
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


def _fp_matrices(p, rng):
    """Seeded matrices over F_p: no rows, all zero, wide, tall, of rank
    below both sides (a product through a narrower middle), with zero and
    repeated rows, some entries outside [0, p)."""
    yield []
    yield [[0] * 4 for _ in range(3)]
    for case in range(80):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if case % 3 == 0 and min(rows, cols) > 1:
            k = rng.randint(1, min(rows, cols) - 1)
            left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randrange(p) for _ in range(cols)]
                     for _ in range(k)]
            A = [[sum(map(mul, row, col)) for col in zip(*right)]
                 for row in left]
        else:
            fill = rng.choice([0.3, 1.0])
            A = [[rng.randrange(-p, 2 * p) if rng.random() < fill else 0
                  for _ in range(cols)] for _ in range(rows)]
        for _ in range(rng.randint(0, 2)):
            A.insert(rng.randrange(len(A) + 1), rng.choice(
                [[0] * cols, list(rng.choice(A))]))
        yield A


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_howell_form_at_n1_is_the_reduced_echelon_form(p):
    rng = random.Random(1800 + p)
    deficient = 0
    for A in _fp_matrices(p, rng):
        red, pivots = fp_row_reduce(A, p)
        P, rows = pack_rows(A, p, 1)
        basis = howell_form(P, rows)
        assert basis == red, A
        assert [j for j, _ in howell_pivots(basis, p, 1)] == pivots, A
        if A:
            assert fp_kernel(P, rows) == _list_fp_kernel(A, p), A
            deficient += len(pivots) < min(len(A), len(A[0]))
    assert deficient >= 30, deficient


def _fp_systems(p, rng):
    """Seeded (n, row list) over Z/p^n, n = 1..3: zero rows, duplicates,
    rows of p-multiples, entries outside [0, p^n), no rows."""
    yield 1, []
    for _ in range(75):
        n = rng.randint(1, 3)
        pn = p ** n
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        A = []
        for _ in range(rows):
            kind = rng.random()
            if kind < 0.15:
                row = [0] * cols
            elif kind < 0.3 and A:
                row = list(rng.choice(A))
            elif kind < 0.5:
                row = [p * rng.randrange(pn) for _ in range(cols)]
            elif kind < 0.6:
                row = [rng.randrange(-pn, pn) for _ in range(cols)]
            else:
                row = [rng.randrange(pn) if rng.random() < 0.6 else 0
                       for _ in range(cols)]
            A.append(row)
        yield n, A


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_independent_rows_match_the_transposed_row_reduction(p):
    rng = random.Random(1400 + p)
    dependent = 0
    for n, A in _fp_systems(p, rng):
        keep = fp_independent_rows(*pack_rows(A, p, n))
        assert keep == fp_row_reduce(list(zip(*A)), p)[1], A
        dependent += len(keep) < len(A)
    assert dependent >= 20


def test_mod_p_spanning_subset_matches_the_transposed_row_reduction():
    """Howell rows of Hom modules, whose residues are often dependent."""
    for p, q, n, fam, kw in ((2, 2, 3, "supersingular", {"d": 1}),
                             (3, 2, 3, "ordinary", {"r": 3, "d": 1}),
                             (5, 1, 4, "ordinary", {"r": 2, "d": 1}),
                             (7, 3, 2, "supersingular", {"d": 1})):
        C = builtin_crystal(make_witt_ring(p, q, n), fam, **kw)
        H = hom_module(C, C)
        _, pivots = fp_row_reduce(list(zip(*H._howell)), p)
        assert H.mod_p_spanning_subset() == [H._howell[c] for c in pivots]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_valuation_matches_the_gcd(p):
    rng = random.Random(1500 + p)
    for n in range(1, 9):
        pn = p ** n
        P = _PackedRows(p, n, 6)
        for _ in range(40):
            s = p ** rng.randint(0, n)
            row = [s * rng.randrange(pn) % pn if rng.random() < 0.7 else 0
                   for _ in range(6)]
            assert P.valuation(P.pack(row)) == _ival(gcd(pn, *row), p, n), \
                (n, row)


@pytest.mark.parametrize("p, n, w", [(2, 3, 6), (2, 4, 8), (2, 8, 16),
                                     (3, 2, None), (5, 3, None),
                                     (7, 1, None)])
def test_packed_layout_puts_column_0_in_the_highest_slot(p, n, w):
    """w = 6 packs by shifts, w = 8 and 16 by bytes; every packing holds
    column j at shift (cols - 1 - j) * w and pads a short row with zero
    slots at its end."""
    rng = random.Random(1580 + 10 * p + n)
    pn, P = p ** n, _PackedRows(p, n, 7)
    assert w is None or P.w == w
    assert P.pack([1]) == 1 << (P.cols - 1) * P.w
    for _ in range(30):
        row = [rng.randrange(pn) for _ in range(7)]
        assert P.unpack(P.pack(row)) == row
        k = rng.randint(1, 7)
        short = row[:7 - k]
        assert P.pack(short) == P.pack(short + [0] * k)
        assert P.unpack(P.pack(short)) == short + [0] * k


# -- flat matrices, against the WittElem-grid Matrix they replaced -----------
# The copies below are Matrix (a grid of WittElems), smith_normal_form,
# inverse_with_shift and exp_trunc as they were before a matrix was stored
# as one tuple of flat coordinates, kept verbatim (renamed) as the oracle.
# The grid Smith form, with its transforms, is also the oracle of the
# `IntSolver` Smith exponents and inverses that replaced it.


@dataclass
class SnfResult:
    exponents: list  # length min(rows, cols); value n means ">= precision"
    left: object
    right: object
    diagonal: object


class _GridMatrix:
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
        return _GridMatrix(ring, [[o if i == j else z for j in range(r)]
                             for i in range(r)])

    @staticmethod
    def zero(ring, rows, cols=None):
        z = ring.zero()
        cols = rows if cols is None else cols
        return _GridMatrix(ring, [[z] * cols for _ in range(rows)])

    @staticmethod
    def from_ints(ring, int_rows):
        return _GridMatrix(ring, [[ring.from_int(c) for c in row]
                             for row in int_rows])

    @staticmethod
    def scalar(ring, r, c):
        m = _GridMatrix.zero(ring, r, r).mutable()
        e = ring.from_int(c) if isinstance(c, int) else c
        for i in range(r):
            m[i][i] = e
        return _GridMatrix(ring, m)

    def mutable(self):
        return [list(row) for row in self.entries]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return _GridMatrix(self.ring, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        return _GridMatrix(self.ring, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __neg__(self):
        return _GridMatrix(self.ring, [[-a for a in row] for row in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, _GridMatrix):
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
        return _GridMatrix(ring, [
            [WittElem(ring, reduce(sum(map(mul, r, c)), w)) for c in cols]
            for r in rows
        ])

    def scale(self, c):
        """Multiply entrywise by an integer or a WittElem scalar."""
        return _GridMatrix(self.ring,
                      [[e * c for e in row] for row in self.entries])

    def transpose(self):
        return _GridMatrix(self.ring, list(zip(*self.entries)))

    def sigma(self, power=1):
        """Apply Frobenius entrywise."""
        return _GridMatrix(self.ring, [[e.frobenius(power) for e in row]
                                  for row in self.entries])

    def kron(self, other):
        out = []
        for r1 in self.entries:
            for r2 in other.entries:
                out.append([a * b for a in r1 for b in r2])
        return _GridMatrix(self.ring, out)

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
            other = _GridMatrix.identity(self.ring, self.rows)
        return (self - other).min_valuation()

    def divide_exact(self, k):
        return _GridMatrix(self.ring, [[e.divide_exact(k) for e in row]
                                  for row in self.entries])

    def reduce_to(self, ring):
        return _GridMatrix(ring, [[e.reduce_to(ring) for e in row]
                             for row in self.entries])

    def embed(self, ring):
        return _GridMatrix(ring, [[e.embed(ring) for e in row]
                             for row in self.entries])

    def flatten_ints(self):
        """Row-major Z/p^n coordinates (q per entry)."""
        return [c for row in self.entries for e in row for c in e.coeffs]

    @staticmethod
    def from_flat_ints(ring, rows, cols, flat):
        q = ring.q
        return _GridMatrix(ring, [[ring.element(flat[k:k + q]) for k in range(
            i * cols * q, (i + 1) * cols * q, q)] for i in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, _GridMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        return f"_GridMatrix({[[list(e.coeffs) for e in r] for r in self.entries]})"

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
                            _grid_dot(ring, w, [self.entries[t][col]
                                           for t in range(k - 1)])
                            for col in range(k - 1)
                        ]
            p_cur = p_new
        return p_cur


def _grid_dot(ring, xs, ys):
    acc = ring.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _grid_smith_normal_form(A: _GridMatrix) -> SnfResult:
    """Diagonalize A as left @ A @ right = diag(p^e_i), exactly.

    Pivots are minimal-valuation entries with (row, col) tie-break; the
    transforms are invertible over the ring and the diagonal entries are
    exact powers of p.  Exponent n stands for "zero at this precision".
    """
    ring = A.ring
    n = ring.n
    M = A.mutable()
    rows, cols = A.rows, A.cols
    L = _GridMatrix.identity(ring, rows).mutable()
    R = _GridMatrix.identity(ring, cols).mutable()
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
    return SnfResult(exps, _GridMatrix(ring, L), _GridMatrix(ring, R), _GridMatrix(ring, M))


def _grid_inverse_with_shift(A: _GridMatrix):
    """(C, e) with A @ C = C @ A = p^e * I exactly and e minimal."""
    ring = A.ring
    snf = _grid_smith_normal_form(A)
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
    C = _GridMatrix(ring, mid) @ snf.left
    return C, e


def _grid_exp_trunc(X: _GridMatrix) -> _GridMatrix:
    """Sum of X^i / i!, exact at the ring's precision.

    Domain: p >= 3 with X in p*End; p = 2 with X in 4*End, or X in 2*End
    with X @ X = 0 at this precision (the square-zero part of the
    nilpotent case; the series is then 1 + X exactly).
    """
    ring = X.ring
    p, n = ring.p, ring.n
    if X.is_zero():
        return _GridMatrix.identity(ring, X.rows)
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
            return _GridMatrix.identity(ring, X.rows) + X
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
    XL = _GridMatrix.from_flat_ints(big, X.rows, X.cols, X.flatten_ints())
    acc = _GridMatrix.identity(big, X.rows)
    term = _GridMatrix.identity(big, X.rows)
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


def _grid_flat(G):
    return tuple(c for row in G.entries for e in row for c in e.coeffs)


def _same(M, G):
    """The flat matrix M and the grid matrix G are the same matrix."""
    return (isinstance(M, Matrix) and M.ring == G.ring
            and (M.rows, M.cols, M.flat) == (G.rows, G.cols, _grid_flat(G)))


def _grid_cases(ring, rng):
    """Grids of WittElems by name: 1 x 1, non-square, square, zero, all
    p^n - 1, p-multiples and a rescaled matrix unit."""
    p, pn, q = ring.p, ring.pn, ring.q

    def grid(rows, cols, coord):
        return [[ring.element([coord() for _ in range(q)])
                 for _ in range(cols)] for _ in range(rows)]

    def rand():
        return rng.randrange(pn)
    unit = grid(3, 3, lambda: 0)
    unit[rng.randrange(3)][rng.randrange(3)] = ring.from_int(
        p ** rng.randrange(ring.n))
    return {
        "1x1": grid(1, 1, rand),
        "2x3": grid(2, 3, rand),
        "3x2": grid(3, 2, rand),
        "3x3": grid(3, 3, rand),
        "zero": grid(2, 3, lambda: 0),
        "top": grid(3, 3, lambda: pn - 1),
        "p-multiple": grid(3, 3, lambda: p * rand() % pn),
        "matrix unit": unit,
    }


def _same_outcome(flat_call, grid_call, errors):
    """Both calls raise the same one of `errors`, or return the same
    matrix."""
    try:
        got = flat_call()
    except errors as exc:
        with pytest.raises(type(exc)):
            grid_call()
        return True
    return _same(got, grid_call())


def _check_inverse(ring, M, G, ctx):
    """inverse_with_shift(M) raises where the grid inverse does; else
    M @ C = p^e exactly, and mod p^(n - e), where C is unique, C is the
    grid inverse and C @ M = p^e (for e = 0: outright and exactly)."""
    try:
        C, e = inverse_with_shift(M)
    except SingularAtPrecision:
        with pytest.raises(SingularAtPrecision):
            _grid_inverse_with_shift(G)
        return
    ref, e_ref = _grid_inverse_with_shift(G)
    r, pe = M.rows, ring.p ** e
    assert e == e_ref and M @ C == Matrix.scalar(ring, r, pe), ctx
    low = ring.reduce_to(ring.n - e)
    assert _same(C.reduce_to(low), ref.reduce_to(low)), ctx
    assert (C @ M).reduce_to(low) == Matrix.scalar(low, r, pe), ctx


def _check_matrix(ring, M, G, other, rng, ctx):
    p, q, n = ring.p, ring.q, ring.n
    OG = _GridMatrix(ring, other.entries)
    assert _same(M, G), ctx
    assert M.entries == G.entries and M[M.rows - 1, 0] == G[G.rows - 1, 0]
    assert _same(-M, -G) and _same(M + other, G + OG) \
        and _same(M - other, G - OG), ctx
    assert _same(M @ other.transpose(), G @ OG.transpose()), ctx
    assert _same(M.transpose() @ M, G.transpose() @ G), ctx
    assert _same(M.transpose(), G.transpose()), ctx
    for c in (rng.randrange(-ring.pn, ring.pn), ring.zero(),
              ring.random_unit(rng), ring.random_element(rng) * p):
        assert _same(M.scale(c), G.scale(c)), (ctx, c)
    for k in range(q + 1):
        assert _same(M.sigma(k), G.sigma(k)), (ctx, k)
    assert _same(M.kron(other), G.kron(OG)), ctx
    for m in range(1, n + 1):
        small = ring.reduce_to(m)
        assert _same(M.reduce_to(small), G.reduce_to(small)), (ctx, m)
    # into F_(p^2q), where the field table has it
    for _, big in itertools.islice(field_walk(p, q, n), 1, 2):
        assert _same(M.embed(big), G.embed(big)), ctx
    for k in range(n + 1):
        assert _same_outcome(lambda: M.divide_exact(k),
                             lambda: G.divide_exact(k), ValueError), (ctx, k)
    assert M.min_valuation() == G.min_valuation(), ctx
    assert M.is_zero() == G.is_zero(), ctx
    twin = Matrix(ring, G.entries)
    assert M == twin and hash(M) == hash(twin), ctx
    assert (M == other) == (G == OG), ctx
    if M.rows != M.cols:
        with pytest.raises(BadShape):
            smith_normal_form(M)
        return
    assert smith_normal_form(M) == _grid_smith_normal_form(G).exponents, ctx
    assert M.charpoly() == G.charpoly(), ctx
    ident = Matrix.identity(ring, M.rows)
    for l in range(n + 1):
        g = ident + M.scale(p ** l)
        assert g.congruence_level() == _GridMatrix(
            ring, g.entries).congruence_level(), (ctx, l)
    assert M.congruence_level(other) == G.congruence_level(OG), ctx
    _check_inverse(ring, M, G, ctx)
    for v in (0, 1, 2):
        X = M.scale(p ** v)
        assert _same_outcome(lambda: exp_trunc(X),
                             lambda: _grid_exp_trunc(_GridMatrix(
                                 ring, X.entries)),
                             OutsideExpDomain), (ctx, v)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_flat_matrix_matches_the_grid_matrix(p):
    rng = random.Random(1600 + p)
    for q in (1, 2, 3, 6):
        for n in range(1, 6):
            ring = make_witt_ring(p, q, n)
            for name, grid in _grid_cases(ring, rng).items():
                M, G = Matrix(ring, grid), _GridMatrix(ring, grid)
                other = Matrix.from_flat_ints(ring, M.rows, M.cols, [
                    rng.randrange(ring.pn) for _ in M.flat])
                _check_matrix(ring, M, G, other, rng, (p, q, n, name))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_flat_level_paths_match_the_bench_arithmetic_and_the_grid(p):
    """`@`, `embed` out of W_n(F_(p^q)) into every table field
    F_(p^(qD)), and the stairs line operations, at q = 1 (packed entries
    are coordinates) and q >= 2, against perfbench/arith.py and the grid
    matrix."""
    arith = _perfbench_arith()
    rng = random.Random(3600 + p)
    for q, n in ((1, 1), (1, 4), (2, 3), (3, 2)):
        ring = make_witt_ring(p, q, n)
        R = arith.Ring.of(ring)
        for rows, k, cols in ((1, 1, 1), (2, 3, 2), (3, 1, 4), (4, 4, 4)):
            A, B = (_sparse_matrix(ring, rng, rows, k),
                    _sparse_matrix(ring, rng, k, cols))
            assert arith.mat_of(A @ B) == arith.matmul(
                R, arith.mat_of(A), arith.mat_of(B)), (q, n, rows, k, cols)
            assert _same(A @ B, _GridMatrix(ring, A.entries)
                         @ _GridMatrix(ring, B.entries)), (q, n, rows, k)
        for D, big in field_walk(p, q, n):
            embed = R.embedding(arith.Ring.of(big))
            got = A.embed(big)
            assert arith.mat_of(got) == arith.mat_map(
                embed, arith.mat_of(A)), (q, n, D)
            assert _same(got, _GridMatrix(ring, A.entries).embed(big))
        # row operations row i += c row j, then column operations column
        # j += c column i: (1 + c E_ij) M and M (1 + c E_ij)
        r = 3
        M = _sparse_matrix(ring, rng, r, r)
        rows_ops, col_ops = [], []
        left = right = arith.mat_of(Matrix.identity(ring, r))
        for _ in range(5):
            i, j = rng.sample(range(r), 2)
            c = ring.random_element(rng).coeffs
            E = [[c if (a, b) == (i, j) else (R.one if a == b else R.zero)
                  for b in range(r)] for a in range(r)]
            if rng.random() < 0.5:
                rows_ops.append((i * r, j * r, c, 1))
                left = arith.matmul(R, E, left)
            else:
                col_ops.append((j, i, c, r))
                right = arith.matmul(R, right, E)
        got = stairs._line_ops(M, rows_ops + col_ops)
        assert arith.mat_of(got) == arith.matmul(
            R, arith.matmul(R, left, arith.mat_of(M)), right), (q, n)
        L, G, Rt = (_GridMatrix(ring, [[WittElem(ring, e) for e in row]
                                       for row in m])
                    for m in (left, arith.mat_of(M), right))
        assert _same(got, L @ G @ Rt), (q, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_unit_matches_the_grid_exponents(p):
    """is_unit(M) exactly when every grid Smith exponent of M is 0, on
    random, unit, zero, p-multiple and singular-residue matrices."""
    rng = random.Random(2400 + p)
    seen = set()
    for q in (1, 2, 3):
        for n in (1, 2):
            ring = make_witt_ring(p, q, n)
            pn = ring.pn
            for r in range(1, 5):
                def rand(scale=1):
                    return [scale * rng.randrange(pn) % pn
                            for _ in range(r * r * q)]
                # a residue with two equal rows (r > 1), or one
                # divisible by p (r = 1)
                rows = rand()
                stride = r * q
                if r > 1:
                    rows[:stride] = [(a + p * rng.randrange(pn)) % pn
                                     for a in rows[stride:2 * stride]]
                else:
                    rows = rand(p)
                unit = Matrix.identity(ring, r) + Matrix.from_flat_ints(
                    ring, r, r, rand(p))
                cases = [rand(), rand(), rand(), rand(p), [0] * (r * r * q),
                         rows, unit.flat]
                for flat in cases:
                    M = Matrix.from_flat_ints(ring, r, r, flat)
                    want = not any(_grid_smith_normal_form(_GridMatrix(
                        ring, M.entries)).exponents)
                    assert is_unit(M) == want, (p, q, n, r, flat)
                    seen.add(want)
    assert seen == {True, False}


def test_flat_matrix_equality_compares_shapes():
    for q in (1, 3):
        ring = make_witt_ring(3, q, 2)
        wide, tall = Matrix.zero(ring, 2, 3), Matrix.zero(ring, 3, 2)
        assert wide.flat == tall.flat and wide != tall
        assert wide.min_valuation() == INFINITY
        assert wide.transpose() == tall
        assert hash(wide.transpose()) == hash(tall)
        assert Matrix.zero(ring, 2, 3) != Matrix.zero(ring.reduce_to(1), 2, 3)


# -- the circular maps, against the per-call solver ---------------------------
# `_per_call_solve_circular` and `_per_call_check_circular` are
# semilinear.solve_circular and _check_circular as they were before the
# systems were solved through precomputed F_p-linear maps, and
# `_per_call_solve_additive` is semilinear._solve_additive as it was before
# its reduction was kept per (V, L mod q); all kept verbatim (renamed).


def _per_call_solve_circular(sys, case):
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
            x[prev] = (val * sys.d[j].unit_inverse()).frobenius(-1)
            j = prev
        _per_call_check_circular(sys, x)
        return CircularSolution(x, ring, 1)
    if case != 1:
        raise BadShape("case must be +1 or -1")
    for b in sys.b:
        if b.valuation() != 0:
            raise BadShape("case +1 needs unit b_j")
    # eliminate x_j = (d_j x_{j-1}^p - c_j) / b_j around the cycle from a
    # symbolic x_0: x_j = A_j + V_j x_0^(p^j), A_j and V_j in the base
    # field, and after the full loop x_0 = A + V x_0^(p^L)
    A, V = ring.zero(), ring.one()
    for j in range(1, L + 1):
        jj = j % L
        binv = sys.b[jj].unit_inverse()
        A = (sys.d[jj] * A.frobenius() - sys.c[jj]) * binv
        V = sys.d[jj] * V.frobenius() * binv
    for D, big in field_walk(ring.p, ring.q, 1):
        x0 = _per_call_solve_additive(big, A.embed(big), V.embed(big), L)
        if x0 is not None:
            # x_j at position j; position 0 holds x_0 = x_L
            xs = [x0] + [None] * (L - 1)
            bigsys = CircularSystem(
                big, L,
                [b.embed(big) for b in sys.b],
                [c.embed(big) for c in sys.c],
                [d.embed(big) for d in sys.d],
            )
            for j in range(1, L):
                prev = xs[j - 1]
                xs[j] = (bigsys.d[j] * prev.frobenius() - bigsys.c[j]) \
                    * bigsys.b[j].unit_inverse()
            _per_call_check_circular(bigsys, xs)
            return CircularSolution(xs, big, D)
    raise ExtensionCapExceeded("no root within the built-in field table")


def _per_call_check_circular(sys, xs):
    L = sys.length
    for j in range(L):
        prev = xs[(j - 1) % L].frobenius()
        lhs = sys.b[j] * xs[j] + sys.c[j] - sys.d[j] * prev
        if not lhs.is_zero():
            raise InternalError(f"circular equation {j} violated")


def _per_call_solve_additive(big, A, V, L):
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


def _outcome(solve, sysm, case):
    """(values, (p, q), D) of a solve, or the name of the error raised."""
    try:
        sol = solve(sysm, case)
    except ExtensionCapExceeded as exc:
        return type(exc).__name__
    return ([x.coeffs for x in sol.values], (sol.ring.p, sol.ring.q),
            sol.extension)


def test_circular_maps_match_the_per_call_solver():
    """Every value, solution field, D and ExtensionCapExceeded matches the
    per-call solver: b_j, d_j in {0, 1} (the maps kept on the ring, with
    c at the largest residues and at random) and random unit b_j or d_j
    with random other coefficients (the maps built for one call)."""
    rng = random.Random(1600)
    extended = capped = 0
    for p in (2, 3, 5, 7):
        for q in (1, 2, 3, 4, 6):
            fld = make_witt_ring(p, q, 1)
            fld._circular_cache.clear()
            keys = set()
            zero, one, top = fld.zero(), fld.one(), fld.element([p - 1] * q)

            def unit():
                return fld.random_unit(rng)

            for L in range(1, 4):
                for case in (1, -1):
                    for kind in ("memo", "memo", "memo", "random"):
                        if case == 1:
                            b = [one if kind == "memo" else unit()
                                 for _ in range(L)]
                            d = [rng.choice([zero, one]) if kind == "memo"
                                 else fld.random_element(rng)
                                 for _ in range(L)]
                        else:
                            d = [one if kind == "memo" else unit()
                                 for _ in range(L)]
                            b = [rng.choice([zero, one]) if kind == "memo"
                                 else fld.random_element(rng)
                                 for _ in range(L)]
                            b[rng.randrange(L)] = zero
                        if kind == "memo":
                            keys.add((case, tuple(x.coeffs for x in b),
                                      tuple(x.coeffs for x in d)))
                        for cs in ([top] * L, [fld.random_element(rng)
                                               for _ in range(L)]):
                            sysm = CircularSystem(fld, L, b, cs, d)
                            ref = _outcome(_per_call_solve_circular, sysm,
                                           case)
                            got = _outcome(solve_circular, sysm, case)
                            assert got == ref, (p, q, L, case, b, cs, d)
                            capped += ref == "ExtensionCapExceeded"
                            extended += ref != "ExtensionCapExceeded" \
                                and ref[2] > 1
            # maps are kept for b_j, d_j in {0, 1} only (at p = 2, q = 1
            # the random ones are such too)
            kept = set(fld._circular_cache)
            assert keys <= kept, (p, q)
            assert all(set(b + d) <= {fld._zero, fld._one}
                       for _, b, d in kept), (p, q)
    assert extended >= 50 and capped >= 20, (extended, capped)


# -- the Lang searches, against brute force over the kernel ------------------
# `_mul_coords` and `_abstract_unit` are stairs._mul_coords and
# _abstract_unit as they were before the abstract Lang search ran on the
# unit scan, kept verbatim as the unit oracle: the product in coordinates,
# and the rank of left multiplication.


def _mul_coords(xc, yc, struct, fld):
    """Product in the abstract algebra, coordinates over fld (struct is
    already reduced to fld)."""
    v = len(xc)
    out = [fld.zero()] * v
    for a in range(v):
        if xc[a].is_zero():
            continue
        for b in range(v):
            if yc[b].is_zero():
                continue
            coef = xc[a] * yc[b]
            for cidx in range(v):
                gab = struct[a][b][cidx]
                if not gab.is_zero():
                    out[cidx] = out[cidx] + coef * gab
    return out


def _abstract_unit(xc, struct, fld, v):
    """Left multiplication by x invertible in the abstract algebra."""
    q = fld.q
    cols = []
    for b in range(v):
        for t in range(q):
            yc = [fld.zero()] * v
            yc[b] = fld.element(tuple(1 if s == t else 0 for s in range(q)))
            cols.append([c for e in _mul_coords(xc, yc, struct, fld)
                         for c in e.coeffs])
    _, pivots = fp_row_reduce(list(zip(*cols)), fld.p)
    return len(pivots) == v * q


def _first_kernel_unit(images, p, is_unit):
    """The first vector of the F_p kernel of the image columns, in index
    order (digit d of the index on kernel vector k - 1 - d), that is_unit
    accepts, trying every combination; None if none is."""
    kern = _list_fp_kernel([list(col) for col in zip(*images)], p)
    k = len(kern)
    for idx in range(p ** k):
        vec = [0] * len(images)
        for d, kv in enumerate(kern[::-1]):
            c = idx // p ** d % p
            vec = [(x + c * y) % p for x, y in zip(vec, kv)]
        if is_unit(vec):
            return vec
    return None


def _abstract_twist(xc, struct, fld, v):
    """g with x g = sigma(x) for a unit x of the abstract algebra: the
    kernel of [L_x | -sigma(x)] is spanned by (g, 1)."""
    q = fld.q
    cols = []
    for b in range(v):
        for t in range(q):
            yc = [fld.zero()] * v
            yc[b] = fld.element(tuple(1 if s == t else 0 for s in range(q)))
            cols.append([c for e in _mul_coords(xc, yc, struct, fld)
                         for c in e.coeffs])
    cols.append([-c % fld.p for x in xc for c in x.frobenius().coeffs])
    (vec,) = _list_fp_kernel([list(row) for row in zip(*cols)], fld.p)
    return [fld.element(vec[a * q:(a + 1) * q]) for a in range(v)]


def _lang_algebras():
    """(p, residue degree, structure constants, structure constants over a
    field, basis matrices over a field) of the fixed data of four
    crystals, whose matrices are the residues of their bases, and of two
    algebras over F_p whose Lang kernels can have dimension v - 1, with
    their matrices of left multiplication: the upper triangular 2 x 2
    matrices (basis e11, e12, e22) and F_p[e]/(e^2) (basis 1, e)."""
    for p, q, n, fam, kw in ((2, 2, 2, "supersingular", {"d": 1}),
                             (3, 2, 2, "supersingular", {"d": 1}),
                             (3, 1, 1, "ordinary", {"r": 2, "d": 0}),
                             (2, 3, 5, "isoclinic_3_3_6", {"r": 3, "c": 2})):
        datum = _fixed_datum(builtin_crystal(make_witt_ring(p, q, n), fam,
                                             **kw))
        res = make_witt_ring(p, datum.crystal.ring.q, 1)
        yield p, datum.crystal.ring.q, _structure_constants(datum), (
            lambda fld, datum=datum, res=res: [[[
                c.reduce_to(res).embed(fld)
                for c in datum.coords(ea @ eb)]
                for eb in datum.basis] for ea in datum.basis]), (
            lambda fld, datum=datum, res=res: [
                e.reduce_to(res).embed(fld) for e in datum.basis])
    tri = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, c in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        tri[a][b][c] = 1
    dual = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    for p in (2, 3):
        for gamma in (tri, dual):
            v = len(gamma)
            yield p, 1, gamma, (lambda fld, gamma=gamma: [[[
                fld.element([c] + [0] * (fld.q - 1)) for c in co]
                for co in row] for row in gamma]), (
                lambda fld, gamma=gamma, v=v: [Matrix.from_flat_ints(
                    fld, v, v, [gamma[a][b][c] if s == 0 else 0
                                for c in range(v) for b in range(v)
                                for s in range(fld.q)])
                    for a in range(v)])


def test_abstract_lang_search_matches_brute_force():
    """Over each algebra's residue field and its quadratic extension, with
    random residue twists and twists x^(-1) sigma(x): None exactly when no
    kernel combination is a unit (by the oracle), and otherwise the first
    unit in index order."""
    rng = random.Random(1700)
    found = none = short = 0
    for p, q, gamma, reduce_to, mats in _lang_algebras():
        v = len(gamma)
        for fld in (make_witt_ring(p, q, 1), make_witt_ring(p, 2 * q, 1)):
            Q = fld.q
            struct = reduce_to(fld)

            def unpack(vec):
                return [fld.element(vec[a * Q:(a + 1) * Q])
                        for a in range(v)]

            def unit(vec):
                return _abstract_unit(unpack(vec), struct, fld, v)

            twists = []
            for _ in range(3 if v < 9 else 1):
                twists.append([fld.random_element(rng) for _ in range(v)])
                while True:
                    xc = [rng.randrange(p) for _ in range(v * Q)]
                    if unit(xc):
                        break
                twists.append(_abstract_twist(unpack(xc), struct, fld, v))
            for gbar in twists:
                images = []
                for k in range(v * Q):
                    xc = unpack([int(t == k) for t in range(v * Q)])
                    xg = _mul_coords(xc, gbar, struct, fld)
                    images.append([c for x, y in zip(xc, xg)
                                   for c in (x.frobenius() - y).coeffs])
                want = _first_kernel_unit(images, p, unit)
                got = lang_unit(gamma, gbar, mats(fld), fld)
                assert got == want, (p, gamma, Q, gbar)
                found += want is not None
                none += want is None
                short += len(_list_fp_kernel(
                    [list(col) for col in zip(*images)], p)) == v - 1
    assert found >= 20 and none >= 10 and short >= 2, (found, none, short)


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_lang_search_matches_brute_force(p):
    """sigma(x) = x g over one field, for random residue matrices g
    (singular ones included) and for g = x^(-1) sigma(x): None exactly
    when no kernel combination has a unit determinant, and otherwise the
    first unit in index order."""
    rng = random.Random(1710 + p)
    found = none = 0
    for q, r in ((1, 2), (2, 2), (3 if p == 2 else 1, 2 if p == 3 else 3)):
        fld = make_witt_ring(p, q, 1)
        nv = r * r * q
        twists = []
        for _ in range(4):
            twists.append(Matrix(fld, [[fld.random_element(rng)
                                        for _ in range(r)]
                                       for _ in range(r)]))
            while True:
                x = Matrix(fld, [[fld.random_element(rng) for _ in range(r)]
                                 for _ in range(r)])
                if not any(smith_normal_form(x)):
                    break
            twists.append(unit_inverse_matrix(x) @ x.sigma())
        for g in twists:
            images = []
            for k in range(nv):
                X = Matrix.from_flat_ints(fld, r, r,
                                          [int(t == k) for t in range(nv)])
                images.append([c for i in range(r) for j in range(r)
                               for c in (X[i, j].frobenius() - sum(
                                   (X[i, t] * g[t, j] for t in range(r)),
                                   fld.zero())).coeffs])
            want = _first_kernel_unit(images, p, lambda vec: not any(
                smith_normal_form(Matrix.from_flat_ints(fld, r, r, vec))))
            gamma, units = _matrix_units(fld, r)
            got = lang_unit(gamma, [g[i, j] for i in range(r)
                                    for j in range(r)], units, fld)
            assert got == want, (q, g)
            found += want is not None
            none += want is None
    assert found >= 12 and none >= 4, (found, none)


# -- span membership by one Howell comparison, against the list reduction ----
# `reduce_against_howell` and `in_howell_span` are the plinalg functions, and
# `_span_rows_select_w_basis` is stairs._select_w_basis, as they were before
# span membership went through `howell_contains`; kept verbatim (renamed,
# `_int_val` as this file imports it) as the oracle, except that the span
# is full when p^(n-1) e_j lies in it for every unit vector e_j, not when
# every column has a Howell pivot (which holds for some spans that are not
# full), and the exponent comes from the span's solver.


def reduce_against_howell(x, basis, p, n):
    """Canonical coset representative of x modulo a Howell-spanned module."""
    pn = p ** n
    x = [int(c) % pn for c in x]
    for row in basis:
        j = next(i for i, c in enumerate(row) if c)
        v = _ival(row[j], p, n)
        c = x[j] // p ** v
        if c:
            for t in range(len(x)):
                x[t] = (x[t] - c * row[t]) % pn
    return x


def in_howell_span(x, basis, p, n):
    return not any(reduce_against_howell(x, basis, p, n))


def _span_rows_select_w_basis(H, C):
    """r^2 fixed elements whose W-span has finite lattice exponent.

    Returns (elements, `w_span_solver` of them, Howell basis of their
    W-span); the span is full when p^(n-1) e_j lies in it for every unit
    vector e_j.
    """
    ring = H.ring
    r = C.rank
    chosen = []
    span_rows = []
    current = []
    for b in H.basis:
        rows_b = w_span_rows([b], ring)
        new = howell_form(*pack_rows(span_rows + rows_b, ring.p, ring.n))
        if new != current:
            chosen.append(b)
            span_rows.extend(rows_b)
            current = new
            if len(chosen) == r * r:
                break
    if len(chosen) < r * r:
        return None
    width, top = r * r * ring.q, ring.p ** (ring.n - 1)
    if not all(in_howell_span([top * (i == j) for i in range(width)],
                              current, ring.p, ring.n)
               for j in range(width)):
        return None
    return chosen, w_span_solver(chosen, ring), current


def _contains_row_by_row(basis, rows, p, n):
    return all(in_howell_span(row, basis, p, n) for row in rows)


def _combination(rng, basis, p, n, m):
    pn = p ** n
    coeffs = [rng.randrange(pn) for _ in basis]
    return [sum(c * row[t] for c, row in zip(coeffs, basis)) % pn
            for t in range(m)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_howell_contains_matches_the_row_by_row_oracle(p):
    """Batches of span members (combinations, closure rows p^(n - v) b of
    the basis rows b with pivot p^v, zero rows) and random rows, over
    random spans and the zero span."""
    rng = random.Random(1800 + p)
    seen = {"zero span": 0, "closure row": 0, "member batch": 0,
            "mixed batch": 0, "zero rows only": 0}
    for case in range(160):
        n = 1 + case % 4
        pn = p ** n
        gens = _random_generators(rng, p, n)
        m = len(gens[0])
        basis = [] if case % 8 == 0 else howell_form(*pack_rows(gens, p, n))
        members = [_combination(rng, basis, p, n, m)
                   for _ in range(rng.randint(0, 3))]
        closure = [[p ** (n - v) * c % pn for c in row] for row, (_, v)
                   in zip(basis, howell_pivots(basis, p, n)) if v]
        members += [row for row in closure if any(row)]
        members += [[0] * m] * rng.randint(0, 1)
        others = [[rng.randrange(pn) for _ in range(m)]
                  for _ in range(rng.randint(1, 3))]
        batches = [members, others[:1], members + others]
        batches += [[row] for row in members + others]
        for batch in batches:
            rng.shuffle(batch)
            got = howell_contains(basis, batch, p, n)
            assert got == _contains_row_by_row(basis, batch, p, n), (
                n, basis, batch)
        assert howell_contains(basis, members, p, n), (n, basis, members)
        outside = not _contains_row_by_row(basis, others, p, n)
        seen["zero span"] += not basis and outside
        seen["closure row"] += any(any(row) for row in closure)
        seen["member batch"] += any(map(any, members))
        seen["mixed batch"] += any(map(any, members)) and outside
        seen["zero rows only"] += bool(members) and not any(map(any, members))
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_linear_module_representative_matches_the_list_reduction(p):
    """The particular solution is the oracle's coset representative of the
    solver's solution, and of that solution plus any kernel element."""
    rng = random.Random(1900 + p)
    moved = 0
    for n, A in _int_systems(p, rng):
        pn, cols = p ** n, len(A[0])
        solver = IntSolver(*pack_rows(A, p, n))
        for _ in range(2):
            b = _apply(A, [rng.randrange(pn) for _ in range(cols)], pn)
            sol = solve_linear_module(A, b, p, n)
            x = solver.solve(b)
            assert sol.particular == reduce_against_howell(
                x, sol.basis, p, n), (n, A, b)
            y = [(a + c) % pn for a, c in zip(
                x, _combination(rng, sol.basis, p, n, cols))]
            assert sol.particular == reduce_against_howell(
                y, sol.basis, p, n), (n, A, b, y)
            moved += sol.particular != x
    assert moved >= 10


def _fixed_datum_cases():
    """The crystals whose fixed data checks 04 (isoclinic fixed lattices),
    08 (i-number probes) and 09 (direct sums) reach, and isoclinic_3_3_6(r=3,
    c=2) over W_2(F_9) and W_2(F_25), whose r^2 selected fixed elements at
    degree 3 have a Howell pivot in every column but do not span a full
    lattice."""
    for r, c in ((3, 2), (5, 3), (5, 2)):
        for p in (2, 3):
            yield builtin_crystal(make_witt_ring(p, r, 4), "isoclinic_3_3_6",
                                  r=r, c=c)
    W36 = make_witt_ring(3, 1, 6)
    yield builtin_crystal(W36, "ordinary", r=2, d=0)
    yield builtin_crystal(W36, "ordinary", r=2, d=1)
    yield builtin_crystal(make_witt_ring(3, 2, 4), "supersingular", d=1)
    ss = builtin_crystal(make_witt_ring(3, 2, 8), "supersingular", d=1)
    iso = builtin_crystal(make_witt_ring(2, 3, 8), "isoclinic_3_3_6", r=3,
                          c=2)
    W4 = make_witt_ring(2, 2, 8)
    ss4 = builtin_crystal(W4, "supersingular", d=1)
    rng = random.Random(5)
    # a unit, being 1 mod 2: check 09's first draw
    u = Matrix.identity(W4, 2) + Matrix(
        W4, [[W4.random_element(rng) * 2 for _ in range(2)]
             for _ in range(2)])
    twist = new_crystal(W4, u @ ss4.B @ unit_inverse_matrix(u.sigma()), 0)
    for C1, C2 in ((ss, ss), (iso, iso), (ss4, twist)):
        yield direct_sum_crystal(C1, C2)
    for p in (3, 5):
        yield builtin_crystal(make_witt_ring(p, 2, 2), "isoclinic_3_3_6",
                              r=3, c=2)


def test_fixed_datum_matches_the_list_route(monkeypatch):
    """The datum of `_fixed_datum`, and the W-basis selection on its final
    field, against the route through `in_howell_span` and the accumulated
    `span_rows`; its `multiplicative` and `unital` against membership of
    every product and of the identity in that route's span, row by row."""
    outcomes = set()
    for C in _fixed_datum_cases():
        new = _fixed_datum(C)
        with monkeypatch.context() as patch:
            patch.setattr(stairs, "_select_w_basis",
                          _span_rows_select_w_basis)
            ref = _fixed_datum(C)
        assert (new is None) == (ref is None)
        if new is None:
            continue
        ring = new.crystal.ring
        assert ring == ref.crystal.ring
        H = hom_module(new.crystal, new.crystal)
        got = _select_w_basis(H, new.crystal)
        want = _span_rows_select_w_basis(H, new.crystal)
        assert (got[0], got[2]) == (want[0], want[2])
        mult = _contains_row_by_row(want[2], [(a @ b).flat for a in want[0]
                                              for b in want[0]],
                                    ring.p, ring.n)
        unital = _contains_row_by_row(
            want[2], [Matrix.identity(ring, new.crystal.rank).flat],
            ring.p, ring.n)
        assert (new.basis, new.torsion, new.multiplicative, new.unital) == \
            (ref.basis, ref.torsion, mult, unital)
        outcomes.add((new.multiplicative, new.unital))
    # the only non-multiplicative fixed data of these cases were the two
    # spans above that are not full, now refused
    assert outcomes == {(True, True)}, outcomes


# (unital, multiplicative, square_zero) of every datum of
# `_datum_flag_corpus`, as the builders stated them before a datum read
# them off its basis; an error name where the builder raised
_ALGEBRA = (True, True, False)
_BLOCK = (False, True, True)
DATUM_FLAG_PINS = {
    "monomial": [
        "BadShape", _ALGEBRA, _ALGEBRA, (True, False, False), None,
        _ALGEBRA, _ALGEBRA, _ALGEBRA, _ALGEBRA, _ALGEBRA,
        "SingularAtPrecision", _ALGEBRA, _ALGEBRA, (True, False, False), None,
        _ALGEBRA, _ALGEBRA, _ALGEBRA, _ALGEBRA, _ALGEBRA,
    ],
    "fixed": [_ALGEBRA] * 7 + [None] + [_ALGEBRA] * 4 + [None, _ALGEBRA],
    "thirds": [_BLOCK, _BLOCK, _ALGEBRA] * 2,
}


def _datum_flag_corpus():
    """The monomial data of _CERTIFICATE_FAMILIES over W_6(F_2) and
    W_4(F_9), the fixed data of `_fixed_datum_cases`, and the upper and
    lower square-zero blocks and the block-fixed datum of the thirds
    family over W_4(F_8) and W_4(F_27)."""
    def flags(datum):
        return datum and (datum.unital, datum.multiplicative,
                          datum.square_zero)

    out = {"monomial": [], "fixed": [], "thirds": []}
    for p, q, n in ((2, 1, 6), (3, 2, 4)):
        for fam, kw in _CERTIFICATE_FAMILIES:
            try:
                C = builtin_crystal(make_witt_ring(p, q, n), fam, **kw)
                out["monomial"].append(flags(_monomial_datum(C)))
            except CrystalError as e:
                out["monomial"].append(type(e).__name__)
    out["fixed"] = [flags(_fixed_datum(C)) for C in _fixed_datum_cases()]
    for p in (2, 3):
        ring = make_witt_ring(p, 3, 4)
        C_a = builtin_crystal(ring, "phi_alpha_4_5", alpha=1)
        C_0 = builtin_crystal(ring, "phi_alpha_4_5", alpha=0)
        for C, rows, cols in ((C_a, (0, 1, 2), (3, 4, 5)),
                              (C_0, (3, 4, 5), (0, 1, 2))):
            block, _ = _matrix_unit_datum(
                C, C_0.B, [(i, j) for i in rows for j in cols])
            out["thirds"].append(flags(block))
        out["thirds"].append(flags(_block_diag_datum(C_0, 3)[0]))
    return out


def test_datum_flags_match_the_pins():
    assert _datum_flag_corpus() == DATUM_FLAG_PINS


# -- the Newton certificate in front of the fixed-datum walk ------------------

_CERTIFICATE_FAMILIES = [
    ("example_2_3_2", {"r": 3}),           # shift 1
    ("isoclinic_3_3_6", {"r": 3, "c": 1}),
    ("isoclinic_3_3_6", {"r": 3, "c": 2}),
    ("phi_alpha_4_5", {"alpha": 0}),
    ("phi_alpha_4_5", {"alpha": 1}),
    ("supersingular", {"d": 1}),
    ("supersingular", {"d": 2}),
    ("ordinary", {"r": 2, "d": 0}),
    ("ordinary", {"r": 2, "d": 1}),
    ("ordinary", {"r": 3, "d": 1}),
]

SHIFTED = "ShiftUnsupported"

# `_fixed_datum` of each family of _CERTIFICATE_FAMILIES over W_n(F_(p^q)),
# as built and conjugated by _certificate_conjugate's unit, computed by the
# walk alone (before the certificate existed): None for no datum, or
# (torsion, strategy, field degree, first 16 hex digits of the sha256 of
# the repr of the basis flats).  A family singular at n has no entry.
FIXED_DATUM_PINS = {
    (2, 1, 4): [
        None,
        ((1, 'fixed', 3, '8f5cfb9b1c669509'),
         (1, 'fixed', 3, '90f13296c42a6b75')),
        ((1, 'fixed', 3, '06f726f5a8e5d68c'),
         (1, 'fixed', 3, '4d2c1821f4801efc')),
        (None, None),
        (None, None),
        ((1, 'fixed', 2, 'c21553ed82ad89d2'),
         (1, 'fixed', 2, '219e8395dd1b6c42')),
        ((1, 'fixed', 2, '4e73c7fd5f592601'),
         (1, 'fixed', 2, '5767b1fe8a5883d6')),
        ((0, 'fixed', 1, '352267926da2feba'),
         (0, 'fixed', 1, '352267926da2feba')),
        (None, None),
        (None, None),
    ],
    (2, 2, 6): [
        (SHIFTED, SHIFTED),
        ((1, 'fixed', 6, 'd769e7e433e747bb'),
         (1, 'fixed', 6, 'e90c0a0ef507b0d1')),
        ((1, 'fixed', 6, '1da25bd51da6b3e4'),
         (1, 'fixed', 6, 'c5e993f25bf0c325')),
        (None, None),
        (None, None),
        ((1, 'fixed', 2, 'd9d1bda4c476854a'),
         (1, 'fixed', 2, 'dd202126217ba579')),
        ((1, 'fixed', 2, '6575c5bbd732038a'),
         (1, 'fixed', 2, '21b37fbc839ddefc')),
        ((0, 'fixed', 2, '91f56416b2ffb321'),
         (0, 'fixed', 2, '2ea8101eba745973')),
        (None, None),
        (None, None),
    ],
    (2, 3, 4): [
        None,
        ((1, 'fixed', 3, '8f5cfb9b1c669509'),
         (1, 'fixed', 3, '8c53ec6383b35cc2')),
        ((1, 'fixed', 3, '06f726f5a8e5d68c'),
         (1, 'fixed', 3, '492c9a6fbf2b3b57')),
        (None, None),
        (None, None),
        ((1, 'fixed', 6, '2d85f006f12ad3a6'),
         (1, 'fixed', 6, '179b048d0f2ea94b')),
        ((1, 'fixed', 6, 'd58f4b1d5bc07270'),
         (1, 'fixed', 6, '8ebbc8758cc72ba0')),
        ((0, 'fixed', 3, '10fc7160c33b0809'),
         (0, 'fixed', 3, '5ac38a5e91afbc6f')),
        (None, None),
        (None, None),
    ],
    (3, 1, 6): [
        (SHIFTED, SHIFTED),
        ((1, 'fixed', 3, '9d5df5a7cfab258c'),
         (1, 'fixed', 3, 'cf5d340b41c23f3d')),
        ((1, 'fixed', 3, '2ccd003a4f222c57'),
         (1, 'fixed', 3, 'c29b75c736f08aa2')),
        (None, None),
        (None, None),
        ((1, 'fixed', 2, '8ea9ea067e10baf0'),
         (1, 'fixed', 2, 'cf3eddffbac56c82')),
        ((1, 'fixed', 2, '663bd8134728174b'),
         (1, 'fixed', 2, 'cfba9c9372c1f12d')),
        ((0, 'fixed', 1, '352267926da2feba'),
         (0, 'fixed', 1, '352267926da2feba')),
        (None, None),
        (None, None),
    ],
    (3, 2, 4): [
        None,
        ((1, 'fixed', 6, 'd1cdd9004d793307'),
         (1, 'fixed', 6, 'b17b9fd9fd4bf72a')),
        ((1, 'fixed', 6, '7a30b10300f3974c'),
         (1, 'fixed', 6, 'e616e1143e319add')),
        (None, None),
        (None, None),
        ((1, 'fixed', 2, '7d5c7f4d3eccd734'),
         (1, 'fixed', 2, '1084bc7e7307ba9e')),
        ((1, 'fixed', 2, '50c92e3a87ef1a65'),
         (1, 'fixed', 2, '445f2686c53bc1ef')),
        ((0, 'fixed', 2, '91f56416b2ffb321'),
         (0, 'fixed', 2, '9863a22317aff1d7')),
        (None, None),
        (None, None),
    ],
    (3, 3, 6): [
        (SHIFTED, SHIFTED),
        ((1, 'fixed', 3, '9d5df5a7cfab258c'),
         (1, 'fixed', 3, 'ebe53be9bf5571b4')),
        ((1, 'fixed', 3, '2ccd003a4f222c57'),
         (1, 'fixed', 3, '0625fa3ab132707d')),
        (None, None),
        (None, None),
        ((1, 'fixed', 6, '96610caab09e5ae0'),
         (1, 'fixed', 6, 'df660d2583c1ab71')),
        ((1, 'fixed', 6, 'd4efa7fe9104a4a7'),
         (1, 'fixed', 6, 'd279f5915e05ddf7')),
        ((0, 'fixed', 3, '10fc7160c33b0809'),
         (0, 'fixed', 3, '13d7de6e81e47b70')),
        (None, None),
        (None, None),
    ],
    (5, 1, 4): [
        None,
        ((1, 'fixed', 3, '76714f61d83fc0a2'),
         (1, 'fixed', 3, '6d1cd11a306fe6af')),
        ((1, 'fixed', 3, '0d55a670dbba5f73'),
         (1, 'fixed', 3, 'c8fd77591ddf746b')),
        (None, None),
        (None, None),
        ((1, 'fixed', 2, 'eb7fb6b0e4f5f305'),
         (1, 'fixed', 2, '3d873ddb59a13b73')),
        ((1, 'fixed', 2, '49fbd7d9b8173702'),
         (1, 'fixed', 2, 'a4490b2050c767c6')),
        ((0, 'fixed', 1, '352267926da2feba'),
         (0, 'fixed', 1, '352267926da2feba')),
        (None, None),
        (None, None),
    ],
    (5, 2, 6): [
        (SHIFTED, SHIFTED),
        ((1, 'fixed', 6, '8421f2121b47711d'),
         (1, 'fixed', 6, '92c89d292c18d8a4')),
        ((1, 'fixed', 6, 'da68302fb2127f6c'),
         (1, 'fixed', 6, '1baf1a94f44567a7')),
        (None, None),
        (None, None),
        ((1, 'fixed', 2, '0d1226222521425c'),
         (1, 'fixed', 2, '3a22c366c7951936')),
        ((1, 'fixed', 2, '184e78dd541c7d96'),
         (1, 'fixed', 2, '2aa525cd21d46bba')),
        ((0, 'fixed', 2, '91f56416b2ffb321'),
         (0, 'fixed', 2, 'aaa531eeba6923fb')),
        (None, None),
        (None, None),
    ],
}


def _datum_summary(datum):
    if datum is None:
        return None
    digest = hashlib.sha256(
        repr([b.flat for b in datum.basis]).encode()).hexdigest()
    return (datum.torsion, datum.strategy, datum.crystal.ring.q, digest[:16])


def _certificate_conjugate(C, seed):
    """u B sigma(u)^-1 for a unit u drawn from random.Random(seed)."""
    ring, r = C.ring, C.rank
    rng = random.Random(seed)
    while True:
        u = Matrix(ring, [[ring.random_element(rng) for _ in range(r)]
                          for _ in range(r)])
        if not any(smith_normal_form(u)):
            return new_crystal(ring, u @ C.B @ unit_inverse_matrix(u.sigma()),
                               C.shift)


def _fixed_datum_or_error(C):
    try:
        return _datum_summary(_fixed_datum(C))
    except ShiftUnsupported:
        return SHIFTED


def test_fixed_datum_is_pinned_and_the_certificate_decides_none():
    """On the corpus, `_fixed_datum` gives the walk's pinned result, and
    the certificate fires on a shift-0 crystal exactly where that result
    is None: the walk never found a datum for a crystal the certificate
    proves not isoclinic, and every None of the corpus is now proved."""
    seen = {"none": 0, "datum": 0, "shifted": 0}
    for (p, q, n), pins in FIXED_DATUM_PINS.items():
        ring = make_witt_ring(p, q, n)
        for k, ((family, params), pin) in enumerate(
                zip(_CERTIFICATE_FAMILIES, pins)):
            if pin is None:
                with pytest.raises(SingularAtPrecision):
                    builtin_crystal(ring, family, **params)
                continue
            C = builtin_crystal(ring, family, **params)
            D = _certificate_conjugate(C, 1000 * p + 100 * q + 10 * n + k)
            for crystal, want in zip((C, D), pin):
                ctx = (p, q, n, family, params, crystal is D)
                assert _fixed_datum_or_error(crystal) == want, ctx
                if want == SHIFTED:
                    seen["shifted"] += 1
                    continue
                assert certified_not_isoclinic(crystal) == (want is None), ctx
                seen["none" if want is None else "datum"] += 1
    assert seen == {"none": 64, "datum": 80, "shifted": 8}, seen


def test_certificate_below_the_newton_gate(monkeypatch):
    """phi_alpha_4_5 over W_4(F_8) lies below newton_polygon's gate, yet
    the certificate proves it not isoclinic and no Hom module is built."""
    C = builtin_crystal(make_witt_ring(2, 3, 4), "phi_alpha_4_5", alpha=1)
    with pytest.raises(PrecisionExhausted):
        newton_polygon(C)
    assert certified_not_isoclinic(C)

    def no_walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(stairs, "hom_module", no_walk)
    assert _fixed_datum(C) is None


@pytest.mark.parametrize("p, q, n, family, params, want", [
    (2, 1, 4, "isoclinic_3_3_6", {"r": 3, "c": 2},
     (1, "fixed", 3, "06f726f5a8e5d68c")),
    # the lang_run crystal of the stairs-witness benchmark
    (2, 2, 2, "supersingular", {"d": 1}, (1, "fixed", 2, "4c4f91215075f3fa")),
])
def test_certificate_spares_isoclinic_crystals(p, q, n, family, params,
                                               want):
    C = builtin_crystal(make_witt_ring(p, q, n), family, **params)
    assert not certified_not_isoclinic(C)
    assert _datum_summary(_fixed_datum(C)) == want


def test_shifted_crystals_still_reach_the_walk():
    """diag(1, p) with shift 1 has slopes -1 and 0, which the certificate
    sees, but a shifted crystal must raise from the walk as before."""
    W = make_witt_ring(3, 1, 4)
    C = new_crystal(W, Matrix.from_ints(W, [[1, 0], [0, 3]]), 1)
    assert C.shift == 1 and certified_not_isoclinic(C)
    with pytest.raises(ShiftUnsupported):
        _fixed_datum(C)


# -- group types before the unit scan -----------------------------------------

_TYPE_FAMILIES = [
    ("isoclinic_3_3_6", {"r": 3, "c": 1}),
    ("isoclinic_3_3_6", {"r": 3, "c": 2}),
    ("phi_alpha_4_5", {"alpha": 0}),
    ("phi_alpha_4_5", {"alpha": 1}),
    ("supersingular", {"d": 1}),
    ("supersingular", {"d": 2}),
    ("ordinary", {"r": 2, "d": 0}),
    ("ordinary", {"r": 2, "d": 1}),
    ("ordinary", {"r": 3, "d": 1}),
]

# (q, polarized, alpha1, alpha2) over W_4(F_(2^q)): the pairs of the
# isom-negative benchmark, the first of them check 06's
_NEGATIVE_KINDS = [(6, False, "1", "t"), (6, True, "1", "t2"),
                   (3, False, "0", "1"), (3, True, "0", "t")]


def _type_pairs():
    """(key, C1, C2, precision, conjugate): each family of _TYPE_FAMILIES
    over W_n(F_(p^q)) against a seeded conjugate of each family of its
    rank, at precision n and 2."""
    for p, q, n in ((2, 1, 4), (2, 2, 4), (2, 3, 4), (3, 1, 4), (3, 2, 3),
                    (5, 1, 3)):
        ring = make_witt_ring(p, q, n)
        built = []
        for k, (family, params) in enumerate(_TYPE_FAMILIES):
            try:
                C = builtin_crystal(ring, family, **params)
            except SingularAtPrecision:
                continue
            seed = 1000 * p + 100 * q + 10 * n + k
            built.append((k, C, _certificate_conjugate(C, seed)))
        for m in (n, 2):
            for k1, C1, _ in built:
                for k2, C2, D2 in built:
                    if C1.rank == C2.rank:
                        yield (p, q, n, m, k1, k2), C1, D2, m, k1 == k2


def _negative_kind(kind):
    """(X1, X2) of an isom-negative kind, as built."""
    q, polarized, a1, a2 = _NEGATIVE_KINDS[kind]
    ring = make_witt_ring(2, q, 4)
    alpha = {"0": ring.zero(), "1": ring.one(), "t": ring.gen(),
             "t2": ring.gen() * ring.gen()}
    family = "polarized_4_5_4" if polarized else "phi_alpha_4_5"
    return tuple(builtin_crystal(ring, family, alpha=alpha[a])
                 for a in (a1, a2))


def _permuted_conjugate(X, rng):
    """X conjugated as in the isom-negative benchmark: by u = P (1 + 2Y)
    for a permutation matrix P, Y integral when X is polarized (sigma
    fixes u, so the form carries over as u^-T J u^-1)."""
    polarized = isinstance(X, PolarizedCrystal)
    C = X.base if polarized else X
    ring, r = C.ring, C.rank
    perm = rng.sample(range(r), r)
    Y = Matrix(ring, [[ring.from_int(rng.randrange(ring.pn)) if polarized
                       else ring.random_element(rng) for _ in range(r)]
                      for _ in range(r)])
    u = Matrix.from_ints(ring, [[int(perm[i] == j) for j in range(r)]
                                for i in range(r)]) @ (
        Matrix.identity(ring, r) + Y.scale(ring.p))
    ui = unit_inverse_matrix(u)
    D = new_crystal(ring, u @ C.B @ ui, 0)
    if not polarized:
        return D
    return PolarizedCrystal(D, ui.transpose() @ X.J @ ui, X.c)


def _negative_pairs():
    """(key, X1, X2, precision): each isom-negative kind as built (kind 0
    is check 06's pair) and with X2 conjugated, at precision 4; and a
    polarized crystal against itself at precisions 2 and 4."""
    rng = random.Random(22)
    for kind in range(len(_NEGATIVE_KINDS)):
        X1, X2 = _negative_kind(kind)
        yield (kind, "built"), X1, X2, 4
        yield (kind, "conjugated"), X1, _permuted_conjugate(X2, rng), 4
    P = builtin_crystal(make_witt_ring(2, 3, 4), "polarized_4_5_4", alpha=1)
    for m in (2, 4):
        yield ("self", m), P, P, m


def _isom_pin(res):
    """An isom result as pinned: the first 16 hex digits of the sha256 of
    the witness's flat (None for no witness) when the regime is
    exhaustive with 0 trials, else (digits, regime, trials)."""
    w = res.witness
    digest = None if w is None else hashlib.sha256(
        repr(w.flat).encode()).hexdigest()[:16]
    if (res.regime, res.trials) == ("exhaustive", 0):
        return digest
    return digest, res.regime, res.trials


def _span_type(rows, p, n):
    """The group type of the span of flat rows over Z/p^n, read from the
    image side: n - e over the two-sided Smith exponents e < n."""
    return tuple(sorted(n - e for e in _TwoSidedSolver(rows, p, n).exps
                        if e < n))


# `isom_search` on _type_pairs, per (p, q, n, precision) in pair order, and
# the search on _negative_pairs (`polarized_isom_search` for the polarized
# ones), as `_isom_pin` gives them, computed before the group-type test
# existed
ISOM_PINS = {
    (2, 1, 4, 4): [
        'e6e97ac6e1e5994f', None, None, None, '6922c236ff868581', None,
        'cec2cb9414d8cd0f', None, None, 'fbf230ab33addce9',
        '70aa583addd4c123', None, None, '7215f02aa1f652aa', None,
        '4d215c198c1c85f2', None, None, None, '677561b8d16fb3d2', None, None,
        '0dde0e5c5bfe41c5'],
    (2, 1, 4, 2): [
        '75f6d6a82b1a0654', None, None, None, '82574ed0d285a501', None,
        '5c4c43cf6645aaf6', None, None, '35ee3c29c7d29337',
        '8fc40088d08f73ce', None, None, 'f71d6e26c283bf40', None,
        '4d215c198c1c85f2', None, None, None, 'cf76bea66279a9e3', None, None,
        'e3d0d7882efac355'],
    (2, 2, 4, 4): [
        'a5179e4cac9fb861', None, None, None, 'a95688c01ebafc50', None,
        '616427f93ca385aa', None, None, 'c50d060a8508c5a6',
        '3fa872ded879e0e0', None, None, 'cfb6513173f219e9', None,
        'cd73012a177f2975', None, None, None, 'db72dbc84306d8d0', None, None,
        '1a59c3e041944d0a'],
    (2, 2, 4, 2): [
        '4160ab1b3ef8d967', None, None, None, '50b54250ab30f6b4', None,
        'da368b01537602ef', None, None, '2e4617eccd0cbe49',
        '85f10129118ed358', None, None, 'ddb9e906de8c70db', None,
        '030c9e663adffaaf', None, None, None, '013fb86e15d0490b', None, None,
        'd111f73889a32883'],
    (2, 3, 4, 4): [
        '76d8704c61a445b2', None, None, None, '24310051a5d1de98', None,
        '5df97d5b160ea9b1', None, None, '56b41ce3c65ba00c',
        '9d94e658f65fc05d', None, None, 'c113101a0d4e80ed', None,
        '2a7a1cb0cdaa08d1', None, None, None, '39955bcf74a59759', None, None,
        '9a2a4dbed20bb89a'],
    (2, 3, 4, 2): [
        'f4a0254703806991', None, None, None, 'dba02110c5432fc5', None,
        'adfc4ea535429812', None, None, 'b5d7725ae9027e5a',
        '708362466fb1538b', None, None, '6e8f3a36282a694b', None,
        'a04d7b398bfe58a5', None, None, None, 'b813d6689107cef7', None, None,
        'f42c0bf5f4c6a8a7'],
    (3, 1, 4, 4): [
        '2513b65cf961a0a5', None, None, None, 'c2d0c9047e45a2da', None,
        '3de85a49be27e836', None, None, 'ebf1368f665cf98c',
        '47e94b3bb82fde27', None, None, '8979d6f1a3e68df9', None,
        '4d215c198c1c85f2', None, None, None, '7f2dc41a349f7b5f', None, None,
        'a8c808e0b885541f'],
    (3, 1, 4, 2): [
        '8c45c46b4fae1a43', None, None, None, 'd59deb9b1cc0fee2', None,
        '21be1382f393e300', None, None, '2dcff6ed2162cdf0',
        'd5c98315076a5dc3', None, None, '6fc7bf7486c2b998', None,
        '4d215c198c1c85f2', None, None, None, '02bf57b7ebf8d798', None, None,
        'a0750111c4318423'],
    (3, 2, 3, 3): [
        'afa5a3c83996e21d', None, None, None, '4877a9ac3455aac9', None,
        '221216b7c770a5b6', None, None,
        ('22849f77374ed54c', 'randomized', 1), None, 'e2e158340f971528',
        None, None, None, '4fc8d5be9cd040ab', None, None, '3cc95ba029d27c3b'],
    (3, 2, 3, 2): [
        '0a504b1de8689b71', None, None, None, 'f98face4900a566b', None,
        '094f117a46a8582c', None, None,
        ('f3b4ce6c074c18c9', 'randomized', 1), None, '5cb24873dd642bb0',
        None, None, None, '904a4779f423a19f', None, None, 'e368be0894468787'],
    (5, 1, 3, 3): [
        'c070beaee9c601ab', None, None, None, '36dd193beebbf908', None,
        '54f6ea2eb0ea80c9', None, None, 'eb5d1766862263b2', None,
        '4d215c198c1c85f2', None, None, None, 'fcd06ca002a02f6f', None, None,
        '1127e9a37e7b9d63'],
    (5, 1, 3, 2): [
        '336fce5d5b817e6b', None, None, None, '6508061a1461986f', None,
        'b1edcbb0d958ba0d', None, None, 'e460cbccf7f8aa75', None,
        '4d215c198c1c85f2', None, None, None, 'd3bc24e6c888291b', None, None,
        '9c7cfe3a2c9e88e4'],
}
NEGATIVE_PINS = {
    (0, 'built'): None,
    (0, 'conjugated'): None,
    (1, 'built'): None,
    (1, 'conjugated'): None,
    (2, 'built'): None,
    (2, 'conjugated'): None,
    (3, 'built'): None,
    (3, 'conjugated'): None,
    ('self', 2): '79bd0ec656ec1fc7',
    ('self', 4): '79bd0ec656ec1fc7',
}


def test_group_type_negatives_agree_with_the_scan():
    """On the corpus, `isom_search` gives the pinned results.  Wherever
    Hom(C1, C2) and End(C1) differ in group type, the bare scan (no
    source, as before the type test) finds no unit either, and every
    conjugate pair has equal types.  Up to 36 coordinates, each type is
    the one of the Howell span read from the image side."""
    got, seen = {}, {"differ": 0, "equal": 0, "conjugate": 0, "image": 0}
    for key, C1, C2, m, conjugate in _type_pairs():
        got.setdefault(key[:4], []).append(_isom_pin(isom_search(C1, C2, m)))
        H = hom_module(C1, C2, m)
        E = end_type(C1, H.ring)
        assert sum(H.group_type) == H.size_log(), key
        if C1.rank ** 2 * H.ring.q <= 36:
            p = H.ring.p
            assert _span_type(H._howell, p, m) == H.group_type, key
            assert _span_type(hom_module(C1, C1, m)._howell, p, m) == E, key
            seen["image"] += 1
        if conjugate:
            assert H.group_type == E, key
            seen["conjugate"] += 1
        elif H.group_type != E:
            assert unit_search(H) == IsomResult(None, "exhaustive", 0), key
            seen["differ"] += 1
        else:
            seen["equal"] += 1
    assert got == ISOM_PINS
    assert seen == {"differ": 146, "equal": 14, "conjugate": 100,
                    "image": 242}, seen


def test_isom_negative_kinds_differ_in_group_type():
    """The isom-negative pairs, check 06's first, keep their pinned
    results; each differs from End(C1) in group type, where the bare scan
    finds no unit, and a polarized crystal against itself keeps its
    witness."""
    for key, X1, X2, m in _negative_pairs():
        polarized = isinstance(X1, PolarizedCrystal)
        search = polarized_isom_search if polarized else isom_search
        assert _isom_pin(search(X1, X2, m)) == NEGATIVE_PINS[key], key
        C1, C2 = (X1.base, X2.base) if polarized else (X1, X2)
        H = hom_module(C1, C2, m)
        E = end_type(C1, H.ring)
        if key[0] == "self":
            assert H.group_type == E
        else:
            assert H.group_type != E, key
            assert unit_search(H) == IsomResult(None, "exhaustive", 0), key


def _forbid_kernel_work(patch):
    """Make every Howell basis and every right transform of an IntSolver
    raise."""
    def built(*args, **kwargs):
        raise AssertionError("a Howell basis or a right transform was built")

    for module in (plinalg, semilinear, truncation):
        if hasattr(module, "howell_form"):
            patch.setattr(module, "howell_form", built)
    patch.setattr(IntSolver, "_rt", property(built))


def test_a_kept_end_type_settles_negatives_before_the_basis(monkeypatch):
    """With End(C1)'s type kept on C1, each isom-negative pair (check 06's
    first, as built and conjugated) returns the exhaustive miss with no
    Howell basis and no right transform built; a polarized crystal
    against itself, of equal type, still finds its pinned witness."""
    pairs = list(_negative_pairs())
    for _, X1, _, m in pairs:
        C1 = X1.base if isinstance(X1, PolarizedCrystal) else X1
        end_type(C1, make_witt_ring(C1.ring.p, C1.ring.q, m))
    with monkeypatch.context() as patch:
        _forbid_kernel_work(patch)
        for key, X1, X2, m in pairs:
            if key[0] == "self":
                continue
            search = polarized_isom_search if isinstance(
                X1, PolarizedCrystal) else isom_search
            assert search(X1, X2, m) == IsomResult(None, "exhaustive", 0), \
                key
    for key, X1, X2, m in pairs:
        if key[0] == "self":
            assert _isom_pin(polarized_isom_search(X1, X2, m)) == \
                NEGATIVE_PINS[key], key


def _eager_hom_module(C1, C2, m):
    """(profile, Howell rows, basis, group type) of Hom_m(C1, C2), all
    built at once from one elimination, as HomModule built them before
    its basis became lazy."""
    rm = make_witt_ring(C1.ring.p, C1.ring.q, m)
    P, rows = semilinear._intertwiner_system(C1.B.reduce_to(rm),
                                             C2.B.reduce_to(rm), rm)
    solver = IntSolver(P, rows)
    packed = howell_form(P, solver.kernel_generators(), packed=True)
    kern = [P.unpack(r) for r in packed]
    profile = [v for (_, v) in howell_pivots(kern, rm.p, m)]
    basis = [Matrix.from_flat_ints(rm, C2.rank, C1.rank, v) for v in kern]
    return profile, kern, basis, solver.kernel_type()


def test_a_lazy_hom_module_matches_the_eager_build():
    """On the group-type corpus, `hom_module` builds no right transform and
    no basis up front, and whichever part is read first, its profile,
    Howell rows, basis and group type are those of the eager build; the
    solver is let go once the basis exists."""
    reads = [lambda H: H.profile, lambda H: H.basis,
             lambda H: H.mod_p_spanning_subset(), lambda H: H.size_log()]
    for k, (key, C1, C2, m, _) in enumerate(_type_pairs()):
        H = hom_module(C1, C2, m)
        assert "_rt" not in vars(H._solver), key
        assert not {"_packed", "_howell", "profile"} & set(vars(H)), key
        reads[k % len(reads)](H)
        assert (H.profile, H._howell, H.basis, H.group_type) == \
            _eager_hom_module(C1, C2, m), key
        assert H._solver is None, key

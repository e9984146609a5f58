"""Enumerative oracles on tiny rings, cross-checking the linear-algebra
routes against raw brute force."""

import itertools
import random
from math import gcd

import pytest

from fcrystals import deviation, semilinear
from fcrystals.conway import CONWAY_TABLE
from fcrystals.crystal import builtin_crystal, new_crystal
from fcrystals.plinalg import (
    IntSolver,
    Matrix,
    _PackedRows,
    det_valuation,
    fp_independent_rows,
    fp_row_reduce,
    howell_form,
    pack_rows,
)
from fcrystals.semilinear import (
    CircularSystem,
    _first_unit_trial,
    _scan_range,
    hom_module,
    isom_search,
    solve_circular,
)
from fcrystals.stairs import _fixed_datum, build_stairs_datum
from fcrystals.witt import _int_val as _ival
from fcrystals.witt import _poly_mul_mod, _poly_pow_mod, make_witt_ring


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
        except Exception:
            continue
        tried += 1
        H = hom_module(C1, C2)
        brute = {
            tuple(g.flatten_ints())
            for g in _all_matrices(ring, 2)
            if (g @ C1.B) == (C2.B @ g.sigma())
        }
        module = {tuple(g.flatten_ints())
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
        except Exception:
            continue
        tried += 1
        res = isom_search(C1, C2)
        brute_found = False
        for g in _all_matrices(ring, 2):
            if (g @ C1.B) != (C2.B @ g.sigma()):
                continue
            try:
                if det_valuation(g) == 0:
                    brute_found = True
                    break
            except Exception:
                continue
        assert (res.witness is not None) == brute_found
        if res.witness is not None:
            w = res.witness
            assert (w @ C1.B) == (C2.B @ w.sigma())
            assert det_valuation(w) == 0


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
        except Exception:
            continue
        tried += 1
        H, expo = fixed_lattice(C)
        brute = {tuple(g.flatten_ints()) for g in _all_matrices(ring, 2)
                 if (g @ C.B) == (C.B @ g.sigma())}
        module = {tuple(g.flatten_ints()) for g in _all_matrices(ring, 2)
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
            for x in itertools.product(range(pn), repeat=cols):
                ax = tuple(_apply(A, x, pn))
                images.add(ax)
                ker += not any(ax)
            assert ker == p ** ker_log, (n, A)
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
    for t in range(len(datum.basis[0].flatten_ints())):
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
    pivots zero, and span-closure rows included.  It is not the unique
    Howell basis: the entries above the pivots are reduced from the last
    pivot to the first, so a later step undoes an earlier reduction and
    an entry above a pivot p^v may lie outside [0, p^v).  The basis then
    depends on the order of the input rows.  `hom` prints this basis, so
    a fix changes its output.
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
    for idx in range(len(result) - 1, -1, -1):
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
            img = ring._sigma_raw(img)
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

"""The stairs method: constructive conjugation of twists back to phi.

Given g congruent to 1 mod p^(n0), the engine peels the defect one
p-digit at a time: the digit is written in a lattice basis of End(M)
permuted by conjugation, a circular residue system is solved per cycle,
and a product of exponentials is applied.  Cycles of positive type may
force base change to a bigger residue field; the whole computation then
moves there (within the built-in field table).
"""

import math
import random
from dataclasses import dataclass, field, replace
from itertools import islice

from .bounds import epsilon_p
from .crystal import FCrystal, builtin_crystal, certified_not_isoclinic
from .deviation import deviations, df_reduce
from .errors import (
    BadShape,
    ExtensionCapExceeded,
    InternalError,
    NotMultiplicative,
    OutsideExpDomain,
    PreconditionTooWeak,
    SingularAtPrecision,
    UnknownField,
    UnsupportedShape,
)
from .plinalg import (
    Matrix,
    exp_series,
    exp_trunc,
    howell_form,
    pack_rows,
    unit_inverse_matrix,
    w_span_rows,
    w_span_solver,
)
from .semilinear import (
    circular_map,
    hom_module,
    is_unit,
    lang_trivializer,
)
from .witt import INFINITY, WittElem, WittRing, field_walk, make_witt_ring

# residue-field degrees over C's that the fixed-lattice walk tries, its
# only stop besides the Newton certificate and the field table: a full
# fixed lattice exists only when C is isoclinic (Dieudonne-Manin), and
# then it may first appear at any degree
FIXED_LATTICE_MAX_EXTENSION = 6


@dataclass
class StairsDatum:
    """A permuted lattice basis of End(M) with uniform-sign cycles.  The
    cycles, their signs and whether the span is `unital`, `multiplicative`
    or `square_zero` are read off the basis, permutation and exponents;
    `strategy` is the builder's label and decides nothing."""

    crystal: object
    basis: list            # matrices e_l
    perm: list             # pi as a list, 0-based
    exponents: list        # n_l with conj(e_l) = p^(n_l) e_(pi(l))
    torsion: int           # m: p^m End inside the span, Smith-verified
    strategy: str
    cycles: list = field(init=False)   # index lists of pi
    # per cycle: +1 when its exponents are all >= 0, else -1
    signs: list = field(init=False)
    _solver: object = field(default=None, repr=False, compare=False)
    _products: object = field(default=None, repr=False, compare=False)
    # `_read_flags`, kept by base changes as unramified extension keeps it
    _flags: object = field(default=None, repr=False, compare=False)
    # `_unit_cells` of the basis: read once per datum, base changes too
    _units: object = field(init=False, repr=False, compare=False)
    # base changes by target ring, so later runs reuse their crystal,
    # embedded basis and coordinate solver
    _base_changes: dict = field(default_factory=dict, repr=False,
                                compare=False)

    def __post_init__(self):
        if not self.basis:   # it would span nothing and solve everything
            raise BadShape("a stairs datum needs a nonempty basis")
        self.cycles = _cycles_of(self.perm)
        self.signs = [1 if all(self.exponents[l] >= 0 for l in cyc) else -1
                      for cyc in self.cycles]
        self._units = _unit_cells(self.basis, self.crystal.ring,
                                  self.crystal.rank)

    def coordinate_solver(self):
        """Solver for X = sum y_l e_l: column (l, s) is t^s e_l flattened."""
        if self._solver is None:
            self._solver = w_span_solver(self.basis, self.crystal.ring)
        return self._solver

    def product_coords(self):
        """coords(e_a e_b) for every pair (a, b), a-major, kept."""
        if self._products is None:
            self._products = [self.coords(a @ b) for a in self.basis
                              for b in self.basis]
        return self._products

    multiplicative = property(lambda self: self._read_flags()[0])
    unital = property(lambda self: self._read_flags()[1])
    square_zero = property(lambda self: self._read_flags()[2])  # e_a e_b = 0

    def _read_flags(self):
        """(multiplicative, unital, square_zero): integer checks on the
        cells of matrix units, else coords(1) and `product_coords` (a None
        is a product outside the span; all zero, a square-zero span)."""
        if self._flags is None and self._units is not None:
            self._flags = _cell_flags(self._units[0], self.crystal.rank,
                                      self.crystal.ring.pn)
        elif self._flags is None:
            prods = self.product_coords()
            one = Matrix.identity(self.crystal.ring, self.crystal.rank)
            mult = None not in prods
            self._flags = (mult, self.coords(one) is not None,
                           mult and all(y.is_zero() for ys in prods
                                        for y in ys))
        return self._flags

    def coords(self, X: Matrix):
        """WittElem coefficients y with X = sum y_l e_l, or None.  On
        matrix units e_l = p^(a_l) E_ij, y_l is X's cell (i, j) over
        p^(a_l), and every cell outside the basis must vanish."""
        ring = self.crystal.ring
        q = ring.q
        if self._units is None:
            sol = self.coordinate_solver().solve(X.flat)
            if sol is None:
                return None
            return [WittElem(ring, tuple(sol[l * q:(l + 1) * q]))
                    for l in range(len(self.basis))]
        cells, outside = self._units
        f = X.flat
        if any(f[t] for t in outside):
            return None
        ys = []
        for k, pa in cells:
            e = f[k * q:k * q + q]
            if any(c % pa for c in e):
                return None
            ys.append(WittElem(ring, tuple([c // pa for c in e])))
        return ys

    def apply_round(self, factors, defect, total):
        """(F defect G, F total) for a round's factors (l, a, l', b), a and
        b coordinate tuples: F = exp(a_1 e_(l_1)) ... exp(a_k e_(l_k)) and
        G, the inverse of F's conjugate, exp(-b_k e_(l'_k)) ...
        exp(-b_1 e_(l'_1)); an argument zero at the precision has exp 1
        and is skipped.  On matrix units each factor is 1 + c E_ij: row
        i += c row j on the left, column j += c column i on the right, the
        same arithmetic as the products."""
        ring = self.crystal.ring
        if self._units is None:
            step = psi_inv = Matrix.identity(ring, self.crystal.rank)
            for l, a, _, _ in factors:
                arg = self.basis[l].scale(WittElem(ring, a))
                if not arg.is_zero():
                    step = step @ exp_trunc(arg)
            for _, _, lp, b in reversed(factors):
                arg = self.basis[lp].scale(WittElem(ring, ring._neg(b)))
                if not arg.is_zero():
                    psi_inv = psi_inv @ exp_trunc(arg)
            return step @ defect @ psi_inv, step @ total
        r, back = self.crystal.rank, factors[::-1]
        left = [self._unit_factor(l, a) for l, a, _, _ in back]
        right = [self._unit_factor(lp, ring._neg(b)) for _, _, lp, b in back]
        rows = [(i * r, j * r, c, 1) for i, j, c in filter(None, left)]
        cols = [(j, i, c, r) for i, j, c in filter(None, right)]
        return _line_ops(defect, rows + cols), _line_ops(total, rows)

    def _unit_factor(self, l, a):
        """(i, j, c) with exp(a e_l) = 1 + c E_ij, e_l a matrix unit at
        (i, j); None when a e_l is zero (a a coordinate tuple).  Off the
        diagonal E_ij^2 = 0, so c is the cell; on it c = exp(cell) - 1."""
        ring = self.crystal.ring
        k, pa = self._units[0][l]
        c = ring._smul(pa, a)
        if not any(c):
            return None
        i, j = divmod(k, self.crystal.rank)
        if i != j:
            if ring._val(c) < 1:
                raise OutsideExpDomain("need X in p*End")
            return i, j, c
        return i, j, exp_series(ring, c, WittRing._mul)

    def combine(self, ys):
        acc = Matrix.zero(self.crystal.ring, self.crystal.rank)
        for y, e in zip(ys, self.basis):
            if not y.is_zero():
                acc = acc + e.scale(y)
        return acc

    def random_twist(self, level, rng):
        """1 + sum y_l e_l, each y_l a random element times p^level."""
        ring = self.crystal.ring
        return Matrix.identity(ring, self.crystal.rank) + self.combine(
            [ring.random_element(rng) * ring.p ** level for _ in self.basis])

    def base_change(self, ring):
        datum = self._base_changes.get(ring)
        if datum is None:
            datum = self._base_changes[ring] = replace(
                self, crystal=self.crystal.base_change(ring),
                basis=[e.embed(ring) for e in self.basis],
                _solver=None, _products=None, _base_changes={})
        return datum

    def verify(self, full_end=True):
        """Re-check the defining identities; raises on failure.

        full_end=False skips the p^m End coverage check (for lattices
        spanning only a subalgebra of End, used by composite reductions).
        """
        C = self.crystal
        ring = C.ring
        for l, e in enumerate(self.basis):
            # phi e_l phi^{-1} = p^(n_l) e_(pi(l)), checked as
            # B sigma(e_l) = p^(n_l) e_(pi(l)) B, scaled into W when n_l < 0
            n_l = self.exponents[l]
            lhs = C.B @ e.sigma()
            rhs = self.basis[self.perm[l]] @ C.B
            if n_l >= 0:
                rhs = rhs.scale(ring.p ** n_l)
            else:
                lhs = lhs.scale(ring.p ** (-n_l))
            if lhs != rhs:
                raise BadShape(f"basis element {l} breaks the arrow identity")
        for cyc in self.cycles:
            exps = [self.exponents[l] for l in cyc]
            if min(exps) < 0 < max(exps):
                raise BadShape("a cycle mixes exponent signs")
        # p^m End inside the span
        if full_end and self.coordinate_solver().cokernel_exponent() > \
                self.torsion:
            raise BadShape("span does not contain p^m End")
        return True


@dataclass
class StairsCertificate:
    witness: Matrix
    level: int
    extension: int        # Q_final / Q_initial
    crystal: object       # the (possibly base-changed) crystal
    twist: Matrix         # the (possibly base-changed) g

    @property
    def ring(self):
        return self.crystal.ring

    def reverify(self) -> bool:
        """Independent re-check of the conjugation identity
        w g B sigma(w)^(-1) = B mod p^level.

        Raises SingularAtPrecision unless w is a unit, which the lane
        determinant of its residue decides (`is_unit`, no `IntSolver`).
        For a unit w the difference has the valuation of w g B - B sigma(w),
        so no inverse is formed.
        """
        B, w = self.crystal.B, self.witness
        if not is_unit(w):
            raise SingularAtPrecision("witness is not a unit")
        diff = w @ self.twist @ B - B @ w.sigma()
        return diff.is_zero() or diff.min_valuation() >= self.level


def _reverified(witness, level, crystal, twist, base_q, method):
    """The certificate of a `method` run begun over residue degree base_q,
    re-verified; InternalError when the check fails."""
    cert = StairsCertificate(witness, level, crystal.ring.q // base_q,
                             crystal, twist)
    if not cert.reverify():
        raise InternalError(f"{method} certificate failed re-verification")
    return cert


# -- datum construction -------------------------------------------------------


def build_stairs_datum(C) -> StairsDatum:
    """Monomial matrix-unit datum, else fixed-lattice datum, else error."""
    datum = _monomial_datum(C) or fixed_datum(C)
    if datum is not None:
        return datum
    raise UnsupportedShape(
        "no lattice basis construction applies; load a datum from file"
    )


def _monomial_datum(C):
    """The matrix-unit datum when B is monomial with unit twists 1, else
    None."""
    if C.shift != 0:
        raise BadShape("stairs needs shift 0")
    r = C.rank
    built = _matrix_unit_datum(
        C, C.B, [(i, j) for i in range(r) for j in range(r)])
    return built[0] if built else None


def _matrix_unit_datum(C, base_B, idx):
    """(datum, cycle tuples) of the rescaled matrix units at idx, with
    arrows from base_B, or None unless base_B is monomial with unit twists
    1.  All r^2 units (index l = i*r + j) make a datum verified to hold
    p^m End; a block of them, one verified on its own span.
    """
    hits = _monomial_shape(base_B, C.ring)
    if hits is None:
        return None
    full = len(idx) == C.rank ** 2
    fields, tuples = _matrix_unit_arrows(C.ring, C.rank, hits, idx)
    datum = StairsDatum(C, *fields, "monomial" if full else "unipotent")
    datum.verify(full_end=full)
    return datum, tuples


def _monomial_shape(B, ring):
    """(row, val) per column when B is monomial with unit twists 1."""
    r = B.rows
    hits = []
    rows_seen = set()
    for j in range(r):
        nz = [(i, B[i, j]) for i in range(r) if not B[i, j].is_zero()]
        if len(nz) != 1:
            return None
        i, e = nz[0]
        v = e.valuation()
        if v == INFINITY or e != ring.one() * ring.p ** int(v):
            return None  # unit twists are out of scope here
        if i in rows_seen:
            return None
        rows_seen.add(i)
        hits.append((i, int(v)))
    return hits


def _matrix_unit_arrows(ring, r, hits, idx):
    """Rescaled matrix units p^(a_l) E_(i,j), (i, j) = idx[l], with their
    arrows under phi(e_j) = p^(n_j) e_(rho(j)), hits[j] = (rho(j), n_j).

    Conjugation permutes the units; each cycle's exponent tuple is reduced
    to uniform sign by df_reduce.  Returns ((basis, perm, exponents,
    torsion), cycle tuples).
    """
    pos = {ij: l for l, ij in enumerate(idx)}
    perm = [pos[(hits[i][0], hits[j][0])] for (i, j) in idx]
    exps = [hits[i][1] - hits[j][1] for (i, j) in idx]
    rescale = [0] * len(idx)
    new_exps = list(exps)
    m = 0
    tuples = []
    for cyc in _cycles_of(perm):
        tau = [exps[l] for l in cyc]
        tuples.append(tau)
        red = df_reduce(tau)
        for k, l in enumerate(cyc):
            rescale[l] = red.rescale[k]
            new_exps[l] = red.new_exponents[k]
        m = max(m, max(red.rescale))
    basis = []
    for l, (i, j) in enumerate(idx):
        flat = [0] * (r * r * ring.q)
        flat[(i * r + j) * ring.q] = ring.p ** rescale[l]
        basis.append(Matrix.from_flat_ints(ring, r, r, flat))
    return (basis, perm, new_exps, m), tuples


def _cell_flags(cells, r, pn):
    """(multiplicative, unital, square_zero) of the units p^a E_ij at cells
    [(i r + j, p^a)]: (p^a E_ij)(p^b E_jk) = p^(a+b) E_ik is in the span
    when it is zero or cell (i, k) holds p^c, c <= a + b; unital when
    every diagonal cell holds p^0."""
    at = dict(cells)
    prods = [(ij - ij % r + jk % r, pa * pb) for ij, pa in cells
             for jk, pb in cells if ij % r == jk // r and pa * pb < pn]
    return (all(k in at and c % at[k] == 0 for k, c in prods),
            all(at.get(i * r + i) == 1 for i in range(r)), not prods)


def _unit_cells(basis, ring, r):
    """([(k, p^(a_l))], outside) when every e_l is p^(a_l) at one cell
    k = i r + j of its own, outside being the flat coordinates of the
    other cells; else None."""
    q, cells = ring.q, []
    for e in basis:
        nz = [t for t, c in enumerate(e.flat) if c]
        c = e.flat[nz[0]] if len(nz) == 1 and not nz[0] % q else 0
        if math.gcd(ring.pn, c) != c:   # not a power of p below p^n
            return None
        cells.append((nz[0] // q, c))
    ks = {k for k, _ in cells}
    if len(ks) < len(cells):
        return None
    return cells, [t for t in range(r * r * q) if t // q not in ks]


def _line_ops(M, ops):
    """M after `ops` in order, each (dst, src, c, stride): the line of r
    cells `stride` apart from cell dst gets c times the one from src (rows
    for stride 1, columns for stride r); c a coordinate tuple.  Cells stay
    packed throughout: a new value x + c y is one packed product and one
    reduction, and the cells are unpacked once at the end."""
    ring, r, w = M.ring, M.rows, M.ring.slot_width(2)
    reduce = ring._reduce_packed
    cells = ring._pack_flat(M.flat, w)
    for dst, src, c, stride in ops:
        pc, = ring._pack_flat(c, w)
        for t in range(0, r * stride, stride):
            if y := cells[src + t]:
                cells[dst + t] = reduce(cells[dst + t] + pc * y, w)
    return M._like(tuple(ring._reduce_flat(cells, w)))


def _cycles_of(perm):
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        l = start
        while not seen[l]:
            seen[l] = True
            cyc.append(l)
            l = perm[l]
        cycles.append(cyc)
    return cycles


def fixed_datum(C):
    """`_fixed_datum(C)`, kept on C, since it depends on B alone; a None is
    kept too, a raised error is not."""
    if not C.fixed_memo:
        C.fixed_memo = (_fixed_datum(C),)
    return C.fixed_memo[0]


def _fixed_datum(C):
    """Fixed-lattice datum for crystals whose End has all slopes zero.

    None at once when an exact Newton point proves C not isoclinic (then
    End has a nonzero slope and no full fixed lattice); shifted crystals
    skip that proof and raise ShiftUnsupported from the walk.  Otherwise
    the datum of the first residue extension, of degree at most
    FIXED_LATTICE_MAX_EXTENSION over C's and within the built-in field
    table, whose fixed elements give a full selection; None when none
    does within that bound.  The datum keeps the solver of its selected
    span, so `verify` (the torsion) and every later `coords` share one
    elimination.
    """
    if C.shift == 0 and certified_not_isoclinic(C):
        return None
    ring = C.ring
    for D, big in islice(field_walk(ring.p, ring.q, ring.n),
                         FIXED_LATTICE_MAX_EXTENSION):
        CD = C.base_change(big) if D > 1 else C
        sel = _select_w_basis(hom_module(CD, CD), CD)
        if sel is None:
            continue
        basis, solver, _ = sel
        datum = StairsDatum(CD, basis, list(range(len(basis))),
                            [0] * len(basis), solver.cokernel_exponent(),
                            "fixed", _solver=solver)
        datum.verify()
        return datum
    return None


def _select_w_basis(H, C):
    """r^2 fixed elements whose W-span has finite lattice exponent.

    Returns (elements, `w_span_solver` of them, Howell basis of their
    W-span), or None when their span is not full.
    """
    ring = H.ring
    r = C.rank
    chosen = []
    current = []
    for b in H.basis:
        new = howell_form(*pack_rows(current + w_span_rows([b], ring),
                                     ring.p, ring.n))
        if new != current:
            chosen.append(b)
            current = new
            if len(chosen) == r * r:
                break
    if len(chosen) < r * r:
        return None
    solver = w_span_solver(chosen, ring)
    if solver.cokernel_exponent() == INFINITY:
        return None
    return chosen, solver, current


# -- the engine ---------------------------------------------------------------


def _twist_over(datum, g):
    """g over the datum's ring; BadShape unless g is r x r, since a twist
    arrives from outside and a shape error inside `Matrix` is a bug."""
    r = datum.crystal.rank
    if (g.rows, g.cols) != (r, r):
        raise BadShape(f"twist must be {r} x {r}, not {g.rows} x {g.cols}")
    return g.embed(datum.crystal.ring)


def stairs_run(C, g, datum=None) -> StairsCertificate:
    """Conjugate (M, g phi) back to (M, phi); g = 1 mod p^(2m + eps_p)."""
    if datum is None:
        datum = build_stairs_datum(C)
    ring = datum.crystal.ring
    p = ring.p
    eps = epsilon_p(p)
    g = _twist_over(datum, g)
    lvl = g.congruence_level()
    if lvl < 2 * datum.torsion + eps:
        raise PreconditionTooWeak(
            f"need g = 1 mod p^{2 * datum.torsion + eps}, have {lvl}"
        )
    return _engine(datum, g, C.ring.q, algebra_mode=False)


def stairs_algebra_run(C, g, datum=None) -> StairsCertificate:
    """Multiplicative-lattice variant: g in 1 + p^j E, iterates inside E."""
    if datum is None:
        datum = build_stairs_datum(C)
    if not datum.multiplicative:
        raise NotMultiplicative("datum span is not closed under products")
    ring = datum.crystal.ring
    g = _twist_over(datum, g)
    ys = datum.coords(g - Matrix.identity(ring, datum.crystal.rank))
    if ys is None:
        raise BadShape("g - 1 is not in the lattice span")
    j = min((y.valuation() for y in ys), default=INFINITY)
    if j == INFINITY:
        j = ring.n
    if not datum.square_zero:   # a square-zero span takes j = 0
        if j < 1:
            raise PreconditionTooWeak("need g in 1 + p E")
        if ring.p == 2 and j < 2 and not datum.unital:
            raise PreconditionTooWeak("p = 2 with j = 1 needs the identity "
                                      "inside the span")
    return _engine(datum, g, C.ring.q, algebra_mode=True)


def _engine(datum, g, base_q, algebra_mode) -> StairsCertificate:
    r = datum.crystal.rank
    total = Matrix.identity(datum.crystal.ring, r)
    defect = g
    rounds = 0
    prev_umin = -1
    while True:
        ring = datum.crystal.ring
        p, n = ring.p, ring.n
        rounds += 1
        if rounds > 3 * n + 6:
            raise InternalError("stairs failed to converge (internal bug)")
        ident = Matrix.identity(ring, r)
        dm = defect - ident
        if dm.is_zero():
            break
        ys = datum.coords(dm)
        if ys is None:
            raise BadShape("defect left the lattice span")
        umin = min(y.valuation() for y in ys if not y.is_zero())
        # progress lives in coordinate valuations: the matrix congruence
        # level can stall while p-content basis elements catch up
        if umin <= prev_umin:
            raise InternalError(
                f"stairs made no progress: {prev_umin} -> {umin}")
        # per-cycle shifts
        if algebra_mode:
            u_list = [umin] * len(datum.cycles)
        else:
            u_list = []
            for cyc in datum.cycles:
                vals = [ys[l].valuation() for l in cyc]
                u_list.append(min(vals))
        # solve each cycle's residue system b_j x_j + c_j = d_j x_(j-1)^p,
        # c_j = y_l / p^u mod p, on coordinates through its kept map
        ext_needed = 1
        solutions = []
        fld = make_witt_ring(ring.p, ring.q, 1)
        one, zero = fld._one, fld._zero
        for ci, cyc in enumerate(datum.cycles):
            u_c = u_list[ci]
            if u_c == INFINITY:
                solutions.append(None)
                continue
            pu, exps = p ** int(u_c), datum.exponents
            if any(x % pu for l in cyc for x in ys[l].coeffs):
                raise InternalError(f"a cycle coordinate is not divisible "
                                    f"by p^{int(u_c)}")
            c = [tuple([x // pu % p for x in ys[l].coeffs]) for l in cyc]
            b = tuple([one if exps[l] >= 0 else zero for l in cyc])
            d = tuple([one if exps[l] <= 0 else zero
                       for l in cyc[-1:] + cyc[:-1]])
            try:
                sol = circular_map(fld, datum.signs[ci], b, d).solve(c)
            except ExtensionCapExceeded:
                solutions = None
                break
            solutions.append(sol)
            ext_needed = math.lcm(ext_needed, sol[2])
        if solutions is None:
            break  # cannot solve within the field table: report progress
        if ext_needed > 1:
            try:
                big = make_witt_ring(ring.p, ring.q * ext_needed, ring.n)
            except UnknownField:
                break  # cannot extend further: report what was achieved
            datum = datum.base_change(big)
            # an untouched total is still the shared identity
            total = (Matrix.identity(big, r) if total is ident
                     else total.embed(big))
            defect = defect.embed(big)
            continue
        # all cycles solved over the current field: the round's factors
        # (l, x p^k, pi(l), sigma(x) p^(k + n_l)), k = u + max(0, -n_l)
        factors, u_low = [], 2
        frob = ring._frobenius_rows(1) if ring.q > 1 else None
        for ci, cyc in enumerate(datum.cycles):
            sol = solutions[ci]
            if sol is None:
                continue
            u_c = int(u_list[ci])
            for l, x in zip(cyc, sol[0]):
                if not any(x):
                    continue
                n_l = datum.exponents[l]
                k = u_c + max(0, -n_l)
                fx = ring._apply_rows(x, frob) if frob else x
                factors.append((l, ring._smul(p ** k, x), datum.perm[l],
                                ring._smul(p ** (k + n_l), fx)))
                u_low = min(u_low, u_c)
        if (p == 2 and u_low < 2) or datum.square_zero:
            # step = 1 + sum of scaled basis elements; its conjugate is
            # assembled from the arrow formula on the ORIGINAL factors
            # (the truncated inverse would lose digits that conjugation
            # divides back below the precision)
            acc = conj_acc = Matrix.zero(ring, r)
            for l, a, lp, b in factors:
                acc = acc + datum.basis[l].scale(WittElem(ring, a))
                conj_acc = conj_acc + datum.basis[lp].scale(WittElem(ring, b))
            step = ident + acc
            defect = step @ defect @ unit_inverse_matrix(ident + conj_acc)
            total = step @ total
        else:
            defect, total = datum.apply_round(factors, defect, total)
        prev_umin = int(umin)
    ring = datum.crystal.ring
    final = defect.congruence_level()
    level = ring.n if final == INFINITY else int(final)
    entry = g.congruence_level()   # an embedding keeps it
    if level < ring.n and (entry == INFINITY or level <= entry):
        raise ExtensionCapExceeded(
            f"stairs stalled at level {level} (needs a residue field "
            f"beyond the built-in table)"
        )
    # g is embedded once, into the final ring: the embeddings along the
    # walk compose to the direct one
    return _reverified(total, level, datum.crystal, g.embed(ring), base_q,
                       "stairs")


# -- slope-zero shortcut ------------------------------------------------------


def lang_run(C, g, datum=None) -> StairsCertificate:
    """First kill the residue digit by a twisted-conjugacy search in the
    abstract unit group of the fixed lattice, then finish with the
    multiplicative stairs; witnesses i-number <= m1 at the sampled g."""
    if datum is None:
        datum = fixed_datum(C)
        if datum is None:
            raise UnsupportedShape(
                "no full-rank fixed lattice found (End not of slope zero, "
                "or the residue field is too small)"
            )
    if datum.perm != sorted(datum.perm) or any(datum.exponents) or \
            not datum.unital:   # a unital span of e_l the arrows fix
        raise UnsupportedShape("lang shortcut needs a unital fixed lattice")
    ring = datum.crystal.ring
    g = _twist_over(datum, g)
    lvl = g.congruence_level()
    if lvl < datum.torsion:
        raise PreconditionTooWeak(
            f"need g = 1 mod p^{datum.torsion}, have {lvl}")
    ident = Matrix.identity(ring, datum.crystal.rank)
    ys = datum.coords(g - ident)
    if ys is None:
        raise BadShape("g - 1 is not in the lattice span")
    # trivialize g's residue class in the span's unit group, in
    # coordinates over the span's structure constants (the matrix-level
    # reduction loses the p-divisible basis directions), over the first
    # residue extension of the field table that has a trivializer
    res = make_witt_ring(ring.p, ring.q, 1)
    x, fld, D = lang_trivializer(
        _structure_constants(datum),
        [(a + b).reduce_to(res) for a, b in zip(datum.coords(ident), ys)],
        [e.reduce_to(res) for e in datum.basis])
    if D > 1:
        big = make_witt_ring(ring.p, ring.q * D, ring.n)
        datum, g = datum.base_change(big), g.embed(big)
    ring, q = datum.crystal.ring, fld.q
    xt = datum.combine([ring.element(x[a * q:(a + 1) * q])
                        for a in range(len(datum.basis))])
    ident = Matrix.identity(ring, datum.crystal.rank)
    # g1 = xt g Psi(xt^{-1}); Psi on the span is sigma on coordinates
    xt_inv = unit_inverse_matrix(xt)
    inv_co = datum.coords(xt_inv - ident)
    if inv_co is None:
        raise BadShape("inverse left the span")
    psi_inv = ident + datum.combine([y.frobenius() for y in inv_co])
    g1 = xt @ g @ psi_inv
    y1 = datum.coords(g1 - ident)
    j = min((y.valuation() for y in y1 if not y.is_zero()), default=INFINITY)
    if j != INFINITY and j < 1:
        raise InternalError("Lang step failed to clear the residue digit")
    sub = stairs_algebra_run(datum.crystal, g1, datum)
    return _reverified(sub.witness @ xt.embed(sub.ring), sub.level,
                       sub.crystal, g.embed(sub.ring), C.ring.q, "lang")


def _structure_constants(datum):
    """gamma[a][b][c] in [0, p): the residue of the c-th coordinate of
    e_a e_b, read off `product_coords`.  Raises InternalError when a
    residue lies outside F_p, since sigma then does not act on coordinates
    as an algebra automorphism."""
    p, v = datum.crystal.ring.p, len(datum.basis)
    prods = datum.product_coords()
    if None in prods:
        raise NotMultiplicative("products leave the span")
    if any(t % p for co in prods for y in co for t in y.coeffs[1:]):
        raise InternalError("structure constant outside F_p")
    return [[[y.coeffs[0] % p for y in prods[a * v + b]] for b in range(v)]
            for a in range(v)]


# -- composite certificate for the rank-6 thirds family ------------------------


def _block_diag_datum(C0, split_at):
    """Multiplicative lattice on End(M1) + End(M2) for a block-diagonal C0."""
    ring = C0.ring
    r = C0.rank
    r1 = split_at
    E = C0.B.entries
    C1 = FCrystal(ring, Matrix(ring, [row[:r1] for row in E[:r1]]), 0)
    C2 = FCrystal(ring, Matrix(ring, [row[r1:] for row in E[r1:]]), 0)
    d1, d2 = _fixed_datum(C1), _fixed_datum(C2)
    if any(d is None or d.crystal.ring != ring for d in (d1, d2)):
        raise UnsupportedShape("block crystals have no full fixed lattice")
    Z1, Z2 = Matrix.zero(ring, r1), Matrix.zero(ring, r - r1)
    basis = [Matrix.block_diag(e, Z2) for e in d1.basis] + [
        Matrix.block_diag(Z1, e) for e in d2.basis]
    v = len(basis)
    datum = StairsDatum(C0, basis, list(range(v)), [0] * v,
                        max(d1.torsion, d2.torsion), "block-fixed")
    datum.verify(full_end=False)
    return datum, (d1.torsion, d2.torsion)


def thirds_family_certificate(ring, alpha=1, seed=0) -> dict:
    """Machine-verified ingredients of the level-3 determination for the
    rank-6 family with slopes 1/3 and 2/3.

    Checks, all exact: the two unipotent-block lattices are square-zero
    with cycle S-values at most 1 (one of them exactly 1, from the
    rotated (1,...,1,-1) tuple); the block-diagonal fixed lattices have
    torsion exactly 1; a sampled twist supported on each lattice
    trivializes through the matching stairs variant.
    """
    C_a = builtin_crystal(ring, "phi_alpha_4_5", alpha=alpha)
    C_0 = builtin_crystal(ring, "phi_alpha_4_5", alpha=0)
    out = {"upper": 3, "upper_source": "stairs", "components": {}}
    # (name, datum, k): sampled twists in 1 + p^k (span) reach level k + 1;
    # the upper-right block's arrows commute with the alpha twist, so it is
    # verified against the twisted crystal itself
    blocks = []
    for name, C, rows, cols, k in (
            ("upper_block", C_a, (0, 1, 2), (3, 4, 5), 0),
            ("lower_block", C_0, (3, 4, 5), (0, 1, 2), 1)):
        built = _matrix_unit_datum(C, C_0.B, [(i, j) for i in rows
                                              for j in cols])
        if built is None:
            raise UnsupportedShape("base matrix is not monomial")
        datum, tuples = built
        s_values = sorted(deviations(t)[0] for t in tuples)
        if any(s > 1 for s in s_values):
            raise InternalError(f"{name} cycle S-values {s_values} exceed 1")
        out["components"][name] = {
            "square_zero": datum.square_zero,
            "cycle_tuples": tuples,
            "s_values": s_values,
            "rescale_torsion": datum.torsion,
        }
        blocks.append((name, datum, k))
    dL, (m1a, m1b) = _block_diag_datum(C_0, 3)
    out["components"]["diagonal_blocks"] = {
        "torsions": (m1a, m1b),
        "multiplicative": dL.multiplicative,
        "unital": dL.unital,
    }
    blocks.append(("diagonal_blocks", dL, 1))
    # one re-verified trivialization of a lattice-supported twist per block
    rng = random.Random(seed)
    evidence = {}
    for name, datum, k in blocks:
        cert = stairs_algebra_run(datum.crystal, datum.random_twist(k, rng),
                                  datum)
        evidence[name] = int(cert.level >= k + 1)
    out["evidence"] = evidence
    out["trials"] = 1
    return out

"""The stairs method: constructive conjugation of twists back to phi.

Given g congruent to 1 mod p^(n0), the engine peels the defect one
p-digit at a time: the digit is written in a lattice basis of End(M)
permuted by conjugation, a circular residue system is solved per cycle,
and a product of exponentials is applied.  Cycles of positive type may
force base change to a bigger residue field; the whole computation then
moves there (within the built-in field table).
"""

import math
from dataclasses import dataclass, field
from itertools import count

from .bounds import epsilon_p
from .deviation import df_reduce
from .errors import (
    BadShape,
    ExtensionCapExceeded,
    InternalError,
    NotMultiplicative,
    PreconditionTooWeak,
    UnknownField,
    UnsupportedShape,
)
from .plinalg import (
    IntSolver,
    Matrix,
    exp_trunc,
    fp_kernel,
    fp_row_reduce,
    howell_form,
    howell_pivots,
    in_howell_span,
    pack_rows,
    unit_inverse_matrix,
    w_span_rows,
)
from .semilinear import (
    CircularSystem,
    fixed_lattice,
    solve_circular,
)
from .witt import INFINITY, make_witt_ring

# residue-field extensions the fixed-lattice search tries by default: its
# stagnation test compares Howell row counts, which can keep growing with
# the field degree while the free rank stays put, so it needs a bound
FIXED_LATTICE_MAX_EXTENSION = 6


@dataclass
class StairsDatum:
    """A permuted lattice basis of End(M) with uniform-sign cycles."""

    crystal: object
    basis: list            # matrices e_l
    perm: list             # pi as a list, 0-based
    exponents: list        # n_l with conj(e_l) = p^(n_l) e_(pi(l))
    torsion: int           # m: p^m End inside the span, SNF-verified
    cycles: list           # index lists
    signs: list            # +1 / -1 per cycle
    multiplicative: bool
    unital: bool
    square_zero: bool
    strategy: str          # "monomial" | "fixed"
    _solver: object = field(default=None, repr=False, compare=False)
    # base changes by target ring, so later runs reuse their crystal,
    # embedded basis and coordinate solver
    _base_changes: dict = field(default_factory=dict, repr=False,
                                compare=False)

    def coordinate_solver(self):
        """Solver for X = sum y_l e_l: column (l, s) is t^s e_l flattened."""
        if self._solver is None:
            ring = self.crystal.ring
            cols = w_span_rows(self.basis, ring)
            self._solver = IntSolver(*pack_rows(list(zip(*cols)),
                                                ring.p, ring.n))
        return self._solver

    def coords(self, X: Matrix):
        """WittElem coefficients y with X = sum y_l e_l, or None."""
        sol = self.coordinate_solver().solve(X.flatten_ints())
        if sol is None:
            return None
        ring = self.crystal.ring
        q = ring.q
        return [ring.element(sol[l * q:(l + 1) * q])
                for l in range(len(self.basis))]

    def combine(self, ys):
        acc = Matrix.zero(self.crystal.ring, self.crystal.rank,
                          self.crystal.rank)
        for y, e in zip(ys, self.basis):
            if not y.is_zero():
                acc = acc + e.scale(y)
        return acc

    def base_change(self, ring):
        datum = self._base_changes.get(ring)
        if datum is None:
            datum = self._base_changes[ring] = StairsDatum(
                self.crystal.base_change(ring),
                [e.embed(ring) for e in self.basis],
                list(self.perm),
                list(self.exponents),
                self.torsion,
                [list(c) for c in self.cycles],
                list(self.signs),
                self.multiplicative,
                self.unital,
                self.square_zero,
                self.strategy,
            )
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
        for cyc, sign in zip(self.cycles, self.signs):
            exps = [self.exponents[l] for l in cyc]
            if sign > 0 and any(e < 0 for e in exps):
                raise BadShape("positive cycle with a negative exponent")
            if sign < 0 and (any(e > 0 for e in exps)
                             or all(e == 0 for e in exps)):
                raise BadShape("negative cycle must be nonpositive, not all 0")
        if not full_end:
            return True
        # p^m End inside the span
        hw = howell_form(*pack_rows(w_span_rows(self.basis, ring), ring.p,
                                    ring.n))
        piv = howell_pivots(hw, ring.p, ring.n)
        ncoords = C.rank * C.rank * ring.q
        if len(piv) < ncoords or max(v for _, v in piv) > self.torsion:
            raise BadShape("span does not contain p^m End")
        return True


@dataclass
class StairsCertificate:
    witness: Matrix
    level: int
    ring: object
    extension: int        # Q_final / Q_initial
    crystal: object       # the (possibly base-changed) crystal
    twist: Matrix         # the (possibly base-changed) g

    def reverify(self) -> bool:
        """Independent re-check of the conjugation identity."""
        B = self.crystal.B
        g = self.twist
        w = self.witness
        lhs = w @ g @ B @ unit_inverse_matrix(w.sigma())
        diff = lhs - B
        return diff.is_zero() or diff.min_valuation() >= self.level


# -- datum construction -------------------------------------------------------


def build_stairs_datum(C) -> StairsDatum:
    """Monomial matrix-unit datum, else fixed-lattice datum, else error."""
    if C.shift != 0:
        raise BadShape("stairs needs shift 0")
    hits = _monomial_shape(C.B, C.ring)
    if hits is not None:
        r = C.rank
        # matrix units E_(i,j), index l = i*r + j
        fields, _, rescale = _matrix_unit_arrows(
            C.ring, r, hits, [(i, j) for i in range(r) for j in range(r)])
        mult = _is_multiplicative(rescale, r)
        unital = all(rescale[i * r + i] == 0 for i in range(r))
        datum = StairsDatum(C, *fields, mult, unital, False, "monomial")
        datum.verify()
        return datum
    datum = _fixed_datum(C)
    if datum is not None:
        return datum
    raise UnsupportedShape(
        "no lattice basis construction applies; load a datum from file"
    )


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
    to uniform sign by df_reduce (all-zero cycles count as positive).
    Returns ((basis, perm, exponents, torsion, cycles, signs), cycle
    tuples, rescale).
    """
    pos = {ij: l for l, ij in enumerate(idx)}
    perm = [pos[(hits[i][0], hits[j][0])] for (i, j) in idx]
    exps = [hits[i][1] - hits[j][1] for (i, j) in idx]
    cycles = _cycles_of(perm)
    rescale = [0] * len(idx)
    new_exps = list(exps)
    m = 0
    tuples = []
    for cyc in cycles:
        tau = [exps[l] for l in cyc]
        tuples.append(tau)
        red = df_reduce(tau)
        for k, l in enumerate(cyc):
            rescale[l] = red.rescale[k]
            new_exps[l] = red.new_exponents[k]
        m = max(m, max(red.rescale))
    z = ring.zero()
    basis = []
    for l, (i, j) in enumerate(idx):
        ents = [[z] * r for _ in range(r)]
        ents[i][j] = ring.from_int(ring.p ** rescale[l])
        basis.append(Matrix(ring, ents))
    signs = [+1 if all(new_exps[l] >= 0 for l in cyc) else -1
             for cyc in cycles]
    return (basis, perm, new_exps, m, cycles, signs), tuples, rescale


def _is_multiplicative(rescale, r):
    # (p^a E_ij)(p^b E_jk) = p^(a+b) E_ik: need a_ij + b_jk >= a_ik
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if rescale[i * r + j] + rescale[j * r + k] \
                        < rescale[i * r + k]:
                    return False
    return True


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


def _fixed_datum(C, max_extension=FIXED_LATTICE_MAX_EXTENSION):
    """Fixed-lattice datum for crystals whose End has all slopes zero.

    Extends the residue field, up to degree max_extension over C's and
    within the built-in field table, while the fixed rank keeps growing;
    a stagnating deficient rank means End is not isoclinic of slope zero.
    """
    ring = C.ring
    r = C.rank
    prev_rank = -1
    for D in range(1, max_extension + 1):
        try:
            big = make_witt_ring(ring.p, ring.q * D, ring.n)
        except UnknownField:
            return None
        CD = C.base_change(big) if D > 1 else C
        H, expo = fixed_lattice(CD)
        rank = len(H._howell)
        if expo >= big.n:
            if rank <= prev_rank:
                return None
            prev_rank = rank
            continue
        sel = _select_w_basis(H, CD)
        if sel is None:
            if rank <= prev_rank:
                return None
            prev_rank = rank
            continue
        basis, m, hw = sel
        mult = all(in_howell_span((a @ b).flatten_ints(), hw, big.p, big.n)
                   for a in basis for b in basis)
        unital = in_howell_span(Matrix.identity(big, r).flatten_ints(), hw,
                                big.p, big.n)
        datum = StairsDatum(
            CD, basis, list(range(len(basis))), [0] * len(basis),
            m, [[l] for l in range(len(basis))], [+1] * len(basis),
            mult, unital, False, "fixed",
        )
        datum.verify()
        return datum
    return None


def _select_w_basis(H, C):
    """r^2 fixed elements whose W-span has finite lattice exponent.

    Returns (elements, lattice exponent, Howell basis of their W-span).
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
    piv = howell_pivots(current, ring.p, ring.n)
    if len(piv) < r * r * ring.q:
        return None
    m = max(v for _, v in piv)
    if m >= ring.n:
        return None
    return chosen, m, current


# -- the engine ---------------------------------------------------------------


def stairs_run(C, g, datum=None) -> StairsCertificate:
    """Conjugate (M, g phi) back to (M, phi); g = 1 mod p^(2m + eps_p)."""
    if datum is None:
        datum = build_stairs_datum(C)
    ring = datum.crystal.ring
    p, n = ring.p, ring.n
    eps = epsilon_p(p)
    if g.ring != ring:
        g = g.embed(ring)
    lvl = g.congruence_level()
    if lvl < 2 * datum.torsion + eps:
        raise PreconditionTooWeak(
            f"need g = 1 mod p^{2 * datum.torsion + eps}, have {lvl}"
        )
    return _engine(datum, g, algebra_mode=False)


def stairs_algebra_run(C, g, datum=None) -> StairsCertificate:
    """Multiplicative-lattice variant: g in 1 + p^j E, iterates inside E."""
    if datum is None:
        datum = build_stairs_datum(C)
    if not (datum.multiplicative or datum.square_zero):
        raise NotMultiplicative("datum span is not closed under products")
    ring = datum.crystal.ring
    if g.ring != ring:
        g = g.embed(ring)
    ys = datum.coords(g - Matrix.identity(ring, datum.crystal.rank))
    if ys is None:
        raise BadShape("g - 1 is not in the lattice span")
    j = min((y.valuation() for y in ys), default=INFINITY)
    if j == INFINITY:
        j = ring.n
    if datum.square_zero:
        pass  # j = 0 is fine
    elif j < 1:
        raise PreconditionTooWeak("need g in 1 + p E")
    elif ring.p == 2 and j < 2 and not datum.unital:
        raise PreconditionTooWeak(
            "p = 2 with j = 1 needs the identity inside the span"
        )
    return _engine(datum, g, algebra_mode=True)


def _engine(datum, g, algebra_mode) -> StairsCertificate:
    base_q = datum.crystal.ring.q
    g0 = g
    total = Matrix.identity(datum.crystal.ring, datum.crystal.rank)
    defect = g
    rounds = 0
    prev_umin = -1
    while True:
        ring = datum.crystal.ring
        p, n = ring.p, ring.n
        rounds += 1
        if rounds > 3 * n + 6:
            raise InternalError("stairs failed to converge (internal bug)")
        ident = Matrix.identity(ring, datum.crystal.rank)
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
            t = int(min(y.valuation() for y in ys if not y.is_zero()))
            u_list = [t] * len(datum.cycles)
        else:
            u_list = []
            for cyc in datum.cycles:
                vals = [ys[l].valuation() for l in cyc]
                u_list.append(min(vals))
        # solve each cycle's residue system
        xbars = [None] * len(datum.basis)
        ext_needed = 1
        solutions = []
        fld = make_witt_ring(ring.p, ring.q, 1)
        for ci, cyc in enumerate(datum.cycles):
            u_c = u_list[ci]
            if u_c == INFINITY:
                solutions.append(None)
                continue
            u_c = int(u_c)
            L = len(cyc)
            b, c, d = [], [], []
            for pos in range(L):
                l = cyc[pos]
                lprev = cyc[(pos - 1) % L]
                q_l = max(0, -datum.exponents[l])
                q_prev = max(0, -datum.exponents[lprev])
                b.append(fld.from_int(p ** q_l if q_l == 0 else 0))
                d.append(fld.from_int(
                    1 if q_prev + datum.exponents[lprev] == 0 else 0))
                cc = ys[l].divide_exact(u_c).reduce_to(fld)
                c.append(cc)
            sysm = CircularSystem(fld, L, b, c, d)
            case = datum.signs[ci]
            try:
                sol = solve_circular(sysm, case)
            except ExtensionCapExceeded:
                sol = None
            if sol is None:
                solutions = None
                break
            solutions.append(sol)
            ext_needed = _lcm(ext_needed, sol.extension)
        if solutions is None:
            break  # cannot solve within the field table: report progress
        if ext_needed > 1:
            try:
                big = make_witt_ring(ring.p, ring.q * ext_needed, ring.n)
            except UnknownField:
                break  # cannot extend further: report what was achieved
            datum = datum.base_change(big)
            total = total.embed(big)
            defect = defect.embed(big)
            g0 = g0.embed(big)
            continue
        # all cycles solved over the current field: build the update
        step_factors = []
        conj_factors = []
        for ci, cyc in enumerate(datum.cycles):
            sol = solutions[ci]
            if sol is None:
                continue
            u_c = int(u_list[ci])
            for pos, l in enumerate(cyc):
                xb = sol.values[pos]
                if xb.is_zero():
                    continue
                x = ring.element([c % ring.pn for c in xb.coeffs])
                q_l = max(0, -datum.exponents[l])
                step_factors.append((l, x, u_c, q_l))
        step = Matrix.identity(ring, datum.crystal.rank)
        use_plain = (p == 2 and min(
            (u for (_, _, u, _) in step_factors), default=2) < 2) \
            or datum.square_zero
        if use_plain:
            # step = 1 + sum of scaled basis elements; its conjugate is
            # assembled from the arrow formula on the ORIGINAL factors
            # (the truncated inverse would lose digits that conjugation
            # divides back below the precision)
            acc = Matrix.zero(ring, datum.crystal.rank, datum.crystal.rank)
            conj_acc = Matrix.zero(ring, datum.crystal.rank,
                                   datum.crystal.rank)
            for l, x, u_c, q_l in step_factors:
                acc = acc + datum.basis[l].scale(x * p ** (u_c + q_l))
                shift = u_c + q_l + datum.exponents[l]
                conj_acc = conj_acc + datum.basis[datum.perm[l]].scale(
                    x.frobenius() * p ** shift)
            step = ident + acc
            psi_inv = unit_inverse_matrix(ident + conj_acc)
        else:
            for l, x, u_c, q_l in step_factors:
                arg = datum.basis[l].scale(x * p ** (u_c + q_l))
                step = step @ exp_trunc(arg)
            psi_inv = ident
            for l, x, u_c, q_l in reversed(step_factors):
                lp = datum.perm[l]
                shift = u_c + q_l + datum.exponents[l]
                arg = datum.basis[lp].scale(
                    -(x.frobenius() * p ** shift))
                psi_inv = psi_inv @ exp_trunc(arg)
        defect = step @ defect @ psi_inv
        total = step @ total
        prev_umin = int(umin)
    ring = datum.crystal.ring
    final = defect.congruence_level()
    level = ring.n if final == INFINITY else int(final)
    entry = g0.congruence_level()
    if level < ring.n and (entry == INFINITY or level <= entry):
        raise ExtensionCapExceeded(
            f"stairs stalled at level {level} (needs a residue field "
            f"beyond the built-in table)"
        )
    cert = StairsCertificate(
        witness=total,
        level=level,
        ring=ring,
        extension=ring.q // base_q,
        crystal=datum.crystal,
        twist=g0,
    )
    if not cert.reverify():
        raise InternalError("stairs certificate failed re-verification")
    return cert


def _lcm(a, b):
    return a * b // math.gcd(a, b)


# -- slope-zero shortcut ------------------------------------------------------


def lang_run(C, g, datum=None) -> StairsCertificate:
    """First kill the residue digit by a twisted-conjugacy search in the
    abstract unit group of the fixed lattice, then finish with the
    multiplicative stairs; witnesses i-number <= m1 at the sampled g."""
    if datum is None:
        datum = _fixed_datum(C)
        if datum is None:
            raise UnsupportedShape(
                "no full-rank fixed lattice found (End not of slope zero, "
                "or the residue field is too small)"
            )
    if datum.strategy != "fixed" or not datum.unital:
        raise UnsupportedShape("lang shortcut needs a unital fixed lattice")
    ring = datum.crystal.ring
    if g.ring != ring:
        g = g.embed(ring)
    lvl = g.congruence_level()
    if lvl < datum.torsion:
        raise PreconditionTooWeak(
            f"need g = 1 mod p^{datum.torsion}, have {lvl}")
    ident = Matrix.identity(ring, datum.crystal.rank)
    ys = datum.coords(g - ident)
    if ys is None:
        raise BadShape("g - 1 is not in the lattice span")
    one_coords = datum.coords(ident)
    gco = [a + b for a, b in zip(one_coords, ys)]
    xt, datum, g = _abstract_lang(datum, g, gco)
    ring = datum.crystal.ring
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
    total = sub.witness @ xt.embed(sub.ring)
    cert = StairsCertificate(
        witness=total,
        level=sub.level,
        ring=sub.ring,
        extension=sub.ring.q // C.ring.q,
        crystal=sub.crystal,
        twist=g.embed(sub.ring),
    )
    if not cert.reverify():
        raise InternalError("lang certificate failed re-verification")
    return cert


def _abstract_lang(datum, g, gco):
    """Trivialize the residue class of g in the abstract unit group H(k).

    Works in coordinates with the span's structure constants (the
    matrix-level reduction loses the p-divisible basis directions) over
    the first residue extension, within the field table, that has a
    trivializer.  Returns (lift of the trivializer, possibly base-changed
    datum, g).
    """
    ring = datum.crystal.ring
    struct = _structure_constants(datum)
    for D in count(1):
        try:
            fld = make_witt_ring(ring.p, ring.q * D, 1)
        except UnknownField:
            raise ExtensionCapExceeded(
                "no Lang trivializer within the field table") from None
        if D > 1:
            big = make_witt_ring(ring.p, ring.q * D, ring.n)
            datum2 = datum.base_change(big)
            g2 = g.embed(big)
        else:
            datum2, g2 = datum, g
        gbar = [ring2_reduce(c, fld) for c in
                (gco if D == 1 else [c.embed(datum2.crystal.ring)
                                     for c in gco])]
        x = _abstract_lang_search(datum2, struct, gbar, fld)
        if x is not None:
            return x, datum2, g2


def ring2_reduce(c, fld):
    if c.ring.q == fld.q:
        return c.reduce_to(fld)
    return c.reduce_to(make_witt_ring(c.ring.p, c.ring.q, 1)).embed(fld)


def _structure_constants(datum):
    """gamma[a][b] = coordinates of e_a e_b in the basis (WittElems)."""
    out = []
    for a, ea in enumerate(datum.basis):
        row = []
        for b, eb in enumerate(datum.basis):
            co = datum.coords(ea @ eb)
            if co is None:
                raise NotMultiplicative("products leave the span")
            row.append(co)
        out.append(row)
    return out


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


def _abstract_lang_search(datum, struct, gbar, fld):
    """x-bar with sigma(x) = x * g in the abstract algebra over fld."""
    p = fld.p
    v = len(datum.basis)
    q = fld.q
    nv = v * q
    struct = [[[ring2_reduce(c, fld) for c in co] for co in row]
              for row in struct]

    def unpack(vec):
        return [fld.element(vec[a * q:(a + 1) * q]) for a in range(v)]

    images = []
    for k in range(nv):
        vec = [0] * nv
        vec[k] = 1
        xc = unpack(vec)
        sx = [c.frobenius() for c in xc]
        xg = _mul_coords(xc, gbar, struct, fld)
        diff = [a - b for a, b in zip(sx, xg)]
        flat = []
        for c in diff:
            flat.extend(c.coeffs)
        images.append(flat)
    kern = fp_kernel([list(col) for col in zip(*images)], p)
    if not kern:
        return None
    import random as _random
    rng = _random.Random(0)
    dim = len(kern)
    tries = min(p ** dim - 1, 512)
    seen = set()
    for _ in range(tries):
        coeffs = tuple(rng.randrange(p) for _ in range(dim))
        if not any(coeffs) or coeffs in seen:
            continue
        seen.add(coeffs)
        vec = [0] * nv
        for cf, kv in zip(coeffs, kern):
            if cf:
                for t in range(nv):
                    vec[t] = (vec[t] + cf * kv[t]) % p
        xc = unpack(vec)
        if _abstract_unit(xc, struct, fld, v):
            # lift coordinates and assemble the matrix
            ring = datum.crystal.ring
            lifted = [ring.element([cc % ring.pn for cc in c.coeffs])
                      for c in xc]
            return datum.combine(lifted)
    return None


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


# -- composite certificate for the rank-6 thirds family ------------------------


def _unipotent_datum(C, block_rows, block_cols, base_B):
    """Square-zero lattice datum on Hom(block_cols, block_rows) inside End.

    Arrows are computed from the monomial base matrix; cycle tuples are
    reduced to uniform sign.  Verified against C's own matrix (exact).
    """
    hits = _monomial_shape(base_B, C.ring)
    if hits is None:
        raise UnsupportedShape("base matrix is not monomial")
    idx = [(i, j) for i in block_rows for j in block_cols]
    fields, tuples, _ = _matrix_unit_arrows(C.ring, C.rank, hits, idx)
    datum = StairsDatum(C, *fields, True, False, True, "unipotent")
    datum.verify(full_end=False)
    return datum, tuples


def _block_diag_datum(C0, split_at):
    """Multiplicative lattice on End(M1) + End(M2) for a block-diagonal C0."""
    ring = C0.ring
    r = C0.rank
    r1 = split_at
    ents1 = [[C0.B[i, j] for j in range(r1)] for i in range(r1)]
    ents2 = [[C0.B[i, j] for j in range(r1, r)] for i in range(r1, r)]
    from .crystal import FCrystal
    C1 = FCrystal(ring, Matrix(ring, ents1), 0)
    C2 = FCrystal(ring, Matrix(ring, ents2), 0)
    d1 = _fixed_datum(C1, 1)
    d2 = _fixed_datum(C2, 1)
    if d1 is None or d2 is None:
        raise UnsupportedShape("block crystals have no full fixed lattice")
    z = ring.zero()
    basis = []
    for e in d1.basis:
        ents = [[z] * r for _ in range(r)]
        for i in range(r1):
            for j in range(r1):
                ents[i][j] = e[i, j]
        basis.append(Matrix(ring, ents))
    for e in d2.basis:
        ents = [[z] * r for _ in range(r)]
        for i in range(r - r1):
            for j in range(r - r1):
                ents[i + r1][j + r1] = e[i, j]
        basis.append(Matrix(ring, ents))
    v = len(basis)
    datum = StairsDatum(C0, basis, list(range(v)), [0] * v,
                        max(d1.torsion, d2.torsion),
                        [[l] for l in range(v)], [+1] * v,
                        True, True, False, "block-fixed")
    datum.verify(full_end=False)
    return datum, (d1.torsion, d2.torsion)


def thirds_family_certificate(ring, alpha=1, trials=2, seed=0) -> dict:
    """Machine-verified ingredients of the level-3 determination for the
    rank-6 family with slopes 1/3 and 2/3.

    Checks, all exact: the two unipotent-block lattices are square-zero
    with cycle S-values at most 1 (one of them exactly 1, from the
    rotated (1,...,1,-1) tuple); the block-diagonal fixed lattices have
    torsion exactly 1; sampled twists supported on each lattice
    trivialize through the matching stairs variant.
    """
    import random
    from .crystal import builtin_crystal
    from .deviation import deviations
    C_a = builtin_crystal(ring, "phi_alpha_4_5", alpha=alpha)
    C_0 = builtin_crystal(ring, "phi_alpha_4_5", alpha=0)
    out = {"upper": 3, "upper_source": "stairs", "components": {}}
    # upper-right block: arrows commute with the alpha twist, so verify
    # against the twisted crystal itself
    dU1, tuples1 = _unipotent_datum(C_a, (0, 1, 2), (3, 4, 5), C_0.B)
    s_values = sorted(deviations(t)[0] for t in tuples1)
    if any(s > 1 for s in s_values):
        raise InternalError(f"upper-block cycle S-values {s_values} exceed 1")
    out["components"]["upper_block"] = {
        "square_zero": True,
        "cycle_tuples": tuples1,
        "s_values": s_values,
        "rescale_torsion": dU1.torsion,
    }
    dU2, tuples2 = _unipotent_datum(C_0, (3, 4, 5), (0, 1, 2), C_0.B)
    out["components"]["lower_block"] = {
        "square_zero": True,
        "cycle_tuples": tuples2,
        "s_values": sorted(deviations(t)[0] for t in tuples2),
        "rescale_torsion": dU2.torsion,
    }
    dL, (m1a, m1b) = _block_diag_datum(C_0, 3)
    out["components"]["diagonal_blocks"] = {
        "torsions": (m1a, m1b),
        "multiplicative": dL.multiplicative,
        "unital": dL.unital,
    }
    # sampled trivializations of lattice-supported twists
    rng = random.Random(seed)
    p = ring.p
    evidence = {"upper_block": 0, "lower_block": 0, "diagonal_blocks": 0}
    for _ in range(trials):
        co = [ring.random_element(rng) for _ in dU1.basis]
        g = Matrix.identity(ring, 6) + dU1.combine(co)
        cert = stairs_algebra_run(C_a, g, dU1)
        if cert.reverify() and cert.level >= 1:
            evidence["upper_block"] += 1
        co = [ring.random_element(rng) * p for _ in dU2.basis]
        g = Matrix.identity(ring, 6) + dU2.combine(co)
        cert = stairs_algebra_run(C_0, g, dU2)
        if cert.reverify() and cert.level >= 2:
            evidence["lower_block"] += 1
        co = [ring.random_element(rng) * p for _ in dL.basis]
        g = Matrix.identity(ring, 6) + dL.combine(co)
        cert = stairs_algebra_run(C_0, g, dL)
        if cert.reverify() and cert.level >= 2:
            evidence["diagonal_blocks"] += 1
    out["evidence"] = evidence
    out["trials"] = trials
    return out

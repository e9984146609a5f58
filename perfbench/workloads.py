"""The four workloads.

Each workload builds its fixed data in `setup` and then hands out ops: a
round of calls into the program on freshly generated inputs, drawn from
the seed, so no input is decided twice in a run.  `next_op` returns the
op's parts, timed one by one, and a `check` of their results, not timed.
A round, not a single call, is the op because the calls of a round span
orders of magnitude (or, in isom-negative, are too few to give a steady
median).
"""

import contextlib
import io
import os
import random
import shutil

# the timed calls look their entry point up on the package at call time,
# so that a traced run reaches the wrappers spans.py installs there
import fcrystals as fc
import fcrystals.cli
from fcrystals import (
    Matrix,
    build_stairs_datum,
    builtin_crystal,
    cyclic_from_exponents,
    hom_module,
    make_witt_ring,
    new_crystal,
)
from fcrystals import witt as _witt
from fcrystals.crystal import PolarizedCrystal
from fcrystals.files import write_crystal
from fcrystals.plinalg import unit_inverse_matrix

from arith import Ring, is_invertible, mat_from_entries, mat_of, require
from checks import (
    check_conjugation,
    check_deviation,
    check_intertwiner,
    check_negative,
    check_newton_above_hodge,
    epsilon_p,
    one_json_document,
    slopes_of,
)


def cold_rings():
    """Forget every cached Witt ring, so set-up pays for building them."""
    _witt._ring_cache.clear()


def random_matrix(ring, r, rng, scale=1, integral=False):
    def entry():
        if integral:
            return ring.from_int(rng.randrange(ring.pn) * scale)
        return ring.element([rng.randrange(ring.pn) * scale
                             for _ in range(ring.q)])
    return Matrix(ring, [[entry() for _ in range(r)] for _ in range(r)])


def random_unit(ring, r, rng):
    """A dense unit matrix; invertibility is decided mod p."""
    R = Ring.of(ring)
    while True:
        u = random_matrix(ring, r, rng)
        if is_invertible(R, mat_of(u)):
            return u


def permutation_matrix(ring, perm):
    return Matrix(ring, [[ring.one() if perm[i] == j else ring.zero()
                          for j in range(len(perm))]
                         for i in range(len(perm))])


def residues(M, p):
    """The matrix mod p, as a hashable key."""
    return tuple(tuple(c % p for c in e) for row in mat_of(M) for e in row)


def conjugate(C, u):
    """The crystal u B sigma(u)^-1, isomorphic to C."""
    return new_crystal(C.ring, u @ C.B @ unit_inverse_matrix(u.sigma()), 0)


def twist(ring, r, level, rng):
    """g = 1 + p^level X with X dense and random."""
    return Matrix.identity(ring, r) + random_matrix(ring, r, rng,
                                                    scale=ring.p ** level)


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)

    def setup(self):
        raise NotImplementedError

    def next_op(self):
        """(parts, check): calling each part in turn runs one round, and
        check(results) raises CheckFailed on a wrong output.  A part that
        runs for seconds gets the host's speed measured around it alone."""
        raise NotImplementedError

    def close(self):
        pass


# -- isom-negative -----------------------------------------------------------


class IsomNegative(Workload):
    """Definitive 'not isomorphic' on the rank-6 thirds family.

    Each pair takes alphas from different cube classes of the residue
    field (over F_8 every nonzero alpha is a cube, so only 0 against a
    unit), and the second crystal is replaced by a fresh conjugate under
    u = P (1 + pX), P a permutation matrix.  The 2^18 scan reads only the
    residues, which P permutes and 1 + pX keeps: P is drawn again until
    the residues differ from those of every earlier op of the run, so a
    cache keyed on them cannot make a later op free, while the scan's
    cost stays that of a permuted copy of the same sparse module.
    Polarized pairs use an integral X, which sigma fixes (as it fixes P),
    so the form carries over as u^-T J u^-1.  One op is a round of the
    four kinds: single decisions of 3 to 5 s are too few in a run for a
    median that does not hinge on which kind sits in the middle.
    """

    name = "isom-negative"
    # (q, polarized, alpha1, alpha2) over W_4(F_{2^q})
    KINDS = [
        (6, False, "1", "t"),
        (6, True, "1", "t2"),
        (3, False, "0", "1"),
        (3, True, "0", "t"),
    ]

    def setup(self):
        cold_rings()
        self.kinds = []
        for q, polarized, a1, a2 in self.KINDS:
            ring = make_witt_ring(2, q, 4)
            alpha = {"0": ring.zero(), "1": ring.one(), "t": ring.gen(),
                     "t2": ring.gen() * ring.gen()}
            family = "polarized_4_5_4" if polarized else "phi_alpha_4_5"
            X1 = builtin_crystal(ring, family, alpha=alpha[a1])
            X2 = builtin_crystal(ring, family, alpha=alpha[a2])
            self.kinds.append((ring, polarized, X1, X2))
        self.end_orders = {}
        self.seen = [set() for _ in self.kinds]   # residues of C2 so far

    def _end_orders(self, k):
        # orders of End(C1), End(C2); conjugation does not change them
        if k not in self.end_orders:
            _, polarized, X1, X2 = self.kinds[k]
            C1, C2 = (X1.base, X2.base) if polarized else (X1, X2)
            self.end_orders[k] = (hom_module(C1, C1).size_log(),
                                  hom_module(C2, C2).size_log())
        return self.end_orders[k]

    def next_op(self):
        parts = [self._decision(k) for k in range(len(self.kinds))]

        def check(results):
            for (_, chk), res in zip(parts, results):
                chk(res)
        return [decide for decide, _ in parts], check

    def _decision(self, k):
        ring, polarized, X1, X2 = self.kinds[k]
        p = ring.p
        B2 = X2.base.B if polarized else X2.B
        while True:
            P = permutation_matrix(ring, self.rng.sample(range(6), 6))
            key = residues(P @ B2 @ P.transpose(), p)
            if key not in self.seen[k]:
                self.seen[k].add(key)
                break
        u = P @ (Matrix.identity(ring, 6) + random_matrix(
            ring, 6, self.rng, scale=p, integral=polarized))
        if polarized:
            ui = unit_inverse_matrix(u)
            C2 = new_crystal(ring, u @ B2 @ ui, 0)
            Y2 = PolarizedCrystal(C2, ui.transpose() @ X2.J @ ui, X2.c)
            C1 = X1.base

            def decide():
                return fc.polarized_isom_search(X1, Y2)
        else:
            C1, C2 = X1, conjugate(X2, u)

            def decide():
                return fc.isom_search(C1, C2)

        def check(res):
            check_negative(res.witness is not None, res.regime,
                           hom_module(C1, C2).size_log(),
                           self._end_orders(k))
        return decide, check


# -- isom-witness ------------------------------------------------------------


class IsomWitness(Workload):
    """'Isomorphic' decisions between a crystal and a fresh dense
    conjugate u B sigma(u)^-1, over p in {2,3,5,7}, q in {1,2,3,6} and
    ranks 2 to 6.  The scan stops after a few determinants, so the time
    goes to the Hom module: the intertwiner system, its Smith form and the
    Howell basis."""

    name = "isom-witness"
    FAMILIES = [
        # (p, q, n, family, params)
        (7, 1, 6, "ordinary", {"r": 4, "d": 2}),
        (5, 2, 4, "ordinary", {"r": 3, "d": 1}),
        (3, 2, 4, "supersingular", {"d": 1}),
        (2, 6, 4, "supersingular", {"d": 1}),
        (5, 2, 3, "supersingular", {"d": 2}),
        (2, 3, 4, "isoclinic_3_3_6", {"r": 3, "c": 2}),
        (3, 3, 3, "isoclinic_3_3_6", {"r": 3, "c": 2}),
        (2, 6, 3, "isoclinic_3_3_6", {"r": 3, "c": 2}),
        (2, 3, 4, "phi_alpha_4_5", {"alpha": 1}),
        (2, 1, 4, "phi_alpha_4_5", {"alpha": 1}),
        (7, 1, 4, "cyclic", {"tau": [0, 1, 0, 1, 1]}),
        (3, 2, 3, "cyclic", {"tau": [1, 0, 1, 0]}),
    ]

    def setup(self):
        cold_rings()
        self.crystals = []
        for p, q, n, family, params in self.FAMILIES:
            ring = make_witt_ring(p, q, n)
            if family == "cyclic":
                C = cyclic_from_exponents(ring, params["tau"])
            else:
                C = builtin_crystal(ring, family, **params)
            self.crystals.append((C, Ring.of(ring)))

    def next_op(self):
        pairs = []
        for C, R in self.crystals:
            pairs.append((C, conjugate(C, random_unit(C.ring, C.rank,
                                                      self.rng)), R))

        def call():
            return [fc.isom_search(C1, C2) for C1, C2, _ in pairs]

        def check(results):
            for (C1, C2, R), res in zip(pairs, results):
                require(res.witness is not None,
                        "no witness for an isomorphic pair")
                check_intertwiner(R, mat_of(C1.B), mat_of(C2.B),
                                  mat_of(res.witness), R.n, unit=True)
        return [call], lambda results: check(*results)


# -- stairs-witness ----------------------------------------------------------


class StairsWitness(Workload):
    """stairs_run on the stairs-soundness families at the threshold level
    2m + eps_p, stairs_algebra_run on ordinary crystals, and lang_run at
    p = 2, all on random twists.  The stairs data are built at set-up."""

    name = "stairs-witness"
    STAIRS = [
        # (family, params, p, q, n, twist kind)
        ("ordinary", {"r": 2, "d": 1}, 2, 1, 4, "general"),
        ("ordinary", {"r": 2, "d": 1}, 3, 1, 2, "general"),
        ("supersingular", {"d": 1}, 2, 2, 5, "general"),
        ("supersingular", {"d": 1}, 3, 2, 4, "lattice"),
        ("isoclinic_3_3_6", {"r": 3, "c": 2}, 2, 3, 5, "general"),
        ("isoclinic_3_3_6", {"r": 3, "c": 2}, 3, 3, 4, "lattice"),
    ]
    # stairs_algebra_run: ordinary rank 2, twist level j
    ALGEBRA = [(3, 1, 3, 1), (5, 1, 3, 1)]
    # lang_run: supersingular over W_2(F_4), twist level 1
    LANG = [(2, 2, 2, 1)]

    def setup(self):
        cold_rings()
        self.stairs = []
        for family, params, p, q, n, kind in self.STAIRS:
            ring = make_witt_ring(p, q, n)
            C = builtin_crystal(ring, family, **params)
            datum = build_stairs_datum(C)
            self.stairs.append((C, datum, kind))
        self.algebra = []
        for p, q, n, j in self.ALGEBRA:
            ring = make_witt_ring(p, q, n)
            C = builtin_crystal(ring, "ordinary", r=2, d=1)
            self.algebra.append((C, build_stairs_datum(C), j))
        self.lang = []
        for p, q, n, j in self.LANG:
            ring = make_witt_ring(p, q, n)
            self.lang.append((builtin_crystal(ring, "supersingular", d=1), j))

    def next_op(self):
        rng = self.rng
        jobs = []
        for C, datum, kind in self.stairs:
            ring = C.ring
            level = 2 * datum.torsion + epsilon_p(ring.p)
            if kind == "general":
                g = twist(ring, C.rank, level, rng)
            else:
                co = [ring.element([rng.randrange(ring.pn) * ring.p ** level
                                    for _ in range(ring.q)])
                      for _ in datum.basis]
                g = Matrix.identity(ring, C.rank) + datum.combine(co)
            jobs.append(("stairs_run", C, g, datum, datum.torsion))
        for C, datum, j in self.algebra:
            g = twist(C.ring, C.rank, j, rng)
            jobs.append(("stairs_algebra_run", C, g, datum, datum.torsion))
        for C, j in self.lang:
            g = twist(C.ring, C.rank, j, rng)
            jobs.append(("lang_run", C, g, None, 1))

        def call():
            return [getattr(fc, fn)(C, g, datum)
                    for fn, C, g, datum, _ in jobs]

        def check(certs):
            for (_, C, g, _, torsion), cert in zip(jobs, certs):
                base = Ring.of(C.ring)
                big = Ring.of(cert.ring)
                check_conjugation(base, big, mat_of(C.B), mat_of(g),
                                  mat_of(cert.witness), cert.level, torsion)
        return [call], lambda results: check(*results)


# -- cli-session -------------------------------------------------------------


def run_cli(argv):
    """One in-process command: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            fcrystals.cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class CliSession(Workload):
    """One round of command-line calls on files: polygons, deviation,
    bounds, hom, isom (found and definitive negative), stairs with and
    without a stored datum, and probes.  Most files are q = 1 at a higher
    precision; the crystals and twists of each round are new."""

    name = "cli-session"
    PROBES = [
        # (file, p, q, n, family, params, expected upper, source)
        ("etale", 3, 1, 6, "ordinary", {"r": 2, "d": 0}, 0, "h0"),
        ("ordinary", 3, 1, 6, "ordinary", {"r": 2, "d": 1}, 1, "stairs"),
        ("supersingular", 3, 2, 4, "supersingular", {"d": 1}, 1, "lang"),
    ]
    POLY_TAU = [0, 1, 0, 1]    # cyclic, rank 4: Hodge 0,0,1,1, Newton 1/2 x4

    def setup(self):
        cold_rings()
        d = self.workdir
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        self.files = {}
        for name, p, q, n, family, params, _, _ in self.PROBES:
            path = os.path.join(d, f"probe-{name}.json")
            write_crystal(path, builtin_crystal(make_witt_ring(p, q, n),
                                                family, **params))
            self.files[name] = path
        # stairs with a stored datum, and without one
        self.stored = builtin_crystal(make_witt_ring(5, 1, 6), "ordinary",
                                      r=3, d=1)
        datum = build_stairs_datum(self.stored)
        self.stored_torsion = datum.torsion
        self.files["stored"] = os.path.join(d, "stairs-stored.json")
        write_crystal(self.files["stored"], self.stored, datum)
        self.plain = builtin_crystal(make_witt_ring(2, 1, 4), "ordinary",
                                     r=3, d=1)
        self.plain_torsion = build_stairs_datum(self.plain).torsion
        self.files["plain"] = os.path.join(d, "stairs-plain.json")
        write_crystal(self.files["plain"], self.plain)
        self.poly = cyclic_from_exponents(make_witt_ring(3, 1, 8),
                                          self.POLY_TAU)
        self.hom_base = builtin_crystal(make_witt_ring(7, 1, 5), "ordinary",
                                        r=3, d=1)
        neg_ring = make_witt_ring(3, 1, 4)
        self.neg = (builtin_crystal(neg_ring, "ordinary", r=2, d=1),
                    builtin_crystal(neg_ring, "supersingular", d=1))
        self.round_no = 0

    def _write(self, name, obj):
        path = os.path.join(self.workdir, name)
        write_crystal(path, obj)
        return path

    def next_op(self):
        rng = self.rng
        k = self.round_no
        self.round_no += 1
        ops = []

        # polygons of a fresh conjugate
        C = conjugate(self.poly, random_unit(self.poly.ring, 4, rng))
        f = self._write(f"poly-{k}.json", C)
        hodge = {}

        def check_hodge(out):
            hodge["slopes"] = slopes_of(out)
            require(hodge["slopes"] == sorted(self.POLY_TAU),
                    "Hodge slopes differ from the construction")

        def check_newton(out):
            check_newton_above_hodge(slopes_of(out), hodge["slopes"])
        ops.append((["polygon", f], 0, check_hodge))
        ops.append((["polygon", f, "--newton"], 0, check_newton))

        # deviation of a random tuple
        tau = [rng.randrange(-3, 4) for _ in range(rng.randrange(3, 9))]
        ops.append((["deviation", ",".join(map(str, tau))], 0,
                    lambda out, tau=tau: check_deviation(tau, out)))

        # bounds: the hand values, and two identities between commands
        p = rng.choice([2, 3, 5, 7])
        a, c = rng.randrange(1, 7), rng.randrange(0, 5)
        eps = epsilon_p(p)
        seen = {}

        def expect(value):
            def chk(out):
                require(int(out["bound"]) == value,
                        f"bound {out['bound']} != {value}")
            return chk

        def keep(key):
            def chk(out):
                seen[key] = int(out["bound"])
            return chk
        ops += [
            (["bound", "--rank", "1", "--h-number", str(c)], 0, expect(0)),
            (["bound", "--rank", str(a)], 0, expect(0)),
            (["bound", "--rank", "2", "--h-number", "1"], 0, expect(2)),
            (["bound", "--pdiv", "3", "0", "--p", str(p)], 0, expect(0)),
            (["bound", "--pdiv", "3", "3", "--p", str(p)], 0, expect(0)),
            (["bound", "--rank", "4", "--h-number", "2"], 0, keep("d42")),
            (["bound", "--pdiv", "2", "1", "--p", str(p)], 0,
             lambda out: expect(2 * (3 + seen["d42"]) + eps)(out)),
            (["bound", "--rank", "3", "--h-number", "2"], 0, keep("d32")),
            (["bound", "--polarized", "1", "--p", str(p)], 0,
             lambda out: expect(2 * (2 + seen["d32"]) + eps)(out)),
        ]

        # hom and isom between a crystal and a fresh conjugate
        H1 = self.hom_base
        H2 = conjugate(H1, random_unit(H1.ring, H1.rank, rng))
        f1 = self._write(f"hom-a-{k}.json", H1)
        f2 = self._write(f"hom-b-{k}.json", H2)
        R = Ring.of(H1.ring)
        B1, B2 = mat_of(H1.B), mat_of(H2.B)
        prec = rng.randrange(2, H1.ring.n + 1)

        def check_hom(out):
            require(out["precision"] == prec, "wrong precision")
            require(len(out["exponents"]) == len(out["basis"]),
                    "profile and basis differ in length")
            require(out["free_rank"] == out["exponents"].count(0),
                    "free rank is not the number of free generators")
            for b in out["basis"]:
                check_intertwiner(R, B1, B2, mat_from_entries(b), prec,
                                  unit=False)

        def check_isom(out):
            require(out["found"], "no witness for an isomorphic pair")
            check_intertwiner(R, B1, B2, mat_from_entries(out["witness"]),
                              R.n, unit=True)
        ops.append((["hom", f1, f2, "--prec", str(prec)], 0, check_hom))
        ops.append((["isom", f1, f2], 0, check_isom))

        # definitive negative: Newton slopes {0, 1} against {1/2, 1/2}
        N1, N2 = self.neg
        N2 = conjugate(N2, random_unit(N2.ring, 2, rng))
        g1 = self._write(f"neg-a-{k}.json", N1)
        g2 = self._write(f"neg-b-{k}.json", N2)

        def check_neg(out):
            require(not out["found"] and out["regime"] == "exhaustive",
                    "isom of crystals with different Newton slopes is not "
                    "a definitive negative")
        ops.append((["isom", g1, g2], 1, check_neg))

        # stairs, with the datum read from the file and without
        for key, C, torsion in (("stored", self.stored, self.stored_torsion),
                                ("plain", self.plain, self.plain_torsion)):
            ring = C.ring
            level = 2 * torsion + epsilon_p(ring.p)
            g = twist(ring, C.rank, level, rng)
            tw = self._write(f"twist-{key}-{k}.json", new_crystal(ring, g, 0))

            def check_stairs(out, C=C, g=g, torsion=torsion):
                require(out["verified"], "stairs reported unverified")
                big_ring = make_witt_ring(C.ring.p, out["field_degree"],
                                          C.ring.n)
                check_conjugation(Ring.of(C.ring), Ring.of(big_ring),
                                  mat_of(C.B), mat_of(g),
                                  mat_from_entries(out["witness"]),
                                  out["level"], torsion)
            ops.append((["stairs", self.files[key], "--twist-file", tw], 0,
                        check_stairs))

        # probes: etale 0, ordinary 1, supersingular 1
        for name, _, _, _, _, _, upper, source in self.PROBES:
            def check_probe(out, upper=upper, source=source):
                require((out["upper"], out["upper_source"]) == (upper, source),
                        f"probe gave {out['upper']} from "
                        f"{out['upper_source']}, expected {upper} from "
                        f"{source}")
            ops.append((["probe", self.files[name], "--seed",
                         str(rng.randrange(1 << 30))], 0, check_probe))

        def call():
            return [run_cli(argv) for argv, _, _ in ops]

        def check(results):
            for (argv, code, chk), (got, stdout) in zip(ops, results):
                require(got == code,
                        f"{argv[0]} exited {got}, expected {code}")
                chk(one_json_document(stdout))
        return [call], lambda results: check(*results)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (IsomNegative, IsomWitness, StairsWitness,
                                 CliSession)}

"""Command-line front end: JSON lines on stdout, diagnostics on stderr.

Exit codes: 0 success / witness found, 1 definitive negative (for
`isom`, regime "exhaustive": the span scanned or ruled out by group
type), 2 input error, 3 precision exhausted, 4 inconclusive (randomized
regime, or a search space too large), 5 internal error (a bug, never a
result).
Library errors reach their code through EXIT_CODES alone.
"""

import argparse
import functools
import json
import random
import sys

from .bounds import (
    MAX_BOUND_RANK,
    d_plus_bound,
    n_fam_bound,
    truncation_level_bound,
)
from .conway import require_prime
from .crystal import PolarizedCrystal, hodge_data, newton_polygon, random_twist
from .deviation import deviations, df_reduce
from .errors import (
    CrystalError,
    ExtensionCapExceeded,
    PrecisionExhausted,
    SearchSpaceTooLarge,
)
from .files import matrix_to_entries, read_crystal
from .semilinear import hom_module, isom_search
from .stairs import build_stairs_datum, stairs_run
from .truncation import i_number_probe, polarized_isom_search
from .verify import run_paper_suite

# The one map from library errors to exit codes: main takes the first
# entry the raised error is an instance of, so subclasses come first.
EXIT_CODES = ((PrecisionExhausted, 3), (ExtensionCapExceeded, 3),
              (SearchSpaceTooLarge, 4), (CrystalError, 2))


def _out(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _err(msg):
    sys.stderr.write(f"error: {msg}\n")


def _int_at_least(low):
    """argparse type: an int >= low (argparse names the flag and exits 2)."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"need >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's message for a non-integer
    return parse


def _load(path, want_datum=False):
    try:
        return read_crystal(path, want_datum=want_datum)
    except (OSError, ValueError, CrystalError) as exc:
        _err(f"cannot read {path}: {exc}")
        raise SystemExit(2)


def _base(obj):
    """The crystal of a file, without its polarization."""
    return obj.base if isinstance(obj, PolarizedCrystal) else obj


def cmd_polygon(args):
    C = _base(_load(args.file))
    hodge, s, h = hodge_data(C)
    poly = newton_polygon(C) if args.newton else hodge
    _out({
        "slopes": [[x.numerator, x.denominator, m] for x, m in poly.points],
        "s": s,
        "h": h,
    })
    return 0


def cmd_deviation(args):
    try:
        tau = [int(x) for x in args.tuple.split(",") if x.strip() != ""]
        if not tau:
            raise ValueError("empty tuple")
        # a tuple of length l is a rank-l cyclic crystal, and the
        # reductions are quadratic in l
        if len(tau) > MAX_BOUND_RANK:
            raise ValueError(f"{len(tau)} entries exceed the maximum "
                             f"{MAX_BOUND_RANK}")
    except ValueError as exc:
        _err(f"bad tuple: {exc}")
        return 2
    s, w = deviations(tau)
    red = df_reduce(tau)
    _out({"S": s, "W": w, "rescale": red.rescale,
          "reduced": red.new_exponents})
    return 0


def cmd_bound(args):
    require_prime(args.p)
    if args.pdiv is not None:
        r, d = args.pdiv
        val = truncation_level_bound("pdiv", r, args.p, d=d)
        formula = "2*d(r^2,1,2)+eps_p" if d not in (0, r) else "0"
    elif args.polarized is not None:
        val = truncation_level_bound("polarized", args.polarized, args.p)
        formula = "2*d(2d^2+d,1,2)+eps_p"
    elif args.rank is not None:
        if args.fam:
            val = n_fam_bound(args.rank, args.s, args.h_number, args.p)
            formula = "2*d(v,s,h)+eps_p"
        else:
            val = d_plus_bound(args.rank, args.s, args.h_number)
            formula = "b*(a-1)+D0(a,c)"
    else:
        _err("need --rank, --pdiv, or --polarized")
        return 2
    _out({"bound": str(val), "formula": formula})
    return 0


def cmd_hom(args):
    H = hom_module(_base(_load(args.file1)), _base(_load(args.file2)),
                   args.prec)
    _out({
        "precision": H.precision,
        "exponents": H.profile,
        "free_rank": H.rank_free(),
        "basis": [matrix_to_entries(b) for b in H.basis],
    })
    return 0


def cmd_isom(args):
    C1 = _load(args.file1)
    C2 = _load(args.file2)
    if isinstance(C1, PolarizedCrystal) and isinstance(C2, PolarizedCrystal):
        res = polarized_isom_search(C1, C2, args.prec)
    else:
        res = isom_search(_base(C1), _base(C2), args.prec, seed=args.seed)
    found = res.witness is not None
    out = {"found": found, "regime": res.regime}
    if found:
        out["witness"] = matrix_to_entries(res.witness)
    _out(out)
    if found:
        return 0
    return 1 if res.regime == "exhaustive" else 4


def cmd_stairs(args):
    obj, datum = _load(args.file, want_datum=True)
    C = _base(obj)
    if args.twist_file:
        g = _base(_load(args.twist_file)).B
    else:
        g = random_twist(C.ring, C.rank, args.twist_level,
                         random.Random(args.seed))
    if datum is None:
        datum = build_stairs_datum(C)
    cert = stairs_run(C, g, datum)  # re-verified, else InternalError
    _out({
        "verified": True,
        "level": cert.level,
        "field_degree": cert.ring.q,
        "extension": cert.extension,
        "witness": matrix_to_entries(cert.witness),
    })
    return 0


def cmd_probe(args):
    C = _base(_load(args.file))
    _out(i_number_probe(C, trials=args.trials, seed=args.seed))
    return 0


def cmd_verify(args):
    results = run_paper_suite(seed=args.seed, emit=_out, fast=args.fast)
    failed = [r for r in results if not r["ok"]]
    sys.stderr.write(
        f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return 1 if failed else 0


@functools.cache
def build_parser():
    """The parser, built on the first call and shared after it: parse_args
    makes a new namespace per call, and the handlers it names look their
    callees up when they run."""
    ap = argparse.ArgumentParser(
        prog="fcrystals",
        description="exact computations with F-crystals at finite precision",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polygon", help="hodge/newton slopes of a crystal file")
    p.add_argument("file")
    p.add_argument("--newton", action="store_true")
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("deviation", help="sign/value deviation of a tuple")
    p.add_argument("tuple", help="comma-separated integers, at most "
                   f"{MAX_BOUND_RANK} of them")
    p.set_defaults(func=cmd_deviation)

    p = sub.add_parser("bound", help="effective torsion/truncation bounds")
    p.add_argument("--rank", type=int)
    p.add_argument("--s", type=int, default=0,
                   help="s-number, at most 10^1000")
    p.add_argument("--h-number", type=int, default=0,
                   help="h-number, at most 10^1000")
    p.add_argument("--fam", action="store_true",
                   help="report the family bound 2d+eps instead of d")
    p.add_argument("--pdiv", nargs=2, type=int, metavar=("R", "D"))
    p.add_argument("--polarized", type=int, metavar="D")
    p.add_argument("--p", type=int, default=2,
                   help="a prime, at most 2^32")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("hom", help="Hom module of two files (a Howell basis)")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--prec", type=_int_at_least(1), default=None)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("isom", help="isomorphism search between two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--prec", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="accepted and ignored: the unit scan runs serially")
    p.set_defaults(func=cmd_isom)

    p = sub.add_parser("stairs", help="conjugate a twist back to phi")
    p.add_argument("file")
    p.add_argument("--twist-file")
    p.add_argument("--twist-level", type=_int_at_least(0), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stairs)

    p = sub.add_parser("probe", help="i-number upper witness and evidence")
    p.add_argument("file")
    p.add_argument("--trials", type=_int_at_least(0), default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--suite", choices=("paper",), default="paper")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="accepted and ignored: the unit scan runs serially")
    p.add_argument("--fast", action="store_true",
                   help="reduced sample counts")
    p.set_defaults(func=cmd_verify)
    ap.commands = sub.choices
    return ap


def parse_args(argv):
    """`build_parser().parse_args(argv)`, by argv[0]'s own parser when that
    takes all the rest (the full parser hands it the same strings).  Help,
    other first words and leftovers go to the full parser, so exit codes,
    messages and namespaces are the same."""
    ap = build_parser()
    sub = ap.commands.get(argv[0]) if argv else None
    if sub is not None and not {"-h", "--help"} & set(argv):
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return ap.parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # tuples like "-1,1,0" would otherwise parse as option flags
    if argv and argv[0] == "deviation" and "--" not in argv:
        argv.insert(1, "--")
    args = parse_args(argv)
    try:
        code = args.func(args)
    except CrystalError as exc:
        _err(str(exc))
        code = next(c for cls, c in EXIT_CODES if isinstance(exc, cls))
    except Exception as exc:  # noqa: BLE001 - a bug must not read as a result
        detail = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {detail}\n")
        code = 5
    raise SystemExit(code)


if __name__ == "__main__":
    main()

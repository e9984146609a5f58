import ast
import json
import os
import subprocess
import sys

import pytest

from fcrystals import plinalg
from fcrystals.bounds import MAX_BOUND_RANK
import fcrystals.cli as cli_mod
from fcrystals.cli import main
from fcrystals.crystal import PolarizedCrystal, builtin_crystal, new_crystal
from fcrystals.errors import (
    BadShape,
    CrystalError,
    ExtensionCapExceeded,
    PrecisionExhausted,
    SearchSpaceTooLarge,
    UnsupportedShape,
)
from fcrystals.files import (
    MAX_N,
    crystal_to_dict,
    dict_to_crystal,
    dict_to_stairs_datum,
    matrix_to_entries,
    read_crystal,
    stairs_datum_to_dict,
    write_crystal,
)
from fcrystals.plinalg import Matrix
from fcrystals.semilinear import _scan_range, hom_module
from fcrystals.stairs import build_stairs_datum, fixed_datum, lang_run
from fcrystals.witt import make_witt_ring


def _child_env():
    """The environment with the imported package's source directory first
    on PYTHONPATH, so a child interpreter imports the same fcrystals."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def _run(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "fcrystals.cli", *args],
        capture_output=True, text=True, env=_child_env(), **kw)


def test_round_trip(tmp_path):
    ring = make_witt_ring(2, 2, 4)
    C = builtin_crystal(ring, "supersingular", d=1)
    path = tmp_path / "ss.json"
    write_crystal(path, C)
    C2 = read_crystal(path)
    assert C2.B == C.B and C2.shift == C.shift and C2.ring == C.ring
    # second round trip is byte-identical
    path2 = tmp_path / "ss2.json"
    write_crystal(path2, C2)
    assert path.read_text() == path2.read_text()


def test_polarized_round_trip(tmp_path):
    ring = make_witt_ring(2, 3, 4)
    P = builtin_crystal(ring, "polarized_4_5_4", alpha=1)
    path = tmp_path / "pol.json"
    write_crystal(path, P)
    P2 = read_crystal(path)
    assert P2.J == P.J and P2.c == P.c and P2.base.B == P.base.B


def test_stairs_block_round_trip(tmp_path):
    ring = make_witt_ring(3, 1, 4)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = build_stairs_datum(C)
    path = tmp_path / "ord.json"
    write_crystal(path, C, datum=datum)
    C2, datum2 = read_crystal(path, want_datum=True)
    assert datum2 is not None
    assert stairs_datum_to_dict(datum2) == stairs_datum_to_dict(datum)


def test_unknown_keys_rejected():
    ring = make_witt_ring(2, 1, 3)
    d = crystal_to_dict(builtin_crystal(ring, "ordinary", r=2, d=1))
    d["extra"] = 1
    with pytest.raises(BadShape):
        dict_to_crystal(d)
    d2 = crystal_to_dict(builtin_crystal(ring, "ordinary", r=2, d=1))
    d2.pop("version")
    with pytest.raises(BadShape):
        dict_to_crystal(d2)
    d3 = crystal_to_dict(builtin_crystal(ring, "ordinary", r=2, d=1))
    d3["matrix"][0][0] = [9]  # not reduced mod 8
    with pytest.raises(BadShape):
        dict_to_crystal(d3)


def test_cli_deviation():
    res = _run(["deviation", "-1,1,-1,-1,1,1,0,-1"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["S"] == 2 and out["W"] == 3
    bad = _run(["deviation", "1,x"])
    assert bad.returncode == 2


def test_cli_deviation_caps_the_tuple_length(capsys):
    # the reductions are quadratic in the length: 3,000 entries took 8 s
    assert _main_exit(["deviation", ",".join(["1", "-1"] * 1500)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"error: bad tuple: 3000 entries exceed the maximum "
        f"{MAX_BOUND_RANK}\n")
    at_cap = ",".join(["1", "-1"] * (MAX_BOUND_RANK // 2))
    assert _main_exit(["deviation", at_cap]) == 0
    assert json.loads(capsys.readouterr().out)["W"] == MAX_BOUND_RANK // 2


def test_cli_polygon(tmp_path):
    ring = make_witt_ring(2, 1, 12)
    C = builtin_crystal(ring, "supersingular", d=1)
    path = tmp_path / "ss.json"
    write_crystal(path, C)
    res = _run(["polygon", str(path), "--newton"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["slopes"] == [[1, 2, 2]] and out["h"] == 1
    low = make_witt_ring(2, 1, 2)
    Clow = builtin_crystal(low, "supersingular", d=1)
    path2 = tmp_path / "low.json"
    write_crystal(path2, Clow)
    res2 = _run(["polygon", str(path2), "--newton"])
    assert res2.returncode == 3
    res3 = _run(["polygon", str(tmp_path / "missing.json")])
    assert res3.returncode == 2
    # the Hodge polygon is the default; there is no --hodge flag
    assert _main_exit(["polygon", str(path), "--hodge"]) == 2


def test_cli_bound():
    res = _run(["bound", "--rank", "2", "--s", "1", "--h-number", "1"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["bound"] == "3"
    res2 = _run(["bound", "--pdiv", "3", "0", "--p", "2"])
    assert json.loads(res2.stdout)["bound"] == "0"


def test_cli_isom_and_hom(tmp_path):
    ring = make_witt_ring(2, 1, 4)
    O = builtin_crystal(ring, "ordinary", r=2, d=1)
    S = builtin_crystal(ring, "supersingular", d=1)
    po, ps = tmp_path / "o.json", tmp_path / "s.json"
    write_crystal(po, O)
    write_crystal(ps, S)
    same = _run(["isom", str(po), str(po)])
    assert same.returncode == 0 and json.loads(same.stdout)["found"]
    diff = _run(["isom", str(po), str(ps)])
    assert diff.returncode == 1
    out = json.loads(diff.stdout)
    assert not out["found"] and out["regime"] == "exhaustive"
    hom = _run(["hom", str(po), str(ps), "--prec", "2"])
    assert hom.returncode == 0
    out_h = json.loads(hom.stdout)
    assert "exponents" in out_h and "basis" in out_h


def test_cli_stairs_and_probe(tmp_path):
    ring = make_witt_ring(3, 1, 2)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    path = tmp_path / "ord.json"
    write_crystal(path, C)
    res = _run(["stairs", str(path), "--twist-level", "1", "--seed", "0"])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["verified"]
    probe = _run(["probe", str(path), "--trials", "2"])
    assert probe.returncode == 0
    rep = json.loads(probe.stdout)
    assert rep["upper"] == 1


def test_cli_verify_unknown_suite():
    res = _run(["verify", "--suite", "nope"])
    assert res.returncode == 2


def test_cli_jobs_deterministic(tmp_path):
    # --jobs is accepted and ignored: the scan runs serially
    ss = builtin_crystal(make_witt_ring(2, 2, 3), "supersingular", d=1)
    ordinary = builtin_crystal(make_witt_ring(2, 1, 3), "ordinary", r=3, d=1)
    # ordinary: 2^5 indices over the Howell rows, first unit 22
    H = hom_module(ordinary, ordinary)
    free = H.mod_p_spanning_subset()
    assert len(free) == 5
    assert _scan_range(H.ring, free, 3) == 22
    # odd p: 3^5 indices, first unit 37
    odd = builtin_crystal(make_witt_ring(3, 1, 3), "ordinary", r=3, d=2)
    H = hom_module(odd, odd)
    free = H.mod_p_spanning_subset()
    assert len(free) == 5
    assert _scan_range(H.ring, free, 3) == 37
    for name, C in (("ss", ss), ("ordinary", ordinary), ("odd", odd)):
        path = tmp_path / f"{name}.json"
        write_crystal(path, C)
        r1 = _run(["isom", str(path), str(path), "--jobs", "1"])
        r2 = _run(["isom", str(path), str(path), "--jobs", "2"])
        assert r1.returncode == r2.returncode == 0, r2.stderr
        assert r1.stdout == r2.stdout


def _main_exit(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize("argv, flag", [
    (["hom", "a.json", "b.json", "--prec", "0"], "--prec"),
    (["hom", "a.json", "b.json", "--prec", "-1"], "--prec"),
    (["isom", "a.json", "b.json", "--prec", "0"], "--prec"),
    (["isom", "a.json", "b.json", "--jobs", "0"], "--jobs"),
    (["verify", "--fast", "--jobs", "-2"], "--jobs"),
    (["stairs", "a.json", "--twist-level", "-1"], "--twist-level"),
    (["probe", "a.json", "--trials", "-1"], "--trials"),
])
def test_cli_integer_flags_are_input_errors(tmp_path, capsys, argv, flag):
    C = builtin_crystal(make_witt_ring(2, 1, 3), "ordinary", r=2, d=1)
    for name in ("a.json", "b.json"):
        write_crystal(tmp_path / name, C)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert _main_exit(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}:" in out.err


def test_parser_is_built_once_per_process():
    assert cli_mod.build_parser() is cli_mod.build_parser()


VALID_ARGV = [
    ["polygon", "a.json"], ["polygon", "a.json", "--newton"],
    ["deviation", "--", "-1,1,0"],
    ["bound", "--rank", "3", "--s", "1", "--h-number", "2", "--fam"],
    ["bound", "--pdiv", "4", "2", "--p", "3"], ["bound", "--polarized", "2"],
    ["hom", "a.json", "b.json", "--prec", "2"],
    ["isom", "a.json", "b.json", "--seed", "4", "--jobs", "2"],
    ["stairs", "a.json", "--twist-file", "b.json", "--twist-l", "1"],
    ["probe", "a.json", "--trials", "3", "--seed", "9"],
    ["verify", "--fast", "--suite", "paper"],
]


@pytest.mark.parametrize("argv", VALID_ARGV + [
    # stray arguments
    ["polygon", "a.json", "stray"], ["hom", "a.json", "b.json", "c.json"],
    ["probe", "a.json", "--unknown"], ["deviation", "--", "1", "2"],
    # missing arguments
    ["polygon"], ["hom", "a.json"], ["bound", "--pdiv", "4"],
    ["stairs", "a.json", "--twist-file"],
    # bad values, and abbreviations that match two flags
    ["probe", "a.json", "--trials", "x"], ["bound", "--rank", "1.5"],
    ["isom", "a.json", "b.json", "--prec", "0"],
    ["verify", "--suite", "other"], ["stairs", "a.json", "--twist", "1"],
    # help, an unknown command and no command
    ["probe", "-h"], ["stairs", "a.json", "--help"], ["bound", "--he"],
    ["-h"], ["polygons", "a.json"], ["--newton", "polygon", "a.json"], [],
])
def test_command_parser_matches_the_full_parser(argv, capsys):
    def outcome(parse):
        try:
            got = 0, vars(parse(list(argv)))
        except SystemExit as exc:
            got = exc.code, None
        out = capsys.readouterr()
        return got, out.out, out.err

    assert outcome(cli_mod.parse_args) == outcome(
        cli_mod.build_parser().parse_args)


def test_a_valid_call_takes_only_its_command_parser(monkeypatch):
    ap = cli_mod.build_parser()
    monkeypatch.setattr(ap, "parse_args", lambda argv: pytest.fail(
        f"full parse of {argv}"))
    for argv in VALID_ARGV:
        assert cli_mod.parse_args(argv).command == argv[0]


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    """The shared parser keeps no value of one call for the next: a
    default comes back after an explicit flag, and a bad flag after a good
    call is still one usage error."""
    path = str(tmp_path / "F.json")
    write_crystal(path, builtin_crystal(make_witt_ring(2, 1, 4), "ordinary",
                                        r=2, d=1))
    precisions = []
    for extra in (["--prec", "2"], []):
        assert _main_exit(["hom", path, path, *extra]) == 0
        precisions.append(json.loads(capsys.readouterr().out)["precision"])
    assert precisions == [2, 4]
    assert _main_exit(["hom", path, path, "--prec", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert [line for line in out.err.splitlines()
            if "error:" in line] == [
        "fcrystals hom: error: argument --prec: need >= 1, got 0"]


def test_polygon_newton_runs_one_smith_form(tmp_path, capsys, monkeypatch):
    """The Smith form of the crystal's constructor serves hodge_data and
    newton_polygon's precision gate."""
    from fcrystals import plinalg

    calls = []
    real = plinalg.smith_normal_form

    def counted(A):
        calls.append(A)
        return real(A)

    for name, mod in list(sys.modules.items()):
        if name.startswith("fcrystals.") and \
                getattr(mod, "smith_normal_form", None) is real:
            monkeypatch.setattr(mod, "smith_normal_form", counted)
    path = str(tmp_path / "ss.json")
    write_crystal(path, builtin_crystal(make_witt_ring(2, 1, 12),
                                        "supersingular", d=1))
    calls.clear()
    assert _main_exit(["polygon", "--newton", path]) == 0
    assert json.loads(capsys.readouterr().out)["slopes"] == [[1, 2, 2]]
    assert len(calls) == 1


def test_cli_probe_reports_a_shifted_unit_crystal(tmp_path, capsys):
    """h = 0 with shift 1: the fixed lattice datum rejects the shift, and
    that must not stop the h0 report."""
    ring = make_witt_ring(3, 1, 4)
    path = tmp_path / "shifted.json"
    write_crystal(path, new_crystal(ring, Matrix.identity(ring, 2), 1))
    assert _main_exit(["probe", str(path), "--trials", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["upper"], rep["upper_source"]) == (0, "h0")


@pytest.mark.parametrize("argv, message", [
    (["bound", "--pdiv", "2", "1", "--p", "1"], "p = 1 is not prime"),
    (["bound", "--pdiv", "2", "1", "--p", "4"], "p = 4 is not prime"),
    (["bound", "--rank", "3", "--fam", "--p", "9"], "p = 9 is not prime"),
    (["bound", "--pdiv", "30", "1", "--p", "3"],
     f"rank 900 exceeds the maximum {MAX_BOUND_RANK}"),
    (["bound", "--polarized", "21", "--p", "3"],
     f"rank 903 exceeds the maximum {MAX_BOUND_RANK}"),
    (["bound", "--rank", "100000"],
     f"rank 100000 exceeds the maximum {MAX_BOUND_RANK}"),
    (["bound", "--pdiv", "2", "5", "--p", "3"],
     "dimension 5 is outside [0, 2]"),
    (["bound", "--pdiv", "2", "-1", "--p", "3"],
     "dimension -1 is outside [0, 2]"),
    (["bound", "--rank", "500", "--h-number", "9" * 4000],
     "h-number exceeds the maximum 10^1000"),
    (["bound", "--rank", "2", "--s", "1" + "0" * 1000 + "1"],
     "s-number exceeds the maximum 10^1000"),
    (["bound", "--pdiv", "9" * 2151, "1"],
     "pdiv size exceeds the maximum 10^1000"),
    (["bound", "--rank", "2", "--p", "2305843009213693951"],
     "p exceeds the maximum 2^32"),
], ids=["p1", "p4", "p9", "pdiv30", "polarized21", "rank100000",
        "pdiv_d_above", "pdiv_d_below", "h_4000_digits", "s_above_cap",
        "pdiv_2151_digits", "p_mersenne_61"])
def test_cli_bound_inputs_are_input_errors(capsys, argv, message):
    assert _main_exit(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def _ordinary_dict():
    return crystal_to_dict(
        builtin_crystal(make_witt_ring(2, 1, 3), "ordinary", r=2, d=1))


def _bad_p(d):
    d["p"] = "2"


def _bad_n(d):
    d["n"] = [3]


def _bad_shift(d):
    d["shift"] = "0"


def _rank_zero(d):
    d["rank"], d["matrix"] = 0, []


def _version_true(d):
    d["version"] = True


def _version_float(d):
    d["version"] = 1.0


def _n_above_cap(d):
    d["n"] = MAX_N + 1


def _entry_too_long(d):
    d["matrix"][0][0] = d["matrix"][0][0] + [0]


@pytest.mark.parametrize("corrupt", [_bad_p, _bad_n, _bad_shift, _rank_zero,
                                     _version_true, _version_float,
                                     _n_above_cap, _entry_too_long])
def test_malformed_crystal_file_is_an_input_error(tmp_path, capsys, corrupt):
    data = _ordinary_dict()
    corrupt(data)
    with pytest.raises(BadShape):
        dict_to_crystal(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert _main_exit(["probe", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")


def test_precision_cap_admits_n_at_the_cap():
    data = _ordinary_dict()
    data["n"] = MAX_N
    assert dict_to_crystal(data).ring.n == MAX_N


def test_stairs_block_without_permutation_is_an_input_error(tmp_path,
                                                            capsys):
    C = builtin_crystal(make_witt_ring(3, 1, 4), "ordinary", r=2, d=1)
    data = crystal_to_dict(C)
    data["stairs"] = stairs_datum_to_dict(build_stairs_datum(C))
    del data["stairs"]["permutation"]
    with pytest.raises(BadShape):
        dict_to_stairs_datum(data["stairs"], C)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert _main_exit(["stairs", str(path), "--twist-level", "1"]) == 2
    assert capsys.readouterr().out == ""


def _tail_file():
    """B = 1 over W_8(F_2) with the stairs block of `_tail_datum` in
    tests/test_stairs.py at torsion 2: its Howell pivots reach p^2 but its
    lattice exponent is 3."""
    W = make_witt_ring(2, 1, 8)
    data = crystal_to_dict(new_crystal(W, Matrix.identity(W, 2)))
    data["stairs"] = {
        "basis": [[[[2], [1]], [[0], [0]]], [[[0], [4]], [[0], [0]]],
                  [[[0], [0]], [[1], [0]]], [[[0], [0]], [[0], [1]]]],
        "permutation": [0, 1, 2, 3], "exponents": [0, 0, 0, 0],
        "torsion": 2, "signs": [1, 1, 1, 1], "multiplicative": False,
        "unital": False}
    return data


@pytest.mark.parametrize("seed", range(6))
def test_a_torsion_below_the_smith_exponent_is_an_input_error(tmp_path,
                                                              capsys, seed):
    data = _tail_file()
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(data))
    argv = ["stairs", str(path), "--twist-level", "6", "--seed", str(seed)]
    assert _main_exit(argv) == 2
    assert capsys.readouterr().out == ""
    data["stairs"]["torsion"] = 3
    path.write_text(json.dumps(data))
    argv[3] = "8"   # 2m + eps_2 at m = 3
    assert _main_exit(argv) == 0


@pytest.mark.parametrize("key, value", [
    ("permutation", 5),
    ("exponents", "x"),
    ("torsion", "1"),
    ("signs", None),
    # the exponents [0, -1, 1, 0] give the four 1-cycles signs [1, -1, 1, 1]
    ("signs", [1, 1, 1, 1]),
    ("signs", [True, -1, 1, 1]),
    ("multiplicative", "yes"),
    # values the basis does not give; 1 == True
    ("multiplicative", 1),
    ("unital", False),
    ("square_zero", True),
])
def test_stairs_block_value_types_are_input_errors(tmp_path, capsys, key,
                                                   value):
    C = builtin_crystal(make_witt_ring(3, 1, 4), "ordinary", r=2, d=1)
    data = crystal_to_dict(C)
    data["stairs"] = stairs_datum_to_dict(build_stairs_datum(C))
    data["stairs"][key] = value
    with pytest.raises(BadShape):
        dict_to_stairs_datum(data["stairs"], C)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert _main_exit(["stairs", str(path), "--twist-level", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_an_empty_stairs_basis_is_an_input_error(tmp_path, capsys):
    C = builtin_crystal(make_witt_ring(3, 1, 4), "ordinary", r=2, d=1)
    data = crystal_to_dict(C)
    data["stairs"] = stairs_datum_to_dict(build_stairs_datum(C))
    data["stairs"].update(basis=[], permutation=[], exponents=[], signs=[])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert _main_exit(["stairs", str(path), "--twist-level", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "nonempty basis" in out.err


def test_false_multiplicative_claim_is_an_input_error(tmp_path, capsys):
    # at torsion 3 the tail block reads; e_1 = 2 E_11 + E_12 and e_3 = E_21
    # give e_1 e_3 = E_11, and the span holds 8 E_11 but not 4 E_11
    data = _tail_file()
    data["stairs"].update(torsion=3, multiplicative=True)
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(data))
    with pytest.raises(BadShape, match="'multiplicative' must be false"):
        read_crystal(path, want_datum=True)
    assert _main_exit(["stairs", str(path), "--twist-level", "8"]) == 2
    assert capsys.readouterr().out == ""
    data["stairs"]["multiplicative"] = False
    path.write_text(json.dumps(data))
    assert _main_exit(["stairs", str(path), "--twist-level", "8"]) == 0


def test_false_unital_claim_is_an_input_error(tmp_path, capsys):
    # p times the fixed datum of supersingular(d=1) over W_4(F_4): its span
    # holds p^(m+1) End, but not the identity
    C = builtin_crystal(make_witt_ring(2, 2, 4), "supersingular", d=1)
    datum = fixed_datum(C)
    assert datum.crystal is C and datum.unital
    data = crystal_to_dict(C)
    data["stairs"] = stairs_datum_to_dict(datum)
    data["stairs"]["basis"] = [matrix_to_entries(e.scale(2))
                               for e in datum.basis]
    data["stairs"]["torsion"] += 1
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    with pytest.raises(BadShape, match="unital"):
        read_crystal(path, want_datum=True)
    assert _main_exit(["stairs", str(path), "--twist-level", "1"]) == 2
    assert capsys.readouterr().out == ""
    # without the claim the file reads, and lang refuses the datum
    data["stairs"]["unital"] = False
    path.write_text(json.dumps(data))
    _, scaled = read_crystal(path, want_datum=True)
    g = Matrix.identity(C.ring, 2)
    with pytest.raises(UnsupportedShape):
        lang_run(C, g, scaled)


def test_internal_error_exits_5(tmp_path, capsys, monkeypatch):
    import fcrystals.cli as cli_mod

    def broken(C, trials, seed):
        raise ZeroDivisionError("a bug\nspanning lines")

    monkeypatch.setattr(cli_mod, "i_number_probe", broken)
    path = tmp_path / "c.json"
    write_crystal(path, builtin_crystal(make_witt_ring(3, 1, 4), "ordinary",
                                        r=2, d=1))
    assert _main_exit(["probe", str(path)]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == \
        "internal error: ZeroDivisionError: a bug spanning lines\n"


def test_verify_suite_fault_injection(monkeypatch):
    """A corrupted built-in constant must fail its named check."""
    import fcrystals.crystal as crystal_mod
    from fcrystals import verify as V

    real = crystal_mod._slope_thirds_family

    def corrupted(ring, alpha):
        C = real(ring, alpha)
        ents = [list(row) for row in C.B.entries]
        ents[0][0] = ents[0][0] + ring.one()
        from fcrystals.plinalg import Matrix
        from fcrystals.crystal import FCrystal
        return FCrystal(ring, Matrix(ring, ents), 0)

    monkeypatch.setattr(crystal_mod, "_slope_thirds_family", corrupted)
    res = V._check("05 rank-6 thirds family", V.check_thirds_family)
    assert not res["ok"] and res["detail"].startswith("FAILED: ")


def test_cli_verify_fast_runs():
    # under -O, so no check of the suite may rest on `assert`
    res = subprocess.run(
        [sys.executable, "-O", "-m", "fcrystals.cli",
         "verify", "--suite", "paper", "--fast"],
        capture_output=True, text=True, env=_child_env())
    assert res.returncode == 0, res.stderr[-500:]
    lines = [json.loads(x) for x in res.stdout.strip().splitlines()]
    assert len(lines) == 12 and all(r["ok"] for r in lines)
    assert "12/12" in res.stderr
    # every detail string is exact: compare all but the timings
    with open(os.path.join(os.path.dirname(__file__), "golden.json")) as fh:
        golden = json.load(fh)["verify_fast"]
    for line in lines:
        del line["seconds"]
    assert lines == golden


def test_cli_stairs_exit_codes(tmp_path):
    # input errors exit 2: a twist below the threshold level, and a
    # crystal (ordinary(r=2, d=1) conjugated by [[1, 1], [0, 1]]) with no
    # lattice datum
    iso = builtin_crystal(make_witt_ring(2, 3, 5), "isoclinic_3_3_6",
                          r=3, c=2)
    W = make_witt_ring(2, 1, 4)
    dense = new_crystal(W, Matrix.from_ints(W, [[1, 1], [0, 2]]))
    for name, C in (("iso", iso), ("dense", dense)):
        path = tmp_path / f"{name}.json"
        write_crystal(path, C)
        res = _run(["stairs", str(path), "--twist-level", "1"])
        assert res.returncode == 2, (name, res.stderr)
        assert res.stdout == ""


def test_cli_stairs_twist_of_the_wrong_size_exits_2(tmp_path, capsys):
    """A 2 x 2 twist g = 1 mod 4 on a rank-3 crystal is an input error."""
    W = make_witt_ring(2, 1, 4)
    C, g = tmp_path / "C.json", tmp_path / "g.json"
    write_crystal(C, builtin_crystal(W, "ordinary", r=3, d=1))
    write_crystal(g, new_crystal(W, Matrix.from_ints(W, [[5, 4], [0, 1]])))
    assert _main_exit(["stairs", str(C), "--twist-file", str(g)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: twist must be 3 x 3, not 2 x 2\n"


def test_cli_stairs_finds_a_fixed_datum_past_equal_row_counts(tmp_path,
                                                             capsys):
    """B = [[1, 0], [t, 2]] over W_3(F_49) has its fixed datum over
    F_(7^6), after two fields with equal Howell row counts."""
    W = make_witt_ring(7, 2, 3)
    path = tmp_path / "C.json"
    write_crystal(path, new_crystal(W, Matrix.from_flat_ints(
        W, 2, 2, [1, 0, 0, 0, 0, 1, 2, 0])))
    assert _main_exit(["stairs", str(path), "--twist-level", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["verified"], out["field_degree"]) == (True, 6)


def test_cli_stairs_extension_is_against_the_file_field(tmp_path, capsys):
    """The file lies over F_49 and the datum over F_(7^6): the extension
    printed is 6 / 2 = 3, not the datum's own degree 1."""
    W = make_witt_ring(7, 2, 3)
    path = tmp_path / "C.json"
    write_crystal(path, new_crystal(W, Matrix.from_flat_ints(
        W, 2, 2, [1, 0, 0, 0, 0, 1, 2, 0])))
    assert _main_exit(["stairs", str(path), "--twist-level", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["field_degree"], out["extension"]) == (6, 3)


def test_cli_stairs_extends_to_the_field_table(tmp_path):
    # at p = 7 the positive cycle needs F_{7^7}, inside the table
    C = builtin_crystal(make_witt_ring(7, 1, 4), "ordinary", r=2, d=1)
    path = tmp_path / "ord7.json"
    write_crystal(path, C)
    res = _run(["stairs", str(path), "--twist-level", "1", "--seed", "3"])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["verified"] and out["field_degree"] == 7
    assert out["level"] == 2


def test_cli_stairs_twist_level_beyond_n(tmp_path, capsys):
    # from level n on the twist is 1 mod p^n: a huge level gives the
    # level-n output, without building p^level
    path = tmp_path / "ord.json"
    write_crystal(path, builtin_crystal(make_witt_ring(2, 1, 4), "ordinary",
                                        r=2, d=1))
    outs = []
    for level in ("4", str(10 ** 8)):
        assert _main_exit(["stairs", str(path), "--twist-level", level]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["level"] == 4


# each command with the library call it makes ("F" is a crystal file,
# "P" a polarized one)
COMMAND_CALLS = [
    (["polygon", "F"], "fcrystals.cli.hodge_data"),
    (["deviation", "1,-1"], "fcrystals.cli.deviations"),
    (["bound", "--rank", "2"], "fcrystals.cli.d_plus_bound"),
    (["hom", "F", "F"], "fcrystals.cli.hom_module"),
    (["isom", "F", "F"], "fcrystals.cli.isom_search"),
    (["isom", "P", "P"], "fcrystals.cli.polarized_isom_search"),
    (["stairs", "F", "--twist-level", "1"], "fcrystals.cli.stairs_run"),
    (["probe", "F"], "fcrystals.cli.i_number_probe"),
    (["verify", "--fast"], "fcrystals.cli.run_paper_suite"),
]


@pytest.mark.parametrize("argv, call", COMMAND_CALLS,
                         ids=[c.split(".")[-1] for _, c in COMMAND_CALLS])
@pytest.mark.parametrize("exc, code", [
    (PrecisionExhausted, 3),
    (ExtensionCapExceeded, 3),
    (SearchSpaceTooLarge, 4),
    (BadShape, 2),
    (RuntimeError, 5),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_library_errors_map_to_one_exit_code_table(tmp_path, capsys,
                                                   monkeypatch, argv, call,
                                                   exc, code):
    W = make_witt_ring(2, 1, 3)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    J = Matrix.from_ints(W, [[0, 1], [W.pn - 1, 0]])
    write_crystal(tmp_path / "F", C)
    write_crystal(tmp_path / "P", PolarizedCrystal(C, J, 1))

    def raiser(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(call, raiser)
    argv = [str(tmp_path / a) if a in ("F", "P") else a for a in argv]
    assert _main_exit(argv) == code
    out = capsys.readouterr()
    assert out.out == ""
    prefix = "internal error: " if code == 5 else "error: "
    assert len(out.err.splitlines()) == 1 and out.err.startswith(prefix)


def test_no_command_catches_a_crystal_error():
    """Library errors reach their exit code through cli.EXIT_CODES alone:
    no cmd_* function has an except clause that would catch a
    CrystalError (bare, naming CrystalError, a subclass or a base)."""
    with open(cli_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    catching = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                catching.append(f"{fn.name}:{node.lineno} bare except")
                continue
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            for t in types:
                cls = eval(ast.unparse(t), vars(cli_mod))
                if issubclass(cls, CrystalError) or issubclass(
                        CrystalError, cls):
                    catching.append(f"{fn.name}:{node.lineno} {cls.__name__}")
    assert catching == []


@pytest.mark.parametrize("where, value, message", [
    ((0, 1, 0), 27, "matrix entries are not reduced"),
    ((0, 1, 1), -1, "matrix entries are not reduced"),
    ((1, 1, 0), True, "matrix entries must be lists of 2 integers"),
    ((0, 0, 2), 0, "matrix entries must be lists of 2 integers"),
], ids=["not_reduced", "negative", "bool", "q_plus_one"])
def test_cli_refuses_a_bad_matrix_coordinate(tmp_path, capsys, where,
                                             value, message):
    """A file's matrix must hold q reduced integer coordinates per entry;
    anything else is an input error, exit 2, with the file named."""
    ring = make_witt_ring(3, 2, 3)
    data = crystal_to_dict(builtin_crystal(ring, "ordinary", r=2, d=1))
    i, j, t = where
    entry = data["matrix"][i][j]
    entry[t:t + 1] = [value]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert _main_exit(["polygon", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot read {path}: {message}\n"


def test_gram_and_stairs_basis_coordinates_are_reduced_on_reading(tmp_path):
    """Outside the matrix of phi, a coordinate at or above p^n is taken
    mod p^n when the file is read."""
    ring = make_witt_ring(2, 3, 4)
    P = builtin_crystal(ring, "polarized_4_5_4", alpha=1)
    data = crystal_to_dict(P)
    data["gram"][0][-1][0] += ring.pn
    path = tmp_path / "pol.json"
    path.write_text(json.dumps(data))
    assert read_crystal(path).J == P.J
    ring = make_witt_ring(3, 1, 4)
    C = builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = build_stairs_datum(C)
    data = crystal_to_dict(C)
    data["stairs"] = stairs_datum_to_dict(datum)
    data["stairs"]["basis"][0][0][0][0] += 2 * ring.pn
    path.write_text(json.dumps(data))
    _, back = read_crystal(path, want_datum=True)
    assert back.basis == datum.basis


def test_reading_a_crystal_costs_its_smith_elimination(tmp_path, monkeypatch):
    """The Smith rows of a file's matrix are built from the matrix, not as
    a Hom system, and their packing is built once per shape: a second file
    of the same shape builds none."""
    ring = make_witt_ring(7, 1, 5)
    paths = []
    for k in range(2):
        B = Matrix.from_ints(ring, [[1, k, 7], [0, 49, 7 * k], [2, 0, 1]])
        paths.append(tmp_path / f"c{k}.json")
        write_crystal(paths[-1], new_crystal(ring, B))
    systems, packings = [], []
    real = plinalg._intertwiner_system
    for name, mod in list(sys.modules.items()):
        if name.startswith("fcrystals") and \
                getattr(mod, "_intertwiner_system", None) is real:
            monkeypatch.setattr(mod, "_intertwiner_system", lambda *a, **kw: (
                systems.append(a) or real(*a, **kw)))
    init = plinalg._PackedRows.__init__
    monkeypatch.setattr(plinalg._PackedRows, "__init__", lambda self, *a: (
        packings.append(a) or init(self, *a)))
    plinalg.packing.cache_clear()
    first = read_crystal(paths[0])
    assert (systems, packings) == ([], [(7, 5, 3)])
    second = read_crystal(paths[1])
    assert (systems, packings) == ([], [(7, 5, 3)])
    assert (first.exponents, second.exponents) == ([0, 0, 2], [0, 0, 1])

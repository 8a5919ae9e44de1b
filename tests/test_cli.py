import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from partmorse import cli
from partmorse.cli import main, parse_group, split_group_arg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VERIFY_CHECKS = (
    "main matching is a matching",
    "main matching is acyclic",
    "main matching is equivariant",
    "critical set is the flags plus the split vertex",
    "zero fiber collapses to the split vertex",
    "stabilizer of 1 acts freely and transitively on flags",
    "reduced homology is a wedge of (n-1)! spheres",
    "full-group quotient has two critical cells",
    "Morse homology agrees with simplicial homology",
    "full symmetric quotient is homologically trivial",
)


def verify_stdout(n: int) -> str:
    """The stdout of a passing `verify --n n`, byte for byte."""
    names = (f"flag count equals (n-1)! for n={n}",) + VERIFY_CHECKS
    return "".join(f"PASS  {name}\n" for name in names)


def test_split_group_arg():
    assert split_group_arg("(2 3),(2 3 4 5)") == ["(2 3)", "(2 3 4 5)"]
    assert split_group_arg("(2 3)(4 5)") == ["(2 3)(4 5)"]
    assert split_group_arg(" (2 3) ") == ["(2 3)"]
    assert split_group_arg("") == []


def test_parse_group_defaults_to_trivial():
    assert parse_group(4, None).order == 1
    assert parse_group(4, "(2 3),(3 4)").order == 6


def test_complex_json(capsys):
    code, out, _ = run(capsys, "complex", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 4,
        "dimension": 1,
        "fVector": [13, 18],
        "totalCells": 31,
        "eulerCharacteristic": -5,
    }


def test_complex_text_format(capsys):
    code, out, _ = run(capsys, "complex", "--n", "3", "--format", "text")
    assert code == 0
    assert "fVector: [3]" in out.splitlines()
    assert "n: 3" in out.splitlines()


def test_n_below_three_is_config_error(capsys):
    code, _, err = run(capsys, "complex", "--n", "2")
    assert code == 2
    assert "at least 3" in err


def test_matching_report(capsys, tmp_path):
    dump = tmp_path / "pairs.txt"
    code, out, _ = run(capsys, "matching", "--n", "4", "--dump-matching", str(dump))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["criticalCounts"] == [1, 6]
    assert payload["cardinalityCn"] == 6
    assert payload["certificates"] == {
        "acyclic": True,
        "equivariant": True,
        "criticalSetMatches": True,
    }
    assert payload["orbitData"] == {"orbits": 1, "stabilizerOrder": 1}
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 12
    assert all(" -> " in ln for ln in lines)


def test_quotient_with_subgroup(capsys):
    code, out, _ = run(capsys, "quotient", "--n", "4", "--group", "(2 3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == ["(2 3)"]
    assert payload["index"] == 3
    assert payload["criticalCounts"] == [1, 3]
    assert payload["certificate"]["isAcyclic"] is True
    assert payload["wedgeVerified"] is True
    labels = [c["label"] for c in payload["criticalCells"]]
    assert len(labels) == 4 and all(l.startswith("[") for l in labels)


def test_quotient_full_stabilizer(capsys):
    code, out, _ = run(capsys, "quotient", "--n", "5", "--group", "(2 3),(2 3 4 5)")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 1
    assert payload["criticalCounts"] == [1, 0, 1]
    assert payload["wedgeVerified"] is True


def test_quotient_group_not_fixing_one(capsys):
    code, out, err = run(capsys, "quotient", "--n", "5", "--group", "(1 2 3 4 5)")
    assert code == 0
    assert "does not fix 1" in err
    payload = json.loads(out)
    assert "certificate" not in payload
    table = {h["dim"]: h for h in payload["reducedHomology"]}
    assert table[1]["torsion"] == [5]
    assert table[2]["betti"] == 4


def test_homology_csv(capsys):
    code, out, _ = run(capsys, "homology", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "dim,betti,torsion"
    assert out.splitlines()[2] == "1,6,"


def test_homology_with_group(capsys):
    code, out, _ = run(capsys, "homology", "--n", "4", "--group", "(2 3),(2 3 4)")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"dim": 0, "betti": 0, "torsion": []},
        {"dim": 1, "betti": 1, "torsion": []},
    ]


@pytest.mark.parametrize("group", ["(2 3)(2 3)", "(1 2)(1 3)"])
def test_group_with_overlapping_cycles_is_config_error(capsys, group):
    code, out, err = run(capsys, "homology", "--n", "4", "--group", group)
    assert code == 2 and out == ""
    assert "is in two cycles" in err


def test_homology_max_dim(capsys):
    code, out, _ = run(capsys, "homology", "--n", "5", "--max-dim", "1")
    assert code == 0
    payload = json.loads(out)
    assert [h["dim"] for h in payload] == [0, 1]
    assert payload[1]["betti"] == 0


def test_homology_negative_max_dim_is_config_error(capsys):
    code, out, err = run(capsys, "homology", "--n", "5", "--max-dim", "-1")
    assert code == 2 and out == ""
    assert "--max-dim" in err


@pytest.mark.parametrize("command", ["complex", "matching", "quotient", "homology", "verify", "report"])
def test_sizes_past_eight_are_refused_before_any_allocation(capsys, monkeypatch, command):
    import partmorse.cli as cli

    def no_build(n):
        raise AssertionError(f"built the nerve at n = {n}")

    builders = ("get_complex", "get_action", "build_main_matching", "matching_report", "quotient_critical_cells")
    for name in ("anchored_flags",) + builders:
        monkeypatch.setattr(cli, name, no_build)
    code, out, err = run(capsys, command, "--n", "9")
    assert code == 2 and out == ""
    # n!(n-1)!/2^(n-1) top cells at n = 9
    assert "57,153,600" in err
    code, _, err = run(capsys, command, "--n", "10")
    assert code == 2 and "2,571,912,000" in err


UNREAD_OPTIONS = [
    ["verify", "--n", "5", "--out", "x"],
    ["verify", "--n", "5", "--format", "text"],
    ["complex", "--n", "5", "--max-dim", "1"],
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS)
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def parse_exit(capsys, parse, argv) -> tuple[object, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[name, "-h"] for name in cli.COMMANDS]
    + [[name] for name in cli.COMMANDS]
    + UNREAD_OPTIONS
    + [
        ["homology", "--n", "5", "--format", "xml"],
        ["complex", "--n", "five"],
        ["complex", "--n", "5", "extra"],
        [],
        ["frobnicate", "--n", "5"],
        ["--help"],
    ],
)
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, argv):
    full = parse_exit(capsys, cli.full_parser().parse_args, argv)
    assert full[0] in (0, 2) and (full[1] or full[2])
    assert parse_exit(capsys, main, argv) == full


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["partmorse", "verify", "--n", "3"])
    assert main() == 0 and capsys.readouterr().out == verify_stdout(3)
    monkeypatch.setattr(sys, "argv", ["partmorse", "verify"])
    assert parse_exit(capsys, lambda argv: main(), None) == parse_exit(capsys, cli.full_parser().parse_args, ["verify"])


def test_a_subcommand_builds_no_other_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "complex", "--n", "3")[0] == 0
    assert built == ["partmorse complex"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_output_is_pinned(capsys, n):
    assert run(capsys, "verify", "--n", str(n)) == (0, verify_stdout(n), "")


def test_report_n6_is_pinned(capsys):
    code, out, err = run(capsys, "report", "--n", "6")
    assert code == 0 and err == ""
    digest = "c14608698e6fdb66e8abb7ca25dc5bfa0ba9015d6c4421e57e8cf6e9f00ed6dc"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_prints_check_lines(capsys):
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(ln.startswith("PASS") for ln in lines)
    assert err == ""


def test_verify_flag_action_check_can_fail(capsys, monkeypatch):
    import partmorse.cli as cli
    from partmorse.construction import anchored_flags, get_complex

    cx = get_complex(5)
    flags = anchored_flags(5)
    # a top cell that is no flag leaves the flags open under the group; a
    # repeated flag leaves the orbit shorter than the group; the count holds
    other = np.setdiff1d(np.arange(cx.n_cells(cx.dim)), flags)[0]
    for wrong in (np.append(flags[:-1], other), np.append(flags[:-1], flags[:1])):
        monkeypatch.setattr(cli, "anchored_flags", lambda n: wrong)
        code, out, _ = run(capsys, "verify", "--n", "5")
        assert code == 1
        assert "PASS  flag count equals (n-1)! for n=5" in out
        assert "FAIL  stabilizer of 1 acts freely and transitively on flags" in out


def test_verify_names_a_flag_that_is_no_flag(capsys, monkeypatch):
    import partmorse.cli as cli
    from partmorse.construction import anchored_flags, get_complex

    cx = get_complex(5)
    flags = anchored_flags(5)
    other = np.setdiff1d(np.arange(cx.n_cells(cx.dim)), flags)[-1]
    # the dropped flag stays critical, the other top cell is not
    monkeypatch.setattr(cli, "anchored_flags", lambda n: np.append(flags[1:], other))
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 1
    assert "FAIL  critical set is the flags plus the split vertex" in out.splitlines()
    assert "PASS  zero fiber collapses to the split vertex" in out.splitlines()
    first = min(flags[0], other)
    kind = "unexpected" if first == flags[0] else "missing"
    witness = f"{kind} cell (2, {first}): {cx.cell_label(2, first)}"
    assert f"  critical set is the flags plus the split vertex: {witness}" in err.splitlines()


def test_verify_flag_count_check_can_fail(capsys, monkeypatch):
    import partmorse.cli as cli
    from partmorse.construction import anchored_flags

    flags = anchored_flags(5)
    monkeypatch.setattr(cli, "anchored_flags", lambda n: flags[1:])
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 1
    assert "FAIL  flag count equals (n-1)! for n=5" in out.splitlines()


def test_verify_symmetric_quotient_check_can_fail(capsys, monkeypatch):
    import partmorse.cli as cli
    from partmorse.construction import get_complex
    from partmorse.perm import ComplexAction, PermGroup, QuotientComplex

    # the quotient of the n = 5 nerve by a five-cycle has Z/5 in H_1
    five_cycle = PermGroup.from_cycle_strings(5, ["(1 2 3 4 5)"])
    monkeypatch.setattr(cli, "TreeQuotient", lambda colours: QuotientComplex(ComplexAction(get_complex(5), five_cycle)))
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL  full symmetric quotient is homologically trivial"]


def test_verify_names_an_unmatched_cell(capsys, monkeypatch):
    import partmorse.cli as cli
    from partmorse.construction import build_main_matching, patchwork_keys
    from partmorse.morse import Matching

    real = build_main_matching(5)
    cx = real.complex
    # unmatch one pair of the zero fiber: both its cells turn critical
    pairs = real.pair_arrays()
    lo, hi = pairs[1]
    k = int(np.flatnonzero(patchwork_keys(cx)[1][lo] < 2)[0])
    keep = np.arange(len(lo)) != k
    broken = Matching(cx, {**pairs, 1: (lo[keep], hi[keep])})
    monkeypatch.setattr(cli, "build_main_matching", lambda n: broken)
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL  critical set is the flags plus the split vertex" in lines
    assert "FAIL  zero fiber collapses to the split vertex" in lines
    witness = f"unexpected cell (1, {lo[k]}): {cx.cell_label(1, lo[k])}"
    assert f"  critical set is the flags plus the split vertex: {witness}" in err.splitlines()
    assert f"  zero fiber collapses to the split vertex: {witness}" in err.splitlines()


def test_verify_names_a_pair_that_breaks_equivariance(capsys, monkeypatch):
    import partmorse.cli as cli
    from partmorse.construction import get_action
    from partmorse.morse import equivariance_witness
    from test_morse import drop_transported_pair

    broken, ((d, i), (_, j)) = drop_transported_pair(5)
    monkeypatch.setattr(cli, "build_main_matching", lambda n: broken)
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 1
    assert "FAIL  main matching is equivariant" in out.splitlines()
    witness = equivariance_witness(broken, get_action(5))
    assert f"  main matching is equivariant: {witness}" in err.splitlines()
    assert f"{broken.complex.cell_label(d, i)} -> {broken.complex.cell_label(d + 1, j)}" in witness


@pytest.mark.parametrize("n", [5, 6])
def test_verify_fails_a_matching_whose_partners_disagree(capsys, monkeypatch, n):
    from partmorse import construction
    from partmorse.morse import Matching, validate_matching

    real = construction.build_main_matching(n)
    broken = Matching(real.complex, real.pair_arrays())
    # one vertex's up now names another vertex's partner, whose down is unchanged
    v, w = np.flatnonzero(real.up[0] >= 0)[:2]
    broken.up[0][v] = real.up[0][w]
    cert = validate_matching(real.complex, broken)
    assert not cert.is_matching
    # the rebuilt edge of v does not hold v: the first defect names both
    assert re.fullmatch(rf"cell \(0,{v}\) is not a regular face of \(1,\d+\) \(coefficient 0\)", cert.defect)
    monkeypatch.setitem(construction._matchings, n, broken)
    code, out, err = run(capsys, "verify", "--n", str(n))
    assert code == 1
    assert "FAIL  main matching is a matching" in out.splitlines()
    assert f"  main matching is a matching: {cert.defect}" in err.splitlines()


def verify_names_a_cycle_of_four_triangles(capsys, monkeypatch, n, dropped):
    from partmorse import construction
    from partmorse.morse import Matching, validate_matching
    from partmorse.ordercomplex import parse_simplex

    real = construction.build_main_matching(n)
    cx = real.complex
    # four triangles a < v < c around the vertex v, each paired with the
    # edge it shares with the one before: a cycle through all eight cells,
    # which the real matching holds in `dropped` pairs
    rest = "".join(f"|{k}" for k in range(6, n + 1))
    v, atoms, coatoms = "1,2,3|4|5", ("1,2|3|4|5", "1,3|2|4|5"), ("1,2,3,4|5", "1,2,3,5|4")
    v, atoms, coatoms = v + rest, tuple(a + rest for a in atoms), tuple(c + rest for c in coatoms)
    ring = [(atoms[0], coatoms[0]), (atoms[1], coatoms[0]), (atoms[1], coatoms[1]), (atoms[0], coatoms[1])]
    triangles = [cx.locate(parse_simplex(f"{a} < {v} < {c}")) for a, c in ring]
    edges = [f"{atoms[0]} < {v}", f"{v} < {coatoms[0]}", f"{atoms[1]} < {v}", f"{v} < {coatoms[1]}"]
    edges = [cx.locate(parse_simplex(e)) for e in edges]
    cells = set(triangles + edges)
    kept = [p for p in real.pairs if p[0] not in cells and p[1] not in cells]
    assert len(kept) == len(real.pairs) - dropped
    broken = Matching(cx, kept + list(zip(edges, triangles)))
    cert = validate_matching(cx, broken)
    assert cert.is_matching and not cert.is_acyclic
    assert len(cert.witness_cycle) == 9 and cert.witness_cycle[0] == cert.witness_cycle[-1]
    assert set(cert.witness_cycle) == {cx.cell_label(d, i) for d, i in cells}
    monkeypatch.setitem(construction._matchings, n, broken)
    code, out, err = run(capsys, "verify", "--n", str(n))
    assert code == 1
    assert "PASS  main matching is a matching" in out.splitlines()
    assert "FAIL  main matching is acyclic" in out.splitlines()
    assert "FAIL  Morse homology agrees with simplicial homology" in out.splitlines()
    assert f"  main matching is acyclic: gradient cycle {' -> '.join(cert.witness_cycle)}" in err.splitlines()
    assert "Traceback" not in err


def test_verify_names_the_cycle_of_a_cyclic_matching(capsys, monkeypatch):
    verify_names_a_cycle_of_four_triangles(capsys, monkeypatch, 5, 4)


def test_verify_names_the_cycle_of_a_cyclic_matching_at_n6(capsys, monkeypatch):
    verify_names_a_cycle_of_four_triangles(capsys, monkeypatch, 6, 8)


def test_verify_prints_the_quotient_line_for_a_matching_that_is_not_equivariant(capsys, monkeypatch):
    from partmorse import construction
    from partmorse.morse import equivariance_witness
    from test_morse import drop_transported_pair

    broken, _ = drop_transported_pair(5)
    monkeypatch.setitem(construction._matchings, 5, broken)
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 1
    names = ("flag count equals (n-1)! for n=5",) + VERIFY_CHECKS
    assert [line[6:] for line in out.splitlines()] == list(names)
    assert "FAIL  full-group quotient has two critical cells" in out.splitlines()
    witness = equivariance_witness(broken, construction.get_action(5))
    assert f"  main matching is equivariant: {witness}" in err.splitlines()
    quotient = f"  full-group quotient has two critical cells: matching is not equivariant under the quotient group: {witness}"
    assert quotient in err.splitlines()
    assert "Traceback" not in err


def test_verify_and_report_read_cells_as_indices(capsys, monkeypatch):
    from partmorse.ordercomplex import OrderComplex, Simplex

    def no_simplex(*args):
        raise AssertionError("built or located a Simplex")

    monkeypatch.setattr(Simplex, "__post_init__", no_simplex)
    monkeypatch.setattr(OrderComplex, "locate", no_simplex)
    assert run(capsys, "verify", "--n", "5") == (0, verify_stdout(5), "")
    assert run(capsys, "report", "--n", "5")[0] == 0


def test_verify_failure_exits_one(capsys, monkeypatch):
    import partmorse.cli as cli

    monkeypatch.setattr(cli, "_verification_checks", lambda n: [("fine", True, None), ("broken", False, None)])
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 1
    assert "FAIL  broken" in out
    assert "broken" in err


def test_internal_key_error_is_not_a_config_error(monkeypatch):
    from partmorse.perm import ComplexAction

    def lookup_bug(self, g):
        raise KeyError("internal lookup")

    monkeypatch.setattr(ComplexAction, "images", lookup_bug)
    with pytest.raises(KeyError):
        main(["verify", "--n", "4"])


def test_internal_matching_error_is_not_a_config_error(monkeypatch):
    from partmorse import cli
    from partmorse.morse import InvalidMatchingError

    def broken_build(n):
        raise InvalidMatchingError("cell (0, 0) appears in two pairs")

    monkeypatch.setattr(cli, "build_main_matching", broken_build)
    with pytest.raises(InvalidMatchingError):
        main(["verify", "--n", "5"])


def test_verify_n7_runs_full_suite(capsys):
    code, out, err = run(capsys, "verify", "--n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(ln.startswith("PASS") for ln in lines)
    assert "(n-1)!" in lines[0]
    assert err == ""
    assert out == verify_stdout(7)


def test_verify_n8_goes_past_the_flag_count(monkeypatch):
    # the full n = 8 suite takes about half a minute; the sentinel stops it
    # at the nerve, which the flag count does not read
    from partmorse import cli

    class Reached(Exception):
        pass

    def stop(n):
        raise Reached(n)

    monkeypatch.setattr(cli, "get_complex", stop)
    with pytest.raises(Reached) as info:
        cli._verification_checks(8)
    assert info.value.args == (8,)


def test_report_aggregates(capsys):
    code, out, _ = run(capsys, "report", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload] == [3, 4]
    assert payload[0]["criticalCounts"] == [3]


def test_bad_group_is_config_error(capsys):
    code, _, err = run(capsys, "quotient", "--n", "4", "--group", "(1 5)")
    assert code == 2
    assert "error:" in err


def test_csv_rejected_for_non_tables(capsys):
    code, _, err = run(capsys, "complex", "--n", "4", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_csv_rejected_before_the_handler_runs(capsys, monkeypatch):
    def fail(n):
        raise AssertionError("report built matchings for a usage error")

    monkeypatch.setattr("partmorse.cli.matching_report", fail)
    code, out, err = run(capsys, "report", "--n", "5", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err == "error: csv output is only available for homology tables\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["complex", "--n", "4", "--out", "{missing}/x"],
        ["complex", "--n", "4", "--out", "{dir}"],
        ["matching", "--n", "4", "--dump-matching", "{missing}/x"],
        ["matching", "--n", "4", "--dump-matching", "{dir}"],
    ],
)
def test_unwritable_output_path_is_refused_before_the_handler_runs(capsys, monkeypatch, tmp_path, argv):
    import partmorse.cli as cli

    def no_build(n):
        raise AssertionError(f"built the nerve at n = {n}")

    monkeypatch.setattr(cli, "get_complex", no_build)
    monkeypatch.setattr(cli, "matching_report", no_build)
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: output path {argv[-1]}")
    assert "Traceback" not in err


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "complex", "--n", "4", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["totalCells"] == 31


def test_output_is_deterministic(capsys):
    first = run(capsys, "matching", "--n", "4")
    second = run(capsys, "matching", "--n", "4")
    assert first == second


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "partmorse.cli", "complex", "--n", "3"],
        capture_output=True,
        text=True,
        # the child imports the same package as this process
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fVector"] == [3]


def imports_numpy_ma(statement: str) -> bool:
    """Whether a fresh process that runs the statement imports numpy.ma."""
    code = f"import sys\nfrom partmorse.cli import main\nfrom partmorse.perm import PermGroup\n{statement}\nprint('numpy.ma' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    return proc.stdout.splitlines()[-1] == "True"


def test_verify_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 16 ms per process
    assert not imports_numpy_ma("main(['verify', '--n', '5'])")


def test_quotient_homology_and_group_closure_do_not_import_numpy_ma():
    assert not imports_numpy_ma("main(['homology', '--n', '6', '--group', '(2 3),(2 3 4 5 6)'])")
    assert not imports_numpy_ma("from chain_oracle import symmetric_group\nsymmetric_group(7)")


def test_tree_quotient_homology_does_not_import_numpy_ma():
    assert not imports_numpy_ma("main(['homology', '--n', '7', '--group', '(2 3),(2 3 4 5 6 7)'])")


def count_objects(monkeypatch, run_it) -> dict[str, int]:
    """The Partition and Perm objects made while run_it runs, with the
    cached complexes, actions and matchings of construction emptied."""
    from partmorse import construction
    from partmorse.perm import Perm
    from partmorse.setpart import Partition

    counts = {}
    for cls in (Partition, Perm):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)

        counts[cls.__name__] = 0
        monkeypatch.setattr(cls, "__init__", counted)
    for cache in ("_complexes", "_actions", "_matchings"):
        monkeypatch.setattr(construction, cache, {})
    run_it()
    return counts


def sphere_table(dim: int, count: int) -> list[dict]:
    """The homology table of a wedge of count spheres of dimension dim."""
    return [{"dim": d, "betti": count if d == dim else 0, "torsion": []} for d in range(dim + 1)]


def test_quotient_homology_makes_no_partitions_and_no_group_elements(monkeypatch, capsys):
    counts = count_objects(monkeypatch, lambda: main(["homology", "--n", "7", "--group", "(2 3),(2 3 4 5 6 7)"]))
    # the nerve of Pi_7 modulo the stabilizer of 1 is one 4-sphere
    assert json.loads(capsys.readouterr().out) == sphere_table(4, 1)
    # the two parsed generators only
    assert counts == {"Partition": 0, "Perm": 2}


def test_quotient_by_a_young_subgroup_is_a_wedge_of_index_many_spheres(capsys):
    # G = S_2 x S_4 on {2,3} and {4,5,6,7}, order 48, fixes 1: the quotient
    # is a wedge of [S_6 : G] = 720 / 48 = 15 spheres of dimension n - 3
    assert parse_group(7, "(2 3),(4 5),(4 5 6 7)").order == 48
    code, out, _ = run(capsys, "homology", "--n", "7", "--group", "(2 3),(4 5),(4 5 6 7)")
    assert code == 0
    assert json.loads(out) == sphere_table(4, 15)


class NerveBuilt(Exception):
    pass


def forbid_the_nerve(monkeypatch):
    """Make building an OrderComplex or a ComplexAction raise NerveBuilt,
    with the cached complexes and actions of construction emptied."""
    from partmorse import construction
    from partmorse.ordercomplex import OrderComplex
    from partmorse.perm import ComplexAction

    def refuse(self, *args, **kwargs):
        raise NerveBuilt(type(self).__name__)

    for cls in (OrderComplex, ComplexAction):
        monkeypatch.setattr(cls, "__init__", refuse)
    for cache in ("_complexes", "_actions"):
        monkeypatch.setattr(construction, cache, {})


@pytest.mark.parametrize("group", ["(2 3),(2 3 4 5 6 7)", "(4 2),(4 2 7 3 6 5)"])
def test_stabilizer_homology_at_n7_builds_no_nerve(monkeypatch, capsys, group):
    # the second spelling is the seed-1 conjugate that perfbench's quotient-n7 runs
    forbid_the_nerve(monkeypatch)
    code, out, _ = run(capsys, "homology", "--n", "7", "--group", group)
    assert code == 0 and json.loads(out) == sphere_table(4, 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_symmetric_and_stabilizer_homology_build_no_nerve_at_every_n(monkeypatch, capsys, n):
    forbid_the_nerve(monkeypatch)
    rest = " ".join(map(str, range(2, n + 1)))
    backward = " ".join(map(str, range(n, 1, -1)))
    # S_n, trivial, and the stabilizer of 1, one (n-3)-sphere, each by a
    # transposition and a long cycle and by a conjugate of those
    spellings = {
        f"(1 2),(1 {rest})": 0,
        f"({n} 1),({backward} 1)": 0,
        f"(2 3),({rest})": 1,
        f"({n} {n - 1}),({backward})": 1,
    }
    for group, spheres in spellings.items():
        code, out, _ = run(capsys, "homology", "--n", str(n), "--group", group)
        assert code == 0 and json.loads(out) == sphere_table(n - 3, spheres), group


def test_quotient_by_s6_builds_no_nerve(monkeypatch, capsys):
    forbid_the_nerve(monkeypatch)
    code, out, err = run(capsys, "quotient", "--n", "6", "--group", "(1 2),(1 2 3 4 5 6)")
    assert code == 0 and "group does not fix 1" in err
    assert json.loads(out) == {
        "eulerCharacteristic": 1,
        "fVector": [9, 28, 36, 16],
        "group": ["(1 2)", "(1 2 3 4 5 6)"],
        "n": 6,
        "reducedHomology": sphere_table(3, 0),
    }


@pytest.mark.parametrize(
    "n, group",
    [
        (7, "(2 3),(4 5),(4 5 6 7)"),  # a Young subgroup of order 48 < 6!
        (7, "(1 2 3 4 5 6 7)"),  # not a Young subgroup
    ],
)
def test_other_groups_take_the_nerve(monkeypatch, capsys, n, group):
    forbid_the_nerve(monkeypatch)
    with pytest.raises(NerveBuilt):
        main(["homology", "--n", str(n), "--group", group])


def test_n9_quotient_homology_by_s9_and_the_stabilizer_of_1(capsys):
    code, out, _ = run(capsys, "homology", "--n", "9", "--group", "(2 3),(2 3 4 5 6 7 8 9)")
    assert code == 0 and json.loads(out) == sphere_table(6, 1)
    code, out, _ = run(capsys, "homology", "--n", "9", "--group", "(1 2),(1 2 3 4 5 6 7 8 9)", "--format", "csv")
    assert code == 0 and out == "dim,betti,torsion\n" + "".join(f"{d},0,\n" for d in range(7))


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--n", "9", "--group", "(1 2 3 4 5 6 7 8 9)"],
        ["homology", "--n", "9", "--group", "(2 3),(4 5),(4 5 6 7 8 9)"],
        ["quotient", "--n", "9", "--group", "(2 3),(2 3 4 5 6 7 8 9)"],
    ],
)
def test_other_n9_runs_are_refused_naming_the_one_that_runs(monkeypatch, capsys, argv):
    forbid_the_nerve(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "57,153,600" in err and "only homology with --group S_9 or a point stabilizer" in err


def test_n10_is_refused_before_the_group_is_generated(monkeypatch, capsys):
    import partmorse.cli as cli

    def no_group(*args):
        raise AssertionError("generated the group")

    monkeypatch.setattr(cli, "parse_group", no_group)
    code, out, err = run(capsys, "homology", "--n", "10", "--group", "(1 2),(1 2 3 4 5 6 7 8 9 10)")
    assert code == 2 and out == "" and "2,571,912,000" in err


def test_verify_checks_make_objects_for_generators_only(monkeypatch):
    import partmorse.cli as cli

    for n in (5, 6):
        counts = count_objects(monkeypatch, lambda: cli._verification_checks(n))
        # the two generators of the stabilizer of 1 at size n alone; the
        # main matching makes no group, and the symmetric quotient is
        # built from trees
        assert counts == {"Partition": 0, "Perm": 2}


def test_verify_builds_one_stabilizer_action(monkeypatch, capsys):
    from partmorse import construction
    from partmorse.ordercomplex import OrderComplex
    from partmorse.perm import ComplexAction

    actions, image_passes = [], []
    init, map_chains = ComplexAction.__init__, OrderComplex.map_chains

    def counted_init(self, complex, group):
        actions.append((complex.dim, group.order, group.fixes_point(1)))
        init(self, complex, group)

    def counted_map_chains(self, *args, **kwargs):
        image_passes.append(self.dim)
        return map_chains(self, *args, **kwargs)

    monkeypatch.setattr(ComplexAction, "__init__", counted_init)
    monkeypatch.setattr(OrderComplex, "map_chains", counted_map_chains)
    for cache in ("_complexes", "_actions", "_matchings"):
        monkeypatch.setattr(construction, cache, {})
    assert main(["verify", "--n", "6"]) == 0
    # the stabilizer of 1 at n = 6, order 5!, is the one group that acts on
    # the nerve of dimension 3: its quotient and the quotient matching share
    # that action, and the symmetric quotient is built from trees
    assert [action for action in actions if action[0] == 3] == [(3, 120, True)]
    # each of its two generators maps the nerve once: the equivariance
    # check, the flag orbits and the stabilizer quotient read the images
    # the action keeps
    assert image_passes.count(3) == 2


def test_verify_certifies_each_matching_once(monkeypatch, capsys):
    from partmorse import cli, construction, morse

    built, validated = [], []
    init, validate = morse.Matching.__init__, morse.validate_matching

    def counted_init(self, complex, pairs):
        built.append(complex.dim)
        init(self, complex, pairs)

    def counted_validate(*args, **kwargs):
        validated.append(args[0].dim)
        return validate(*args, **kwargs)

    monkeypatch.setattr(morse.Matching, "__init__", counted_init)
    for module in (morse, cli, construction):
        monkeypatch.setattr(module, "validate_matching", counted_validate)
    for cache in ("_complexes", "_actions", "_matchings"):
        monkeypatch.setattr(construction, cache, {})
    assert main(["verify", "--n", "6"]) == 0
    # the main matching at n = 6 alone, the rebuild inside validate_matching
    # and the stabilizer quotient matching, which find_cycle checks in place
    assert built == [3, 3, 3]
    assert validated == [3]

import json
import os
import subprocess
import sys

import pytest

from partmorse.cli import main, parse_group, split_group_arg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_homology_max_dim(capsys):
    code, out, _ = run(capsys, "homology", "--n", "5", "--max-dim", "1")
    assert code == 0
    payload = json.loads(out)
    assert [h["dim"] for h in payload] == [0, 1]
    assert payload[1]["betti"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "5", "--out", "x"],
        ["verify", "--n", "5", "--format", "text"],
        ["complex", "--n", "5", "--max-dim", "1"],
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_prints_check_lines(capsys):
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(ln.startswith("PASS") for ln in lines)
    assert err == ""


def test_verify_failure_exits_one(capsys, monkeypatch):
    import partmorse.cli as cli

    monkeypatch.setattr(cli, "_verification_checks", lambda n: [("fine", True), ("broken", False)])
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 1
    assert "FAIL  broken" in out
    assert "broken" in err


def test_internal_key_error_is_not_a_config_error(monkeypatch):
    from partmorse.ordercomplex import OrderComplex

    def lookup_bug(self, chain):
        raise KeyError("internal lookup")

    monkeypatch.setattr(OrderComplex, "locate", lookup_bug)
    with pytest.raises(KeyError):
        main(["verify", "--n", "4"])


def test_verify_large_n_counts_only(capsys):
    code, out, _ = run(capsys, "verify", "--n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("PASS") and "(n-1)!" in lines[0]


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

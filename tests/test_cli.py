import json
import pathlib

from knotparity.cli import run

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PAIR = str(FIXTURES / "torus_pair.surf")
GAUSS = str(FIXTURES / "sample.gauss")


def test_invariant_s(capsys):
    assert run(["invariant", "--type", "s", PAIR]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1.12: ")
    assert "1.13bar: " in out


def test_invariant_output_is_byte_stable(capsys):
    run(["invariant", "--type", "s", PAIR])
    first = capsys.readouterr().out
    run(["invariant", "--type", "s", PAIR])
    assert capsys.readouterr().out == first


def test_invariant_json_schema(capsys):
    assert run(["invariant", "--type", "nprime", GAUSS, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [rec["name"] for rec in payload]
    assert names == ["trefoil", "vtrefoil", "unknot", "kink", "four1"]
    for rec in payload:
        assert set(rec) == {"name", "ring", "canonical", "unit_record", "parity", "types"}
        assert rec["ring"] == "Rprime"
    byname = {r["name"]: r for r in payload}
    assert byname["trefoil"]["canonical"] == "0"
    assert byname["vtrefoil"]["canonical"] == "1"
    assert byname["vtrefoil"]["types"] == {"1": 0, "2": 0}


def test_parity_text_and_json(capsys):
    assert run(["parity", GAUSS]) == 0
    out = capsys.readouterr().out
    assert "vtrefoil" in out and "odd" in out and "type 0" in out
    assert run(["parity", GAUSS, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rec = next(r for r in payload if r["name"] == "trefoil")
    assert rec["parity"] == {"1": "even", "2": "even", "3": "even"}
    assert rec["interlacement"] == {"1": 2, "2": 2, "3": 2}


def test_compare_distinct_and_exit_codes(capsys):
    assert run(["compare", PAIR, "1.12", "1.13bar"]) == 0
    assert capsys.readouterr().out.strip() == "Distinct"
    assert run(["compare", PAIR, "1.12", "1.13bar", "--expect-equivalent"]) == 2
    capsys.readouterr()
    assert run(["compare", PAIR, "1.12", "1.12"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("EquivalentUpToUnits")


def test_compare_unknown_name(capsys):
    assert run(["compare", PAIR, "1.12", "nope"]) == 1


def test_dump_matrix(capsys):
    assert run(["dump-matrix", "--type", "s", PAIR]) == 0
    out = capsys.readouterr().out
    assert "1.12 (G, 4x4)" in out
    assert run(["dump-matrix", "--type", "presentation", GAUSS, "--json"]) == 0
    for block in capsys.readouterr().out.split("}\n{"):
        assert "entries" in block


def test_verify_cli(capsys):
    assert run(["verify", "--trials", "5", "--max-crossings", "4", "--seed", "7",
                "--invariant", "both"]) == 0
    out = capsys.readouterr().out
    assert out.count("zero counterexamples") == 2


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "rep.json"
    assert run(["verify", "--trials", "3", "--max-crossings", "3", "--seed", "1",
                "--invariant", "s", "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data[0]["ok"] is True
    assert data[0]["seed"] == 1


def test_lenient_census(tmp_path, capsys):
    bad = tmp_path / "bad.gauss"
    bad.write_text("ok: O1+ U1+\nbroken: O1+ O1+\n")
    assert run(["invariant", "--type", "nprime", str(bad), "--lenient"]) == 0
    out = capsys.readouterr()
    assert "ok:" in out.out
    assert "skipped" in out.err
    # fatal without --lenient
    assert run(["invariant", "--type", "nprime", str(bad)]) == 1


def test_usage_error_exit_code():
    assert run(["invariant", PAIR]) == 1  # missing --type


def test_verify_rejects_out_of_range_arguments(capsys):
    # each would otherwise crash in random.randint or silently run no trials
    for bad in (["--max-crossings", "0"], ["--genus", "-1"], ["--trials", "-3"],
                ["--trials", "0"]):
        assert run(["verify", "--seed", "1", *bad]) == 1, bad
        err = capsys.readouterr().err
        assert "usage:" in err and "must be at least" in err and "Traceback" not in err

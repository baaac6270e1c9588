import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from knotparity.cli import _dumps, build_parser, run
from knotparity.diagram import MAX_GENUS, MAX_TOKENS
from knotparity.moves import MAX_CROSSINGS

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
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


def test_compare_rejects_an_ambiguous_name(tmp_path, capsys):
    census = tmp_path / "dup.gauss"
    census.write_text("a: O1+ U1+\na: O1- U1-\nb: O1+ U1+\n")
    for names in (["a", "a"], ["b", "a"], ["a", "b"]):
        assert run(["compare", "--type", "nprime", str(census), *names]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: diagram name 'a' is ambiguous\n"
    assert run(["compare", "--type", "nprime", str(census), "b", "b"]) == 0


def test_compare_s_across_genera_exits_1(tmp_path, capsys):
    census = tmp_path / "genera.surf"
    census.write_text("genus 1; b: x1+ x1-\nc: \n")
    assert run(["compare", str(census), "b", "c"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: s values of genus 1 and 0 lie in different rings\n"
    # nprime values of every genus share one ring
    assert run(["compare", "--type", "nprime", str(census), "b", "c"]) == 0
    assert capsys.readouterr().out == "EquivalentUpToUnits: unit sign=+ t^0 p^0 q^0 (second_from_first)\n"


def test_byte_order_mark_starts_no_line(tmp_path, capsys):
    surf = tmp_path / "bom.surf"
    surf.write_bytes(b"\xef\xbb\xbfgenus 1; a: O1+ x1+ U1+\n")
    assert run(["invariant", "--type", "s", str(surf)]) == 0
    assert capsys.readouterr().out.startswith("a: ")
    gauss = tmp_path / "bom.gauss"
    gauss.write_bytes(b"\xef\xbb\xbfa: O1+ U1+\n")
    assert run(["compare", str(gauss), "a", "a"]) == 0
    assert capsys.readouterr().out.startswith("EquivalentUpToUnits")


def test_closed_stdout_exits_1_without_traceback():
    # the read end is closed before the command starts, so its first flush
    # of stdout meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "knotparity", "invariant", "--type", "s", PAIR],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_dump_matrix(capsys):
    assert run(["dump-matrix", "--type", "s", PAIR]) == 0
    out = capsys.readouterr().out
    assert "1.12 (G, 4x4)" in out
    assert run(["dump-matrix", "--type", "presentation", GAUSS, "--json"]) == 0
    for block in capsys.readouterr().out.split("}\n{"):
        assert "entries" in block


def test_invariant_json_refuses_dump_matrix(capsys):
    """``--json`` has no matrix in its schema, so the combination is an input
    error that names the command which does print one."""
    for kind in ("s", "nprime"):
        assert run(["invariant", "--type", kind, "--json", "--dump-matrix", PAIR]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "dump-matrix --json" in captured.err
    # each flag alone still works
    assert run(["invariant", "--type", "s", "--dump-matrix", PAIR]) == 0
    assert "1.12: " in capsys.readouterr().out


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


def test_verify_report_to_unwritable_path_exits_1(tmp_path, capsys):
    # the report file is opened before the sweep, so none of it runs
    report = tmp_path / "missing" / "r.json"
    assert run(["verify", "--trials", "1", "--max-crossings", "3", "--seed", "1",
                "--invariant", "s", "--report", str(report)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and str(report) in out.err
    assert not report.exists()


def test_lenient_census(tmp_path, capsys):
    bad = tmp_path / "bad.gauss"
    bad.write_text("ok: O1+ U1+\nbroken: O1+ O1+\n")
    assert run(["invariant", "--type", "nprime", str(bad), "--lenient"]) == 0
    out = capsys.readouterr()
    assert "ok:" in out.out
    assert "skipped" in out.err
    # fatal without --lenient
    assert run(["invariant", "--type", "nprime", str(bad)]) == 1


def test_bad_numbers_and_repeated_vertices_exit_1(tmp_path, capsys):
    ones = "1" * 5000
    for bad, msg in (
        ("genus 1; b: O1+ v1 x1+ U1+ v1", "b: a vertex id appears twice"),
        (f"k: O{ones}+ U{ones}+", "k: too many digits in token O1111111111111111111..."),
        ("k: O\u0661+ U\u0661+", "k: bad token 'O\u0661+'"),
    ):
        path = tmp_path / "bad.surf"
        path.write_text(f"genus 1; ok: O1+ x1+ U1+\n{bad}\n", encoding="utf-8")
        assert run(["invariant", "--type", "s", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {msg}\n"
        assert run(["invariant", "--type", "s", str(path), "--lenient"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("ok: ") and captured.out.count("\n") == 1
        assert captured.err == f"warning: line 2 skipped: {msg}\n"


def test_undecodable_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bytes.gauss"
    bad.write_bytes(b"k: O1+ U1+\n\xff\n")
    assert run(["invariant", "--type", "s", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: line 2 is not valid UTF-8 (invalid start byte)\n"
    assert run(["invariant", "--type", "s", str(bad), "--lenient"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "k: 0\n"
    assert captured.err == "warning: line 2 skipped: line 2 is not valid UTF-8 (invalid start byte)\n"


def test_usage_error_exit_code():
    assert run(["invariant", PAIR]) == 1  # missing --type


def test_verify_rejects_out_of_range_arguments(capsys):
    # each would otherwise crash in random.randint or silently run no trials
    for bad in (["--max-crossings", "0"], ["--genus", "-1"], ["--trials", "-3"],
                ["--trials", "0"]):
        assert run(["verify", "--seed", "1", *bad]) == 1, bad
        err = capsys.readouterr().err
        assert "usage:" in err and "must be at least" in err and "Traceback" not in err


def test_genus_ceiling_exits_1(tmp_path, capsys):
    big = tmp_path / "big.surf"
    big.write_text("genus 1; small: O1+ x1+ U1+\ngenus 99999999; big: O1+ x1+ U1+\n")
    assert run(["invariant", "--type", "s", str(big)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: big: genus")
    assert run(["invariant", "--type", "s", str(big), "--lenient"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("small: ") and "big" not in captured.out
    assert "warning: line 2 skipped" in captured.err
    assert run(["verify", "--trials", "1", "--genus", str(MAX_GENUS + 1)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and f"must be at most {MAX_GENUS}" in err and "Traceback" not in err


def test_max_crossings_ceiling(capsys):
    # a trial's code has 2n passages and at most 2 side tokens on each of 2g
    # sides, and a one-move neighbour adds at most 4 tokens
    assert 2 * MAX_CROSSINGS + 2 * 2 * MAX_GENUS + 4 <= MAX_TOKENS
    assert run(["verify", "--trials", "1", "--max-crossings", str(MAX_CROSSINGS + 1)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and f"must be at most {MAX_CROSSINGS}" in err and "Traceback" not in err
    args = build_parser().parse_args(["verify", "--max-crossings", str(MAX_CROSSINGS)])
    assert args.max_crossings == MAX_CROSSINGS


def test_consecutive_runs_share_no_parsed_state(capsys):
    # the parser is built once per process; each run parses into a fresh
    # namespace, so flags of one call never reach the next
    assert run(["invariant", "--type", "s", PAIR, "--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert run(["invariant", "--type", "nprime", GAUSS]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trefoil: ")
    assert run(["dump-matrix", "--type", "presentation", GAUSS]) == 0
    assert capsys.readouterr().out.startswith("trefoil (Rraw, ")
    assert run(["invariant", "--type", "s", PAIR]) == 0
    assert capsys.readouterr().out.startswith("1.12: ")


def _payload(rng, depth=0):
    """A random JSON payload of the kinds the commands write."""
    leaves = (
        lambda: rng.choice(("", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f",
                            "caf\u00e9", "\u2203x \U0001d4b3", "t^-2*x1 - 1")),
        lambda: rng.choice((0, 1, -1, -7, 12, 2**70, -(2**70))),
        lambda: rng.choice((True, False, None)),
    )
    kind = rng.randrange(5 if depth < 4 else 3)
    if kind < 3:
        return leaves[kind]()
    size = rng.choice((0, 1, 2, 4))
    if kind == 3:
        return [_payload(rng, depth + 1) for _ in range(size)]
    return {leaves[0]() + str(i): _payload(rng, depth + 1) for i in range(size)}


def test_dumps_matches_json_dumps():
    rng = random.Random(2104)
    for _ in range(500):
        obj = _payload(rng)
        assert _dumps(obj) == json.dumps(obj, indent=2)
    for obj in ([], {}, [[]], {"a": {}}, [{"row": "1", "col": "2", "value": "-t"}], (1, ("x",))):
        assert _dumps(obj) == json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _dumps([0.5])


def _documents(text):
    """The JSON documents written one after another in text."""
    decoder, docs, at = json.JSONDecoder(), [], 0
    while at < len(text):
        doc, at = decoder.raw_decode(text, at)
        docs.append(doc)
        at += 1  # the newline print writes after each document
    return docs


def test_json_output_keeps_the_indent_2_layout(tmp_path, capsys):
    # k's presentation has no nonzero entry; unknot's matrices are 0x0
    small = tmp_path / "small.gauss"
    small.write_text("k: O1+ U1+\nunknot:\n")
    commands = [["compare", "--json", PAIR, "1.12", "1.12"], ["compare", "--json", PAIR, "1.12", "1.13bar"],
                ["compare", "--json", "--type", "nprime", GAUSS, "trefoil", "four1"]]
    for path in (PAIR, GAUSS, str(small)):
        commands.append(["parity", "--json", path])
        commands += [["invariant", "--json", "--type", kind, path] for kind in ("s", "nprime")]
        commands += [["dump-matrix", "--json", "--type", kind, path] for kind in ("s", "nprime", "presentation")]
    for argv in commands:
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        docs = _documents(out)
        assert docs and out == "".join(json.dumps(doc, indent=2) + "\n" for doc in docs), argv
    report = tmp_path / "r.json"
    assert run(["verify", "--trials", "2", "--max-crossings", "3", "--seed", "4",
                "--report", str(report)]) == 0
    capsys.readouterr()
    text = report.read_text()
    assert text == json.dumps(json.loads(text), indent=2)

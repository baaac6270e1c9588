"""Tests of the scripts under ``scripts/``: smoke runs, each as its own
process, the code-line counting rule and the statistics of the benchmark
pairs (on canned values: no benchmark runs here)."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_torus_pair_walkthrough():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "torus_pair.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "== verdict: Distinct" in lines
    assert [line.split(":")[0] for line in lines if line.startswith("== 1.")] == ["== 1.12", "== 1.13bar"]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_code_lines():
    return _load("code_lines")


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "import os  # a trailing comment keeps the line\n"
        "    # an indented comment\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Function\n"
        "        docstring.'''\n"
        '        return """a string\n'
        'that is data"""\n'
    )
    # import, class, def, and the two lines of the returned string
    assert _load_code_lines().code_lines(src) == 5


def test_code_lines_total_is_the_sum_of_the_files():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *files, total = [line.split() for line in proc.stdout.splitlines()]
    assert total[1] == "total"
    assert [path for _, path in files] == sorted(
        str(p.relative_to(SCRIPTS.parent)) for p in (SCRIPTS.parent / "src" / "knotparity").glob("*.py")
    )
    assert int(total[0]) == sum(int(n) for n, _ in files) > 0


def test_bench_pairs_quartiles_are_inclusive():
    bench_pairs = _load("bench_pairs")
    assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_bench_pairs_gain_rule():
    summarize = _load("bench_pairs").summarize
    parent = [376, 380, 372, 377, 375, 379, 374, 378, 371, 381]
    # parent quartiles 374.25 and 378.75: an IQR of 4.5 around a median of 376.5
    s = summarize(parent, [p + 40 for p in parent], "higher")
    assert s["parent"] == (376.5, 374.25, 378.75) and s["change"][0] == 416.5
    assert (s["wins"], s["pairs"], s["holds"]) == (10, 10, True)
    # nine wins of ten still hold; eight do not
    nine = [p + 40 for p in parent[:9]] + [parent[9] - 1]
    assert summarize(parent, nine, "higher")["wins"] == 9 and summarize(parent, nine, "higher")["holds"]
    eight = [p + 40 for p in parent[:8]] + [parent[8], parent[9] - 1]
    assert summarize(parent, eight, "higher")["wins"] == 8 and not summarize(parent, eight, "higher")["holds"]
    # every pair won, but the medians differ by less than the parent's IQR
    s = summarize(parent, [p + 4 for p in parent], "higher")
    assert s["wins"] == 10 and not s["holds"]
    # a lower-is-better metric wins by going down; ties count for neither side
    lower = summarize([2.0, 2.1, 2.2, 2.3], [1.0, 1.1, 2.2, 1.2], "lower")
    assert lower["wins"] == 3 and not lower["holds"]
    assert summarize([2.0] * 10, [1.0] * 10, "lower")["holds"]
    assert not summarize([2.0] * 10, [3.0] * 10, "lower")["holds"]
    with pytest.raises(ValueError):
        summarize([1.0], [], "higher")

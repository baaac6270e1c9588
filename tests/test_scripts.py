"""Tests of the scripts under ``scripts/``: smoke runs, each as its own process, and the code-line counting rule."""

import importlib.util
import pathlib
import subprocess
import sys

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


def _load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

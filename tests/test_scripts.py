"""Smoke tests of the scripts under ``scripts/``, each run as its own process."""

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

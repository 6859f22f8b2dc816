"""Smoke tests: every script in scripts/ runs to completion as a
subprocess against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_greedy_vs_lll():
    out = run_script(
        "greedy_vs_lll.py", "--case", "20,14", "--case", "9,6", "--attempts-per-row", "50"
    )
    header, large, small = out.splitlines()
    assert header.split() == ["n", "k", "lll_floor", "mt_resamples", "greedy_rows", "exact_max"]
    *values, exact_max = large.split()
    n, k, floor, _, greedy_rows = map(int, values)
    assert (n, k, exact_max) == (20, 14, "-")  # C(20, 14) is past the candidate ceiling
    assert greedy_rows >= floor
    n, k, floor, _, greedy_rows, exact_max = map(int, small.split())
    assert (n, k, exact_max) == (9, 6, 9)
    assert floor <= greedy_rows <= exact_max


def test_reproduce_tables_independent():
    out = run_script("reproduce_tables.py", "--model", "independent")
    lines = out.splitlines()
    assert lines[0] == "Independent model"
    assert "Fixed-weight" not in out
    assert len([line for line in lines if line.strip()]) == 2 + 7


def test_export_figures(tmp_path):
    out = run_script("export_figures.py", "--out", str(tmp_path), "--grid-step", "0.05")
    for figure in (1, 2, 3, 4):
        assert f"figure{figure}.csv" in out
        assert (tmp_path / f"figure{figure}.csv").read_text().count("\n") > 1

"""Smoke tests for the runnable studies under scripts/."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_feasibility_table_passes_both_presets():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "feasibility_table.py")],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    presets = [(row[0], row[-1]) for row in rows if row[:1] in (["cpw"], ["squid"])]
    assert presets == [("cpw", "pass"), ("squid", "pass")]

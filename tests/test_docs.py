"""Executes every command documented in docs/reproduction.md and diffs the
named output fields against the documented expectations, plus the committed
expected reports under docs/expected/."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DOC = REPO / "docs" / "reproduction.md"
EXPECTED_DIR = REPO / "docs" / "expected"

_RESULTS: dict[str, dict] = {}


def run_command(command: str) -> dict:
    if command not in _RESULTS:
        assert command.startswith("gatesim "), command
        argv = [sys.executable, "-m", "gatesim"] + command.split()[1:]
        proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{command!r} exited {proc.returncode}: {proc.stderr}"
        _RESULTS[command] = json.loads(proc.stdout)
    return _RESULTS[command]


def lookup(doc: dict, dotted: str):
    """Walk ``dotted``: a part names a dict key, or indexes a list by its position."""
    node = doc
    for part in dotted.split("."):
        if isinstance(node, list):
            assert part.isdigit() and int(part) < len(node), f"missing field {dotted!r}"
            node = node[int(part)]
            continue
        assert isinstance(node, dict) and part in node, f"missing field {dotted!r}"
        node = node[part]
    return node


def doc_rows():
    rows = []
    for line in DOC.read_text().splitlines():
        m = re.match(r"^\|(.+)\|\s*$", line)
        if not m:
            continue
        cells = [c.strip() for c in m.group(1).split("|")]
        if len(cells) != 5 or cells[0] in ("Quantity", "----------") or set(cells[0]) == {"-"}:
            continue
        quantity, command, field, expected, tolerance = cells
        rows.append((quantity, command.strip("`"), field.strip("`"), expected, tolerance))
    assert len(rows) >= 25, "reproduction table went missing"
    return rows


def check_value(got, expected: str, tolerance: str):
    if tolerance == "exact":
        if expected in ("true", "false"):
            assert got is (expected == "true")
        else:
            try:
                assert got == json.loads(expected)
            except json.JSONDecodeError:
                assert got == expected
        return
    kind, _, amount = tolerance.partition(":")
    want = float(expected)
    if kind == "rel":
        assert got == pytest.approx(want, rel=float(amount))
    elif kind == "abs":
        assert got == pytest.approx(want, abs=float(amount))
    else:
        raise AssertionError(f"unknown tolerance spec {tolerance!r}")


@pytest.mark.parametrize(
    "quantity,command,field,expected,tolerance",
    doc_rows(),
    ids=[row[0] for row in doc_rows()],
)
def test_documented_row(quantity, command, field, expected, tolerance):
    doc = run_command(command)
    check_value(lookup(doc, field), expected, tolerance)


@pytest.mark.parametrize("path", sorted(EXPECTED_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_expected_report(path):
    expected = json.loads(path.read_text())
    doc = run_command(expected["command"])
    for field, check in expected["checks"].items():
        got = lookup(doc, field)
        if "equals" in check:
            assert got == check["equals"], field
        elif "rtol" in check:
            assert got == pytest.approx(check["value"], rel=check["rtol"]), field
        else:
            assert got == pytest.approx(check["value"], abs=check["atol"]), field


def test_documented_commands_are_deterministic():
    command = "gatesim budget --params presets/cpw.json"
    argv = [sys.executable, "-m", "gatesim"] + command.split()[1:]
    first = subprocess.run(argv, cwd=REPO, capture_output=True, timeout=300)
    second = subprocess.run(argv, cwd=REPO, capture_output=True, timeout=300)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

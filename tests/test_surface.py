"""Every public top-level function of the package and the scripts has a caller there.

References from the tests and from the ``__init__`` re-exports do not count:
a function that only tests reach is surface that its tests alone keep alive.
Its tests should move onto the path the package itself uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "gatesim").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "scripts").glob("*.py"))

# Public functions allowed without a caller, each with its reason.
ALLOWED = {
    "intermediate_states": "to be folded into a per-window trace of verify (ROADMAP item 4)",
    "truth_table": "the library form of a gate's sign table, which the truth-table tests read",
    "propagator": "dense exp(-iHt), the reference the block-propagation tests compare against",
    "tensor_embed": "dense embedding, the reference the index-map and window tests compare against",
}


def _scan():
    """Public top-level functions, and the names each top-level statement references."""
    defined = {}
    references = []  # (owner function name or None, referenced name)
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = path.relative_to(ROOT)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    references.append((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    references.append((owner, node.attr))
    return defined, references


def _uncalled():
    defined, references = _scan()
    called = {name for owner, name in references if owner != name}
    return {name: path for name, path in defined.items() if name not in called}


def test_every_public_function_has_a_caller():
    unused = sorted(f"{path}: {name}" for name, path in _uncalled().items() if name not in ALLOWED)
    assert not unused, "public functions without a caller outside tests:\n" + "\n".join(unused)


def test_allowlist_holds_only_uncalled_functions():
    assert sorted(set(ALLOWED) - set(_uncalled())) == []

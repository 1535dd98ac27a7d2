"""Every public function and method of the package and the scripts has a caller there.

References from the tests and from the ``__init__`` re-exports do not count:
a function that only tests reach is surface that its tests alone keep alive.
Its tests should move onto the path the package itself uses.

A top-level function is called by a name or an attribute of that name; a
name that a function binds itself (a parameter, an assignment target, a loop
variable) refers to that local and does not count.  A public method or
property of a class needs an attribute reference.  Neither may come from
the function's own body.  Matching is by name, so a method still counts as
called when any attribute of its name is referenced, e.g. ``np.linalg.norm``
for a method ``norm``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "gatesim").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "scripts").glob("*.py"))

# Public functions allowed without a caller, each with its reason.
ALLOWED = {
    "propagator": "dense exp(-iHt), the reference the block-propagation tests compare against",
    "tensor_embed": "dense embedding, the reference the index-map and window tests compare against",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = _FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(scope):
    """Nodes inside ``scope`` that are not inside a scope nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope):
    """Names local to a function or comprehension scope."""
    names = set()
    if isinstance(scope, _FUNCTIONS):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        names = {p.arg for p in params if p is not None}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _references(scope, owner, local, out):
    """Append ``(owner, kind, name)`` for every name and attribute ``scope`` references."""
    local = local | _bindings(scope) if isinstance(scope, _SCOPES) else local
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            out.append((owner, "name", node.id))
        elif isinstance(node, ast.Attribute):
            out.append((owner, "attribute", node.attr))
        if isinstance(node, _SCOPES):
            _references(node, owner, local, out)


def _scan(sources):
    """Public functions and methods of ``(label, text)`` sources, and every reference."""
    functions, methods, references = {}, {}, []
    for label, text in sources:
        for stmt in ast.parse(text, filename=label).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not stmt.name.startswith("_"):
                    functions[stmt.name] = label
                _references(stmt, stmt.name, frozenset(), references)
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{stmt.name}.{item.name}"
                        if not item.name.startswith("_"):
                            methods[qualname] = (label, item.name)
                        _references(item, qualname, frozenset(), references)
                    else:
                        _references(item, None, frozenset(), references)
            else:
                _references(stmt, None, frozenset(), references)
    return functions, methods, references


def _uncalled(sources):
    functions, methods, references = _scan(sources)
    uncalled = {
        name: label
        for name, label in functions.items()
        if not any(owner != name and ref == name for owner, _, ref in references)
    }
    for qualname, (label, name) in methods.items():
        if not any(
            owner != qualname and kind == "attribute" and ref == name
            for owner, kind, ref in references
        ):
            uncalled[qualname] = label
    return uncalled


def _repo_sources():
    return [(str(p.relative_to(ROOT)), p.read_text()) for p in SOURCES]


def test_every_public_function_has_a_caller():
    unused = sorted(
        f"{label}: {name}"
        for name, label in _uncalled(_repo_sources()).items()
        if name not in ALLOWED
    )
    assert not unused, "public functions without a caller outside tests:\n" + "\n".join(unused)


def test_allowlist_holds_only_uncalled_functions():
    assert sorted(set(ALLOWED) - set(_uncalled(_repo_sources()))) == []


SHADOWED = '''
def dispersive():
    return 0


def recursive(n):
    return recursive(n - 1)


def step(members, dispersive=None):
    kinds = [dispersive for dispersive in members]
    dispersive = [m for m in members if m]
    return kinds, dispersive, lambda recursive: recursive


def used():
    return 1


class Pulse:
    def idle(self):
        return self.idle()

    @property
    def busy(self):
        return used()

    def active(self):
        return self.busy

    def stop(self):
        return 0


def run(pulse):
    return step(pulse.active(), used), stop
'''


def test_guard_sees_through_locals_and_self_calls():
    uncalled = _uncalled([("shadowed.py", SHADOWED)])
    # ``dispersive`` is only a parameter, loop variable or list of ``step``;
    # ``recursive`` only calls itself or names a lambda parameter; ``idle``
    # only calls itself, and the bare name ``stop`` is no attribute reference.
    assert sorted(uncalled) == ["Pulse.idle", "Pulse.stop", "dispersive", "recursive", "run"]

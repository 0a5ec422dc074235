"""Guard against defaulted parameters that no route sets.

Every defaulted parameter of a function or method in src/scottlab must be
set by some call in src/ or in a non-test file of perfbench/, by keyword or
by position; otherwise the default is the one value in use and belongs in
a module constant.  Callees are matched by name (the called name or
attribute), so a call sets a parameter of every definition of that name.
A call through an attribute (obj.method(...) or cls.method(...)) binds the
first parameter of a method.  A call that unpacks *args or **kwargs counts
as setting every parameter it could reach.  Functions that
scottlab/__init__.py re-exports are public API and exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(name, parameter names, defaulted names, is a method) of every function in tree."""
    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args]
                defaulted = params[len(params) - len(a.defaults):] + [
                    k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if defaulted:
                    yield child.name, params, defaulted, in_class
                yield from visit(child, False)
            else:
                yield from visit(child, isinstance(child, ast.ClassDef))
    yield from visit(tree, False)


def _calls(tree):
    """(callee name, bound, positional count or None if unpacked, keywords or None if unpacked)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name, bound = node.func.id, False
        elif isinstance(node.func, ast.Attribute):
            name, bound = node.func.attr, True
        else:
            continue
        n_pos = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, bound, n_pos, None if None in keywords else keywords


def test_every_default_is_set_by_some_route():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "scottlab").glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = list(trees.values()) + [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    calls = [call for tree in callers for call in _calls(tree)]

    unset = []
    for module, tree in trees.items():
        for name, params, defaulted, method in _definitions(tree):
            if name in exported:
                continue
            for param in defaulted:
                index = params.index(param) if param in params else None
                for callee, bound, n_pos, keywords in calls:
                    if callee != name:
                        continue
                    skip = 1 if method and bound else 0
                    by_position = index is not None and (n_pos is None or index < n_pos + skip)
                    if keywords is None or param in keywords or by_position:
                        break
                else:
                    unset.append(f"{module}.{name}({param})")
    assert not unset, f"defaults that no call in src/ or perfbench/ sets: {unset}"

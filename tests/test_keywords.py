"""Guard against defaulted parameters and dataclass fields that no route sets.

Every defaulted parameter of a function or method in src/scottlab must be
set by some call in src/ or in a non-test file of perfbench/, by keyword or
by position; otherwise the default is the one value in use and belongs in
a module constant.  Callees are matched by name (the called name or
attribute), so a call sets a parameter of every definition of that name.
A call through an attribute (obj.method(...) or cls.method(...)) binds the
first parameter of a method.  A call that unpacks *args or **kwargs counts
as setting every parameter it could reach.  Functions that
scottlab/__init__.py re-exports are public API and exempt.

The same holds for every defaulted field of a dataclass: some construction
of the class, matched by name in the same callers, sets it by keyword or by
position.  A field(...) without default or default_factory is not
defaulted.  Re-exported classes are exempt, and so is
multiscale.ScaleFunctions.nuclei: the scale field is defined for a molecule
(l follows the distance to the nearest nucleus), the partition identity is
stated for any nuclear configuration, and tests/test_multiscale.py checks
it for two nuclei, though no route builds a molecule yet.
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


def _sources():
    """(package trees by module, re-exported names, every call in the callers)."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "scottlab").glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = list(trees.values()) + [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    return trees, exported, [call for tree in callers for call in _calls(tree)]


def _is_set(calls, name, index, param, skip=0):
    """Whether some call of name sets param, the index-th positional parameter (or None)."""
    for callee, bound, n_pos, keywords in calls:
        if callee != name:
            continue
        by_position = index is not None and (n_pos is None or index < n_pos + skip * bound)
        if keywords is None or param in keywords or by_position:
            return True
    return False


def _dataclass_fields(tree):
    """(class name, init field names, defaulted names, keyword-only) of every dataclass."""
    def is_dataclass(dec):
        target = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d for d in node.decorator_list if is_dataclass(d)]
        if not decorators:
            continue
        kw_only = any(k.arg == "kw_only" and getattr(k.value, "value", False)
                      for d in decorators if isinstance(d, ast.Call) for k in d.keywords)
        fields, defaulted = [], []
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            value = stmt.value
            spec = ({k.arg: k.value for k in value.keywords}
                    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                    else None)
            fields.append(stmt.target.id)
            if value is not None and (spec is None or {"default", "default_factory"} & set(spec)):
                defaulted.append(stmt.target.id)
        yield node.name, fields, defaulted, kw_only


def test_every_default_is_set_by_some_route():
    trees, exported, calls = _sources()
    unset = []
    for module, tree in trees.items():
        for name, params, defaulted, method in _definitions(tree):
            if name in exported:
                continue
            for param in defaulted:
                index = params.index(param) if param in params else None
                if not _is_set(calls, name, index, param, skip=1 if method else 0):
                    unset.append(f"{module}.{name}({param})")
    assert not unset, f"defaults that no call in src/ or perfbench/ sets: {unset}"


def test_every_dataclass_default_is_set_by_some_route():
    trees, exported, calls = _sources()
    unset = []
    for module, tree in trees.items():
        for name, fields, defaulted, kw_only in _dataclass_fields(tree):
            if name in exported:
                continue
            for field in defaulted:
                index = None if kw_only else fields.index(field)
                if not _is_set(calls, name, index, field):
                    unset.append(f"{module}.{name}.{field}")
    unset = sorted(set(unset) - {"multiscale.ScaleFunctions.nuclei"})
    assert not unset, f"dataclass defaults that no construction in src/ or perfbench/ sets: {unset}"

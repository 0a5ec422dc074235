"""Guard against library code that no route uses, and result state that nobody reads.

Every top-level function and class of the package must be referenced from
somewhere other than its own definition: another place in src/, or a
non-test file of the benchmark harness in perfbench/ (the caller set of
tests/test_keywords.py).  References are ast names and attribute names,
matched by name, plus perfbench's string constants, which hold the names
its patch table traces.  Names that scottlab/__init__.py re-exports
are public API and exempt.

Every field of a dataclass in the package must be read as an attribute
somewhere in src/, tests/ or a non-test file of perfbench/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree):
    """(name, top-level definition it appears in, or None) for every name and attribute."""
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_top_level_definition_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "scottlab").glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = [(module, owner, name) for module, tree in trees.items()
            for name, owner in _uses(tree)]
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside |= {name for name, _ in _uses(tree)}
        outside |= {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}

    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS) or node.name in exported:
                continue
            name = node.name
            if name in outside or any(n == name and (m, o) != (module, name)
                                      for m, o, n in uses):
                continue
            unused.append(f"{module}.{name}")
    assert not unused, f"no caller outside their own definition: {unused}"


def _is_dataclass(cls):
    """Decorated @dataclass or @dataclass(...)."""
    return any(ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    """A field nobody reads is write-only state.

    Reads are matched by attribute name alone, so a field with a common
    name such as h or mu passes as soon as any object's h or mu is read;
    the gate only catches names that are read nowhere.
    """
    paths = [*sorted((ROOT / "src" / "scottlab").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py")),
             *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_"))]
    read, fields = set(), []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent.name == "scottlab":
            fields += [(f"{path.stem}.{cls.name}", stmt.target.id)
                       for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                       for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    unread = [f"{owner}.{name}" for owner, name in fields if name not in read]
    assert not unread, f"dataclass fields that nothing reads: {unread}"

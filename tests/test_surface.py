"""Every public top-level function, class and constant of the package,
and every public method and property of its classes, has a caller.

A name counts as used only where the pipeline, the CLI or the acceptance
suite refers to it: anywhere in `src/sesame` outside its own definition
and outside `__init__.py` (whose exports call nothing), or in
`tests/test_acceptance.py`. Unit tests alone do not keep a name alive.
Members are matched by name alone, so a member whose name some other
code uses counts as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sesame"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# members kept without a caller in the package, with the reason
EXEMPT_MEMBERS = {
    # the benchmark's tracer wraps it by its dotted name; it goes once the
    # package records its own stage spans
    "tracesim.Trace.cumulative",
}


def referenced_names(node: ast.AST) -> set[str]:
    """Names and attribute names that `node` uses (imports do not count)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def defined_names(stmt: ast.stmt) -> list[str]:
    """Public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def unreferenced_public_names() -> list[str]:
    modules = {p: ast.parse(p.read_text(), str(p))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    defined = {}                     # name -> (module path, definition node)
    for path, tree in modules.items():
        for stmt in tree.body:
            for name in defined_names(stmt):
                defined[name] = (path, stmt)
    used = referenced_names(ast.parse(ACCEPTANCE.read_text()))
    for path, tree in modules.items():
        for stmt in tree.body:
            # a definition does not use the names it defines
            used |= referenced_names(stmt) - {
                name for name in defined_names(stmt)
                if defined[name] == (path, stmt)}
    return sorted(f"{path.stem}.{name}" for name, (path, _) in defined.items()
                  if name not in used)


def test_every_public_name_has_a_caller():
    assert unreferenced_public_names() == []


def public_members(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """(Class.name, definition) of every public method and property."""
    return [(f"{cls.name}.{stmt.name}", stmt)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
            and not stmt.name.startswith("_")]


def unreferenced_public_members() -> list[str]:
    modules = {p: ast.parse(p.read_text(), str(p))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    members = {f"{p.stem}.{name}": node for p, tree in modules.items()
               for name, node in public_members(tree)}
    # scan the rest of each module apart from its members, so that a
    # member's own body does not count as a use of it
    own = {id(node) for node in members.values()}
    used = referenced_names(ast.parse(ACCEPTANCE.read_text()))
    for tree in modules.values():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                cls.body = [stmt for stmt in cls.body if id(stmt) not in own]
        used |= referenced_names(tree)
    unused = []
    for name, node in members.items():
        attr = name.rpartition(".")[2]
        if attr not in used and not any(
                attr in referenced_names(other)
                for other in members.values() if other is not node):
            unused.append(name)
    return sorted(unused)


def test_every_public_member_has_a_caller():
    assert unreferenced_public_members() == sorted(EXEMPT_MEMBERS)

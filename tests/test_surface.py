"""Every public top-level function, class and constant of the package
has a caller.

A name counts as used only where the pipeline, the CLI or the acceptance
suite refers to it: anywhere in `src/sesame` outside its own definition
and outside `__init__.py` (whose exports call nothing), or in
`tests/test_acceptance.py`. Unit tests alone do not keep a name alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sesame"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


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

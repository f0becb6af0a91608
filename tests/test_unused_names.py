"""Every top-level name in the package has a use outside the tests.

A function, class or assigned name at module level in ``src/evidencia``
must be referenced at least once outside its own definition, in ``src/``,
``bench/``, ``tools/`` or ``demos/`` (test files there excluded). A
reference is a name read, an attribute read, an imported name, or a string
constant equal to the name, since ``bench/tracer.py`` patches by name and
``cli._deferred`` imports by name. Names are matched bare, not by module,
so the check finds names nothing uses at all: code that only tests call.
"""

import ast
from collections import Counter

from conftest import ROOT

USERS = ("src", "bench", "tools", "demos")


def defined_names(stmt):
    """The names a top-level statement defines: a function, a class or
    assignment targets; none for anything else."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def references(tree):
    """Each name ``tree`` reads, imports or spells out as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_top_level_name_is_used_outside_the_tests():
    uses = Counter()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                uses.update(references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))

    unused = []
    for path in sorted((ROOT / "src" / "evidencia").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            names = defined_names(stmt)
            inside = Counter(name for name in references(stmt) if name in names)
            unused += [f"{path.name}:{stmt.lineno}: {name}" for name in sorted(names) if uses[name] <= inside[name]]
    assert unused == []

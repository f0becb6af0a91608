"""Every record type reads and writes itself through its field table.

``records.record`` derives ``from_dict`` and ``to_dict`` from a class's
declared fields, so the on-disk contract of a record has one owner. A class
in ``src/evidencia`` that defines either method itself fails this check,
unless it is named below: those write reports, not records, and are never
read back.
"""

import ast

from conftest import ROOT

REPORT_WRITERS = {
    ("dedup.py", "DedupCluster", "to_dict"),
    ("evalkit.py", "EvalResult", "to_dict"),
    ("validation.py", "ValidationReport", "to_dict"),
}


def own_methods():
    """(file, class, method) for each ``from_dict``/``to_dict`` a class defines."""
    for path in sorted((ROOT / "src" / "evidencia").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name in ("from_dict", "to_dict"):
                        yield path.name, node.name, stmt.name


def test_no_class_writes_its_own_record_methods():
    assert set(own_methods()) == REPORT_WRITERS

"""The package's source parses under the oldest Python pyproject.toml admits."""

import ast
import re

from conftest import ROOT


def python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    return int(major), int(minor)


def test_source_parses_at_the_python_floor():
    # Syntax newer than the floor, such as 3.11's ``except*``, is refused.
    floor = python_floor()
    with_newer_syntax = []
    for path in sorted((ROOT / "src" / "evidencia").glob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            with_newer_syntax.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert with_newer_syntax == []

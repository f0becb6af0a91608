"""The package parses and runs under the oldest Python pyproject.toml admits."""

import ast
import hashlib
import os
import re
import shutil
import subprocess

import pytest

from conftest import ROOT
from test_cli import PIPELINE_DIGESTS, chain


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


def test_fixture_chain_runs_at_the_python_floor(tmp_path):
    # Parsing misses an API newer than the floor, such as 3.11's
    # ``hashlib.file_digest``, and ``records`` evaluates annotations at
    # import, so the chain runs under the floor's own interpreter and must
    # give the pinned outputs. A pyenv shim runs that version only when
    # PYENV_VERSION names it; any other interpreter ignores the variable.
    major, minor = python_floor()
    name = f"python{major}.{minor}"
    executable = shutil.which(name)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYENV_VERSION": f"{major}.{minor}"}
    probe = executable and subprocess.run([executable, "-c", "import sys; print(*sys.version_info[:2])"],
                                          capture_output=True, text=True, env=env)
    if not probe or probe.returncode or probe.stdout.split() != [str(major), str(minor)]:
        pytest.skip(f"no {name} to run")
    for argv in chain(tmp_path)[1]:
        proc = subprocess.run([executable, "-m", "evidencia.cli", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"
    digests = {path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() for path in PIPELINE_DIGESTS}
    assert digests == PIPELINE_DIGESTS

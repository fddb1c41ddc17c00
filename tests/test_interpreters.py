"""The package's sources against the declared interpreter floor.

``pyproject.toml`` declares ``requires-python = ">=3.10"``, but the tests run
under one interpreter.  This test byte-compiles every ``src/qpnbuf/*.py``
and compiles every string-literal regular expression found there under
each other installed CPython 3.10 or later: a possessive quantifier, for
one, compiles on 3.11 and breaks ``import qpnbuf`` on 3.10.  It looks for
interpreters under ``~/.pyenv/versions/`` and as ``python3.1x`` on
``PATH``, and skips when it finds none.
"""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qpnbuf import qasm

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qpnbuf").glob("*.py"))

_RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall",
                 "finditer"}

# Run by each interpreter: compile the files and patterns it is given on
# stdin, and print its version and every failure.
_CHECK = """
import json, re, sys
job = json.load(sys.stdin)
failures = []
for path in job["files"]:
    try:
        compile(open(path, encoding="utf-8").read(), path, "exec")
    except SyntaxError as exc:
        failures.append(f"{path}: {exc}")
for pattern in job["patterns"]:
    try:
        re.compile(pattern)
    except re.error as exc:
        failures.append(f"pattern {pattern!r}: {exc}")
print(json.dumps({"version": list(sys.version_info[:3]), "failures": failures}))
"""


def _patterns(path: Path) -> list[str]:
    """First arguments of ``re.<function>(...)`` calls in ``path`` that are string literals."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in _RE_FUNCTIONS and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            found.append(node.args[0].value)
    return found


def _other_interpreters() -> list[str]:
    candidates = [str(path) for path in Path.home().glob(".pyenv/versions/3.*/bin/python3")
                  if re.fullmatch(r"3\.(1\d)\.\d+", path.parent.parent.name)]
    # pyenv's shims on PATH are scripts that pick a version, not interpreters.
    candidates += [path for path in map(shutil.which, (f"python3.{m}" for m in range(10, 20)))
                   if path and "shims" not in Path(path).parts]
    running = os.path.realpath(sys.executable)
    return sorted({os.path.realpath(c) for c in candidates if os.access(c, os.X_OK)} - {running})


def test_patterns_are_found():
    patterns = [p for path in SOURCES for p in _patterns(path)]
    assert r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]$" in patterns
    assert qasm._EMITTED_GATE_RE.pattern in patterns
    assert qasm._EMITTED_MEASURE_RE.pattern in patterns


def test_sources_compile_under_other_interpreters():
    job = json.dumps({"files": [str(p) for p in SOURCES],
                      "patterns": [p for path in SOURCES for p in _patterns(path)]})
    checked, failures = [], []
    for interpreter in _other_interpreters():
        # -I: no user site, environment or current directory on the path.
        result = subprocess.run([interpreter, "-I", "-c", _CHECK], input=job,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, (interpreter, result.stderr)
        report = json.loads(result.stdout)
        version = tuple(report["version"])
        if version[:2] < (3, 10) or version == sys.version_info[:3]:
            continue
        checked.append(version)
        failures += [f"{interpreter}: {failure}" for failure in report["failures"]]
    if not checked:
        pytest.skip("no other CPython 3.10+ interpreter is installed")
    assert not failures, failures

"""List every executable line of ``src/qpnbuf`` that the tier-1 tests never run.

Usage, from anywhere::

    python tools/reach.py [pytest arguments]     # default: the tests/ directory

The tier-1 suite runs in this process under ``sys.settrace``; a Python
subprocess that a test starts (with this environment) is traced too,
through a ``sitecustomize`` hook put first on ``PYTHONPATH``.  A line counts
as executable when a code object compiled from the module lists it; lines
holding nothing but closing brackets are left out, since whether they get a
line event depends on the interpreter, not on the tests.  The tool prints
each unreached line as ``path:line: text``, then the counts per module and in
total, and exits 0 whatever the tests' outcome.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qpnbuf"

# Installed in every Python subprocess: trace lines of the package, write
# them out at exit as ``path line`` rows.
_HOOK = '''\
import atexit, os, sys
_dir, _package = os.environ.get("QPN_REACH_DIR"), os.environ.get("QPN_REACH_PACKAGE")
if _dir and _package:
    _hits = set()

    def _line(frame, event, arg):
        if event == "line":
            _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        return _line if os.path.realpath(frame.f_code.co_filename).startswith(_package) else None

    def _write():
        with open(os.path.join(_dir, str(os.getpid())), "w") as out:
            out.writelines(f"{path} {line}\\n" for path, line in _hits)

    sys.settrace(_call)
    atexit.register(_write)
'''


def _closing_only(text: str) -> bool:
    stripped = text.strip()
    return bool(stripped) and not stripped.strip(")]},:")


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from ``path`` lists, closing brackets left out."""
    source = path.read_text()
    lines = source.splitlines()
    found, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {n for n in found if 0 < n <= len(lines) and not _closing_only(lines[n - 1])}


def _trace_tests(args: list[str], hook_dir: str) -> dict[str, set[int]]:
    """Run pytest with ``args`` in this process; the package lines run, by real path."""
    package = str(PACKAGE)
    hits: dict[str, set[int]] = {}
    real: dict[str, str | None] = {}

    def on_line(frame, event, arg):
        if event == "line":
            hits[real[frame.f_code.co_filename]].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if path.startswith(package) else None
            if real[name] is not None:
                hits.setdefault(path, set())
        return on_line if real[name] is not None else None

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [hook_dir, str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.environ["QPN_REACH_DIR"], os.environ["QPN_REACH_PACKAGE"] = hook_dir, package
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import pytest  # imports nothing of the package, so its module lines are traced below

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(args or ["tests", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as hook_dir:
        Path(hook_dir, "sitecustomize.py").write_text(_HOOK)
        hits = _trace_tests(argv, hook_dir)
        for child in Path(hook_dir).iterdir():
            if child.name.isdigit():
                for row in child.read_text().splitlines():
                    name, line = row.rsplit(" ", 1)
                    hits.setdefault(os.path.realpath(name), set()).add(int(line))
    total = unreached = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(os.path.realpath(path), set()))
        text = path.read_text().splitlines()
        for n in missed:
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
        report.append(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} unreached")
        total += len(lines)
        unreached += len(missed)
    print("\n".join(report))
    print(f"src/qpnbuf: {unreached} of {total} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

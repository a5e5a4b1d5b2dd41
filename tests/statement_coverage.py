"""Statement coverage of ``src/nu_analyzer`` by the tier-1 suite.

Runs the suite in this process under ``sys.settrace`` and prints every
statement of the package that no test reached. A statement counts as reached
when any line of it that holds bytecode (for a compound statement, any line
of its header) raised a line event. No coverage package is needed.

    python tests/statement_coverage.py [extra pytest arguments]

Exits 1 when a statement outside ``ALLOWED`` is unreached, when an entry of
``ALLOWED`` is reached after all (so the list holds only live reasons), or
when the suite itself fails. The name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nu_analyzer"

# (file, first line of the statement, stripped): why tier-1 does not reach it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "the __main__ guard runs only under `python -m nu_analyzer.cli`, "
        "which tests/test_cli.py starts in a subprocess"
    ),
}


def _code_lines(code) -> set[int]:
    """Lines holding bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines a statement owns: a compound statement its header (and
    decorators), a simple one all its lines."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", [])
    if body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, executable own lines) of each statement of ``path`` that
    compiles to bytecode; docstrings and bare annotations compile to none."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = executable.intersection(_own_lines(node))
            if lines:
                found.append((node.lineno, lines))
    return sorted(found, key=lambda s: s[0])


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.realpath(name).startswith(prefix)
            if mine:
                hits.setdefault(name, set())
        return local if mine else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    assert "nu_analyzer" not in sys.modules, "the package must be imported under the trace"
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    reached: dict[str, set[int]] = {}
    for name, lines in hits.items():
        reached.setdefault(Path(os.path.realpath(name)).name, set()).update(lines)
    unreached_allowed = set()
    failures = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        seen = reached.get(path.name, set())
        for first, lines in statements(path):
            if lines & seen:
                continue
            key = (path.name, text[first - 1].strip())
            where = f"src/nu_analyzer/{path.name}:{first}: {key[1]}"
            if key in ALLOWED:
                unreached_allowed.add(key)
                print(f"unreached (allowed: {ALLOWED[key]}) {where}")
            else:
                failures += 1
                print(f"UNREACHED {where}")
    for key in sorted(set(ALLOWED) - unreached_allowed):
        failures += 1
        print(f"REACHED, drop it from ALLOWED: {key[0]}: {key[1]}")
    print(f"{failures} statement(s) need a test or an ALLOWED entry; pytest exit status {int(status)}")
    return 1 if failures or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

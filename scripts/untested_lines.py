"""List the statements of the ``dilations`` library that Tier-1 never runs.

Usage, from the repository root::

    PYTHONPATH=src python scripts/untested_lines.py [extra pytest arguments]

A ``sys.settrace`` line tracer is started before anything imports
``dilations``, the Tier-1 suite then runs in this process through
``pytest.main``, and for each library module the first line of every
statement that never executed is printed, as ``module.py: 12, 40``.  A
statement counts as executed when any line of its head (the whole of a
simple statement, up to its body for a compound one) ran.  Statements
that compile to no bytecode, such as docstrings, and the
``if __name__ == "__main__"`` block, which runs only as a script, are
not listed.  The script exits 1 when it lists any statement, and 0 when
Tier-1 runs them all.

The script reports lines, not test verdicts: the tracer slows the suite,
and its own allocations can make the tests that measure memory with
``tracemalloc`` fail, so the pytest summary it prints is not Tier-1's.
Only the main thread is traced; the library starts no other.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "dilations"


def _code_lines(code) -> set:
    """Every line that holds bytecode in ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source: str, path: str):
    """(first line, head lines holding bytecode) of every statement of ``source``."""
    compiled = _code_lines(compile(source, path, "exec"))
    tree = ast.parse(source)
    script = {
        line
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for line in range(node.lineno, node.end_lineno + 1)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in script:
            continue
        fields = ("body", "orelse", "handlers", "finalbody")
        bodies = [getattr(node, field, None) for field in fields]
        starts = [part[0].lineno for part in bodies if isinstance(part, list) and part]
        last = min(starts) - 1 if starts else node.end_lineno
        head = compiled & set(range(node.lineno, max(last, node.lineno) + 1))
        if head:
            yield node.lineno, head


def main(argv: list) -> int:
    executed = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename.startswith(str(LIBRARY)):
            executed.setdefault(filename, set()).add(frame.f_lineno)
            return trace_lines
        return None

    sys.path.insert(0, str(LIBRARY.parent))
    sys.settrace(trace_calls)
    try:
        import pytest

        pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    listed = False
    for path in sorted(LIBRARY.glob("*.py")):
        ran = executed.get(str(path), set())
        missed = sorted(
            line for line, head in _statements(path.read_text(), str(path)) if not head & ran
        )
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
            listed = True
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

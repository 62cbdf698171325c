"""A gate: every statement of ``src/logcy3`` is executed by a Tier-1 test.

    PYTHONPATH=src python tests/line_reach.py [PYTEST_ARGS ...]

Runs the Tier-1 suite (or the tests PYTEST_ARGS name) in this process under
``sys.settrace`` and prints every statement inside a function of the package
that no test executed, as ``path:line: source``; docstrings are not
statements.  Only this process is traced: a CLI call that a test makes in a
subprocess is not.  A statement that only such a call executes is listed in
``SUBPROCESS_ONLY`` with the test that makes the call, and is not printed;
a listed statement that runs in this process, or whose test is not defined,
is printed.

That the test a row of ``tests/test_checks_reached.py`` names executes the
row's check is confirmed by ``tests/mutants.py``, which also shows that the
test needs it.  The exit status is 1 when pytest fails or anything is
printed but the count.  A full run takes about 105 s on a 2-vCPU x86-64
Xeon (CPython 3.11), three times the untraced suite, so pytest does not
collect this file and Tier-1 does not run it.
"""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "logcy3"

# ``{(path, source line stripped): node id}`` for each statement that only a
# CLI call made in a subprocess executes, with the test that makes the call.
SUBPROCESS_ONLY = {}


def owned_lines(stmt) -> set:
    """The lines of ``stmt`` that are none of its child statements' lines."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in ast.iter_child_nodes(stmt):
        for node in ast.walk(child):
            if isinstance(node, ast.stmt):
                lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def _is_docstring(stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def function_statements(tree):
    """Every statement inside a function of ``tree``, docstrings aside."""
    found = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.stmt) and node is not func and not _is_docstring(node):
                    found[node.lineno] = node
    return [found[line] for line in sorted(found)]


class LineTrace:
    """A ``sys.settrace`` hook: ``executed`` holds the lines of the package
    that ran, by file."""

    def __init__(self):
        self.executed = {str(path): set() for path in PACKAGE.glob("*.py")}

    def __call__(self, frame, event, arg):
        return self._line if frame.f_code.co_filename in self.executed else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.executed[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line


def main(argv):
    trace = LineTrace()
    sys.path.insert(0, str(TESTS))
    # Traced from the first import, so calls made while the package loads count.
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(TESTS)])])
    finally:
        sys.settrace(None)
    from test_checks_reached import _defined

    missed = 0
    for filename in sorted(trace.executed):
        source = Path(filename).read_text(encoding="utf-8")
        text = source.splitlines()
        name = str(Path(filename).relative_to(TESTS.parent))
        for stmt in function_statements(ast.parse(source)):
            line = text[stmt.lineno - 1].strip()
            executed = bool(owned_lines(stmt) & trace.executed[filename])
            test = SUBPROCESS_ONLY.get((name, line))
            if test is None and not executed:
                print(f"{name}:{stmt.lineno}: {line}")
            elif test is not None and (executed or not _defined(test)):
                print(f"{name}:{stmt.lineno}: {line}: not subprocess-only by {test}")
            else:
                continue
            missed += 1
    print(f"{missed} statements executed by no test")
    return 1 if code or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

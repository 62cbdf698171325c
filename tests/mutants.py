"""A gate: every check of the reach table is decisive.

    PYTHONPATH=src python tests/mutants.py

For each row of the table in ``tests/test_checks_reached.py`` (a check or
raise of the package and the test that reaches it), replaces the row's
statement with ``pass`` in a copy of the package and runs the row's test
alone, in a subprocess that imports the copy.  A row whose test still
passes survives: no test needs its check, so the check cannot fail or the
test does not look at its outcome.  A test can only fail on a statement it
executes, so this also confirms that each row's test reaches its row;
``tests/line_reach.py`` confirms that every statement runs in some test.

Before mutating, runs every named test once on the unmutated copy, in one
pytest call, and checks that the child imported ``logcy3`` from the copy;
if either fails it exits 1, so a failing test always means the mutation
failed it.  The copy lives in a temporary directory under the working tree
and is removed on exit.  Tests run one at a time.  Prints each surviving
row with its test, then the count and the run time, and exits 1 on any
survivor.  A full run takes about 105 s on a 2-vCPU x86-64 Xeon (CPython
3.11), so pytest does not collect this file and Tier-1 does not run it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# The child runs pytest, then prints the file it imported the package from.
_CHILD = (
    "import sys, pytest\n"
    "code = pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]])\n"
    "import logcy3\n"
    "print(logcy3.__file__)\n"
    "sys.exit(code)\n"
)
# A mutant that hangs counts as killed.
TIMEOUT_S = 300


def mutated(source: str, stmt) -> str:
    """``source`` with ``stmt`` replaced by ``pass``.

    The first line keeps what precedes the statement, and the statement's
    other lines become blank, so every line number holds.
    """
    lines = source.splitlines(keepends=True)
    first = lines[stmt.lineno - 1].encode()
    lines[stmt.lineno - 1] = first[: stmt.col_offset].decode() + "pass\n"
    for i in range(stmt.lineno, stmt.end_lineno):
        lines[i] = "\n"
    return "".join(lines)


def _run(tests, env, **kwargs):
    return subprocess.run(
        [sys.executable, "-c", _CHILD, *tests], cwd=ROOT, env=env, timeout=TIMEOUT_S, **kwargs
    )


def main():
    import test_checks_reached

    start = time.perf_counter()
    rows = [
        (key, path, stmt, test_checks_reached.REACHED[key])
        for key, (path, stmt) in test_checks_reached.entries().items()
    ]
    with tempfile.TemporaryDirectory(prefix=".mutants-", dir=ROOT) as tmp:
        package = Path(tmp) / "logcy3"
        shutil.copytree(
            test_checks_reached.PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        # No bytecode: two mutants of one file written within a second can
        # share a size and a whole-second mtime, and a cached one would pass
        # for the other.
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        done = _run(sorted({test for *_, test in rows}), env, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        imported = Path(lines[-1]) if lines else None
        if done.returncode or imported != package / "__init__.py":
            print(done.stdout, done.stderr, sep="")
            print(f"the unmutated run exited {done.returncode} and imported {imported}")
            return 1

        survivors = 0
        for key, path, stmt, test in rows:
            target = package / path.name
            source = target.read_text(encoding="utf-8")
            target.write_text(mutated(source, stmt), encoding="utf-8")
            try:
                quiet = dict(stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                killed = _run([test], env, **quiet).returncode != 0
            except subprocess.TimeoutExpired:
                killed = True
            finally:
                target.write_text(source, encoding="utf-8")
            if not killed:
                survivors += 1
                print(f"survived: {key} by {test}")
    print(f"{len(rows)} rows, {survivors} survived, in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

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
survivor.  A full run of its 144 rows takes about 275 s on a 2-vCPU x86-64
Xeon (CPython 3.11), so pytest does not collect this file and Tier-1 does
not run it.
"""

import subprocess
import sys
import time

import child

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


def _run(tree, tests, **kwargs):
    return child.run(tree, _CHILD, tests, timeout=TIMEOUT_S, **kwargs)


def main():
    import test_checks_reached

    start = time.perf_counter()
    rows = [
        (key, path, stmt, test_checks_reached.REACHED[key])
        for key, (path, stmt) in test_checks_reached.entries().items()
    ]
    with child.package_tree(".mutants-") as tree:
        done = _run(tree, sorted({test for *_, test in rows}), capture_output=True, text=True)
        failure = child.failure(done, tree)
        if failure:
            print(done.stdout, done.stderr, sep="")
            print(f"the unmutated run {failure}")
            return 1

        survivors = 0
        for key, path, stmt, test in rows:
            target = tree / "logcy3" / path.name
            source = target.read_text(encoding="utf-8")
            target.write_text(mutated(source, stmt), encoding="utf-8")
            try:
                quiet = dict(stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                killed = _run(tree, [test], **quiet).returncode != 0
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

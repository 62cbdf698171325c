"""A child Python that imports ``logcy3`` from a given copy of the package.

``tests/mutants.py`` runs its mutants in one, and ``tests/differential.py``
runs its corpus in one against each side.  A child's code ends by printing
``logcy3.__file__`` on the last line of its standard output;
:func:`failure` reads that line, so a run that imported the package from
anywhere but its tree fails, as one that exits nonzero does.
"""

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"


@contextlib.contextmanager
def package_tree(prefix, commit=None):
    """A temporary directory under the working tree that holds a copy of
    ``src/``: the working one, or ``commit``'s by ``git archive``.

    The directory is removed on exit, on Ctrl-C too.
    """
    with tempfile.TemporaryDirectory(prefix=prefix, dir=ROOT) as tmp:
        if commit is None:
            shutil.copytree(
                SRC / "logcy3", Path(tmp) / "logcy3", ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            archive = subprocess.run(
                ["git", "archive", f"{commit}:src"], cwd=ROOT, stdout=subprocess.PIPE, check=True
            )
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tmp, filter="data")
        yield Path(tmp)


def run(tree, code, args, **kwargs):
    """``python -c code *args`` in the working tree, with ``tree`` and then
    ``tests/`` as the whole ``PYTHONPATH``."""
    # No bytecode: two mutants of one file written within a second can
    # share a size and a whole-second mtime, and a cached one would pass
    # for the other.
    path = os.pathsep.join([str(tree), str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env, **kwargs)


def failure(done, tree):
    """Why the captured run ``done`` does not count, or ``None`` if it
    exited 0 and imported ``logcy3`` from ``tree``."""
    lines = done.stdout.splitlines()
    imported = Path(lines[-1]) if lines else None
    if done.returncode or imported != Path(tree) / "logcy3" / "__init__.py":
        return f"exited {done.returncode} and imported {imported}"
    return None

"""Digests of ``--json`` reports on pairs at the size the perf work targets.

``tests/test_golden_reports.py`` pins the bundled files, which have at most
8 matching generators and no non-unit Hermite pivot.  This file pins, for
five larger documents written with ``pair_to_document``, the exit code and
the SHA-256 of the standard output of ``logcy3 --json periods``,
``invariants`` and ``compare f f``:

* ``family-20``: projective space star-subdivided at its last max cone up
  to 20 rays, with 24 points, ``walls[k % len(walls)]`` at ``k + 2 + (k % 3) i``;
* ``scaling-3-6``: ``scaling_pair(3, 6)``, whose conics make the Smith
  kernel basis differ from a Hermite form;
* ``p111-ladder-16``: the product of three lines, subdivided alternately at
  a wall and at its last max cone up to 16 rays, with 12 points;
* ``scale_random_p111`` and ``scale_random_p3``: random pairs, drawn as
  ``tests/test_random_pairs.py`` draws them, whose matching lattices have
  Hermite pivots of 2 and 3 (pivots at the lowest index), committed under
  ``tests/data/``; the first runs ``snf``'s row-set update and its
  divisibility scan, which no bundled file reaches.

The first three are generated here through ``star_subdivide``, so the
digests pin the subdivided fans as well as the reports.  Digests, not
reports, keep the file small; a mismatch names the command and prints the
document, so the report can be regenerated and diffed.  Re-record
deliberately with ``PYTHONPATH=src python tests/test_golden_scale.py``.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from logcy3.cli import main
from logcy3.documents import dumps, pair_to_document
from logcy3.exactnum import GaussianRational
from logcy3.fixtures import projective_space_fan, scaling_pair, triple_line_fan
from logcy3.pair import LogCY3Pair, PointBlowup
from logcy3.toric import star_subdivide

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden_scale.json"
COMMANDS = ("periods", "invariants", "compare")
RANDOM_NAMES = ("scale_random_p111", "scale_random_p3")


def _sorted_walls(fan):
    return sorted(tuple(sorted(w)) for w in fan.walls())


def family_pair():
    fan = projective_space_fan()
    while fan.n_rays < 20:
        fan = star_subdivide(fan, fan.max_cones[-1])
    walls = [tuple(sorted(w)) for w in fan.walls()]
    program = [
        PointBlowup(walls[k % len(walls)], GaussianRational(k + 2, k % 3)) for k in range(24)
    ]
    return LogCY3Pair.build(fan, program)


def p111_ladder_pair():
    fan = triple_line_fan()
    while fan.n_rays < 16:
        if fan.n_rays % 2:
            fan = star_subdivide(fan, fan.max_cones[-1])
        else:
            walls = _sorted_walls(fan)
            fan = star_subdivide(fan, walls[fan.n_rays % len(walls)])
    walls = _sorted_walls(fan)
    program = [
        PointBlowup(walls[5 * k % len(walls)], GaussianRational(k + 1, 1 - k % 3))
        for k in range(12)
    ]
    return LogCY3Pair.build(fan, program)


def documents() -> dict:
    """Each document's text, by name."""
    docs = {
        "family-20": dumps(pair_to_document(family_pair())),
        "scaling-3-6": dumps(pair_to_document(scaling_pair(3, 6))),
        "p111-ladder-16": dumps(pair_to_document(p111_ladder_pair())),
    }
    for name in RANDOM_NAMES:
        docs[name] = (DATA / f"{name}.pair.json").read_text(encoding="utf-8")
    return docs


def run_report(command, path):
    """Exit code and output digest of ``logcy3 --json <command> <path>``."""
    files = [path, path] if command == "compare" else [path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", command, *files])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def write_documents(directory) -> dict:
    """Each document written to ``directory``: name to (path, text)."""
    paths = {}
    for name, text in documents().items():
        path = pathlib.Path(directory) / f"{name}.pair.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = (str(path), text)
    return paths


def record():
    with tempfile.TemporaryDirectory() as directory:
        paths = write_documents(directory)
        digests = {
            f"{c} {n}": run_report(c, path) for c in COMMANDS for n, (path, _) in paths.items()
        }
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return write_documents(tmp_path_factory.mktemp("golden_scale"))


def test_every_document_is_recorded(golden, written):
    assert sorted(golden) == sorted(f"{c} {n}" for c in COMMANDS for n in written)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", ["family-20", "scaling-3-6", "p111-ladder-16", *RANDOM_NAMES])
def test_report_digest_is_unchanged(golden, written, command, name):
    path, text = written[name]
    files = f"{path} {path}" if command == "compare" else path
    assert run_report(command, path) == golden[f"{command} {name}"], (
        f"report changed: logcy3 --json {command} {files}\ndocument {name}:\n{text}"
    )


if __name__ == "__main__":
    record()

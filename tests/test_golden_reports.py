"""Every ``--json`` report on the bundled pair files, byte for byte.

``tests/data/golden_reports.json`` holds, for each command and bundled
file, the exit code and the exact standard output of ``logcy3 --json``.
A change that alters any report fails here; re-record deliberately with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import importlib.resources
import io
import json
import pathlib

import pytest

import differential
from logcy3.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_reports.json"
NAMES = sorted(
    entry.name[: -len(".pair.json")]
    for entry in importlib.resources.files("logcy3").joinpath("data").iterdir()
    if entry.name.endswith(".pair.json")
)
COMMANDS = ("validate", "invariants", "periods", "oracle-check", "compare")


def bundled(name):
    """The path of the bundled file ``name``."""
    return str(importlib.resources.files("logcy3").joinpath(f"data/{name}.pair.json"))


def run_report(command, path):
    """Exit code and standard output of ``logcy3 --json <command> <path>``,
    given ``path`` twice to ``compare``."""
    files = [path, path] if command == "compare" else [path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", command, *files])
    return {"exit": code, "stdout": out.getvalue()}


def record():
    reports = {f"{c} {n}": run_report(c, bundled(n)) for c in COMMANDS for n in NAMES}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_bundled_file_is_recorded(golden):
    assert sorted(golden) == sorted(f"{c} {n}" for c in COMMANDS for n in NAMES)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", NAMES)
def test_report_is_byte_identical(golden, command, name):
    assert run_report(command, bundled(name)) == golden[f"{command} {name}"]


def test_the_differential_corpus_is_built_from_the_golden_reports(golden):
    """``tests/differential.py``'s groups, built in process for two pairs:
    its reports are the recorded ones, and its verdicts say that a pair is
    isomorphic to itself, its translate and, with points added, its
    relabelling, and not to a moved point."""
    names = ["p111-blowup-point", "p3-mixed"]
    keys = [f"{c} {n}" for c in COMMANDS for n in names]
    assert differential.reports(names) == {key: golden[key] for key in keys}
    verdicts = differential.verdicts(differential.bundled_pairs(names))
    outcomes = {
        key: (item["verdict"], item["certificate"]["check"], item["transport"][0])
        for key, item in verdicts.items()
    }
    same, moved = ("isomorphic", "complete", "solved"), ("distinct", "period", "unsolvable")
    assert outcomes == {
        "p111-blowup-point self": same,
        "p111-blowup-point translate": same,
        "p111-blowup-point relabelled": same,
        "p111-blowup-point relabelled, perturbed 1": moved,
        "p3-mixed self": same,
        "p3-mixed translate": same,
        "p3-mixed perturbed 1": moved,
        "p3-mixed perturbed 2": moved,
    }


if __name__ == "__main__":
    record()

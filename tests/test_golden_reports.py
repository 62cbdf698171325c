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

from logcy3.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_reports.json"
NAMES = sorted(
    entry.name[: -len(".pair.json")]
    for entry in importlib.resources.files("logcy3").joinpath("data").iterdir()
    if entry.name.endswith(".pair.json")
)
COMMANDS = ("validate", "invariants", "periods", "oracle-check", "compare")


def run_report(command, name):
    """Exit code and standard output of ``logcy3 --json <command> <file>``."""
    path = str(importlib.resources.files("logcy3").joinpath(f"data/{name}.pair.json"))
    files = [path, path] if command == "compare" else [path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", command, *files])
    return {"exit": code, "stdout": out.getvalue()}


def record():
    reports = {f"{c} {n}": run_report(c, n) for c in COMMANDS for n in NAMES}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_bundled_file_is_recorded(golden):
    assert sorted(golden) == sorted(f"{c} {n}" for c in COMMANDS for n in NAMES)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", NAMES)
def test_report_is_byte_identical(golden, command, name):
    assert run_report(command, name) == golden[f"{command} {name}"]


if __name__ == "__main__":
    record()

"""Smoke test of the benchmark: the smallest rung and a few ingest documents.

    python3 -m pytest benchmarks/test_smoke.py

Each run must end with a result line that names exactly the metrics listed in
BENCHMARK.json, pass the correctness gate, and, without the package source
beside it, fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", ["point-ladder", "curve-ladder", "ingest"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1
    # The only failures allowed are the known crash kinds of ingest.
    assert result["failed"] == 0 or workload == "ingest"
    units = declared("per_layer" if trace == "1" else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run(tmp_path, "--workload", "ingest", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

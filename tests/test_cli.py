"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import hashlib
import importlib.resources
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3 import documents
from logcy3.cli import USAGE, main
from logcy3.fixtures import perturbed_conic_pair
from logcy3.torelli import Correspondence
from test_toric import wound_sphere_fan


def bundled_path(name):
    return str(
        importlib.resources.files("logcy3").joinpath(f"data/{name}.pair.json")
    )


@pytest.fixture
def perturbed_file(tmp_path):
    path = tmp_path / "perturbed.pair.json"
    doc = documents.pair_to_document(perturbed_conic_pair())
    path.write_text(documents.dumps(doc), encoding="utf-8")
    return str(path)


BUNDLED = sorted(
    entry.name
    for entry in importlib.resources.files("logcy3").joinpath("data").iterdir()
    if entry.name.endswith(".pair.json")
)
ODD_VALUES = (None, True, 0, -1, 7, 2.5, "", "x", [], [0], {}, {"a": 1}, 10**30)
BAD_COORDINATES = ("1/0", "i*i", "2/", "--1", "1e3", "3/-4", "1+", "9" * 40)


def node_paths(node, prefix=()):
    """Paths to every value below the top level of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,), child
        yield from node_paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A bundled pair document with one key deleted or one value changed."""
    name = draw(st.sampled_from(BUNDLED))
    data = importlib.resources.files("logcy3").joinpath("data")
    doc = json.loads(data.joinpath(name).read_text(encoding="utf-8"))
    kind = draw(st.sampled_from(["delete", "retype", "shorten", "lengthen", "coordinate"]))
    eligible = {
        "delete": lambda value: True,
        "retype": lambda value: True,
        "shorten": lambda value: isinstance(value, list) and value,
        "lengthen": lambda value: isinstance(value, list),
        "coordinate": lambda value: isinstance(value, str),
    }[kind]
    path = draw(st.sampled_from([p for p, value in node_paths(doc) if eligible(value)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(
            st.sampled_from([x for x in ODD_VALUES if type(x) is not type(value)])
        )
    elif kind == "shorten":
        del value[draw(st.integers(0, len(value) - 1))]
    elif kind == "lengthen":
        extra = draw(st.sampled_from([*map(copy.deepcopy, value), *ODD_VALUES]))
        value.insert(draw(st.integers(0, len(value))), extra)
    else:
        parent[key] = draw(st.sampled_from(BAD_COORDINATES))
    return doc


class TestValidateFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_documents())
    def test_mutated_documents_get_a_verdict_or_one_error_line(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.pair.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--json", "validate", path])
        if code == 0:
            assert json.loads(out.getvalue())["results"]["status"] == "ok"
        elif code == 1:
            results = json.loads(out.getvalue())["results"]
            assert results["status"] == "invalid"
            assert results["diagnostic"]
        else:
            assert code == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


@cache
def bundled_pair(name):
    """The pair of a bundled file, loaded once."""
    with open(bundled_path(name), "rb") as handle:
        return documents.pair_from_document(documents.loads(handle.read()))[0]


def small_matrix(draw, rows, columns):
    """A rows x columns matrix with entries in -1..1."""
    return [[draw(st.integers(-1, 1)) for _ in range(columns)] for _ in range(rows)]


def unimodular_block(draw, n):
    """A product of up to four elementary n x n matrices, sometimes row-permuted."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return draw(st.permutations(rows)) if draw(st.booleans()) else rows


@st.composite
def mutated_correspondences(draw):
    """A bundled pair's name and its identity correspondence, changed in one way."""
    name = draw(st.sampled_from(BUNDLED)).removesuffix(".pair.json")
    pair = bundled_pair(name)
    doc = documents.correspondence_to_document(Correspondence.identity(pair))
    vertices, steps, n = sorted(pair.components), len(pair.program), pair.pic_rank
    kind = draw(st.sampled_from(["block", "block shape", "vertex map", "step map", "mu"]))
    if kind == "block":
        v = draw(st.sampled_from(vertices))
        doc["mu_components"] = {str(v): unimodular_block(draw, pair.components[v].rank)}
    elif kind == "block shape":
        v = draw(st.sampled_from(vertices))
        r = pair.components[v].rank
        shape = draw(st.sampled_from([(r + 1, r), (r, r + 1), (r - 1, r), (0, 0)]))
        doc["mu_components"] = {str(v): small_matrix(draw, *shape)}
    elif kind == "vertex map":
        doc["vertex_map"] = dict(zip(map(str, vertices), draw(st.permutations(vertices))))
    elif kind == "step map":
        step_map = draw(st.sampled_from([list(range(steps - 1)), list(range(steps + 1))]))
        if steps and draw(st.booleans()):  # the right length, one step out of range
            step_map = list(range(steps))
            step_map[draw(st.integers(0, steps - 1))] = draw(st.sampled_from([-1, steps]))
        doc["step_map"] = step_map
    else:
        doc["mu"] = small_matrix(draw, *draw(st.sampled_from([(n, n), (n + 1, n), (n, n - 1)])))
    return name, doc


class TestCompareFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_correspondences())
    def test_mutated_correspondences_get_a_verdict_or_one_error_line(self, case):
        name, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            corr = os.path.join(tmp, "mutant.corr.json")
            with open(corr, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                path = bundled_path(name)
                code = main(["--json", "compare", path, path, corr])
        if code in (0, 1):
            results = json.loads(out.getvalue())["results"]
            assert results["verdict"] == ("isomorphic" if code == 0 else "distinct")
            assert err.getvalue() == ""
        else:
            assert code == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            # The catch-all names the exception's class: "error: <Type>: ...".
            assert not re.match(r"error: [A-Z]\w*: ", lines[0]), lines[0]


GAUSSIAN_RATIONALS = ("0", "2", "-3", "1/2", "0+1*i", "3+1*i", "-5/7-2/3*i", "4-1*i", "-1")


@st.composite
def shifted_documents(draw):
    """A bundled pair document changed in one way that keeps its shape.

    A ray entry moves by one, two entries of a cone swap, a cone vertex
    becomes another, or a point coordinate becomes another Gaussian
    rational or one of many digits.  Returns the bundled name and the
    changed document.
    """
    name = draw(st.sampled_from(BUNDLED))
    data = importlib.resources.files("logcy3").joinpath("data")
    doc = json.loads(data.joinpath(name).read_text(encoding="utf-8"))
    coordinates = [
        path
        for path, value in node_paths(doc)
        if path[0] in ("blowups", "markings") and isinstance(value, str) and path[-1] != "kind"
    ]
    kinds = ["ray", "cone swap", "cone vertex"] + (["coordinate", "digits"] if coordinates else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "ray":
        ray = draw(st.sampled_from(doc["rays"]))
        ray[draw(st.integers(0, 2))] += draw(st.sampled_from([-1, 1]))
    elif kind == "cone swap":
        cone = draw(st.sampled_from(doc["cones"]))
        i, j = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True))
        cone[i], cone[j] = cone[j], cone[i]
    elif kind == "cone vertex":
        cone = draw(st.sampled_from(doc["cones"]))
        cone[draw(st.integers(0, 2))] = draw(st.integers(0, len(doc["rays"]) - 1))
    else:
        path = draw(st.sampled_from(coordinates))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "coordinate":
            parent[path[-1]] = draw(st.sampled_from(GAUSSIAN_RATIONALS))
        else:
            digits = "".join(draw(st.lists(st.sampled_from("0123456789"), min_size=40, max_size=200)))
            parent[path[-1]] = draw(st.sampled_from(["", "-"])) + "7" + digits
    return name, doc


def assert_a_report_or_one_error_line(code, out, err):
    if code in (0, 1):
        assert json.loads(out)["results"] and err == ""
    else:
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        # The catch-all names the exception's class: "error: <Type>: ...".
        assert not re.match(r"error: [A-Z]\w*: ", lines[0]), lines[0]


class TestPairDocumentFuzz:
    @settings(max_examples=150, deadline=None)
    @given(shifted_documents())
    def test_documents_that_look_valid_get_a_report_or_one_error_line(self, case):
        name, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "shifted.pair.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            original = bundled_path(name.removesuffix(".pair.json"))
            calls = [["validate", path]]
            for args in calls:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["--json", *args])
                assert_a_report_or_one_error_line(code, out.getvalue(), err.getvalue())
                if args[0] == "validate" and code == 0:
                    calls += [
                        ["invariants", path],
                        ["periods", path],
                        ["compare", path, original],
                        ["compare", original, path],
                    ]


BAD_VERTEX_KEYS = ("x", "", " ", "1.5", "0x1", "-", "1e2", "[0]")


@st.composite
def restructured_correspondences(draw):
    """A bundled pair's name and its identity correspondence, broken in its JSON.

    The document may first carry an identity ``mu`` and an identity
    ``mu_components`` block, so those have nodes to break too.  Then one
    key is dropped, one value becomes one of another type, one
    ``vertex_map`` key becomes a string that is not an integer, or a list
    is nested where an object belongs.
    """
    name = draw(st.sampled_from(BUNDLED)).removesuffix(".pair.json")
    pair = bundled_pair(name)
    doc = documents.correspondence_to_document(Correspondence.identity(pair))
    if draw(st.booleans()):
        v = draw(st.sampled_from(sorted(pair.components)))
        n, r = pair.pic_rank, pair.components[v].rank
        doc["mu"] = [[int(i == j) for j in range(n)] for i in range(n)]
        doc["mu_components"] = {str(v): [[int(i == j) for j in range(r)] for i in range(r)]}
    kind = draw(st.sampled_from(["drop", "retype", "vertex key", "nest"]))
    if kind == "vertex key":
        key = draw(st.sampled_from(sorted(doc["vertex_map"])))
        doc["vertex_map"][draw(st.sampled_from(BAD_VERTEX_KEYS))] = doc["vertex_map"].pop(key)
        return name, doc
    holder = {"document": doc}
    paths = list(node_paths(holder))  # the document itself first
    if kind == "drop":
        paths = paths[1:]
    elif kind == "nest":
        paths = [(path, value) for path, value in paths if isinstance(value, dict)]
    path = draw(st.sampled_from([path for path, _ in paths]))
    parent = holder
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from([x for x in ODD_VALUES if type(x) is not type(value)]))
    else:
        parent[key] = draw(st.sampled_from([[value], list(value.items()), list(value.values())]))
    return name, holder["document"]


class TestCorrespondenceDocumentFuzz:
    @settings(max_examples=150, deadline=None)
    @given(restructured_correspondences())
    def test_restructured_correspondences_get_a_verdict_or_one_error_line(self, case):
        name, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            corr = os.path.join(tmp, "restructured.corr.json")
            with open(corr, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                path = bundled_path(name)
                code = main(["--json", "compare", path, path, corr])
        assert_a_report_or_one_error_line(code, out.getvalue(), err.getvalue())


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", bundled_path("p3-conic")]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "picard_rank: 2" in out

    def test_invalid_document(self, tmp_path, capsys):
        path = tmp_path / "bad.pair.json"
        path.write_text('{"format": "logcy3-pair", "version": 1}\n')
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "status: invalid" in out
        assert "missing field" in out

    @pytest.mark.parametrize(
        "malform",
        [
            lambda doc: doc["rays"][2].pop(),
            lambda doc: doc["blowups"][0]["points"].update(x=["2", "3"]),
            lambda doc: doc["blowups"][1]["edge"].pop(),
            lambda doc: doc["cones"][3].append(3),
            lambda doc: doc["orientation"]["triangle"].__setitem__(2, 9),
            lambda doc: doc["blowups"][0].update(component=[3]),
        ],
        ids=[
            "short-ray",
            "point-key-x",
            "one-element-edge",
            "four-entry-cone",
            "orientation-vertex-out-of-range",
            "list-component",
        ],
    )
    def test_malformed_fields_are_diagnosed(self, malform, tmp_path, capsys):
        with open(bundled_path("p3-mixed"), encoding="utf-8") as handle:
            doc = documents.loads(handle.read())
        malform(doc)
        path = tmp_path / "bad.pair.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "validate", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["results"]["status"] == "invalid"

    @pytest.mark.parametrize(
        "old, new, diagnostic",
        [
            (b'"coordinate": "2"', b'"coordinate": "\xff"', "document: not UTF-8 text at byte "),
            (b'"lattice_rank": 3', b'"lattice_rank": ' + b"[" * 10**5 + b"]" * 10**5,
             "document: nested too deeply"),
            (b'"lattice_rank": 3', b'"lattice_rank": 3' + b"0" * 5000,
             "document: integer literal too long"),
            (b'"coordinate": "2"', b'"coordinate": "' + b"9" * 5000 + b'"',
             "blowups[1]: Gaussian rational with too many digits"),
        ],
        ids=["not-utf8", "nested-too-deep", "integer-too-long", "coordinate-too-long"],
    )
    def test_malformed_bytes_are_diagnosed(self, old, new, diagnostic, tmp_path, capsys):
        with open(bundled_path("p3-mixed"), "rb") as handle:
            data = handle.read()
        assert old in data
        data = data.replace(old, new, 1)
        if diagnostic.endswith("byte "):
            diagnostic += str(data.index(b"\xff"))
        path = tmp_path / "bad.pair.json"
        path.write_bytes(data)
        assert main(["--json", "validate", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == {"status": "invalid", "diagnostic": diagnostic}
        assert report["inputs"] == {"file": hashlib.sha256(data).hexdigest()}
        assert main(["invariants", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {diagnostic}\n"

    def test_each_input_is_read_once(self, monkeypatch, capsys):
        opened, real_open = [], open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        path = bundled_path("p3-mixed")
        assert main(["--json", "compare", path, path]) == 0
        assert opened == [path, path]

    def test_partial_marking_is_invalid_for_every_command(self, tmp_path, capsys):
        with open(bundled_path("p3-conic"), encoding="utf-8") as handle:
            doc = documents.loads(handle.read())
        doc["markings"] = {"0-1": "2"}
        path = tmp_path / "partial.pair.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "validate", str(path)]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["status"] == "invalid"
        assert results["diagnostic"] == "markings: no point on edge (0, 2)"
        assert main(["periods", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: markings: no point on edge (0, 2)\n"

    def test_repeated_key_is_invalid_for_every_command(self, tmp_path, capsys):
        with open(bundled_path("p3-point"), encoding="utf-8") as handle:
            text = handle.read()
        assert '"coordinate": "2",' in text
        path = tmp_path / "repeated.pair.json"
        path.write_text(
            text.replace('"coordinate": "2",', '"coordinate": "2", "coordinate": "3",'),
            encoding="utf-8",
        )
        assert main(["--json", "validate", str(path)]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["status"] == "invalid"
        assert results["diagnostic"] == 'duplicate key "coordinate"'
        for command in (["invariants", str(path)], ["periods", str(path)],
                        ["compare", str(path), str(path)]):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == 'error: duplicate key "coordinate"\n'

    @pytest.mark.parametrize("reverse", [False, True], ids=["same", "reversed"])
    def test_edge_oriented_twice_is_invalid(self, reverse, tmp_path, capsys):
        with open(bundled_path("p3-point"), encoding="utf-8") as handle:
            doc = documents.loads(handle.read())
        first = doc["edge_orientations"][0]
        assert first == [0, 1]
        doc["edge_orientations"].append(first[::-1] if reverse else first)
        path = tmp_path / "twice.pair.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "validate", str(path)]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {
            "status": "invalid",
            "diagnostic": "pair: edge (0, 1) is oriented twice",
        }

    def test_fan_without_cones_is_invalid(self, tmp_path, capsys):
        with open(bundled_path("p3"), encoding="utf-8") as handle:
            doc = documents.loads(handle.read())
        doc["cones"] = []
        del doc["orientation"]
        path = tmp_path / "coneless.pair.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "validate", str(path)]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {
            "status": "invalid",
            "diagnostic": "pair: invalid fan: fan has no max cones",
        }

    def test_a_sphere_wound_twice_is_invalid(self, tmp_path, capsys):
        fan = wound_sphere_fan()
        doc = {"format": "logcy3-pair", "version": 1, "rays": fan.rays, "cones": fan.max_cones}
        path = tmp_path / "wound.pair.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "validate", str(path)]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {
            "status": "invalid",
            "diagnostic": "pair: invalid fan: link of vertex 0 winds 2 times around its ray",
        }

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/file.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestInvariants:
    def test_toric_fixture(self, capsys):
        assert main(["invariants", bundled_path("p3")]) == 0
        out = capsys.readouterr().out
        assert "matching_lattice_rank: 1" in out
        assert "edge_cokernel_free_rank: 3" in out
        assert "wedge_composition_zero: True" in out
        assert "period_trivial: yes" in out

    def test_blown_up_pair(self, capsys):
        assert main(["invariants", bundled_path("p3-conic")]) == 0
        out = capsys.readouterr().out
        assert "matching_lattice_rank: 5" in out
        assert "quotient_free_rank: 3" in out
        assert "period_trivial: no" in out
        assert "type: 1" in out

    def test_json_output_is_valid(self, capsys):
        assert main(["--json", "invariants", bundled_path("p3-point")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["matching_lattice_rank"] == 2
        assert report["results"]["contractions"][0]["triple"] == [-1, -2, 4]
        assert report["exact"] is True


class TestPeriods:
    def test_tables(self, capsys):
        assert main(["--json", "periods", bundled_path("p3-conic")]) == 0
        report = json.loads(capsys.readouterr().out)
        unmarked = {entry["value"] for entry in report["results"]["unmarked"]}
        assert unmarked != {"1"}
        assert len(report["results"]["quotient"]) == 3

    def test_deterministic_output(self, capsys):
        main(["periods", bundled_path("p3-mixed")])
        first = capsys.readouterr().out
        main(["periods", bundled_path("p3-mixed")])
        second = capsys.readouterr().out
        assert first == second


def with_keys_moved(node, rng):
    """The JSON value with every object's keys in another, drawn order."""
    if isinstance(node, list):
        return [with_keys_moved(child, rng) for child in node]
    if not isinstance(node, dict):
        return node
    keys = list(node)
    rng.shuffle(keys)
    if keys == list(node):
        keys = keys[1:] + keys[:1]
    return {key: with_keys_moved(node[key], rng) for key in keys}


class TestKeyOrder:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_reports_do_not_read_the_key_order(self, name, tmp_path, capsys):
        # Only the inputs' sha256, which is of the file's bytes, may differ.
        data = importlib.resources.files("logcy3").joinpath(f"data/{name}")
        original = str(data)
        moved = with_keys_moved(json.loads(data.read_bytes()), random.Random(name))
        path = tmp_path / name
        path.write_text(json.dumps(moved, indent=2), encoding="utf-8")
        digests = [
            hashlib.sha256(p.read_bytes()).hexdigest() for p in (data, path)
        ]
        assert digests[0] != digests[1]
        for command in ("validate", "invariants", "periods", "compare"):
            reports = []
            for file in (original, str(path)):
                files = [file, file] if command == "compare" else [file]
                assert main(["--json", command, *files]) == 0
                reports.append(capsys.readouterr().out)
            assert digests[1] in reports[1]
            assert reports[1].replace(digests[1], digests[0]) == reports[0]


class TestCompare:
    def test_self_comparison(self, capsys):
        path = bundled_path("p3-conic")
        assert main(["compare", path, path]) == 0
        assert "verdict: isomorphic" in capsys.readouterr().out

    def test_distinct_pair(self, perturbed_file, capsys):
        assert main(["compare", bundled_path("p3-conic"), perturbed_file]) == 1
        out = capsys.readouterr().out
        assert "verdict: distinct" in out
        assert "period" in out

    def test_mismatched_shapes_error(self, capsys):
        assert main(["compare", bundled_path("p3"), bundled_path("p111")]) == 2
        assert capsys.readouterr().err == "error: vertex map is not a bijection of components\n"

    def test_explicit_correspondence(self, tmp_path, capsys):
        from logcy3.fixtures import pair_fixtures
        from logcy3.torelli import Correspondence

        pair = pair_fixtures()["p3-conic"]
        corr_path = tmp_path / "identity.corr.json"
        corr_path.write_text(
            documents.dumps(
                documents.correspondence_to_document(Correspondence.identity(pair))
            )
        )
        path = bundled_path("p3-conic")
        assert main(["compare", path, path, str(corr_path)]) == 0

    @pytest.mark.parametrize(
        "name, rows, values",
        [
            # Toric class 0 of component 0 to itself plus N (e_a - e_b), the
            # two exceptional classes the conic makes on edge 0-3: it keeps
            # the edge matching, but its square moves by -2 N**2.
            (
                "p3-mixed",
                [[1, 0, 0, 0], [10**6, 1, 0, 0], [-(10**6), 0, 1, 0], [0, 0, 0, 1]],
                [1, 1 - 2 * 10**12],
            ),
            # Toric class 0 to itself plus N e, which breaks the edge matching.
            ("p3-point", [[1, 0], [10**8, 1]], [1, 1 - 10**16]),
        ],
    )
    def test_explicit_map_that_is_no_isometry(self, name, rows, values, tmp_path, capsys):
        path = bundled_path(name)
        with open(path, "rb") as handle:
            pair, _ = documents.pair_from_document(documents.loads(handle.read()))
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        doc["mu_components"] = {"0": rows}
        corr_path = tmp_path / "skew.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        assert main(["--json", "compare", path, path, str(corr_path)]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "distinct"
        assert results["certificate"] == {
            "check": "component_isometry",
            "component": 0,
            "classes": [0, 0],
            "values": values,
        }

    def test_matched_step_at_another_place_is_distinct(self, tmp_path, capsys):
        # Exit 1, a verdict: a bijection of valid documents is no error.
        from logcy3.fixtures import projective_space_fan
        from logcy3.gaussian import GaussianRational
        from logcy3.pair import LogCY3Pair, PointBlowup

        points = [PointBlowup((0, 1), GaussianRational(2)), PointBlowup((2, 3), GaussianRational(3))]
        pair = LogCY3Pair.build(projective_space_fan(), points)
        path = tmp_path / "points.pair.json"
        path.write_text(documents.dumps(documents.pair_to_document(pair)), encoding="utf-8")
        swapped = Correspondence(Correspondence.identity(pair).vertex_map, (1, 0))
        corr_path = tmp_path / "swapped.corr.json"
        corr_path.write_text(
            documents.dumps(documents.correspondence_to_document(swapped)), encoding="utf-8"
        )
        assert main(["--json", "compare", str(path), str(path), str(corr_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "distinct"
        assert results["certificate"] == {"check": "step_place", "steps": [1, 0]}

    def test_curve_steps_in_other_components_are_distinct(self, tmp_path, capsys):
        # A line in plane 3 against a line in plane 2: a verdict, exit 1.
        from test_torelli import lines_in_two_planes

        paths = []
        for name, pair in zip(("plane3", "plane2"), lines_in_two_planes()):
            paths.append(tmp_path / f"{name}.pair.json")
            paths[-1].write_text(documents.dumps(documents.pair_to_document(pair)), encoding="utf-8")
        assert main(["--json", "compare", *map(str, paths)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "distinct"
        assert results["certificate"] == {"check": "curve_component", "steps": [0, 0]}

    def test_step_map_that_is_no_bijection_is_an_error(self, tmp_path, capsys):
        # The reader takes any list of integers; the pairs' programs refuse it.
        path = bundled_path("p3-mixed")
        with open(path, "rb") as handle:
            pair, _ = documents.pair_from_document(documents.loads(handle.read()))
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        doc["step_map"] = [0, 0, 2]
        corr_path = tmp_path / "repeated.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["compare", path, path, str(corr_path)]) == 2
        assert capsys.readouterr().err == "error: step map is not a bijection of program steps\n"

    @pytest.mark.parametrize(
        "field, value",
        [("vertex_map", [[0, 0], [1, 1], [2, 2], [3, 3]]), ("step_map", ["0"])],
        ids=["vertex-map-list", "step-map-not-int"],
    )
    def test_malformed_correspondence_is_an_error(self, field, value, tmp_path, capsys):
        path = bundled_path("p3")
        with open(path, "rb") as handle:
            pair, _ = documents.pair_from_document(documents.loads(handle.read()))
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        doc[field] = value
        corr_path = tmp_path / "bad.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["compare", path, path, str(corr_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mu, shape",
        [([[1, 0, 0], [0, 1, 0]], "2 x 3"), ([[1, 0], [0, 1], [0, 0]], "3 x 2"), ([], "0 x 0")],
        ids=["columns", "rows", "empty"],
    )
    def test_mu_of_another_shape_is_a_document_error(self, mu, shape, tmp_path, capsys):
        # The pair has Picard rank 2, so mu must be 2 x 2: a document error,
        # on one line, and not the catch-all's.
        path = bundled_path("p3-point")
        with open(path, "rb") as handle:
            pair, _ = documents.pair_from_document(documents.loads(handle.read()))
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        doc["mu"] = mu
        corr_path = tmp_path / "shape.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "compare", path, path, str(corr_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: mu: expected a 2 x 2 matrix, got {shape}\n"

    @staticmethod
    def swapped_files(tmp_path, key):
        """P^3 with points on the edges (0, 1) and (0, 2), and the identity
        with a map under ``key`` that swaps component 0's exceptional classes."""
        from logcy3.fixtures import projective_space_fan
        from logcy3.gaussian import GaussianRational
        from logcy3.pair import LogCY3Pair, PointBlowup

        points = [PointBlowup((0, 1), GaussianRational(2)), PointBlowup((0, 2), GaussianRational(3))]
        pair = LogCY3Pair.build(projective_space_fan(), points)
        path = tmp_path / "points.pair.json"
        path.write_text(documents.dumps(documents.pair_to_document(pair)), encoding="utf-8")
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        doc["mu_components"] = {key: [[1, 0, 0], [0, 0, 1], [0, 1, 0]]}
        corr_path = tmp_path / "swapped.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        return str(path), str(corr_path)

    def test_map_that_moves_an_edge_is_distinct(self, tmp_path, capsys):
        # The swap is an isometry that keeps the anticanonical class, so
        # only the edge check sees it: a verdict, exit 1.
        path, corr_path = self.swapped_files(tmp_path, "0")
        assert main(["--json", "compare", path, path, corr_path]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "distinct"
        assert results["certificate"] == {
            "check": "component_edges",
            "component": 0,
            "class": 1,
            "degrees": [{"1": 1, "2": 0, "3": 0}, {"1": 0, "2": 1, "3": 0}],
        }

    def test_map_for_a_missing_vertex_is_an_error(self, tmp_path, capsys):
        path, corr_path = self.swapped_files(tmp_path, "9")
        assert main(["--json", "compare", path, path, corr_path]) == 2
        err = capsys.readouterr().err
        assert err == "error: mu_components: vertex 9 is not a component of the first pair\n"

    def test_vertex_mapped_twice_is_a_document_error(self, tmp_path, capsys):
        path = bundled_path("p3-point")
        with open(path, "rb") as handle:
            pair, _ = documents.pair_from_document(documents.loads(handle.read()))
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        identity = [[int(i == j) for j in range(2)] for i in range(2)]
        doc["mu_components"] = {"0": identity, "00": identity}
        corr_path = tmp_path / "twice.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "compare", path, path, str(corr_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: mu_components: bad vertex key '00'\n"

    @pytest.mark.parametrize("key", [" 3 ", "+3", "0_3", "\u0663", "03", "00"])
    def test_a_vertex_key_not_written_as_its_integer_is_refused(self, key, tmp_path, capsys):
        path = bundled_path("p3-mixed")
        with open(path, "rb") as handle:
            pair, _ = documents.pair_from_document(documents.loads(handle.read()))
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        doc["vertex_map"][key] = doc["vertex_map"].pop("3" if key != "00" else "0")
        corr_path = tmp_path / "key.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "compare", path, path, str(corr_path)]) == 2
        assert capsys.readouterr().err == f"error: vertex_map: bad vertex key {key!r}\n"

    def test_base_models_that_differ_are_distinct(self, tmp_path, capsys):
        # P^3 star-subdivided at (0, 1, 2), with vertices 3 and 4 swapped
        # under the identity mu: the cones and the cubic form match, the
        # base models do not.
        from logcy3.fixtures import projective_space_fan
        from logcy3.pair import LogCY3Pair
        from logcy3.toric import star_subdivide

        pair = LogCY3Pair.build(star_subdivide(projective_space_fan(), (0, 1, 2)))
        path = tmp_path / "subdivided.pair.json"
        path.write_text(documents.dumps(documents.pair_to_document(pair)), encoding="utf-8")
        doc = documents.correspondence_to_document(Correspondence.identity(pair))
        doc["vertex_map"] = {"0": 0, "1": 1, "2": 2, "3": 4, "4": 3}
        doc["mu"] = [[1, 0], [0, 1]]
        corr_path = tmp_path / "apexes.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "compare", str(path), str(path), str(corr_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "distinct"
        assert results["certificate"] == {"check": "toric_model"}

    def test_unexpected_exception_is_an_error(self, monkeypatch, capsys):
        def broken(*args):
            raise ZeroDivisionError("integer division\nor modulo by zero")

        monkeypatch.setattr("logcy3.torelli.decide_isomorphism", broken)
        path = bundled_path("p3")
        assert main(["compare", path, path]) == 2
        err = capsys.readouterr().err
        assert err == "error: ZeroDivisionError: integer division or modulo by zero\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "no subcommand given"),
            (["--json"], "no subcommand given"),
            (["frobnicate", "F"], "unknown subcommand frobnicate"),
            (["validate"], "validate takes FILE; 0 given"),
            (["validate", "F", "F"], "validate takes FILE; 2 given"),
            (["compare", "F"], "compare takes FILE_A FILE_B [CORRESPONDENCE]; 1 given"),
            (["compare", *"FFFF"], "compare takes FILE_A FILE_B [CORRESPONDENCE]; 4 given"),
            (["--bogus", "validate", "F"], "unknown option --bogus"),
            (["validate", "--json", "F"], "unknown option --json"),
        ],
        ids=[
            "empty",
            "json-only",
            "unknown-subcommand",
            "validate-no-file",
            "validate-two-files",
            "compare-one-file",
            "compare-four-files",
            "unknown-option",
            "json-after-the-subcommand",
        ],
    )
    def test_malformed_argv_is_a_usage_error(self, argv, message, capsys):
        path = bundled_path("p3")
        assert main([path if a == "F" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n{USAGE}\n"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_subcommand(self, flag, capsys):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert out == f"{USAGE}\n"
        for name in ("validate", "invariants", "periods", "compare", "oracle-check"):
            assert f"logcy3 [--json] {name} " in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--json", "validate", "--", "-p3.pair.json"],
            ["--json", "--", "validate", "-p3.pair.json"],
            ["--json", "--json", "validate", "-"],
        ],
        ids=["dashes-after-the-subcommand", "dashes-before-it", "json-twice-and-a-dash"],
    )
    def test_a_file_may_start_with_a_dash(self, argv, tmp_path, monkeypatch, capsys):
        assert main(["--json", "validate", bundled_path("p3")]) == 0
        expected = capsys.readouterr().out
        data = Path(bundled_path("p3")).read_bytes()
        for name in ("-p3.pair.json", "-"):
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")

    def test_help_before_the_dashes_only(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "-h").write_bytes(Path(bundled_path("p3")).read_bytes())
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--", "-h"]) == 0
        assert capsys.readouterr().out.startswith("command: validate\n")

    def test_the_readme_shows_the_usage(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert f"```text\n{USAGE}\n```" in readme.read_text(encoding="utf-8")


class TestLargeCoordinates:
    def test_reports_write_values_past_the_digit_limit(self, tmp_path, capsys):
        # Coordinates of 1,501 digits parse, but the period values they give
        # have more digits than the interpreter writes by default: the
        # reports write them all, and input keeps the limit.
        from logcy3.fixtures import projective_space_fan
        from logcy3.gaussian import GaussianRational
        from logcy3.pair import LogCY3Pair, PointBlowup
        from logcy3.toric import star_subdivide

        fan = projective_space_fan()
        while fan.n_rays < 8:
            fan = star_subdivide(fan, fan.max_cones[-1])
        walls = list(fan.walls())
        program = [
            PointBlowup(walls[k % len(walls)], GaussianRational(10**1500 + k + 2))
            for k in range(9)
        ]
        path = tmp_path / "large.pair.json"
        doc = documents.pair_to_document(LogCY3Pair.build(fan, program))
        path.write_text(documents.dumps(doc), encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        assert main(["--json", "periods", str(path)]) == 0
        out = capsys.readouterr().out
        assert len(max(out.split(), key=len)) > limit
        assert main(["--json", "compare", str(path), str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["verdict"] == "isomorphic"
        assert sys.get_int_max_str_digits() == limit


class TestOracleCheck:
    @pytest.mark.parametrize("name", ["p3", "p111", "p3-conic", "p3-mixed"])
    def test_all_checks_agree(self, name, capsys):
        assert main(["oracle-check", bundled_path(name)]) == 0
        out = capsys.readouterr().out
        assert "period_paths: agree" in out
        assert "point_subdivision: agree" in out
        assert "curve_subdivision: agree" in out

    def test_the_first_period_disagreement_stops_the_walk(self, monkeypatch, capsys):
        from logcy3 import oracle
        from logcy3.periods import matching_lattice, matching_values

        cocycle_period = oracle.cocycle_period
        monkeypatch.setattr(oracle, "cocycle_period", lambda pair, gen: -cocycle_period(pair, gen))
        assert main(["--json", "oracle-check", bundled_path("p3-mixed")]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        with open(bundled_path("p3-mixed"), encoding="utf-8") as handle:
            pair, _ = documents.pair_from_document(documents.loads(handle.read()))
        gen, value = matching_lattice(pair)[0], matching_values(pair)[0]
        assert len(matching_lattice(pair)) == 8
        assert results == {
            "period_paths": "disagree",
            "generators_checked": 1,
            "point_subdivision": "agree",
            "curve_subdivision": "agree",
            "discrepancies": [f"period paths disagree on {list(gen)}: {value} vs {-value}"],
        }

    @pytest.mark.parametrize("check", ["point", "curve"])
    def test_a_subdivision_disagreement_is_reported(self, check, monkeypatch, capsys):
        from logcy3 import oracle

        monkeypatch.setattr(
            oracle, f"{check}_subdivision_check", lambda fan, center: f"entry at {center}"
        )
        assert main(["--json", "oracle-check", bundled_path("p3")]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        center = {"point": (0, 1, 2), "curve": (0, 1)}[check]
        assert results["period_paths"] == "agree"
        assert results[f"{check}_subdivision"] == "disagree"
        assert results["discrepancies"] == [f"{check} blowup: entry at {center}"]


# ``python -m logcy3.cli ARGS``, which imports ``logcy3.cli`` through runpy
# as ``-m`` does, and writes the names in ``sys.modules`` at exit to stderr.
_AS_MAIN = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('logcy3.cli', run_name='__main__', alter_sys=True)\n"
)


def run_fresh(*args):
    """The CLI in a fresh interpreter: the finished process and its modules."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(documents.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _AS_MAIN, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done, set(done.stderr.split())


class TestFreshInterpreter:
    def test_validate_loads_only_what_it_runs(self):
        path = bundled_path("p3-mixed")
        done, modules = run_fresh("--json", "validate", path)
        assert done.returncode == 0
        assert json.loads(done.stdout)["results"]["status"] == "ok"
        assert "logcy3.documents" in modules
        unused = {
            "logcy3.periods",
            "logcy3.torelli",
            "logcy3.oracle",
            "dataclasses",
            "inspect",
            "fractions",
            "decimal",
        }
        assert modules & unused == set()
        # No lattice code, and no argument parser but the command table.
        assert modules & {"logcy3.exactnum", "argparse"} == set()
        # The subcommands that need the comparison code still import it,
        # and no more than it runs.
        done, modules = run_fresh("--json", "compare", path, path)
        assert done.returncode == 0
        assert json.loads(done.stdout)["results"]["verdict"] == "isomorphic"
        assert {"logcy3.periods", "logcy3.torelli"} <= modules
        assert modules & {"argparse", "fractions"} == set()
        done, modules = run_fresh("--json", "invariants", path)
        assert done.returncode == 0
        assert json.loads(done.stdout)["command"] == "invariants"
        assert modules & {"argparse", "fractions"} == set()

    def test_the_package_loads_the_lattice_types_on_first_use(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(documents.__file__)))
        probe = (
            "import sys, logcy3\n"
            "print('logcy3.exactnum' in sys.modules)\n"
            "from logcy3 import IntMatrix, SnfDecomposition\n"
            "from logcy3.exactnum import IntMatrix as held, SnfDecomposition as snf_held\n"
            "print(IntMatrix is held and SnfDecomposition is snf_held)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (done.returncode, done.stdout) == (0, "False\nTrue\n")
        # In this process too, so that ``tests/line_reach.py`` sees ``__getattr__`` run.
        from logcy3 import IntMatrix, SnfDecomposition, exactnum

        assert (IntMatrix, SnfDecomposition) == (exactnum.IntMatrix, exactnum.SnfDecomposition)

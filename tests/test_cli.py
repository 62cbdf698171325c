"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import importlib.resources
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3 import documents
from logcy3.cli import main
from logcy3.fixtures import perturbed_conic_pair
from logcy3.torelli import Correspondence


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
        assert "error:" in capsys.readouterr().err

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
        "field, value",
        [("vertex_map", [[0, 0], [1, 1], [2, 2], [3, 3]]), ("step_map", ["0"])],
        ids=["vertex-map-list", "step-map-not-int"],
    )
    def test_malformed_correspondence_is_an_error(self, field, value, tmp_path, capsys):
        path = bundled_path("p3")
        doc = documents.correspondence_to_document(
            Correspondence.identity(documents.load_pair(path)[0])
        )
        doc[field] = value
        corr_path = tmp_path / "bad.corr.json"
        corr_path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["compare", path, path, str(corr_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1

    def test_unexpected_exception_is_an_error(self, monkeypatch, capsys):
        def broken(*args):
            raise ZeroDivisionError("integer division\nor modulo by zero")

        monkeypatch.setattr("logcy3.cli.decide_isomorphism", broken)
        path = bundled_path("p3")
        assert main(["compare", path, path]) == 2
        err = capsys.readouterr().err
        assert err == "error: ZeroDivisionError: integer division or modulo by zero\n"


class TestOracleCheck:
    @pytest.mark.parametrize("name", ["p3", "p111", "p3-conic", "p3-mixed"])
    def test_all_checks_agree(self, name, capsys):
        assert main(["oracle-check", bundled_path(name)]) == 0
        out = capsys.readouterr().out
        assert "period_paths: agree" in out
        assert "point_subdivision: agree" in out
        assert "curve_subdivision: agree" in out

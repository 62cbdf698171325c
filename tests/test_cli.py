"""End-to-end tests of the command-line interface."""

import importlib.resources
import json

import pytest

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
        ],
        ids=["short-ray", "point-key-x", "one-element-edge"],
    )
    def test_malformed_fields_are_diagnosed(self, malform, tmp_path, capsys):
        with open(bundled_path("p3-mixed"), encoding="utf-8") as handle:
            doc = documents.loads(handle.read())
        malform(doc)
        path = tmp_path / "bad.pair.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        assert main(["--json", "validate", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["results"]["status"] == "invalid"

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

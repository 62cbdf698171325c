"""Tests for the JSON pair and correspondence documents."""

import importlib.resources
import re

import pytest

from logcy3 import documents
from logcy3.boundary import Marking
from logcy3.documents import (
    DocumentError,
    correspondence_from_document,
    correspondence_to_document,
    dumps,
    loads,
    pair_from_document,
    pair_to_document,
)
from logcy3.exactnum import GaussianRational, IntMatrix
from logcy3.fixtures import pair_fixtures
from logcy3.torelli import Correspondence

BUNDLED = [
    "p3",
    "p111",
    "p3-blowup-point",
    "p3-blowup-line",
    "p111-blowup-point",
    "p3-point",
    "p3-conic",
    "p3-mixed",
]


def bundled_text(name):
    return (
        importlib.resources.files("logcy3")
        .joinpath(f"data/{name}.pair.json")
        .read_text(encoding="utf-8")
    )


class TestPairDocuments:
    def test_bundled_files_parse_and_round_trip(self):
        fixtures = pair_fixtures()
        for name in BUNDLED:
            text = bundled_text(name)
            pair, marking = pair_from_document(loads(text))
            assert pair.pic_rank == fixtures[name].pic_rank
            assert pair.program == fixtures[name].program
            assert dumps(pair_to_document(pair, marking)) == text

    def test_serialization_is_deterministic(self):
        pair = pair_fixtures()["p3-conic"]
        assert dumps(pair_to_document(pair)) == dumps(pair_to_document(pair))

    def test_marking_round_trip(self):
        pair = pair_fixtures()["p3"]
        marking = Marking.build(
            {key: GaussianRational(n + 2, 1) for n, key in enumerate(
                sorted(pair.edge_keys(), key=lambda k: tuple(sorted(k)))
            )}
        )
        doc = pair_to_document(pair, marking)
        _, recovered = pair_from_document(loads(dumps(doc)))
        assert recovered == marking

    def test_wrong_format_rejected(self):
        with pytest.raises(DocumentError, match="not a pair document"):
            pair_from_document({"format": "something-else", "version": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(DocumentError, match="missing field"):
            pair_from_document({"format": "logcy3-pair", "version": 1})

    def test_bad_coordinate_rejected(self):
        doc = loads(bundled_text("p3-point"))
        doc["blowups"][0]["coordinate"] = "1/0"
        with pytest.raises(DocumentError, match="denominator"):
            pair_from_document(doc)

    def test_invalid_program_rejected(self):
        doc = loads(bundled_text("p3-point"))
        doc["blowups"][0]["coordinate"] = "0"
        with pytest.raises(DocumentError, match="0-stratum"):
            pair_from_document(doc)

    @pytest.mark.parametrize(
        "markings, message",
        [
            (
                {"0-1": "2", "0-3": "2", "1-2": "2", "1-3": "2", "2-3": "2"},
                "markings: no point on edge (0, 2)",
            ),
            ({"0-9": "2"}, "markings: (0, 9) is not an edge"),
            ({"0-1": "2", "1-0": "3"}, "markings: edge (0, 1) listed twice"),
            ({"0-1": "0"}, "markings[0-1]: marking point on a 0-stratum"),
        ],
        ids=["missing-edge", "non-edge", "duplicate-edge", "zero-point"],
    )
    def test_marking_must_cover_each_edge_once(self, markings, message):
        doc = loads(bundled_text("p3-conic"))
        doc["markings"] = markings
        with pytest.raises(DocumentError, match=re.escape(message)):
            pair_from_document(doc)

    @pytest.mark.parametrize("sign", [0, 5, -2])
    def test_orientation_sign_must_be_a_unit(self, sign):
        doc = loads(bundled_text("p3"))
        doc["orientation"]["sign"] = sign
        message = f"orientation.sign: expected 1 or -1, got {sign}"
        with pytest.raises(DocumentError, match=re.escape(message)):
            pair_from_document(doc)

    def test_curve_point_vertex_listed_twice(self):
        doc = loads(bundled_text("p3-conic"))
        doc["blowups"][0]["points"]["01"] = ["11", "13"]
        message = "blowups[0].points: vertex 1 listed twice"
        with pytest.raises(DocumentError, match=re.escape(message)):
            pair_from_document(doc)

    @pytest.mark.parametrize(
        "malform, path",
        [
            (lambda doc: doc["rays"][2].pop(), "rays[2]"),
            (
                lambda doc: doc["blowups"][0]["points"].update(x=["2", "3"]),
                "blowups[0].points: bad vertex key 'x'",
            ),
            (lambda doc: doc["blowups"][1]["edge"].pop(), "blowups[1].edge"),
            (lambda doc: doc["blowups"][0].update(points=5), "blowups[0].points"),
            (
                lambda doc: doc["blowups"][0].update(curve_class=2),
                "blowups[0].curve_class",
            ),
            (lambda doc: doc["blowups"].__setitem__(1, "kind"), "blowups[1]"),
            (
                lambda doc: doc["orientation"].update(triangle=5),
                "orientation.triangle",
            ),
            (
                lambda doc: doc["edge_orientations"].__setitem__(1, 5),
                "edge_orientations[1]",
            ),
        ],
        ids=[
            "short-ray",
            "point-key-x",
            "one-element-edge",
            "points-not-object",
            "curve-class-not-list",
            "step-not-object",
            "triangle-not-list",
            "edge-orientation-not-list",
        ],
    )
    def test_malformed_shape_rejected_with_field_path(self, malform, path):
        doc = loads(bundled_text("p3-mixed"))
        malform(doc)
        with pytest.raises(DocumentError, match=re.escape(path)):
            pair_from_document(doc)

    def test_malformed_json_reports_line(self):
        with pytest.raises(DocumentError, match="line"):
            loads("{\n  broken\n}")

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"coordinate": "2",', '"coordinate": "2", "coordinate": "3",', "coordinate"),
            ('"kind": "point"', '"kind": "point", "kind": "point"', "kind"),
            ('"version": 1', '"version": 1, "version": 1', "version"),
        ],
        ids=["point-coordinate", "same-value-twice", "top-level"],
    )
    def test_repeated_key_rejected(self, old, new, key):
        text = bundled_text("p3-point")
        assert old in text
        with pytest.raises(DocumentError, match=re.escape(f'duplicate key "{key}"')):
            loads(text.replace(old, new, 1))

    def test_repeated_marking_key_rejected(self):
        pair = pair_fixtures()["p3"]
        text = dumps(pair_to_document(pair, Marking.markers(pair.edge_keys())))
        assert '"0-1": "-1",' in text
        with pytest.raises(DocumentError, match=re.escape('duplicate key "0-1"')):
            loads(text.replace('"0-1": "-1",', '"0-1": "-1", "0-1": "2",', 1))


class TestCorrespondenceDocuments:
    def test_round_trip(self):
        corr = Correspondence(
            ((0, 1), (1, 0), (2, 2), (3, 3)),
            (0,),
            IntMatrix([[1, 0], [0, 1]]),
            ((0, IntMatrix([[1]])),),
        )
        doc = correspondence_to_document(corr)
        recovered = correspondence_from_document(loads(dumps(doc)))
        assert recovered.vertex_map == corr.vertex_map
        assert recovered.step_map == corr.step_map
        assert recovered.mu.data == corr.mu.data
        assert recovered.mu_components[0][1].data == corr.mu_components[0][1].data

    def test_wrong_format_rejected(self):
        with pytest.raises(DocumentError, match="not a correspondence"):
            correspondence_from_document({"format": "logcy3-pair", "version": 1})

    @pytest.mark.parametrize(
        "malform, path",
        [
            (lambda doc: doc.update(vertex_map=[[0, 0], [1, 1]]), "vertex_map"),
            (lambda doc: doc["vertex_map"].update({"x": 1}), "vertex_map"),
            (lambda doc: doc["vertex_map"].update({"1": "1"}), "vertex_map[1]"),
            (lambda doc: doc.update(step_map={"0": 0}), "step_map"),
            (lambda doc: doc.update(step_map=["0"]), "step_map[0]"),
            (lambda doc: doc.update(mu=[1, 0]), "mu[0]"),
            (lambda doc: doc.update(mu=[[1, 0], [0]]), "mu"),
            (lambda doc: doc.update(mu_components=[[1]]), "mu_components"),
            (lambda doc: doc["mu_components"].update({"0": [[0.5]]}), "mu_components[0][0][0]"),
        ],
        ids=[
            "vertex-map-list",
            "vertex-map-key",
            "vertex-map-value",
            "step-map-object",
            "step-map-entry",
            "mu-row",
            "mu-ragged",
            "mu-components-list",
            "mu-components-entry",
        ],
    )
    def test_malformed_shape_rejected_with_field_path(self, malform, path):
        corr = Correspondence(
            ((0, 0), (1, 1), (2, 2), (3, 3)),
            (0,),
            IntMatrix([[1, 0], [0, 1]]),
            ((0, IntMatrix([[1]])),),
        )
        doc = loads(dumps(correspondence_to_document(corr)))
        malform(doc)
        with pytest.raises(DocumentError, match=re.escape(path)):
            correspondence_from_document(doc)

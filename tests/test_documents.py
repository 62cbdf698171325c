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
from logcy3.exactnum import IntMatrix
from logcy3.gaussian import GaussianRational
from logcy3.fixtures import pair_fixtures, projective_space_fan
from logcy3.pair import CurveBlowup, LogCY3Pair, PointBlowup
from logcy3.torelli import Correspondence
from random_draws import solved_curve_step
from stage_harness import subdivided

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


# Keys that Python's ``int`` reads as vertex 3 (or 0) but that are not
# written as ``str`` writes the integer: a document names a vertex one way.
NON_CANONICAL_KEYS = [" 3 ", "+3", "0_3", "\u0663", "03", "00"]


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

    @pytest.mark.parametrize(
        "v, curve, links", [(9, (0, 1), (8, 10)), (10, (0, 1), (9, 11)), (13, (1,), (12, 2, 1))]
    )
    def test_curve_points_read_back_past_vertex_nine(self, v, curve, links):
        # A document keys a curve's points by the vertex's text, and "10"
        # sorts before "8" as text; a step holds its points by vertex.
        fan = subdivided(projective_space_fan(), 14)
        step = solved_curve_step(LogCY3Pair.build(fan), v, curve, 101)
        assert [w for w, _ in step.points] == sorted(links)
        pair = LogCY3Pair.build(fan, [step])
        read, _ = pair_from_document(loads(dumps(pair_to_document(pair))))
        assert read.program == pair.program
        linked = CurveBlowup(v, curve, tuple((w, step.points_on(w)) for w in links))
        assert linked == step

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

    def test_writer_refuses_what_the_reader_refuses(self):
        # The reader keeps the interpreter's limit on the digits of an
        # integer: the writer names the field of a value past it, and a
        # document under it round-trips.
        fan = projective_space_fan()
        big = GaussianRational(10**5000)
        pair = LogCY3Pair.build(fan, [PointBlowup((0, 1), big)])
        with pytest.raises(DocumentError, match=r"^blowups\[0\]\.coordinate: .* too many digits$"):
            pair_to_document(pair)
        bare = LogCY3Pair.build(fan)
        with pytest.raises(DocumentError, match=r"^markings\[\d+-\d+\]: .* too many digits$"):
            pair_to_document(bare, Marking.build({key: big for key in bare.edge_keys()}))
        value = GaussianRational(10**4000)
        pair = LogCY3Pair.build(fan, [PointBlowup((0, 1), value)])
        marking = Marking.build({key: value for key in pair.edge_keys()})
        text = dumps(pair_to_document(pair, marking))
        assert dumps(pair_to_document(*pair_from_document(loads(text)))) == text

    def test_wrong_format_rejected(self):
        with pytest.raises(DocumentError, match="not a pair document"):
            pair_from_document({"format": "something-else", "version": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(DocumentError, match="missing field"):
            pair_from_document({"format": "logcy3-pair", "version": 1})

    def test_unsupported_version_rejected(self):
        doc = loads(bundled_text("p3"))
        doc["version"] = 2
        with pytest.raises(DocumentError, match="^document: unsupported version$"):
            pair_from_document(doc)

    def test_unknown_blowup_kind_rejected(self):
        doc = loads(bundled_text("p3-point"))
        doc["blowups"][0]["kind"] = "line"
        with pytest.raises(DocumentError, match="^blowups\\[0\\]: unknown blowup kind 'line'$"):
            pair_from_document(doc)

    def test_lattice_rank_other_than_three_rejected(self):
        doc = loads(bundled_text("p3"))
        doc["lattice_rank"] = 4
        with pytest.raises(DocumentError, match="^document: lattice_rank must be 3$"):
            pair_from_document(doc)

    @pytest.mark.parametrize(
        "text", ["[1, 2]", '"logcy3-pair"', "3"], ids=["list", "string", "number"]
    )
    def test_top_level_must_be_an_object(self, text):
        with pytest.raises(DocumentError, match="^document: top level must be an object$"):
            loads(text)

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
            ({"0-x": "2"}, "markings: bad edge key '0-x'"),
        ],
        ids=["missing-edge", "non-edge", "duplicate-edge", "zero-point", "bad-key"],
    )
    def test_marking_must_cover_each_edge_once(self, markings, message):
        doc = loads(bundled_text("p3-conic"))
        doc["markings"] = markings
        with pytest.raises(DocumentError, match=re.escape(message)):
            pair_from_document(doc)

    @pytest.mark.parametrize("key", NON_CANONICAL_KEYS)
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_a_marking_key_not_written_as_its_integers_is_refused(self, key, side):
        # Each side of an edge key is read as a vertex key is read.
        doc = loads(bundled_text("p3-conic"))
        bad = f"0-{key}" if side == "second" else f"{key}-0"
        doc["markings"] = {k: "2" for k in ["0-1", "0-2", bad, "1-2", "1-3", "2-3"]}
        message = f"markings: bad edge key {bad!r}"
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            pair_from_document(doc)

    @pytest.mark.parametrize(
        "field, value", [("version", True), ("version", 1.0), ("lattice_rank", 3.0)]
    )
    def test_a_header_field_must_be_an_integer(self, field, value):
        doc = loads(bundled_text("p3"))
        doc[field] = value
        message = f"{field}: expected an integer, got {value!r}"
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            pair_from_document(doc)

    @pytest.mark.parametrize("sign", [0, 5, -2])
    def test_orientation_sign_must_be_a_unit(self, sign):
        doc = loads(bundled_text("p3"))
        doc["orientation"]["sign"] = sign
        message = f"orientation.sign: expected 1 or -1, got {sign}"
        with pytest.raises(DocumentError, match=re.escape(message)):
            pair_from_document(doc)

    def test_curve_point_vertex_listed_twice(self):
        # "01" would name vertex 1 a second time; it is no vertex key.
        doc = loads(bundled_text("p3-conic"))
        doc["blowups"][0]["points"]["01"] = ["11", "13"]
        message = "blowups[0].points: bad vertex key '01'"
        with pytest.raises(DocumentError, match=re.escape(message)):
            pair_from_document(doc)

    @pytest.mark.parametrize("key", NON_CANONICAL_KEYS)
    def test_a_curve_point_key_not_written_as_its_integer_is_refused(self, key):
        doc = loads(bundled_text("p3-conic"))
        points = doc["blowups"][0]["points"]
        points[key] = points.pop("1")
        message = f"blowups[0].points: bad vertex key {key!r}"
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
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
                lambda doc: doc["blowups"][0]["points"].update({"1": "2"}),
                "blowups[0].points[1]: expected a list, got '2'",
            ),
            (
                lambda doc: doc["blowups"][0]["points"]["1"].__setitem__(0, "1/0"),
                "blowups[0].points[1]: zero denominator in Gaussian rational '1/0'",
            ),
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
            "point-list-not-list",
            "curve-coordinate",
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
        "old, new, diagnostic",
        [
            (b'"coordinate": "2"', b'"coordinate": "\xff"', "not UTF-8 text at byte"),
            (b'"lattice_rank": 3', b'"lattice_rank": ' + b"[" * 10**5 + b"]" * 10**5,
             "nested too deeply"),
            (b'"lattice_rank": 3', b'"lattice_rank": 3' + b"0" * 5000, "integer literal too long"),
        ],
        ids=["not-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_malformed_bytes_rejected(self, old, new, diagnostic):
        data = bundled_text("p3-mixed").encode("utf-8")
        assert old in data
        with pytest.raises(DocumentError, match=f"^document: {diagnostic}"):
            loads(data.replace(old, new, 1))

    def test_bytes_read_as_text(self):
        text = bundled_text("p3-mixed")
        assert loads(text.encode("utf-8")) == loads(text)
        with pytest.raises(DocumentError, match="^line 3: "):
            loads(b"{\r\n\r  broken\r\n}")

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

    def test_unsupported_version_rejected(self):
        corr = Correspondence(((0, 0), (1, 1), (2, 2), (3, 3)), (), None, ())
        doc = loads(dumps(correspondence_to_document(corr)))
        doc["version"] = 2
        with pytest.raises(DocumentError, match="^document: unsupported version$"):
            correspondence_from_document(doc)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_the_version_must_be_an_integer(self, version):
        corr = Correspondence(((0, 0), (1, 1), (2, 2), (3, 3)), (), None, ())
        doc = loads(dumps(correspondence_to_document(corr)))
        doc["version"] = version
        message = f"version: expected an integer, got {version!r}"
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            correspondence_from_document(doc)

    @pytest.mark.parametrize("field", ["vertex_map", "mu_components"])
    def test_vertex_listed_twice(self, field):
        # "00" would name vertex 0 a second time, and two maps of one vertex
        # cannot be ordered: it is no vertex key.
        corr = Correspondence(
            ((0, 0), (1, 1), (2, 2), (3, 3)), (0,), None, ((0, IntMatrix([[1]])),)
        )
        doc = loads(dumps(correspondence_to_document(corr)))
        doc[field]["00"] = doc[field]["0"]
        with pytest.raises(DocumentError, match=re.escape(f"{field}: bad vertex key '00'")):
            correspondence_from_document(doc)

    @pytest.mark.parametrize("field", ["vertex_map", "mu_components"])
    @pytest.mark.parametrize("key", NON_CANONICAL_KEYS)
    def test_a_key_not_written_as_its_integer_is_refused(self, field, key):
        corr = Correspondence(
            ((0, 0), (1, 1), (2, 2), (3, 3)), (0,), None, ((3, IntMatrix([[1]])),)
        )
        doc = loads(dumps(correspondence_to_document(corr)))
        doc[field][key] = doc[field].pop("3")
        message = f"{field}: bad vertex key {key!r}"
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            correspondence_from_document(doc)

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

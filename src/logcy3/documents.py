"""Structured-text documents for pairs and correspondences.

All files are JSON with an explicit format tag and version.  Exact numbers
are always strings in the Gaussian-rational textual form; floats never
appear.  Serialization is canonical (sorted keys, fixed list orders), so a
round trip through parse and serialize is stable.
"""

from __future__ import annotations

import json

from logcy3.boundary import Marking
from logcy3.exactnum import ExactArithmeticError, GaussianRational, IntMatrix
from logcy3.pair import CurveBlowup, LogCY3Pair, PairError, PointBlowup
from logcy3.toric import Fan3, FanError
from logcy3.torelli import Correspondence

PAIR_FORMAT = "logcy3-pair"
CORRESPONDENCE_FORMAT = "logcy3-correspondence"
FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Raised for malformed document files, with field context."""


def _field(doc, key, context):
    if key not in doc:
        raise DocumentError(f"{context}: missing field {key!r}")
    return doc[key]


def _expect(value, kind, context):
    """``value`` if it is a ``kind`` (list or dict), else a field-path error."""
    if not isinstance(value, kind):
        name = "a list" if kind is list else "an object"
        raise DocumentError(f"{context}: expected {name}, got {value!r}")
    return value


def _integer(value, context) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{context}: expected an integer, got {value!r}")
    return value


def _integers(value, context, length=None) -> tuple:
    """A JSON list of integers, of the given length if one is given."""
    _expect(value, list, context)
    if length is not None and len(value) != length:
        raise DocumentError(f"{context}: expected {length} entries, got {value!r}")
    return tuple(_integer(x, f"{context}[{i}]") for i, x in enumerate(value))


def _vertex_key(key, context) -> int:
    try:
        return int(key)
    except ValueError as exc:
        raise DocumentError(f"{context}: bad vertex key {key!r}") from exc


def _parse_coordinate(text, context) -> GaussianRational:
    try:
        value = GaussianRational.parse(str(text))
    except ExactArithmeticError as exc:
        raise DocumentError(f"{context}: {exc}") from exc
    return value


# ---------------------------------------------------------------------------
# Pair documents
# ---------------------------------------------------------------------------


def pair_to_document(pair: LogCY3Pair, marking: Marking = None) -> dict:
    doc = {
        "format": PAIR_FORMAT,
        "version": FORMAT_VERSION,
        "lattice_rank": 3,
        "rays": [list(r) for r in pair.fan.rays],
        "cones": [list(c) for c in pair.fan.max_cones],
        "orientation": {
            "triangle": list(pair.fan.orientation[0]),
            "sign": pair.fan.orientation[1],
        },
        "edge_orientations": [list(e) for e in pair.complex.edges],
        "blowups": [_step_to_document(step) for step in pair.program],
    }
    if marking is not None:
        doc["markings"] = {
            "-".join(str(v) for v in sorted(key)): str(coord)
            for key, coord in marking.points
        }
    return doc


def _step_to_document(step) -> dict:
    if isinstance(step, PointBlowup):
        return {
            "kind": "point",
            "edge": list(step.edge),
            "coordinate": str(step.coordinate),
        }
    return {
        "kind": "curve",
        "component": step.component,
        "curve_class": list(step.curve_class),
        "points": {
            str(w): [str(q) for q in coords] for w, coords in step.points
        },
    }


def pair_from_document(doc: dict):
    """Parse and build a validated pair; returns ``(pair, marking_or_none)``."""
    if _field(doc, "format", "document") != PAIR_FORMAT:
        raise DocumentError("document: not a pair document")
    if _field(doc, "version", "document") != FORMAT_VERSION:
        raise DocumentError("document: unsupported version")
    if doc.get("lattice_rank", 3) != 3:
        raise DocumentError("document: lattice_rank must be 3")
    rays = [
        _integers(ray, f"rays[{i}]", 3)
        for i, ray in enumerate(_expect(_field(doc, "rays", "document"), list, "rays"))
    ]
    cones = [
        _integers(cone, f"cones[{i}]", 3)
        for i, cone in enumerate(_expect(_field(doc, "cones", "document"), list, "cones"))
    ]
    orientation = None
    if "orientation" in doc:
        spec = _expect(doc["orientation"], dict, "orientation")
        triangle = _integers(
            _field(spec, "triangle", "orientation"), "orientation.triangle", 3
        )
        for i, vertex in enumerate(triangle):
            if not 0 <= vertex < len(rays):
                raise DocumentError(f"orientation.triangle[{i}]: no vertex {vertex}")
        sign = _integer(_field(spec, "sign", "orientation"), "orientation.sign")
        if sign not in (1, -1):
            raise DocumentError(f"orientation.sign: expected 1 or -1, got {sign!r}")
        orientation = (triangle, sign)
    try:
        fan = Fan3(rays, cones, orientation)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"fan: {exc}") from exc
    program = [
        _step_from_document(entry, f"blowups[{i}]")
        for i, entry in enumerate(_expect(doc.get("blowups", []), list, "blowups"))
    ]
    edge_orientations = doc.get("edge_orientations")
    if edge_orientations is not None:
        edge_orientations = [
            _integers(e, f"edge_orientations[{i}]", 2)
            for i, e in enumerate(_expect(edge_orientations, list, "edge_orientations"))
        ]
    try:
        pair = LogCY3Pair.build(fan, program, edge_orientations)
    except (PairError, FanError) as exc:
        raise DocumentError(f"pair: {exc}") from exc
    marking = None
    if "markings" in doc:
        marking = _marking_from_document(doc["markings"], pair)
    return pair, marking


def _marking_from_document(value, pair: LogCY3Pair) -> Marking:
    """A marking with one nonzero point on each edge of the pair, each once."""
    edges = set(pair.edge_keys())
    values = {}
    for key, text in _expect(value, dict, "markings").items():
        try:
            v, w = (int(x) for x in key.split("-"))
        except ValueError as exc:
            raise DocumentError(f"markings: bad edge key {key!r}") from exc
        edge = frozenset((v, w))
        if edge not in edges:
            raise DocumentError(f"markings: {(v, w)} is not an edge")
        if edge in values:
            raise DocumentError(f"markings: edge {tuple(sorted(edge))} listed twice")
        coord = _parse_coordinate(text, f"markings[{key}]")
        if coord.is_zero():
            raise DocumentError(f"markings[{key}]: marking point on a 0-stratum")
        values[edge] = coord
    missing = sorted(tuple(sorted(edge)) for edge in edges - set(values))
    if missing:
        raise DocumentError(f"markings: no point on edge {missing[0]}")
    return Marking.build(values)


def _step_from_document(entry: dict, context: str):
    kind = _field(_expect(entry, dict, context), "kind", context)
    if kind == "point":
        edge = _integers(_field(entry, "edge", context), f"{context}.edge", 2)
        coord = _parse_coordinate(_field(entry, "coordinate", context), context)
        return PointBlowup(edge, coord)
    if kind == "curve":
        per_vertex = _field(entry, "points", context)
        points = {}
        for w, coords in sorted(_expect(per_vertex, dict, f"{context}.points").items()):
            _expect(coords, list, f"{context}.points[{w}]")
            vertex = _vertex_key(w, f"{context}.points")
            if vertex in points:
                raise DocumentError(f"{context}.points: vertex {vertex} listed twice")
            points[vertex] = tuple(
                _parse_coordinate(q, f"{context}.points[{w}]") for q in coords
            )
        return CurveBlowup(
            component=_integer(
                _field(entry, "component", context), f"{context}.component"
            ),
            curve_class=_integers(
                _field(entry, "curve_class", context), f"{context}.curve_class"
            ),
            points=tuple(points.items()),
        )
    raise DocumentError(f"{context}: unknown blowup kind {kind!r}")


# ---------------------------------------------------------------------------
# Correspondence documents
# ---------------------------------------------------------------------------


def correspondence_to_document(corr: Correspondence) -> dict:
    doc = {
        "format": CORRESPONDENCE_FORMAT,
        "version": FORMAT_VERSION,
        "vertex_map": {str(a): b for a, b in corr.vertex_map},
        "step_map": list(corr.step_map),
    }
    if corr.mu is not None:
        doc["mu"] = [list(row) for row in corr.mu.data]
    if corr.mu_components:
        doc["mu_components"] = {
            str(v): [list(row) for row in m.data] for v, m in corr.mu_components
        }
    return doc


def correspondence_from_document(doc: dict) -> Correspondence:
    if _field(doc, "format", "document") != CORRESPONDENCE_FORMAT:
        raise DocumentError("document: not a correspondence document")
    if _field(doc, "version", "document") != FORMAT_VERSION:
        raise DocumentError("document: unsupported version")
    entries = _expect(_field(doc, "vertex_map", "document"), dict, "vertex_map").items()
    vertex_map = tuple(
        sorted(
            (_vertex_key(a, "vertex_map"), _integer(b, f"vertex_map[{a}]"))
            for a, b in entries
        )
    )
    step_map = _integers(_field(doc, "step_map", "document"), "step_map")
    mu = _matrix(doc["mu"], "mu") if "mu" in doc else None
    components = _expect(doc.get("mu_components", {}), dict, "mu_components").items()
    mu_components = tuple(
        sorted(
            (_vertex_key(v, "mu_components"), _matrix(rows, f"mu_components[{v}]"))
            for v, rows in components
        )
    )
    return Correspondence(vertex_map, step_map, mu, mu_components)


def _matrix(value, context) -> IntMatrix:
    rows = [
        _integers(row, f"{context}[{i}]")
        for i, row in enumerate(_expect(value, list, context))
    ]
    try:
        return IntMatrix(rows)
    except ExactArithmeticError as exc:
        raise DocumentError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------------------
# File and text helpers
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs) -> dict:
    """A JSON object from its key-value pairs; a repeated key is an error."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DocumentError(f"duplicate key {json.dumps(key)}")
        doc[key] = value
    return doc


def loads(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document: top level must be an object")
    return doc


def load_pair(path):
    with open(path, encoding="utf-8") as handle:
        return pair_from_document(loads(handle.read()))


def load_correspondence(path):
    with open(path, encoding="utf-8") as handle:
        return correspondence_from_document(loads(handle.read()))

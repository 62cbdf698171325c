"""Structured-text documents for pairs and correspondences.

All files are JSON with an explicit format tag and version.  Exact numbers
are always strings in the Gaussian-rational textual form; floats never
appear.  Serialization is canonical (sorted keys, fixed list orders), so a
round trip through parse and serialize is stable.
"""

from __future__ import annotations

import json

from logcy3.boundary import Marking
from logcy3.gaussian import ExactArithmeticError, GaussianRational
from logcy3.pair import CurveBlowup, LogCY3Pair, PairError, PointBlowup
from logcy3.toric import Fan3, FanError

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
    """A JSON list of integers, of the given length if one is given.

    An entry's field path is formatted only when the entry is refused.
    """
    _expect(value, list, context)
    if length is not None and len(value) != length:
        raise DocumentError(f"{context}: expected {length} entries, got {value!r}")
    for i, x in enumerate(value):
        if type(x) is not int:
            _integer(x, f"{context}[{i}]")
    return tuple(value)


def _each(value, context, read) -> list:
    """``read(entry)`` of each entry of the JSON list ``value``.

    ``read`` names the fields of an entry it refuses relative to the entry
    (``: ...``, ``[0]: ...``, ``.edge: ...``); the entry's own path
    ``context[i]`` is put in front of that message only then.
    """
    entries = []
    for i, entry in enumerate(_expect(value, list, context)):
        try:
            entries.append(read(entry))
        except DocumentError as exc:
            raise DocumentError(f"{context}[{i}]{exc}") from exc
    return entries


def _vertex_key(key, context) -> int:
    """The vertex a key names, written as ``str`` writes the integer.

    No spaces, sign ``+``, underscores, leading zeros or non-ASCII digits, so
    distinct keys name distinct vertices.
    """
    try:
        vertex = int(key)
    except ValueError:
        vertex = None
    if vertex is None or key != str(vertex):
        raise DocumentError(f"{context}: bad vertex key {key!r}")
    return vertex


def _parse_coordinate(text, context) -> GaussianRational:
    try:
        value = GaussianRational.parse(str(text))
    except ExactArithmeticError as exc:
        raise DocumentError(f"{context}: {exc}") from exc
    return value


def _coordinate_text(value, context) -> str:
    """The text of a coordinate, parsed back as a reader parses it, so a
    document is never written with a value it would be refused for."""
    text = str(value)
    _parse_coordinate(text, context)
    return text


# ---------------------------------------------------------------------------
# Pair documents
# ---------------------------------------------------------------------------


def pair_to_document(pair: LogCY3Pair, marking: Marking = None) -> dict:
    """The document of a pair, with a marking if one is given; a coordinate
    that :func:`pair_from_document` would refuse raises ``DocumentError``."""
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
        "blowups": [_step_to_document(s, f"blowups[{i}]") for i, s in enumerate(pair.program)],
    }
    if marking is not None:
        doc["markings"] = markings = {}
        for key, coord in marking.points:
            name = "-".join(str(v) for v in sorted(key))
            markings[name] = _coordinate_text(coord, f"markings[{name}]")
    return doc


def _step_to_document(step, context: str) -> dict:
    if isinstance(step, PointBlowup):
        return {
            "kind": "point",
            "edge": list(step.edge),
            "coordinate": _coordinate_text(step.coordinate, f"{context}.coordinate"),
        }
    return {
        "kind": "curve",
        "component": step.component,
        "curve_class": list(step.curve_class),
        "points": {
            str(w): [_coordinate_text(q, f"{context}.points[{w}]") for q in coords]
            for w, coords in step.points
        },
    }


def pair_from_document(doc: dict):
    """Parse and build a validated pair; returns ``(pair, marking_or_none)``."""
    if _field(doc, "format", "document") != PAIR_FORMAT:
        raise DocumentError("document: not a pair document")
    if _integer(_field(doc, "version", "document"), "version") != FORMAT_VERSION:
        raise DocumentError("document: unsupported version")
    if _integer(doc.get("lattice_rank", 3), "lattice_rank") != 3:
        raise DocumentError("document: lattice_rank must be 3")
    rays = _each(_field(doc, "rays", "document"), "rays", lambda ray: _integers(ray, "", 3))
    cones = _each(_field(doc, "cones", "document"), "cones", lambda cone: _integers(cone, "", 3))
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
    fan = Fan3(rays, cones, orientation)
    program = _each(doc.get("blowups", []), "blowups", _step_from_document)
    edge_orientations = doc.get("edge_orientations")
    if edge_orientations is not None:
        edge_orientations = _each(
            edge_orientations, "edge_orientations", lambda e: _integers(e, "", 2)
        )
    try:
        pair = LogCY3Pair.build(fan, program, edge_orientations)
    except (PairError, FanError) as exc:
        raise DocumentError(f"pair: {exc}") from exc
    marking = None
    if "markings" in doc:
        marking = _marking_from_document(doc["markings"], pair)
    return pair, marking


def _marking_from_document(value, pair: LogCY3Pair) -> Marking:
    """A marking with one nonzero point on each edge of the pair, each once.

    An edge key is ``v-w``, each vertex written as :func:`_vertex_key` reads it.
    """
    edges = set(pair.edge_keys())
    values = {}
    for key, text in _expect(value, dict, "markings").items():
        try:
            v, w = (_vertex_key(x, "markings") for x in key.split("-"))
        except ValueError as exc:  # a DocumentError too
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


def _step_from_document(entry: dict):
    """A program step; its messages name fields relative to the step (see
    :func:`_each`).  A curve's points are read in the order of their keys'
    text and the step holds them by vertex."""
    kind = _field(_expect(entry, dict, ""), "kind", "")
    if kind == "point":
        edge = _integers(_field(entry, "edge", ""), ".edge", 2)
        return PointBlowup(edge, _parse_coordinate(_field(entry, "coordinate", ""), ""))
    if kind == "curve":
        parse = GaussianRational.parse
        points = {}
        for w, coords in sorted(_expect(_field(entry, "points", ""), dict, ".points").items()):
            if not isinstance(coords, list):
                _expect(coords, list, f".points[{w}]")
            vertex = _vertex_key(w, ".points")
            try:
                points[vertex] = tuple([parse(str(q)) for q in coords])
            except ExactArithmeticError as exc:
                raise DocumentError(f".points[{w}]: {exc}") from exc
        return CurveBlowup(
            _integer(_field(entry, "component", ""), ".component"),
            _integers(_field(entry, "curve_class", ""), ".curve_class"),
            tuple(points.items()),
        )
    raise DocumentError(f": unknown blowup kind {kind!r}")


# ---------------------------------------------------------------------------
# Correspondence documents
# ---------------------------------------------------------------------------


def correspondence_to_document(corr) -> dict:
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


def correspondence_from_document(doc: dict):
    # Imported here: reading a pair document needs none of the comparison code.
    from logcy3.torelli import Correspondence

    if _field(doc, "format", "document") != CORRESPONDENCE_FORMAT:
        raise DocumentError("document: not a correspondence document")
    if _integer(_field(doc, "version", "document"), "version") != FORMAT_VERSION:
        raise DocumentError("document: unsupported version")
    vertex_map = _by_vertex(_field(doc, "vertex_map", "document"), "vertex_map", _integer)
    step_map = _integers(_field(doc, "step_map", "document"), "step_map")
    mu = _matrix(doc["mu"], "mu") if "mu" in doc else None
    mu_components = _by_vertex(doc.get("mu_components", {}), "mu_components", _matrix)
    return Correspondence(
        tuple(sorted(vertex_map.items())), step_map, mu, tuple(sorted(mu_components.items()))
    )


def _by_vertex(value, context, read) -> dict:
    """An object keyed by vertex, each value ``read(value, field)``.

    A vertex cannot be named twice: the loader refuses a repeated key, and
    :func:`_vertex_key` one that is not written as ``str`` writes it.
    """
    entries = {}
    for key, item in _expect(value, dict, context).items():
        entries[_vertex_key(key, context)] = read(item, f"{context}[{key}]")
    return entries


def _matrix(value, context):
    from logcy3.exactnum import IntMatrix  # here, so that a pair document loads no lattice code

    rows = _each(value, context, lambda row: _integers(row, ""))
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
    """A JSON object from its key-value pairs; a repeated key is an error.

    The object is made in one call; only an object with fewer keys than
    pairs is walked, for its first repeated key.
    """
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate key {json.dumps(key)}")
            seen.add(key)
    return doc


def loads(data) -> dict:
    """The JSON object in ``data``, a ``str`` or the UTF-8 bytes of a file."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError(f"document: not UTF-8 text at byte {exc.start}") from exc
        # Line ends read as a text-mode file reads them.
        data = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(data, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DocumentError("document: nested too deeply") from exc
    except DocumentError:
        raise
    except ValueError as exc:
        # The decoder's only other error: an integer literal with more
        # digits than the interpreter converts.
        raise DocumentError("document: integer literal too long") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document: top level must be an object")
    return doc

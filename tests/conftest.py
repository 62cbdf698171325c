"""Shared test configuration.

Hypothesis runs derandomized, so every run of the suite draws the same
examples and a failure reproduces on the next run.  Run
``pytest --hypothesis-profile=default`` for fresh random draws.  The
``power_products`` fixture counts the work of the period stages.

Every correspondence a test passes to decide (or to the transporter, which
runs the same checks first) is decided again when the test ends, and
compared with :func:`reference_decide`, step (v) as a dense formula over
every boundary row, so the support-only step is checked on the whole
corpus the suite decides.  Where the correspondence passes the checks
before the periods, the other pair's edge-matching map after the boundary
map must be the pair's with its rows carried to the image edges
(:func:`assert_edge_rows_carried`), the identity that transport's shift
rests on, and the pulled support, which skips the toric columns of derived
blocks, must be the full pull-back of the other pair's marker table
(:func:`assert_pulled_support_is_the_full_walk`).  Every call of the
transporter is answered again the same way, by
:func:`reference_transport`: the dense solve at both pairs' full marker
tables, times the markings' per-edge shift read off their points
(:func:`dense_edge_shift`), and each solution it finds is checked on
every boundary class against both markings' full tables.
"""

import sys

import pytest
from hypothesis import settings

from logcy3 import gaussian, torelli
from logcy3.boundary import Marking, component_character_table
from logcy3.exactnum import IntMatrix
from logcy3.periods import (
    edge_matching_map, edge_matching_snf, edge_scaling_character, matching_kernel, matching_lattice,
)

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def power_products(monkeypatch):
    """The exponents of every ``power_product`` call, patched in every module.

    Each module of the package that holds ``gaussian.power_product`` gets a
    wrapper that records the exponent vector of each call, in call order.
    """
    calls = []
    original = gaussian.power_product

    def counted(values, exponents):
        calls.append(tuple(exponents))
        return original(values, exponents)

    for name, module in list(sys.modules.items()):
        if name == "logcy3" or name.startswith("logcy3."):
            if getattr(module, "power_product", None) is original:
                monkeypatch.setattr(module, "power_product", counted)
    return calls


def dense_table(pair, marking):
    """Every component's table at the marking, toric rows included."""
    return tuple(
        value
        for comp in pair.boundary_components()
        for value in component_character_table(comp, marking)
    )


def dense_marker_table(pair):
    """Every component's table at the markers, toric rows included."""
    return dense_table(pair, Marking.markers(pair.edge_keys()))


def reference_decide(pair, other, corr=None):
    """Decide with the dense step (v): both sides' full tables at the markers.

    This pair's values pull its table back along the matching kernel; the
    other's table is pulled back through the boundary map, then each
    generator is valued over all its nonzero entries.
    """
    frame_map = torelli._matched(pair, other, corr)
    if isinstance(frame_map, torelli.Verdict):
        return frame_map
    boundary = torelli._boundary_map(pair, other, corr or torelli.Correspondence.identity(pair))
    kernel = matching_kernel(pair)
    values = kernel.pull_back(dense_marker_table(pair))
    pulled = boundary.pull_back(dense_marker_table(other))
    transcript = []
    for gen, column, value in zip(matching_lattice(pair), kernel.columns, values):
        value2 = gaussian.power_product_of((pulled[i], x) for i, x in column)
        if value != value2:
            return torelli.Verdict(
                "distinct",
                "periods disagree on a matching class",
                {
                    "check": "period",
                    "witness": gen,
                    "witness_image": boundary.apply(gen),
                    "values": (str(value), str(value2)),
                },
            )
        transcript.append((gen, str(value)))
    return torelli.Verdict(
        "isomorphic",
        "combinatorics, cubic form, program and periods all match",
        {
            "check": "complete",
            "toric_model_map": frame_map,
            "period_transcript": tuple(transcript),
        },
    )


def dense_edge_shift(pair, other, corr, marking, marking_other):
    """Per edge ``(v, w)`` of the pair, the other marking's ratio to the
    markers on the image edge over this marking's on ``(v, w)``.

    A ratio is minus the point, read off the marking through the vertex
    map; the other pair's is inverted where it directs the image edge from
    the image of ``w``.
    """
    corr = torelli.Correspondence.identity(pair) if corr is None else corr
    directed = set(other.complex.edges)
    shift = []
    for v, w in pair.complex.edges:
        v2, w2 = corr.vertex(v), corr.vertex(w)
        ratio2 = -marking_other.point(v2, w2)
        if (v2, w2) not in directed:
            ratio2 = ratio2.inverse()
        shift.append(ratio2 / -marking.point(v, w))
    return shift


def assert_transport_solves(pair, boundary, scalars, table, table_other):
    """The scalars' edge-scaling character times the pair's table is the
    other table pulled back through ``boundary``, on every boundary class."""
    scaling = edge_scaling_character(pair, scalars).values
    pulled = boundary.pull_back(table_other)
    assert [s * t for s, t in zip(scaling, table)] == list(pulled)


def reference_transport(pair, other, corr=None, marking=None, marking_other=None):
    """Transport solved on the dense targets at the markers, times the shift.

    The targets are the other pair's full marker table pulled back through
    the boundary map over this pair's; a solution is multiplied edge by
    edge by :func:`dense_edge_shift` and checked against both markings'
    full tables.  The other marking's table is read first, so a marking
    without a point on some edge raises for the other pair's marking first.
    """
    matched = torelli._matched(pair, other, corr)
    if isinstance(matched, torelli.Verdict):
        return matched.certificate["check"], matched.certificate
    marking = pair.markers() if marking is None else marking
    marking_other = other.markers() if marking_other is None else marking_other
    table_other = dense_table(other, marking_other)
    table = dense_table(pair, marking)
    boundary = torelli._boundary_map(pair, other, corr or torelli.Correspondence.identity(pair))
    pulled = boundary.pull_back(dense_marker_table(other))
    targets = [p / t for p, t in zip(pulled, dense_marker_table(pair))]
    targets = gaussian.SparseCharacter(dict(enumerate(targets)))
    status, result = edge_matching_snf(pair).solve_over_gaussian_torus(targets)
    if status != "solved":
        return status, result
    shift = dense_edge_shift(pair, other, corr, marking, marking_other)
    scalars = [h * s for h, s in zip(result, shift)]
    assert_transport_solves(pair, boundary, scalars, table, table_other)
    return status, scalars


def assert_edge_rows_carried(pair, other, corr, boundary):
    """The other pair's edge-matching map after ``boundary`` is the pair's,
    each row carried to the image edge and negated where the other pair
    directs that edge the other way."""
    corr = torelli.Correspondence.identity(pair) if corr is None else corr
    edges2 = other.complex.edges
    rows = []
    for a, b in pair.complex.edges:
        row = other.complex.edge_index(corr.vertex(a), corr.vertex(b))
        rows.append((row, 1 if edges2[row][0] == corr.vertex(a) else -1))
    carried = IntMatrix.from_columns(
        len(edges2),
        [
            sorted((rows[i][0], rows[i][1] * x) for i, x in column)
            for column in edge_matching_map(pair).columns
        ],
    )
    assert edge_matching_map(other) * boundary == carried


def assert_pulled_support_is_the_full_walk(pair, other, corr, boundary):
    """The pulled support, which reads only the exceptional classes of a
    derived block, is the other pair's full marker table pulled back
    through ``boundary``, where that is not 1."""
    corr = torelli.Correspondence.identity(pair) if corr is None else corr
    dense = boundary.pull_back(dense_marker_table(other))
    assert torelli._pulled_support(pair, other, corr, other.marker_support()).values == {
        j: value for j, value in enumerate(dense) if not value.is_one()
    }


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # both sides must raise alike
        return type(exc), str(exc)


@pytest.fixture(autouse=True)
def decided_against_the_reference():
    """Record each correspondence checked in the test and each transport;
    at its end, decide each correspondence again and compare with
    :func:`reference_decide`, check the edge rows and the pulled support
    where it passes the checks before the periods, and answer each
    transport again and compare with :func:`reference_transport`.

    The transporter is wrapped in every module that holds it, so a test
    that imported the name is recorded too.
    """
    seen = {}
    transports = {}
    original = torelli._matched
    transporter = torelli.marking_transporter

    def recorded(pair, other, corr):
        seen.setdefault((id(pair), id(other), corr), (pair, other, corr))
        return original(pair, other, corr)

    def recorded_transport(pair, other, corr=None, marking=None, marking_other=None):
        args = (pair, other, corr, marking, marking_other)
        transports.setdefault((id(pair), id(other), corr, marking, marking_other), args)
        return transporter(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torelli, "_matched", recorded)
        for module in list(sys.modules.values()):
            if getattr(module, "marking_transporter", None) is transporter:
                patch.setattr(module, "marking_transporter", recorded_transport)
        yield
    for pair, other, corr in seen.values():
        got = _outcome(torelli.decide_isomorphism, pair, other, corr)
        assert got == _outcome(reference_decide, pair, other, corr)
        if isinstance(got, torelli.Verdict) and got.certificate["check"] in ("complete", "period"):
            corr = torelli.Correspondence.identity(pair) if corr is None else corr
            boundary = torelli._boundary_map(pair, other, corr)
            assert_edge_rows_carried(pair, other, corr, boundary)
            assert_pulled_support_is_the_full_walk(pair, other, corr, boundary)
    for args in transports.values():
        assert _outcome(transporter, *args) == _outcome(reference_transport, *args)

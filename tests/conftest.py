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
rests on.  Every call of the transporter is answered again the same way,
by :func:`reference_transport`: both markings' full tables and the dense
targets, solved with the empty shift ``{}``, so the solve reads no
``U_inv`` and every marking enters through the targets.
"""

import sys

import pytest
from hypothesis import settings

from logcy3 import gaussian, torelli
from logcy3.boundary import Marking, component_character_table
from logcy3.exactnum import IntMatrix
from logcy3.periods import edge_matching_map, edge_matching_snf, matching_kernel, matching_lattice

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
    matched = torelli._matched(pair, other, corr)
    if isinstance(matched, torelli.Verdict):
        return matched
    frame_map, boundary = matched
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


def reference_transport(pair, other, corr=None, marking=None, marking_other=None):
    """Transport on the dense targets: the other marking's full table pulled
    back through the boundary map over this marking's full table, solved on
    the held factorization with the empty shift.

    The other pair's table is read first, so a marking without a point on
    some edge raises for the other pair's marking first.
    """
    matched = torelli._matched(pair, other, corr)
    if isinstance(matched, torelli.Verdict):
        return matched.certificate["check"], matched.certificate
    marking = pair.markers() if marking is None else marking
    marking_other = other.markers() if marking_other is None else marking_other
    pulled = matched[1].pull_back(dense_table(other, marking_other))
    targets = [p / t for p, t in zip(pulled, dense_table(pair, marking))]
    factored = edge_matching_snf(pair)
    return factored.solve_over_gaussian_torus(dict(enumerate(targets)), {})


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


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # both sides must raise alike
        return type(exc), str(exc)


@pytest.fixture(autouse=True)
def decided_against_the_reference():
    """Record each correspondence checked in the test and each transport;
    at its end, decide each correspondence again and compare with
    :func:`reference_decide`, check the edge rows where it passes the checks
    before the periods, and answer each transport again and compare with
    :func:`reference_transport`.

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
        matched = _outcome(torelli._matched, pair, other, corr)
        if isinstance(matched, tuple) and isinstance(matched[1], IntMatrix):
            assert_edge_rows_carried(pair, other, corr, matched[1])
    for args in transports.values():
        assert _outcome(transporter, *args) == _outcome(reference_transport, *args)

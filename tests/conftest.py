"""Shared test configuration.

Hypothesis runs derandomized, so every run of the suite draws the same
examples and a failure reproduces on the next run.  Run
``pytest --hypothesis-profile=default`` for fresh random draws.  The
``power_products`` fixture counts the work of the period stages.

Every correspondence a test passes to decide (or to the transporter, which
runs the same checks first) is decided again when the test ends, and
compared with :func:`reference_decide`, step (v) as a dense formula over
every boundary row, so the support-only step is checked on the whole
corpus the suite decides.
"""

import sys

import pytest
from hypothesis import settings

from logcy3 import gaussian, torelli
from logcy3.boundary import Marking, component_character_table
from logcy3.periods import matching_kernel, matching_lattice

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


def dense_marker_table(pair):
    """Every component's table at the markers, toric rows included."""
    markers = Marking.markers(pair.edge_keys())
    return tuple(
        value
        for comp in pair.boundary_components()
        for value in component_character_table(comp, markers)
    )


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


def _outcome(decide, pair, other, corr):
    try:
        return decide(pair, other, corr)
    except Exception as exc:  # both sides must raise alike
        return type(exc), str(exc)


@pytest.fixture(autouse=True)
def decided_against_the_reference():
    """Record each correspondence checked in the test; at its end, decide
    each again and compare with :func:`reference_decide`."""
    seen = {}
    original = torelli._matched

    def recorded(pair, other, corr):
        seen.setdefault((id(pair), id(other), corr), (pair, other, corr))
        return original(pair, other, corr)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torelli, "_matched", recorded)
        yield
    for pair, other, corr in seen.values():
        got = _outcome(torelli.decide_isomorphism, pair, other, corr)
        assert got == _outcome(reference_decide, pair, other, corr)

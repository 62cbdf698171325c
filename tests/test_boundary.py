"""Tests for boundary components, cycle restriction, and section ratios."""

import pytest

from logcy3.boundary import (
    BoundaryError,
    Marking,
    adjunction_check,
    component_marked_period,
    restrict_to_cycle,
    section_ratio,
)
from logcy3.exactnum import GaussianRational, I, MINUS_ONE, ONE
from logcy3.fixtures import pair_fixtures


@pytest.fixture(scope="module")
def pairs():
    return pair_fixtures()


def g(text):
    return GaussianRational.parse(text)


class TestSectionRatio:
    def test_difference_of_points(self):
        # [q] - [r] has degree 0: the marking point drops out.
        value = section_ratio([(g("6"), 1), (g("2"), -1)], g("5"))
        assert value == g("3")

    def test_degree_times_marking(self):
        # d copies of the marking point itself give 1.
        assert section_ratio([(g("7"), 3)], g("7")) == ONE

    def test_marker_restriction_is_one(self):
        # Toric restriction: degree d at the marker, marked at the marker.
        assert section_ratio([(MINUS_ONE, 4)], MINUS_ONE) == ONE

    def test_single_point(self):
        assert section_ratio([(g("6"), 1)], g("2")) == g("3")

    def test_gaussian_points(self):
        value = section_ratio([(I, 1)], MINUS_ONE)
        assert value == -I

    def test_zero_stratum_rejected(self):
        with pytest.raises(BoundaryError):
            section_ratio([(g("0"), 1)], ONE)
        with pytest.raises(BoundaryError):
            section_ratio([(ONE, 1)], g("0"))

    def test_multiplicativity(self):
        points_a = [(g("2"), 1), (g("3"), 2)]
        points_b = [(g("5"), -1), (g("7"), 1)]
        p = g("11")
        assert section_ratio(points_a + points_b, p) == section_ratio(
            points_a, p
        ) * section_ratio(points_b, p)


def degree(divisor, w):
    """The degree of a cycle restriction on the edge towards w."""
    return sum(m for _, m in divisor[w])


class TestRestriction:
    def test_toric_class_restricts_to_markers(self, pairs):
        comp = pairs["p3"].components[0]
        for vec in comp.basis_vectors():
            divisor = restrict_to_cycle(comp, vec)
            for w in comp.neighbors:
                for q, _ in divisor[w]:
                    assert q == MINUS_ONE
                assert degree(divisor, w) == comp.degree_on_edge(vec, w)

    def test_exceptional_class_restricts_to_its_point(self, pairs):
        pair = pairs["p3-point"]
        comp = pair.components[0]
        assert len(comp.excs) == 1
        vec = comp.exceptional_vector(0)
        divisor = restrict_to_cycle(comp, vec)
        exc = comp.excs[0]
        assert divisor[exc.neighbor] == ((exc.coordinate, 1),)
        for w in comp.neighbors:
            if w != exc.neighbor:
                assert divisor[w] == ()

    def test_degrees_sum_like_anticanonical(self, pairs):
        comp = pairs["p3-conic"].components[0]
        anti = comp.anticanonical()
        divisor = restrict_to_cycle(comp, anti)
        for w in comp.neighbors:
            assert degree(divisor, w) == comp.degree_on_edge(anti, w)


class TestComponentPeriod:
    def test_toric_classes_trivial(self, pairs):
        pair = pairs["p3"]
        marking = Marking.markers(pair.edge_keys())
        for comp in pair.boundary_components():
            for vec in comp.basis_vectors():
                assert component_marked_period(comp, marking, vec) == ONE

    def test_multiplicative_in_the_class(self, pairs):
        pair = pairs["p3-conic"]
        marking = Marking.markers(pair.edge_keys())
        comp = pair.components[0]
        a = next(iter(comp.basis_vectors()))
        b = comp.exceptional_vector(0)
        ab = tuple(x + y for x, y in zip(a, b))
        assert component_marked_period(comp, marking, ab) == component_marked_period(
            comp, marking, a
        ) * component_marked_period(comp, marking, b)

    def test_chart_side_inversion(self, pairs):
        # The two sides of an edge read inverse coordinates.
        pair = pairs["p3-conic"]
        v, w = pair.complex.edges[0]
        head, tail = pair.components[w], pair.components[v]
        q = g("3/2")
        assert head.side_coordinate(v, q) == q
        assert tail.side_coordinate(w, q) == q.inverse()
        # The marker -1 reads the same on both sides.
        assert tail.side_coordinate(w, MINUS_ONE) == MINUS_ONE

    def test_marking_must_cover_edge(self, pairs):
        pair = pairs["p3"]
        marking = Marking.build({frozenset((0, 1)): g("2")})
        comp = pair.components[0]
        with pytest.raises(BoundaryError, match="no point on edge"):
            component_marked_period(comp, marking, next(iter(comp.basis_vectors())))


class TestMarkingHash:
    def test_a_second_hash_walks_no_point(self, pairs, monkeypatch):
        walked = []
        original = GaussianRational.__hash__

        def counted(value):
            walked.append(value)
            return original(value)

        monkeypatch.setattr(GaussianRational, "__hash__", counted)
        pair = pairs["p3-mixed"]
        marking = Marking.markers(pair.edge_keys())
        first = hash(marking)
        assert len(walked) == len(marking.points)
        walked.clear()
        assert hash(marking) == first
        pair.character_table(marking)
        pair.character_table(marking)
        assert walked == []

    def test_equal_markings_hash_alike(self, pairs):
        pair = pairs["p3-conic"]
        a = Marking.markers(pair.edge_keys())
        b = Marking.markers(reversed(pair.edge_keys()))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


class TestAdjunction:
    def test_conic_class_accepted(self, pairs):
        # Degree-2 rational curve class on a projective plane component.
        comp = pairs["p3"].components[3]
        assert adjunction_check(comp, (2,)) is None

    def test_line_class_accepted(self, pairs):
        comp = pairs["p3"].components[0]
        assert adjunction_check(comp, (1,)) is None

    def test_cubic_rejected(self, pairs):
        comp = pairs["p3"].components[0]
        diagnostic = adjunction_check(comp, (3,))
        assert diagnostic is not None and "adjunction failed" in diagnostic

    def test_zero_class_rejected(self, pairs):
        comp = pairs["p3"].components[0]
        assert adjunction_check(comp, (0,)) is not None

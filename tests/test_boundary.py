"""Tests for boundary components, cycle restriction, and section ratios."""

import random

import pytest

from logcy3.boundary import (
    BoundaryError,
    ExceptionalClass,
    Marking,
    component_character_table,
    component_marked_period,
    restrict_to_cycle,
    section_ratio,
)
from logcy3.gaussian import GaussianRational, I, MINUS_ONE, ONE
from logcy3.fixtures import pair_fixtures
from logcy3.pair import CurveBlowup, validate_pair
from test_pair import solved_curve_step


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
                assert degree(divisor, w) == comp.edge_degrees(vec)[w]

    def test_exceptional_class_restricts_to_its_point(self, pairs):
        pair = pairs["p3-point"]
        comp = pair.components[0]
        assert len(comp.excs) == 1
        vec = list(comp.basis_vectors())[comp.base.rank]  # the exceptional class
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
            assert degree(divisor, w) == comp.edge_degrees(anti)[w]


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
        b = list(comp.basis_vectors())[comp.base.rank]  # the first exceptional class
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


class TestComponentInputs:
    def test_a_zero_point_cannot_mark(self):
        with pytest.raises(BoundaryError, match="^marking point on a 0-stratum$"):
            Marking.build({frozenset((0, 1)): GaussianRational(0)})

    def test_an_exceptional_class_needs_an_adjacent_vertex(self, pairs):
        # Vertices 0 and 1 of (P^1)^3 are opposite: they share no wall.
        # A batch is checked class by class, so the second class is refused.
        comp = pairs["p111"].components[0]
        adjacent = ExceptionalClass(comp.neighbors[0], g("3"), 0)
        with pytest.raises(BoundaryError, match="^vertex 1 is not adjacent to component 0$"):
            comp.with_exceptionals((adjacent, ExceptionalClass(1, g("2"), 0)))

    @pytest.mark.parametrize("method", ["split", "edge_degrees"])
    def test_a_class_of_another_length_is_rejected(self, pairs, method):
        comp = pairs["p3"].components[0]
        with pytest.raises(BoundaryError, match="^class length does not match component rank$"):
            getattr(comp, method)((0,) * (comp.rank + 1))


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
    """A build's curve gate: C^2 + K.C = -2 on a class of the component."""

    def outcome(self, pair, step):
        return validate_pair(pair.fan, [step], pair._orientations())

    def test_conic_class_accepted(self, pairs):
        # Degree-2 rational curve class on a projective plane component.
        pair = pairs["p3"]
        assert self.outcome(pair, solved_curve_step(pair, 3, (2,), 101)) is None

    def test_line_class_accepted(self, pairs):
        pair = pairs["p3"]
        assert self.outcome(pair, solved_curve_step(pair, 0, (1,), 101)) is None

    def test_cubic_rejected(self, pairs):
        diagnostic = self.outcome(pairs["p3"], CurveBlowup(0, (3,), ()))
        assert diagnostic is not None and "adjunction failed" in diagnostic

    def test_zero_class_rejected(self, pairs):
        assert self.outcome(pairs["p3"], CurveBlowup(0, (0,), ())) is not None

class TestCharacterTableAgainstSectionRatios:
    def test_random_markings_on_the_bundled_pairs(self, pairs):
        # Each table entry against the section-ratio period of its unit
        # vector, at markings off the markers; exceptional classes sit on
        # both the head and the tail side of their edges.
        rng = random.Random(21)
        sides = set()
        for pair in pairs.values():
            for _ in range(3):
                marking = Marking.build(
                    {
                        key: GaussianRational(rng.randint(1, 9), rng.randint(-4, 4))
                        for key in pair.edge_keys()
                    }
                )
                for comp in pair.boundary_components():
                    expected = tuple(
                        component_marked_period(comp, marking, unit)
                        for unit in comp.basis_vectors()
                    )
                    assert component_character_table(comp, marking) == expected
                    sides.update(comp.is_head(exc.neighbor) for exc in comp.excs)
        assert sides == {True, False}

    def test_a_zero_marking_point_is_rejected(self, pairs):
        pair = pairs["p3-point"]
        points = tuple((frozenset(key), GaussianRational(2)) for key in pair.edge_keys())
        zero = Marking(((points[0][0], GaussianRational(0)),) + points[1:])
        comp = next(c for c in pair.boundary_components() if c.vertex in points[0][0])
        with pytest.raises(BoundaryError, match="marking point on a 0-stratum"):
            component_character_table(comp, zero)

"""Tests for the edge-matching map, period characters, and marking torsors."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3.boundary import BoundaryError, Marking, component_marked_period
from logcy3 import exactnum
from logcy3.exactnum import (
    GaussianRational,
    IntMatrix,
    ONE,
    invert_unimodular,
    power_product,
    snf,
)
from logcy3.fixtures import pair_fixtures, scaling_pair
from logcy3.oracle import cocycle_period
from logcy3.pair import LogCY3Pair
from logcy3.periods import (
    PeriodConsistencyError,
    _alternative_marking,
    edge_cokernel_report,
    edge_matching_map,
    edge_matching_snf,
    edge_scaling_character,
    evaluate_boundary_character,
    marked_period,
    matching_lattice,
    matching_values,
    quotient_character,
    scale_marking,
    unmarked_period,
    wedge_map,
)
from logcy3.torelli import classify_contraction


@pytest.fixture(scope="module")
def pairs():
    return pair_fixtures()


def g(text):
    return GaussianRational.parse(text)


def basis_labels(pair):
    """The boundary basis in flat order, as (vertex, local index) pairs."""
    return [(v, i) for v, comp in sorted(pair.components.items()) for i in range(comp.rank)]


nonzero_scalars = st.builds(
    GaussianRational, st.integers(-6, 6), st.integers(-6, 6)
).filter(lambda x: not x.is_zero())


class TestEdgeMatchingMap:
    def test_shape(self, pairs):
        for pair in pairs.values():
            ell = edge_matching_map(pair)
            _, total = pair.component_offsets()
            assert (ell.rows, ell.cols) == (len(pair.complex.edges), total)

    def test_tetrahedron_kernel(self, pairs):
        assert matching_lattice(pairs["p3"]) == [(1, 1, 1, 1)]

    def test_kernel_ranks(self, pairs):
        assert len(matching_lattice(pairs["p111"])) == 3
        assert len(matching_lattice(pairs["p3-point"])) == 2
        assert len(matching_lattice(pairs["p3-conic"])) == 5

    def test_orientation_flip_negates_rows(self, pairs):
        from logcy3.pair import LogCY3Pair

        pair = pairs["p3-conic"]
        flipped = [(w, v) for v, w in pair.complex.edges]
        other = LogCY3Pair.build(pair.fan, pair.program, flipped)
        a = edge_matching_map(pair)
        b = edge_matching_map(other)
        assert b.data == tuple(tuple(-x for x in row) for row in a.data)

    def test_lattice_maps_are_built_once_per_pair(self, monkeypatch):
        from logcy3 import periods
        from logcy3.pair import LogCY3Pair
        from logcy3.torelli import decide_isomorphism, marking_transporter

        calls = []

        def counted(name, fn):
            def wrapper(arg, *args):
                calls.append((name, arg))
                return fn(arg, *args)
            return wrapper

        def times(name, arg):
            return sum(1 for n, a in calls if n == name and a is arg)

        monkeypatch.setattr(
            periods, "_build_edge_matching_map",
            counted("map", periods._build_edge_matching_map),
        )
        monkeypatch.setattr(periods, "snf", counted("snf", periods.snf))
        monkeypatch.setattr(
            LogCY3Pair, "restriction_matrix",
            counted("restriction", LogCY3Pair.restriction_matrix),
        )
        pair = scaling_pair(1, 4)
        other = LogCY3Pair.build(pair.fan, pair.program)
        for _ in range(2):  # a report, both verdict paths and a transport
            matching_lattice(pair)
            pair.k_image()
            edge_cokernel_report(pair)
            quotient_character(pair)
            unmarked_period(pair)
            assert decide_isomorphism(pair, other).is_isomorphic
            assert marking_transporter(pair, other)[0] == "solved"
        assert times("map", pair) == 1
        # A verdict composes the other pair's edge-matching map with the
        # boundary map: it is built once, and never densified or factored.
        assert times("map", other) == 1
        assert "data" not in vars(edge_matching_map(other))
        assert times("snf", edge_matching_map(other)) == 0
        assert times("snf", edge_matching_map(pair)) == 1
        assert times("restriction", pair) == 1
        assert edge_matching_map(pair) is edge_matching_map(pair)
        assert matching_lattice(pair) == matching_lattice(pair)
        assert matching_lattice(pair) is not matching_lattice(pair)

    def test_restricted_classes_are_matching(self, pairs):
        # Restriction of any threefold class agrees in degree across edges.
        for pair in pairs.values():
            ell = edge_matching_map(pair)
            restriction = pair.restriction_matrix()
            for a in range(pair.pic_rank):
                unit = tuple(1 if i == a else 0 for i in range(pair.pic_rank))
                assert all(x == 0 for x in ell.apply(restriction.apply(unit)))


class TestCokernel:
    def test_toric_fixtures(self, pairs):
        for name in (
            "p3",
            "p111",
            "p3-blowup-point",
            "p3-blowup-line",
            "p111-blowup-point",
        ):
            free, torsion, composed_zero = edge_cokernel_report(pairs[name])
            assert free == 3
            assert torsion == ()
            assert composed_zero

    def test_wedge_shape(self, pairs):
        for pair in pairs.values():
            gamma = wedge_map(pair)
            assert (gamma.rows, gamma.cols) == (3, len(pair.complex.edges))


class TestPeriodCharacters:
    def test_toric_triviality(self, pairs):
        for name in ("p3", "p111", "p3-blowup-point", "p3-blowup-line"):
            assert marked_period(pairs[name]).is_trivial()

    def test_conic_generator_value(self, pairs):
        pair = pairs["p3-conic"]
        labels = basis_labels(pair)
        # Difference of the two exceptionals on component 0: a matching class.
        flat = [0] * len(labels)
        flat[labels.index((0, 1))] = 1
        flat[labels.index((0, 2))] = -1
        ell = edge_matching_map(pair)
        assert all(x == 0 for x in ell.apply(flat))
        marking = Marking.markers(pair.edge_keys())
        value = evaluate_boundary_character(pair, marking, flat)
        # Ratio of the two blowup coordinates 2, 3 on that stratum.
        assert value in (g("2/3"), g("3/2"))

    def test_unmarked_period_on_restricted_classes(self, pairs):
        # Criterion: the period is trivial on every restricted global class.
        marking = Marking.markers
        for pair in pairs.values():
            m = marking(pair.edge_keys())
            basis, _ = pair.k_image()
            for vec in basis:
                assert evaluate_boundary_character(pair, m, vec) == ONE

    def test_unmarked_independent_of_marking(self, pairs):
        pair = pairs["p3-mixed"]
        generators = matching_lattice(pair)
        reference = unmarked_period(pair)
        marking = Marking.build(
            {key: g(str(n + 5)) for n, key in enumerate(sorted(
                pair.edge_keys(), key=lambda k: tuple(sorted(k))
            ))}
        )
        for gen, expected in zip(generators, reference.values):
            assert evaluate_boundary_character(pair, marking, gen) == expected

    def test_multiplicativity(self, pairs):
        pair = pairs["p3-conic"]
        marking = Marking.markers(pair.edge_keys())
        char = marked_period(pair)
        _, total = pair.component_offsets()
        a = tuple(1 if i in (1, 4) else 0 for i in range(total))
        b = tuple(1 if i in (2, 4) else 0 for i in range(total))
        ab = tuple(x + y for x, y in zip(a, b))
        assert evaluate_boundary_character(pair, marking, ab) == (
            evaluate_boundary_character(pair, marking, a)
            * evaluate_boundary_character(pair, marking, b)
        )


class TestCharacterTable:
    def test_matches_cocycle_path_on_matching_generators(self, pairs):
        for pair in [*pairs.values(), scaling_pair(2, 8)]:
            keys = sorted(pair.edge_keys(), key=lambda k: tuple(sorted(k)))
            markings = (
                Marking.markers(keys),
                Marking.build({key: g(f"{n + 2}+1*i") for n, key in enumerate(keys)}),
            )
            for marking in markings:
                table = pair.character_table(marking)
                for gen in matching_lattice(pair):
                    assert power_product(table, gen) == cocycle_period(
                        pair, gen, marking
                    )

    def test_table_is_held_per_marking(self, pairs):
        pair = pairs["p3-mixed"]
        markers = Marking.markers(pair.edge_keys())
        assert pair.character_table(markers) is pair.character_table(markers)
        assert marked_period(pair).values == pair.character_table(markers)


def dense_degree(pair, u, i, w):
    """Degree of basis class i of component u on the edge toward w."""
    comp = pair.components[u]
    unit = tuple(1 if j == i else 0 for j in range(comp.rank))
    return comp.degree_on_edge(unit, w)


class TestSparseDegreeTable:
    """The degree table against dense unit vectors through ``degree_on_edge``."""

    @pytest.fixture(scope="class")
    def cases(self, pairs):
        return [*pairs.values(), scaling_pair(2, 8)]

    def test_character_table_matches_component_periods(self, cases):
        rng = random.Random(4)
        for pair in cases:
            keys = sorted(pair.edge_keys(), key=lambda k: tuple(sorted(k)))
            seeded = Marking.build(
                {k: GaussianRational(rng.randint(1, 9), rng.randint(-4, 4)) for k in keys}
            )
            for marking in (Marking.markers(keys), _alternative_marking(pair), seeded):
                expected = tuple(
                    component_marked_period(comp, marking, unit)
                    for comp in pair.boundary_components()
                    for unit in comp.basis_vectors()
                )
                assert pair.character_table(marking) == expected

    def test_marking_must_cover_every_edge(self, pairs):
        marking = Marking.build({frozenset((0, 1)): g("2")})
        with pytest.raises(BoundaryError, match="no point on edge"):
            pairs["p3"].character_table(marking)

    def test_edge_matching_map_matches_dense_degrees(self, cases):
        for pair in cases:
            rows = []
            for v, w in pair.complex.edges:
                row = []
                for u, i in basis_labels(pair):
                    if u == v:
                        row.append(dense_degree(pair, u, i, w))
                    elif u == w:
                        row.append(-dense_degree(pair, u, i, v))
                    else:
                        row.append(0)
                rows.append(row)
            assert edge_matching_map(pair) == IntMatrix(rows)

    def test_scaling_character_matches_dense_degrees(self, cases):
        rng = random.Random(9)
        for pair in cases:
            lambdas = [
                GaussianRational(rng.randint(1, 6), rng.randint(-3, 3))
                for _ in pair.complex.edges
            ]
            expected = []
            for u, i in basis_labels(pair):
                value = ONE
                for (v, w), lam in zip(pair.complex.edges, lambdas):
                    if u == v:
                        value = value * lam ** dense_degree(pair, u, i, w)
                    elif u == w:
                        value = value * lam ** -dense_degree(pair, u, i, v)
                expected.append(value)
            assert edge_scaling_character(pair, lambdas).values == tuple(expected)


class TestMarkingTorsor:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(nonzero_scalars, min_size=6, max_size=6))
    def test_rescaling_moves_period_by_the_character(self, lambdas):
        pair = pair_fixtures()["p3-conic"]
        marking = Marking.markers(pair.edge_keys())
        scaled = scale_marking(pair, marking, lambdas)
        theta = edge_scaling_character(pair, lambdas)
        before = marked_period(pair, marking)
        after = marked_period(pair, scaled)
        for b, t, a in zip(before.values, theta.values, after.values):
            assert b * t == a

    def test_character_trivial_on_matching_classes(self, pairs):
        pair = pairs["p3-mixed"]
        lambdas = [g(str(n + 2)) for n in range(len(pair.complex.edges))]
        theta = edge_scaling_character(pair, lambdas)
        for gen in matching_lattice(pair):
            value = ONE
            for coeff, v in zip(gen, theta.values):
                value = value * (v ** coeff)
            assert value == ONE


class TestQuotient:
    def test_toric_quotients_are_trivial(self, pairs):
        char, torsion = quotient_character(pairs["p3"])
        assert char.values == () and torsion == ()

    def test_conic_quotient(self, pairs):
        char, torsion = quotient_character(pairs["p3-conic"])
        assert len(char.values) == 3
        assert torsion == ()
        assert not char.is_trivial()

    def test_quotient_rank_accounting(self, pairs):
        for name in ("p3", "p111", "p3-point", "p3-conic", "p3-mixed"):
            pair = pairs[name]
            char, torsion = quotient_character(pair)
            k_basis, _ = pair.k_image()
            assert len(char.values) == len(matching_lattice(pair)) - len(k_basis)


def reference_quotient_character(pair):
    """The quotient from a second factorization, as it was computed before.

    The flat x s matrix of matching generators is factored, each image
    vector is solved on it, and the lifts are columns of the inverse of the
    inclusion's ``U``.  Returns the lifts, their values and the torsion.
    """
    generators = matching_lattice(pair)
    if not generators:
        return (), (), ()
    markers = Marking.markers(pair.edge_keys())
    lattice = IntMatrix(list(zip(*generators)))
    factored = snf(lattice)
    columns = [factored.solve(gen) for gen in pair.k_image()[0]]
    assert None not in columns
    s = len(generators)
    dec = snf(
        IntMatrix.from_columns(
            s, [[(i, x) for i, x in enumerate(sol) if x] for sol in columns]
        )
    )
    u_inv = invert_unimodular(dec.U)
    basis = tuple(lattice.apply(u_inv.column(i)) for i in range(dec.rank, s))
    values = tuple(evaluate_boundary_character(pair, markers, flat) for flat in basis)
    return basis, values, tuple(d for d in dec.factors if d > 1)


class TestQuotientFromTheHeldFactorization:
    def test_matches_the_second_factorization(self, pairs):
        cases = [
            *pairs.values(),
            scaling_pair(1, 4),
            scaling_pair(2, 8),
            scaling_pair(3, 6),
        ]
        for pair in cases:
            char, torsion = quotient_character(pair)
            assert (char.basis, char.values, torsion) == reference_quotient_character(pair)

    def test_an_image_vector_off_the_matching_lattice_is_an_error(
        self, pairs, monkeypatch
    ):
        # Every class of a toric pair has period 1 at the markers, so only
        # the coordinates can reject these vectors: column i of V has the
        # unit vector e_i as its coordinates.
        pair = pairs["p111"]
        factored = edge_matching_snf(pair)
        for i in range(factored.rank):
            monkeypatch.setitem(pair._held, "k_image", ((factored.V.column(i),), True))
            with pytest.raises(PeriodConsistencyError, match="outside the matching"):
                quotient_character(pair)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of ``snf`` and ``invert_unimodular``, counted in every module."""
        counts = {"snf": 0, "invert_unimodular": 0}
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "logcy3" or name.startswith("logcy3.")
        ]
        for name in counts:
            original = getattr(exactnum, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_quotient_factors_only_the_inclusion(self, calls):
        pair = scaling_pair(2, 8)
        unmarked_period(pair)
        pair.k_image()
        calls.update(snf=0, invert_unimodular=0)
        quotient_character(pair)
        assert calls == {"snf": 1, "invert_unimodular": 0}

    def test_a_report_makes_three_factorizations(self, pairs, calls):
        for pair in [scaling_pair(2, 8), *pair_fixtures().values()]:
            calls.update(snf=0, invert_unimodular=0)
            marked_period(pair)
            unmarked_period(pair)
            quotient_character(pair)
            edge_cokernel_report(pair)
            pair.k_image()
            for k in range(len(pair.program)):
                classify_contraction(pair, k)
            # The edge-matching map, the restriction matrix and the inclusion.
            assert calls == {"snf": 3, "invert_unimodular": 0}


class TestHeldMatchingValues:
    @pytest.fixture(scope="class")
    def cases(self):
        return [
            *pair_fixtures().values(),
            scaling_pair(1, 4),
            scaling_pair(2, 8),
            scaling_pair(3, 6),
        ]

    def test_values_are_the_direct_evaluation(self, cases):
        for pair in cases:
            markers = Marking.markers(pair.edge_keys())
            generators = matching_lattice(pair)
            expected = tuple(
                evaluate_boundary_character(pair, markers, gen) for gen in generators
            )
            assert matching_values(pair) == expected
            assert matching_values(pair) is matching_values(pair)
            assert unmarked_period(pair).values == expected

    def test_quotient_values_are_the_direct_evaluation_of_their_lifts(self, cases):
        for pair in cases:
            markers = Marking.markers(pair.edge_keys())
            char, _ = quotient_character(pair)
            for flat, value in zip(char.basis, char.values, strict=True):
                assert value == evaluate_boundary_character(pair, markers, flat)

    def test_quotient_evaluates_no_dense_lift(self, power_products):
        pair = scaling_pair(2, 8)
        unmarked_period(pair)
        power_products.clear()
        char, _ = quotient_character(pair)
        # Only the restricted global classes are evaluated on the table.
        assert char.values
        assert power_products == [tuple(k) for k in pair.k_image()[0]]

    def test_each_stage_reads_its_table_once(self, monkeypatch):
        reads = []
        original = LogCY3Pair.character_table

        def counted(pair, marking):
            reads.append(marking)
            return original(pair, marking)

        monkeypatch.setattr(LogCY3Pair, "character_table", counted)
        pair = scaling_pair(2, 8)
        unmarked_period(pair)
        # The markers' table for the held values, and the second marking's.
        assert reads == [pair.markers(), _alternative_marking(pair)]
        reads.clear()
        quotient_character(pair)
        assert reads == [pair.markers()]

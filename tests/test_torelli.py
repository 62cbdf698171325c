"""Tests for contraction types, fan reconstruction, and the decision procedure."""

import random
import re
from fractions import Fraction
from functools import cache
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3 import boundary, exactnum, gaussian, pair as pair_module, periods, toric, torelli
from logcy3.boundary import Marking
from logcy3.exactnum import IntMatrix
from logcy3.gaussian import (
    ExactArithmeticError, GaussianRational, I, SparseCharacter, power_product,
)
from logcy3.fixtures import (
    pair_fixtures,
    perturbed_conic_pair,
    projective_space_fan,
    scaling_pair,
    toric_fixture_fans,
    triple_line_fan,
)
from logcy3.pair import LogCY3Pair, PairError, PicVector, PointBlowup, pull_back_tensor
from logcy3.periods import (
    edge_cokernel_report,
    evaluate_boundary_character,
    matching_lattice,
    quotient_character,
    unmarked_period,
)
from logcy3.toric import ToricIntersectionData, fan_isomorphism, star_subdivide
from logcy3.torelli import (
    Correspondence,
    CorrespondenceError,
    ReconstructionError,
    classify_contraction,
    complexity,
    decide_isomorphism,
    marking_transporter,
    recognize_contraction_type,
    reconstruct_fan,
)
from conftest import (
    assert_edge_rows_carried as assert_rows_carried,
    assert_pulled_support_is_the_full_walk,
    dense_boundary_map,
    dense_edge_shift,
    dense_image,
    dense_transports,
)
from random_draws import solved_curve_step
from stage_harness import conic_ladder, conic_ladder_fan, family
from test_pair import curve_program, reference_intersection


def identity_matrix(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zero_matrix(m, n):
    """The m x n zero matrix, which keeps its width when m is 0."""
    return IntMatrix.from_columns(m, ((),) * n)


def inverse(corr):
    """The correspondence back, with no lattice overrides."""
    step_inv = [0] * len(corr.step_map)
    for k, img in enumerate(corr.step_map):
        step_inv[img] = k
    return Correspondence(
        tuple((b, a) for a, b in corr.vertex_map), tuple(step_inv), None, ()
    )


@pytest.fixture(scope="module")
def pairs():
    return pair_fixtures()


def g(text):
    return GaussianRational.parse(text)


class TestContractionTypes:
    def test_recognize_table(self):
        assert recognize_contraction_type((-1, -2, 4)) == 2
        assert recognize_contraction_type((-2, -1, 1)) == 5
        assert recognize_contraction_type((-1, -1, 10)) == 1
        assert recognize_contraction_type((-1, -1, 2)) == 1
        assert recognize_contraction_type((0, 0, 0)) is None

    def test_point_blowup_classified(self, pairs):
        mori_type, triple = classify_contraction(pairs["p3-point"], 0)
        assert (mori_type, triple) == (2, (-1, -2, 4))

    def test_curve_blowup_classified(self, pairs):
        mori_type, triple = classify_contraction(pairs["p3-conic"], 0)
        assert mori_type == 1
        assert triple == (-1, -1, 10)

    def test_mixed_program_classified(self, pairs):
        pair = pairs["p3-mixed"]
        assert classify_contraction(pair, 0)[0] == 1
        assert classify_contraction(pair, 1)[0] == 2
        assert classify_contraction(pair, 2)[0] == 2

    def test_held_pair_matches_truncated_rebuild(self, pairs):
        # The triple read off the full pair equals the one computed on the
        # pair rebuilt from the program prefix, for every step.
        for pair in [*pairs.values(), scaling_pair(2, 8)]:
            for k in range(len(pair.program)):
                head = pair.truncated(k + 1)
                e = head.exceptional_index(k)
                e_unit = tuple(1 if i == e else 0 for i in range(head.pic_rank))
                triple = (
                    -1,
                    -head.canonical[e],
                    head.cubic_form(e_unit, head.canonical, head.canonical),
                )
                assert classify_contraction(pair, k) == (
                    recognize_contraction_type(triple),
                    triple,
                )
                # The step's kind fixes its type: 2 for a point, 1 for a curve.
                step = pair.program[k]
                assert classify_contraction(pair, k)[0] == (
                    2 if isinstance(step, PointBlowup) else 1
                )


class TestReconstruction:
    def test_round_trip_all_fixtures(self):
        for fan in toric_fixture_fans().values():
            data = ToricIntersectionData.of_fan(fan)
            rebuilt = reconstruct_fan(data)
            assert fan_isomorphism(fan, rebuilt) is not None

    def test_perturbed_data_rejected(self):
        fan = toric_fixture_fans()["p3"]
        data = ToricIntersectionData.of_fan(fan)
        wall, (taa, tbb) = next(iter(sorted(data.wall_curves.items())))
        curves = dict(data.wall_curves)
        curves[wall] = (taa + 1, tbb)
        bad = ToricIntersectionData(data.n_vertices, data.cones, curves)
        placed = (
            r"^wall relation at \[1, 2\] places vertex 3 at \(-1, -1, -1\), "
            r"already placed at \(-1, -2, -1\)$"
        )
        with pytest.raises(ReconstructionError, match=placed):
            reconstruct_fan(bad)

    def test_disconnected_data_rejected(self):
        fan = toric_fixture_fans()["p3"]
        data = ToricIntersectionData.of_fan(fan)
        with pytest.raises(ReconstructionError):
            reconstruct_fan(
                ToricIntersectionData(data.n_vertices + 1, data.cones, data.wall_curves)
            )

    def test_a_wall_in_one_cone_is_rejected(self):
        data = ToricIntersectionData.of_fan(projective_space_fan())
        cones = data.cones - {frozenset((1, 2, 3))}
        with pytest.raises(ReconstructionError, match=r"^wall \[\d, \d\] lies in 1 cones, expected 2$"):
            reconstruct_fan(ToricIntersectionData(4, cones, data.wall_curves))

    def test_a_sphere_wound_twice_is_rejected(self):
        # The suspension of an 8-cycle with every wall curve of square 0:
        # each wall relation holds, and the cycle wraps twice around the
        # axis of the two apexes, so its vertices 4 apart share a ray.
        cycle = [(2 + i, 2 + (i + 1) % 8) for i in range(8)]
        cones = frozenset(frozenset((apex, *edge)) for apex in (0, 1) for edge in cycle)
        walls = [(apex, 2 + i) for apex in (0, 1) for i in range(8)] + cycle
        data = ToricIntersectionData(10, cones, {tuple(sorted(w)): (0, 0) for w in walls})
        with pytest.raises(ReconstructionError, match="^reconstructed data is not a smooth fan: duplicate ray"):
            reconstruct_fan(data)

    def test_a_curve_on_no_wall_is_rejected(self):
        # x+ and x- of (P^1)^3 share no wall, so the rebuilt fan has no
        # entry for them.
        data = ToricIntersectionData.of_fan(triple_line_fan())
        curves = {**data.wall_curves, (0, 1): (0, 0)}
        with pytest.raises(ReconstructionError, match="^reconstructed fan does not reproduce"):
            reconstruct_fan(ToricIntersectionData(6, data.cones, curves))


class TestComplexity:
    def test_toric_boundary_decompositions(self, pairs):
        for name in ("p3", "p111"):
            pair = pairs[name]
            decomposition = [
                (1, tuple(pair.toric_basis.ray_class(v)))
                for v in range(pair.fan.n_rays)
            ]
            assert complexity(pair, decomposition) == 0

    def test_empty_decomposition(self, pairs):
        assert complexity(pairs["p3"], []) == Fraction(3)

    def test_fractional_weights(self, pairs):
        pair = pairs["p3"]
        decomposition = [(Fraction(1, 2), (1,)), (Fraction(3, 2), (1,))]
        assert complexity(pair, decomposition) == Fraction(2)

    def test_negative_weight_is_rejected(self, pairs):
        with pytest.raises(PairError, match="^decomposition weights must be nonnegative$"):
            complexity(pairs["p3"], [(1, (1,)), (Fraction(-1, 2), (1,))])

    def test_classes_are_read_as_threefold_classes(self, pairs):
        # As cubic_form reads them: a class of another length, or one in
        # the toric basis, is no threefold class of the pair.
        pair = pairs["p3-point"]
        for cls, message in [
            ((1, 0, 0, 0, 5), "class length does not match the Picard rank"),
            (PicVector((1, 0), "toric"), "expected a threefold class, got basis 'toric'"),
        ]:
            with pytest.raises(PairError, match=f"^{re.escape(message)}$"):
                complexity(pair, [(1, cls)])
            with pytest.raises(PairError, match=f"^{re.escape(message)}$"):
                pair.cubic_form(cls, cls, cls)
        assert complexity(pair, [(1, PicVector((1, 0), "Y"))]) == 3


class TestDecision:
    def test_self_comparison(self, pairs):
        for name in ("p3", "p111", "p3-point", "p3-conic", "p3-mixed"):
            verdict = decide_isomorphism(pairs[name], pairs[name])
            assert verdict.is_isomorphic

    def test_torus_translate_is_isomorphic(self, pairs):
        pair = pairs["p3-conic"]
        moved = pair.torus_translate((g("2"), g("3"), I))
        verdict = decide_isomorphism(pair, moved)
        assert verdict.is_isomorphic
        assert verdict.certificate["toric_model_map"] is not None

    def test_perturbed_periods_are_distinct(self, pairs):
        pair = pairs["p3-conic"]
        other = perturbed_conic_pair()
        verdict = decide_isomorphism(pair, other)
        assert verdict.kind == "distinct"
        cert = verdict.certificate
        assert cert["check"] == "period"
        # Re-verify the witness independently of the pipeline.
        value = evaluate_boundary_character(
            pair, Marking.markers(pair.edge_keys()), cert["witness"]
        )
        value2 = evaluate_boundary_character(
            other, Marking.markers(other.edge_keys()), cert["witness_image"]
        )
        assert (str(value), str(value2)) == cert["values"]
        assert value != value2

    def test_distinct_is_symmetric(self, pairs):
        pair = pairs["p3-conic"]
        other = perturbed_conic_pair()
        corr = Correspondence.identity(pair)
        verdict = decide_isomorphism(other, pair, inverse(corr))
        assert verdict.kind == "distinct"

    def test_different_programs_are_distinct(self, pairs):
        verdict = decide_isomorphism(pairs["p3-point"], pairs["p3-conic"])
        assert verdict.kind == "distinct"
        assert verdict.certificate["check"] == "cubic_form"
        # Swapping rays 0 and 2 of (P^1)^3 takes the cone (1, 2, 4) to
        # (1, 0, 4), which is none; swapping two points on one edge under
        # the identity mu leaves their exceptional classes unmatched.
        lines = LogCY3Pair.build(triple_line_fan())
        swap = {0: 2, 2: 0}
        vertices = tuple((v, swap.get(v, v)) for v in range(lines.fan.n_rays))
        points = LogCY3Pair.build(
            projective_space_fan(),
            [PointBlowup((0, 1), g("2")), PointBlowup((0, 1), g("3"))],
        )
        steps = Correspondence(
            tuple((v, v) for v in range(4)), (1, 0), identity_matrix(points.pic_rank)
        )
        for pair, corr, check in [
            (lines, Correspondence(vertices, ()), {"check": "dual_complex"}),
            (points, steps, {"check": "exceptional_match", "steps": (1, 0)}),
        ]:
            verdict = decide_isomorphism(pair, pair, corr)
            assert (verdict.kind, verdict.certificate) == ("distinct", check)

    def test_shape_mismatch_raises(self, pairs):
        with pytest.raises(CorrespondenceError):
            decide_isomorphism(pairs["p3"], pairs["p111"])

    def test_steps_at_other_places_are_distinct(self, pairs):
        """A matched step on another stratum is a ``step_place`` verdict.

        Each correspondence is a bijection, so each pair of documents gets a
        verdict; building the component transports before the steps were
        compared raised ``CorrespondenceError`` on all four.  The curve sits
        in component 0 of (P^1)^3 and meets the neighbours 4 and 5, which
        swapping the y and z axes takes to 2 and 3.
        """
        fan = projective_space_fan()
        first = LogCY3Pair.build(fan, [PointBlowup((0, 1), g("2")), PointBlowup((2, 3), g("3"))])
        second = LogCY3Pair.build(fan, [PointBlowup((0, 1), g("2")), PointBlowup((1, 2), g("3"))])
        mixed = pairs["p3-mixed"]
        curve = LogCY3Pair.build(triple_line_fan(), curve_program(triple_line_fan(), None, 0, 0))
        swap = {2: 4, 4: 2, 3: 5, 5: 3}
        cases = [
            (first, second, None, ("step_place", (1, 1))),
            (first, first, Correspondence(tuple((v, v) for v in range(4)), (1, 0)),
             ("step_place", (1, 0))),
            (mixed, mixed,
             Correspondence(Correspondence.identity(mixed).vertex_map, (1, 0, 2),
                            identity_matrix(mixed.pic_rank)),
             ("step_kind", (1, 0))),
            (curve, curve,
             Correspondence(tuple((v, swap.get(v, v)) for v in range(6)), (0,),
                            identity_matrix(curve.pic_rank)),
             ("step_place", (0, 0))),
        ]
        for pair, other, corr, (check, steps) in cases:
            verdict = decide_isomorphism(pair, other, corr)
            assert (verdict.kind, verdict.certificate) == (
                "distinct", {"check": check, "steps": steps}
            )

    def test_curve_steps_in_other_components_are_distinct(self):
        # The cubic forms agree and both steps are curves, but the vertex
        # map does not carry plane 3 to plane 2.
        pair, other = lines_in_two_planes()
        certificate = {"check": "curve_component", "steps": (0, 0)}
        verdict = decide_isomorphism(pair, other)
        assert (verdict.kind, verdict.certificate) == ("distinct", certificate)
        assert marking_transporter(pair, other) == ("curve_component", certificate)

    def test_base_models_that_differ_are_distinct(self):
        # P^3 star-subdivided at (0, 1, 2), vertices 3 and 4 swapped: the
        # cones match and the identity mu keeps the cubic form, but the
        # identity frame cannot carry ray 3 to ray 4 = -(ray 3).  Transport
        # runs decide's checks up to the periods, so it returns the same.
        pair = LogCY3Pair.build(star_subdivide(projective_space_fan(), (0, 1, 2)))
        vertices = ((0, 0), (1, 1), (2, 2), (3, 4), (4, 3))
        corr = Correspondence(vertices, (), identity_matrix(pair.pic_rank))
        verdict = decide_isomorphism(pair, pair, corr)
        assert (verdict.kind, verdict.certificate) == ("distinct", {"check": "toric_model"})
        assert marking_transporter(pair, pair, corr) == ("toric_model", {"check": "toric_model"})

    def test_derived_maps_that_move_the_new_ray_are_distinct(self):
        # P^3 star-subdivided at the wall (0, 1), with derived maps: each
        # vertex map below keeps the cones and the cubic form, but only
        # those that fix the new ray 4 = ray 0 + ray 1 are the map of a
        # lattice automorphism.  No explicit mu reaches the toric_model check.
        pair = LogCY3Pair.build(star_subdivide(projective_space_fan(), (0, 1)))
        certificate = {"check": "toric_model"}
        for images in [(0, 1, 4, 2, 3), (0, 1, 4, 3, 2), (1, 0, 4, 2, 3), (1, 0, 4, 3, 2)]:
            corr = Correspondence(tuple(enumerate(images)), ())
            verdict = decide_isomorphism(pair, pair, corr)
            assert (verdict.kind, verdict.certificate) == ("distinct", certificate)
            assert marking_transporter(pair, pair, corr) == ("toric_model", certificate)
        for images in [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)]:
            corr = Correspondence(tuple(enumerate(images)), ())
            assert decide_isomorphism(pair, pair, corr).certificate["check"] == "complete"
            assert marking_transporter(pair, pair, corr)[0] == "solved"

    def test_curve_classes_that_differ_are_distinct(self):
        # Two points on edge (3, 0), then the curve (1, -1, 0) in component
        # 3: a map of component 3 that swaps the two exceptional classes
        # keeps edges, but moves the curve's class.  Transport returns
        # decide's certificate.
        pre = LogCY3Pair.build(
            projective_space_fan(), [PointBlowup((3, 0), g("2")), PointBlowup((3, 0), g("5"))]
        )
        pair = LogCY3Pair.build(pre.fan, [*pre.program, solved_curve_step(pre, 3, (1, -1, 0), 11)])
        swap = IntMatrix.from_columns(3, [[(0, 1)], [(2, 1)], [(1, 1)]])
        corr = with_override(pair, 3, swap)
        certificate = {"check": "curve_class", "steps": (2, 2)}
        verdict = decide_isomorphism(pair, pair, corr)
        assert (verdict.kind, verdict.certificate) == ("distinct", certificate)
        assert marking_transporter(pair, pair, corr) == ("curve_class", certificate)


def lines_in_two_planes():
    """P^3 with a line in plane 3, and P^3 with a line in plane 2."""
    base = LogCY3Pair.build(projective_space_fan())
    return tuple(
        LogCY3Pair.build(base.fan, [solved_curve_step(base, v, (1,), 2)]) for v in (3, 2)
    )


def swapped_exceptionals():
    """P^3 with points on the edges (0, 1) and (0, 2), and the identity with
    an explicit map of component 0 that swaps its two exceptional classes:
    an isometry that keeps the anticanonical class but moves both edges."""
    pair = LogCY3Pair.build(
        projective_space_fan(), [PointBlowup((0, 1), g("2")), PointBlowup((0, 2), g("3"))]
    )
    swap = IntMatrix.from_columns(3, [[(0, 1)], [(2, 1)], [(1, 1)]])
    return pair, with_override(pair, 0, swap)


class TestExplicitComponentMaps:
    def test_map_that_moves_an_edge_is_distinct(self):
        # Decide and transport name the first class that moves, with its
        # degrees by image neighbour beside its image's.
        pair, corr = swapped_exceptionals()
        certificate = {
            "check": "component_edges",
            "component": 0,
            "class": 1,
            "degrees": ({1: 1, 2: 0, 3: 0}, {1: 0, 2: 1, 3: 0}),
        }
        verdict = decide_isomorphism(pair, pair, corr)
        assert (verdict.kind, verdict.certificate) == ("distinct", certificate)
        assert marking_transporter(pair, pair, corr) == ("component_edges", certificate)

    def test_map_for_a_missing_vertex_raises(self):
        pair, corr = swapped_exceptionals()
        (_, swap), = corr.mu_components
        missing = Correspondence(corr.vertex_map, corr.step_map, None, ((9, swap),))
        for function in (decide_isomorphism, marking_transporter):
            with pytest.raises(
                CorrespondenceError,
                match=r"^mu_components: vertex 9 is not a component of the first pair$",
            ):
                function(pair, pair, missing)


class TestCorrespondenceLookup:
    def test_first_listed_image_wins(self):
        # As a scan of the list answered; the lookups are held once read.
        corr = Correspondence(((0, 2), (1, 1), (0, 3)), ())
        assert (corr.vertex(0), corr.vertex(1)) == (2, 1)
        assert "_images" in vars(corr) and corr == Correspondence(corr.vertex_map, ())

    def test_missing_vertex(self):
        corr = Correspondence(((0, 0),), ())
        with pytest.raises(CorrespondenceError, match=r"^vertex 5 not in correspondence$"):
            corr.vertex(5)

    def test_the_identity_is_held_on_the_pair(self, pairs):
        for pair in pairs.values():
            identity = Correspondence.identity(pair)
            assert Correspondence.identity(pair) is identity
            assert identity == Correspondence(
                tuple((v, v) for v in sorted(pair.components)), tuple(range(len(pair.program)))
            )

    def test_component_override(self):
        first, second = identity_matrix(2), zero_matrix(2, 2)
        corr = Correspondence(((0, 0), (1, 1)), (), None, ((1, first), (1, second)))
        assert corr.component_override(0) is None
        assert corr.component_override(1) is first


def structural_failures(pairs):
    """Six bijections of valid documents that fail a check before the
    periods, with their certificates: the four matched steps at other places
    of ``test_steps_at_other_places_are_distinct``, (P^1)^3 under the swap
    of rays 0 and 2, whose dual complexes do not match, and points on (0, 1)
    and (0, 2) under the identity mu with the two exceptional columns
    swapped, which keeps the cubic form but not the exceptional classes."""
    fan = projective_space_fan()
    first = LogCY3Pair.build(fan, [PointBlowup((0, 1), g("2")), PointBlowup((2, 3), g("3"))])
    second = LogCY3Pair.build(fan, [PointBlowup((0, 1), g("2")), PointBlowup((1, 2), g("3"))])
    mixed = pairs["p3-mixed"]
    curve = LogCY3Pair.build(triple_line_fan(), curve_program(triple_line_fan(), None, 0, 0))
    lines = LogCY3Pair.build(triple_line_fan())
    swap_yz = {2: 4, 4: 2, 3: 5, 5: 3}
    swap_02 = {0: 2, 2: 0}
    points, _ = swapped_exceptionals()
    swap_e = IntMatrix.from_columns(points.pic_rank, [[(0, 1)], [(2, 1)], [(1, 1)]])
    return [
        (first, second, None, {"check": "step_place", "steps": (1, 1)}),
        (first, first, Correspondence(tuple((v, v) for v in range(4)), (1, 0)),
         {"check": "step_place", "steps": (1, 0)}),
        (mixed, mixed,
         Correspondence(Correspondence.identity(mixed).vertex_map, (1, 0, 2),
                        identity_matrix(mixed.pic_rank)),
         {"check": "step_kind", "steps": (1, 0)}),
        (curve, curve,
         Correspondence(tuple((v, swap_yz.get(v, v)) for v in range(6)), (0,),
                        identity_matrix(curve.pic_rank)),
         {"check": "step_place", "steps": (0, 0)}),
        (lines, lines, Correspondence(tuple((v, swap_02.get(v, v)) for v in range(6)), ()),
         {"check": "dual_complex"}),
        (points, points, Correspondence(tuple((v, v) for v in range(4)), (0, 1), swap_e),
         {"check": "exceptional_match", "steps": (1, 1)}),
    ]


class TestMarkingTransporter:
    def test_structural_failure_is_decides_certificate(self, pairs):
        # The transporter runs decide's checks up to the periods and returns
        # the failing check with decide's certificate.
        for pair, other, corr, certificate in structural_failures(pairs):
            verdict = decide_isomorphism(pair, other, corr)
            assert (verdict.kind, verdict.certificate) == ("distinct", certificate)
            assert marking_transporter(pair, other, corr) == (
                certificate["check"], certificate
            )

    def test_identity_is_solved(self, pairs):
        status, scalars = marking_transporter(pairs["p3-conic"], pairs["p3-conic"])
        assert status == "solved"
        assert len(scalars) == len(pairs["p3-conic"].complex.edges)

    def test_translated_pair_is_solved(self, pairs):
        pair = pairs["p3-conic"]
        moved = pair.torus_translate((g("2"), g("3"), g("5")))
        status, scalars = marking_transporter(pair, moved)
        assert status == "solved"

    def test_perturbed_pair_is_unsolvable(self, pairs):
        status, relation = marking_transporter(
            pairs["p3-conic"], perturbed_conic_pair()
        )
        assert status == "unsolvable"
        assert relation is not None


def dense_cubic_check(pair, other, mu):
    """Step (ii) as a loop over every triple of unit vectors (the reference)."""
    r = pair.pic_rank
    units = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    images = [mu.apply(u) for u in units]
    for i in range(r):
        for j in range(i, r):
            for k in range(j, r):
                left = pair.cubic_form(units[i], units[j], units[k])
                right = other.cubic_form(images[i], images[j], images[k])
                if left != right:
                    return (i, j, k), (left, right)
    return None


def random_unimodular(n, rng, ops):
    if n == 1:
        return IntMatrix([[rng.choice((-1, 1))]])
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        rows.reverse()
    return IntMatrix(rows)


class TestSparseCubicCheck:
    @pytest.fixture(scope="class")
    def cases(self, pairs):
        return [*pairs.values(), scaling_pair(2, 8)]

    @staticmethod
    def with_mu(pair, mu):
        identity = Correspondence.identity(pair)
        return Correspondence(identity.vertex_map, identity.step_map, mu)

    def assert_same_outcome(self, pair, other, corr):
        mu = torelli.threefold_transport(pair, other, corr)
        expected = dense_cubic_check(pair, other, mu)
        verdict = decide_isomorphism(pair, other, corr)
        if expected is None:
            assert verdict.certificate["check"] != "cubic_form"
        else:
            assert verdict.kind == "distinct"
            assert verdict.certificate["check"] == "cubic_form"
            assert (
                verdict.certificate["triple"], verdict.certificate["values"]
            ) == expected
        return expected

    def test_pullback_matches_dense_cubic_form(self, cases):
        rng = random.Random(11)
        for pair in cases:
            r = pair.pic_rank
            units = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
            for mu in (identity_matrix(r), random_unimodular(r, rng, 2 * r)):
                images = [mu.apply(u) for u in units]
                dense = {
                    (i, j, k): pair.cubic_form(images[i], images[j], images[k])
                    for i in range(r)
                    for j in range(i, r)
                    for k in range(j, r)
                }
                assert pull_back_tensor(pair.cubic_entries(), mu) == {
                    t: v for t, v in dense.items() if v
                }

    def test_identity_mu_agrees_with_the_triple_loop(self, cases):
        for pair in cases:
            other = LogCY3Pair.build(pair.fan, pair.program)
            corr = self.with_mu(pair, identity_matrix(pair.pic_rank))
            assert self.assert_same_outcome(pair, other, corr) is None
            assert decide_isomorphism(pair, other, corr).is_isomorphic

    def test_random_unimodular_mu_agrees_with_the_triple_loop(self, cases):
        rng = random.Random(20261018)
        mismatches = 0
        for pair in cases:
            for ops in (1, 3, 2 * pair.pic_rank):
                mu = random_unimodular(pair.pic_rank, rng, ops)
                if self.assert_same_outcome(pair, pair, self.with_mu(pair, mu)):
                    mismatches += 1
        assert mismatches >= len(cases)

    def test_distinct_programs_agree_with_the_triple_loop(self, pairs):
        for a, b in (("p3-point", "p3-conic"), ("p3-conic", "p3-point")):
            corr = Correspondence.identity(pairs[a])
            assert self.assert_same_outcome(pairs[a], pairs[b], corr) is not None

    @pytest.mark.parametrize(
        "shape, error", [("cols", ExactArithmeticError), ("rows", PairError)]
    )
    def test_wrong_shape_errors_are_unchanged(self, cases, shape, error):
        # The triple loop fails on the map as it applies it; decide and
        # transport reject its shape first, with the one rule for mu's shape.
        for pair in cases:
            r = pair.pic_rank
            mu = zero_matrix(r + 1, r) if shape == "rows" else zero_matrix(r, r + 1)
            with pytest.raises(error):
                dense_cubic_check(pair, pair, mu)
            message = "mu: expected a {} x {} matrix, got {} x {}".format(r, r, *mu.shape)
            for function in (decide_isomorphism, marking_transporter):
                with pytest.raises(CorrespondenceError) as raised:
                    function(pair, pair, self.with_mu(pair, mu))
                assert str(raised.value) == message


def count_snf_calls(monkeypatch):
    """The arguments of every ``snf`` call from now on, patched in every module."""
    calls = []
    original = exactnum.snf

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (exactnum, toric, boundary, pair_module, periods, torelli):
        if hasattr(module, "snf"):
            monkeypatch.setattr(module, "snf", counted)
    return calls


class TestTransportReusesTheHeldFactorization:
    def test_no_snf_after_a_report(self, monkeypatch):
        pair = scaling_pair(1, 4)
        moved = pair.torus_translate((g("2"), g("3"), I))
        matching_lattice(pair)
        pair.k_image()
        edge_cokernel_report(pair)
        quotient_character(pair)
        unmarked_period(pair)
        calls = count_snf_calls(monkeypatch)
        status, scalars = marking_transporter(pair, moved)
        assert status == "solved"
        assert calls == []

    def test_no_snf_once_the_factorization_is_held(self, monkeypatch):
        cases = []
        for pair in (scaling_pair(1, 4), perturbed_conic_pair()):
            periods.edge_matching_snf(pair)
            cases.append((pair, pair.torus_translate((g("2"), g("3"), I))))
        calls = count_snf_calls(monkeypatch)
        for pair, moved in cases:
            assert marking_transporter(pair, moved)[0] == "solved"
            assert marking_transporter(pair, pair)[0] == "solved"
        assert calls == []

    def test_unsolvable_relation_is_violated(self, pairs):
        pair = pairs["p3-conic"]
        other = perturbed_conic_pair()
        status, relation = marking_transporter(pair, other)
        assert status == "unsolvable"
        # The relation is a matching class whose periods differ.
        assert list(relation) in [list(gen) for gen in matching_lattice(pair)]
        markers = Marking.markers(pair.edge_keys())
        markers2 = Marking.markers(other.edge_keys())
        assert evaluate_boundary_character(
            pair, markers, relation
        ) != evaluate_boundary_character(other, markers2, relation)


def assert_edge_rows_carried(pair, other, corr):
    """The rows carried (``conftest.assert_edge_rows_carried``) through the
    boundary map of the dense transports.

    So the boundary map carries the matching lattice, the kernel, into the
    other pair's; decide relies on it once the correspondence is checked.
    """
    assert_rows_carried(pair, other, corr, dense_boundary_map(pair, other, corr))


def reference_isometry_failure(pair, other, corr):
    """The certificate of the first explicit component map that is no isometry.

    The map must be square of both components' rank, preserve the
    intersection form, summed ray by ray on dense images, and carry the
    anticanonical class to the image component's; ``None`` if every
    explicit map passes.
    """
    for v in sorted(pair.components):
        matrix = corr.component_override(v)
        if matrix is None:
            continue
        comp, comp2 = pair.components[v], other.components[corr.vertex(v)]
        r = comp.rank
        certificate = {"check": "component_isometry", "component": v}
        if matrix.shape != (r, r) or comp2.rank != r:
            return {**certificate, "shape": matrix.shape, "ranks": (r, comp2.rank)}
        units = list(comp.basis_vectors())
        images = [matrix.apply(unit) for unit in units]
        for i in range(r):
            for j in range(i, r):
                values = (
                    reference_intersection(comp, units[i], units[j]),
                    reference_intersection(comp2, images[i], images[j]),
                )
                if values[0] != values[1]:
                    return {**certificate, "classes": (i, j), "values": values}
        image = matrix.apply(comp.anticanonical())
        if image != comp2.anticanonical():
            return {**certificate, "anticanonical": (image, comp2.anticanonical())}
    return None


def dense_period_step(pair, other, corr):
    """Step (v) with one dense transport per matching class (the reference).

    Every image is checked against the edge-matching condition before any
    period is compared.
    """
    transports = dense_transports(pair, other, corr)
    markers = Marking.markers(pair.edge_keys())
    markers2 = Marking.markers(other.edge_keys())
    ell2 = periods.edge_matching_map(other)
    generators = matching_lattice(pair)
    images = [dense_image(pair, other, corr, transports, gen) for gen in generators]
    if any(any(ell2.apply(image)) for image in images):
        raise CorrespondenceError(
            "transported matching class violates the edge-matching condition"
        )
    transcript = []
    for gen, image in zip(generators, images):
        value = evaluate_boundary_character(pair, markers, gen)
        value2 = evaluate_boundary_character(other, markers2, image)
        if value != value2:
            return "distinct", {
                "check": "period",
                "witness": tuple(gen),
                "witness_image": image,
                "values": (str(value), str(value2)),
            }
        transcript.append((tuple(gen), str(value)))
    return "isomorphic", tuple(transcript)


def dense_targets(pair, other, corr, marking, marking_other):
    """Transport's targets with one dense unit vector per basis class."""
    transports = dense_transports(pair, other, corr)
    table = pair.character_table(marking)
    targets = []
    for i, value in enumerate(table):
        unit = tuple(1 if j == i else 0 for j in range(len(table)))
        image = dense_image(pair, other, corr, transports, unit)
        targets.append(evaluate_boundary_character(other, marking_other, image) / value)
    return targets


def shifted(pair, other, corr, markings, scalars):
    """The markers' scalars times the markings' per-edge shift, checked on
    the dense targets at the markings: their edge-scaling character is the
    targets on every boundary class."""
    shift = dense_edge_shift(pair, other, corr, *markings)
    scalars = [h * s for h, s in zip(scalars, shift)]
    targets = dense_targets(pair, other, corr, *markings)
    assert list(periods.edge_scaling_character(pair, scalars).values) == targets
    return scalars


def dense_transporter(pair, other, corr, marking, marking_other):
    """Marking transport after the isometry check: the dense targets at the
    markers solved, a solution times the markings' shift."""
    failure = reference_isometry_failure(pair, other, corr)
    if failure is not None:
        return "component_isometry", failure
    targets = dense_targets(pair, other, corr, pair.markers(), other.markers())
    factored = periods.edge_matching_snf(pair)
    status, result = factored.solve_over_gaussian_torus(SparseCharacter(dict(enumerate(targets))))
    if status != "solved":
        return status, result
    return status, shifted(pair, other, corr, (marking, marking_other), result)


def transposed_transporter(pair, other, marking, marking_other):
    """Transport as the transposed factorization solved it, on dense rows.

    The system was posed on the rows of the transposed edge-matching map,
    factored as ``V^T ell^T U^T``: the relations were the rows of ``V^T``
    past the rank, ``s_i`` the targets' product over row i of ``V^T``, and
    scalar e the roots' product over row e of ``U^T``.  The targets are the
    markers' on both sides, and a solution is multiplied by the shift.
    """
    dec = periods.edge_matching_snf(pair)
    corr = Correspondence.identity(pair)
    targets = dense_targets(pair, other, corr, pair.markers(), other.markers())
    relations = list(zip(*dec.V.data))  # rows of V^T
    scalar_rows = list(zip(*dec.U.data))  # rows of U^T
    for k in range(dec.rank, len(relations)):
        if not power_product(targets, relations[k]).is_one():
            return "unsolvable", relations[k]
    y = [GaussianRational(1)] * len(scalar_rows)
    for i, d in enumerate(dec.invariant_factors()):
        s = power_product(targets, relations[i])
        root = exactnum.nth_root(s, d)
        if root is None:
            return "complex_only", (d, s)
        y[i] = root
    scalars = [power_product(y, row) for row in scalar_rows]
    return "solved", shifted(pair, other, corr, (marking, marking_other), scalars)


def outcome(function, *args):
    """The value of a call, or the type and message of the error it raises."""
    try:
        return function(*args)
    except (ExactArithmeticError, PairError, CorrespondenceError) as exc:
        return type(exc), str(exc)


def perturbed_partner(name, pair):
    """The pair with its first point moved, or None if it has no point step."""
    if name == "p3-conic":
        return perturbed_conic_pair()
    program = list(pair.program)
    for k, step in enumerate(program):
        if isinstance(step, pair_module.PointBlowup):
            program[k] = pair_module.PointBlowup(step.edge, step.coordinate * g("3/2"))
            return LogCY3Pair.build(
                pair.fan, program, [tuple(e) for e in pair.complex.edges]
            )
    return None


def seeded_marking(pair, rng):
    return Marking.build(
        {
            key: GaussianRational(rng.randint(1, 9), rng.randint(-3, 3))
            for key in pair.edge_keys()
        }
    )


def exceptional_permutation(comp, rng):
    """The identity on the toric classes, a shuffle of the exceptional ones.

    Every exceptional class squares to -1, meets no other basis class and
    has the coefficient -1 in the anticanonical class, so the map is an
    isometry; moving a class to another edge breaks the edge matching.
    """
    order = list(range(comp.base.rank, comp.rank))
    rng.shuffle(order)
    columns = [[(i, 1)] for i in range(comp.base.rank)] + [[(i, 1)] for i in order]
    return IntMatrix.from_columns(comp.rank, columns)


def with_override(pair, v, matrix):
    identity = Correspondence.identity(pair)
    return Correspondence(identity.vertex_map, identity.step_map, None, ((v, matrix),))


def relabelled_perturbed():
    """A point program on P3 against its relabelling, with step 1 moved by
    3/2, under a correspondence whose vertex and step maps are not the
    identity: ``(pair, relabelled, corr)``."""
    fan = projective_space_fan()
    points = [((0, 1), "2"), ((1, 2), "3+i"), ((0, 3), "5"), ((2, 3), "7"), ((0, 1), "4")]
    program = [PointBlowup(edge, g(text)) for edge, text in points]
    images = {0: 2, 1: 0, 2: 3, 3: 1}
    moved = [
        PointBlowup(tuple(images[v] for v in step.edge), step.coordinate * g("3/2") ** (k == 1))
        for k, step in enumerate(program)
    ]
    pair = LogCY3Pair.build(fan, program)
    relabelled = LogCY3Pair.build(
        fan, moved[::-1], [(images[v], images[w]) for v, w in pair.complex.edges]
    )
    return pair, relabelled, Correspondence(tuple(images.items()), (4, 3, 2, 1, 0))


def drawn_overrides(data, pair) -> tuple:
    """Square integer maps, entries in -3..3, for a drawn set of components."""
    explicit = data.draw(st.sets(st.sampled_from(sorted(pair.components))))
    entries = st.integers(-3, 3)
    overrides = []
    for v in sorted(explicit):
        r = pair.components[v].rank
        row = st.lists(entries, min_size=r, max_size=r)
        overrides.append((v, IntMatrix(data.draw(st.lists(row, min_size=r, max_size=r)))))
    return tuple(overrides)


def assert_images_are_the_columns(pair, other, corr, rng):
    """The boundary image of each unit boundary vector is the column of
    :func:`dense_boundary_map`, and that of a seeded vector over every block
    is the map applied to it."""
    boundary = dense_boundary_map(pair, other, corr)
    assert boundary.rows == len(other.character_table(other.markers()))
    n = pair.component_offsets()[1]
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        assert torelli._boundary_image(pair, other, corr, unit) == boundary.column(j)
    flat = tuple(rng.randint(-3, 3) for _ in range(n))
    assert torelli._boundary_image(pair, other, corr, flat) == boundary.apply(flat)


class TestSparseBoundaryTransport:
    @pytest.fixture(scope="class")
    def cases(self, pairs):
        """(pair, partner) cases: self, translated and perturbed partners."""
        out = []
        for name, pair in [*pairs.items(), ("scaling", scaling_pair(2, 8))]:
            out.append((pair, pair))
            out.append((pair, pair.torus_translate((g("2"), g("3"), I))))
            perturbed = perturbed_partner(name, pair)
            if perturbed is not None:
                out.append((pair, perturbed))
        return out

    def assert_decide_matches(self, pair, other, corr):
        verdict = decide_isomorphism(pair, other, corr)
        failure = reference_isometry_failure(pair, other, corr)
        if failure is not None:
            assert (verdict.kind, verdict.certificate) == ("distinct", failure)
            return "component_isometry"
        # Decide names a map that moves an edge exactly where the dense step
        # finds an image off the other pair's matching lattice.
        expected = outcome(dense_period_step, pair, other, corr)
        check = verdict.certificate["check"]
        assert (check == "component_edges") == (expected[0] is CorrespondenceError)
        if check == "period":
            assert ("distinct", verdict.certificate) == expected
        elif check == "complete":
            assert expected == ("isomorphic", verdict.certificate["period_transcript"])
        return check

    def test_columns_match_the_dense_transports(self, cases):
        # The boundary image of each unit boundary vector is the column
        # where the dense component transports carry it: under derived maps
        # and under a relabelling whose vertex and step maps are not the
        # identity.
        cases = [(pair, other, Correspondence.identity(pair)) for pair, other in cases]
        cases.append(relabelled_perturbed())
        for pair, other, corr in cases:
            assert not isinstance(torelli._matched(pair, other, corr), torelli.Verdict)
            assert_images_are_the_columns(pair, other, corr, random.Random(31))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_columns_match_under_drawn_component_maps(self, data):
        # Explicit maps are applied as given, block by block.
        pair = BUNDLED["p3-mixed"]
        corr = Correspondence.identity(pair)
        corr = Correspondence(corr.vertex_map, corr.step_map, None, drawn_overrides(data, pair))
        assert_images_are_the_columns(pair, pair, corr, random.Random(37))

    def test_transport_breaks_the_relation_decide_names(self, cases):
        # At the markers both read the pulled-back table, so decide's witness
        # and transport's relation are the first kernel column it breaks.
        checks = set()
        for pair, other in cases:
            verdict = decide_isomorphism(pair, other)
            status, result = marking_transporter(pair, other)
            check = verdict.certificate["check"]
            checks.add(check)
            assert (check == "period") == (status == "unsolvable")
            if check == "period":
                assert result == verdict.certificate["witness"]
        assert checks == {"complete", "period"}

    def test_decide_matches_the_dense_period_step(self, cases):
        checks = [
            self.assert_decide_matches(pair, other, Correspondence.identity(pair))
            for pair, other in cases
        ]
        assert {"period", "complete"} <= set(checks)

    def test_boundary_map_carries_the_edge_matching_rows(self, pairs):
        # The property step (v) relies on, for derived maps: the bundled
        # pairs against themselves and their torus translates, and the
        # scaling family.
        cases = [
            *pairs.values(), scaling_pair(1, 4), scaling_pair(2, 8), scaling_pair(3, 6)
        ]
        for pair in cases:
            corr = Correspondence.identity(pair)
            for other in (pair, pair.torus_translate((g("2"), g("3"), I))):
                assert_edge_rows_carried(pair, other, corr)

    def test_component_overrides(self, pairs):
        # A random unimodular override of the right shape is rarely an
        # isometry, and decide and transport reject it before any period.
        # A shuffle of the exceptional classes is one: across edges it moves
        # an edge, which decide and transport name where the dense step finds
        # an image off the matching lattice, and within an edge or as the
        # identity it reaches the periods, with the edge-matching rows
        # carried.  Both paths must agree on each.
        rng = random.Random(7)
        checks = []
        passed = 0
        for pair in [*pairs.values(), scaling_pair(1, 4)]:
            markers = Marking.markers(pair.edge_keys())
            for v in sorted(pair.components):
                comp = pair.components[v]
                for matrix in (
                    random_unimodular(comp.rank, rng, 3),
                    exceptional_permutation(comp, rng),
                ):
                    corr = with_override(pair, v, matrix)
                    check = self.assert_decide_matches(pair, pair, corr)
                    checks.append(check)
                    transport = marking_transporter(pair, pair, corr, markers, markers)
                    if check == "component_edges":
                        certificate = decide_isomorphism(pair, pair, corr).certificate
                        assert transport == (check, certificate)
                        continue
                    assert transport == dense_transporter(pair, pair, corr, markers, markers)
                    if check != "component_isometry":
                        assert_edge_rows_carried(pair, pair, corr)
                        passed += 1
        assert {"component_isometry", "component_edges", "period", "complete"} <= set(checks)
        assert passed

    def test_transport_matches_the_dense_targets(self, cases):
        rng = random.Random(3)
        statuses = set()
        for pair, other in cases:
            corr = Correspondence.identity(pair)
            markings = [
                (Marking.markers(pair.edge_keys()), Marking.markers(other.edge_keys())),
                (periods._alternative_marking(pair), seeded_marking(other, rng)),
            ]
            for marking, marking_other in markings:
                result = marking_transporter(pair, other, corr, marking, marking_other)
                assert result == dense_transporter(
                    pair, other, corr, marking, marking_other
                )
                statuses.add(result[0])
        assert {"solved", "unsolvable"} <= statuses

    def test_negation_keeps_the_form_but_not_the_anticanonical_class(self, pairs):
        pair = pairs["p3-mixed"]
        comp = pair.components[0]
        corr = with_override(pair, 0, IntMatrix.from_columns(
            comp.rank, [[(i, -1)] for i in range(comp.rank)]
        ))
        anticanonical = comp.anticanonical()
        certificate = {
            "check": "component_isometry",
            "component": 0,
            "anticanonical": (tuple(-x for x in anticanonical), anticanonical),
        }
        assert reference_isometry_failure(pair, pair, corr) == certificate
        verdict = decide_isomorphism(pair, pair, corr)
        assert (verdict.kind, verdict.certificate) == ("distinct", certificate)
        assert marking_transporter(pair, pair, corr) == ("component_isometry", certificate)

    @pytest.mark.parametrize("shape", ["wide", "tall", "short"])
    def test_wrong_shape_overrides(self, pairs, shape):
        # A map of the wrong shape is no isometry: decide and transport name
        # its shape before anything is applied, a short one with no rows
        # keeping its width.
        for name, pair in [*pairs.items(), ("scaling", scaling_pair(1, 4))]:
            for v in sorted(pair.components):
                r = pair.components[v].rank
                rows, cols = {
                    "wide": (r, r + 1), "tall": (r + 1, r), "short": (r - 1, r)
                }[shape]
                corr = with_override(pair, v, zero_matrix(rows, cols))
                certificate = {
                    "check": "component_isometry",
                    "component": v,
                    "shape": (rows, cols),
                    "ranks": (r, r),
                }
                markers = (
                    Marking.markers(pair.edge_keys()),
                    Marking.markers(pair.edge_keys()),
                )
                sparse = outcome(marking_transporter, pair, pair, corr, *markers)
                assert sparse == outcome(dense_transporter, pair, pair, corr, *markers)
                assert sparse == ("component_isometry", certificate)
                verdict = decide_isomorphism(pair, pair, corr)
                assert (verdict.kind, verdict.certificate) == ("distinct", certificate)
                assert self.assert_decide_matches(pair, pair, corr) == "component_isometry"


BUNDLED = pair_fixtures()


@st.composite
def large_overrides(draw):
    """A bundled pair and one component map with entries up to 10**12.

    Either a dense draw or the identity with one entry moved by up to
    10**12, as the ROADMAP's two slow inputs were.
    """
    pair = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]
    v = draw(st.sampled_from(sorted(pair.components)))
    r = pair.components[v].rank
    entries = st.integers(-(10**12), 10**12)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    else:
        rows = [[int(i == j) for j in range(r)] for i in range(r)]
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        rows[i][j] += draw(entries)
    return pair, with_override(pair, v, IntMatrix(rows))


@settings(max_examples=60, deadline=None)
@given(large_overrides())
def test_large_overrides_answer_quickly(case):
    # The isometry check answers with integers before any exponent is
    # taken, so no entry size makes decide or transport slow.
    pair, corr = case
    failure = reference_isometry_failure(pair, pair, corr)
    start = perf_counter()
    verdict = outcome(decide_isomorphism, pair, pair, corr)
    transport = outcome(marking_transporter, pair, pair, corr)
    assert perf_counter() - start < 1.0
    if failure is not None:
        assert (verdict.kind, verdict.certificate) == ("distinct", failure)
        assert transport == ("component_isometry", failure)


class TestTransportOnTheColumns:
    def test_same_outcome_as_the_transposed_factorization(self):
        statuses = set()
        cases = [
            *pair_fixtures().items(),
            ("scaling", scaling_pair(1, 4)),
            ("scaling", scaling_pair(2, 8)),
            ("scaling", scaling_pair(3, 6)),
        ]
        for name, pair in cases:
            partners = [pair, pair.torus_translate((g("2"), g("3"), I))]
            perturbed = perturbed_partner(name, pair)
            if perturbed is not None:
                partners.append(perturbed)
            corr = Correspondence.identity(pair)
            for other in partners:
                markers = Marking.markers(other.edge_keys())
                # The markers, then a re-marking of this pair.
                for marking in (pair.markers(), periods._alternative_marking(pair)):
                    result = marking_transporter(pair, other, corr, marking, markers)
                    assert result == transposed_transporter(
                        pair, other, marking, markers
                    )
                    statuses.add(result[0])
        assert {"solved", "unsolvable"} <= statuses


def full_report(pair):
    """Every stage of the ``invariants`` and ``periods`` reports."""
    periods.marked_period(pair)
    unmarked_period(pair)
    quotient_character(pair)
    edge_cokernel_report(pair)
    pair.k_image()
    for k in range(len(pair.program)):
        classify_contraction(pair, k)


class TestHeldMatchingValuesInDecide:
    def partners(self, name, pair):
        out = [pair, pair.torus_translate((g("2"), g("3"), I))]
        perturbed = perturbed_partner(name, pair)
        if perturbed is not None:
            out.append(perturbed)
        return out

    def cases(self):
        """Fresh (name, pair) builds: the bundled pairs and the scaling family."""
        return [
            *pair_fixtures().items(),
            ("scaling", scaling_pair(1, 4)),
            ("scaling", scaling_pair(2, 8)),
            ("scaling", scaling_pair(3, 6)),
        ]

    def verdicts(self, report_first):
        # Each decide runs on a pair built for it, so a fresh one holds no
        # period value yet.
        out = []
        for j in range(3):
            for name, pair in self.cases():
                partners = self.partners(name, pair)
                if j >= len(partners):
                    continue
                if report_first:
                    full_report(pair)
                else:
                    assert "matching_values" not in pair._held
                verdict = decide_isomorphism(pair, partners[j])
                out.append((verdict.kind, verdict.reason, verdict.certificate))
        return out

    def test_fresh_decide_matches_decide_after_a_report(self):
        fresh = self.verdicts(report_first=False)
        assert {check["check"] for _, _, check in fresh} >= {"complete", "period"}
        assert fresh == self.verdicts(report_first=True)

    def test_decide_makes_no_matrix_product(self, monkeypatch):
        # Step (v) pulls the other pair's table back and moves only a
        # witness through the boundary map: self, translated and perturbed.
        cases = [
            (pair, other)
            for name, pair in [*pair_fixtures().items(), ("scaling", scaling_pair(2, 8))]
            for other in self.partners(name, pair)
        ]
        calls = []
        original = IntMatrix.__mul__

        def counted(left, right):
            calls.append((left.shape, right.shape))
            return original(left, right)

        monkeypatch.setattr(IntMatrix, "__mul__", counted)
        checks = {decide_isomorphism(pair, other).certificate["check"] for pair, other in cases}
        assert checks == {"complete", "period"}
        assert calls == []

    def test_self_decide_makes_one_power_product_per_generator(self, monkeypatch):
        # Under the identity the boundary map is the identity, so the pulled
        # support is the support, taken over with no power product, and each
        # generator is valued over its own exceptional entries.
        calls = []
        original = gaussian.power_product_of

        def recorded(factors):
            factors = tuple(factors)
            calls.append(factors)
            return original(factors)

        monkeypatch.setattr(gaussian, "power_product_of", recorded)
        for pair in [scaling_pair(2, 8), *pair_fixtures().values()]:
            unmarked_period(pair)
            support = pair.marker_support().values
            calls.clear()
            assert decide_isomorphism(pair, pair).kind == "isomorphic"
            assert calls == [
                tuple((support[i], x) for i, x in column if i in support)
                for column in periods.matching_kernel(pair).columns
            ]

    def test_decide_against_a_fresh_partner_reads_no_marking(self, monkeypatch):
        # The partner's side of step (v) is its support: no character table,
        # no marking point and no markers are built for it.
        calls = {"component_character_table": 0, "point": 0, "markers": 0}
        original = boundary.component_character_table

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

        monkeypatch.setattr(
            pair_module, "component_character_table",
            counting("component_character_table", original),
        )
        monkeypatch.setattr(Marking, "point", counting("point", Marking.point))
        monkeypatch.setattr(
            Marking, "markers", staticmethod(counting("markers", Marking.markers))
        )
        checks = set()
        for name, pair in self.cases():
            full_report(pair)
            calls.update(component_character_table=0, point=0, markers=0)
            for other in self.partners(name, pair)[1:]:
                fresh = LogCY3Pair.build(other.fan, other.program, other._orientations())
                checks.add(decide_isomorphism(pair, fresh).certificate["check"])
                assert "markers" not in fresh._held
            assert calls == {"component_character_table": 0, "point": 0, "markers": 0}
        assert checks == {"complete", "period"}


class TestPulledSupport:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_the_dense_pull_back_off_one(self, data):
        # Columns mixing several support rows, entries other than 1, rows
        # off the support and values whose product is 1 all occur, in
        # drawn explicit maps.  Every column of a component with an
        # explicit map is read, and only the exceptional columns of the
        # others.
        pair = BUNDLED["p3-mixed"]
        overrides = drawn_overrides(data, pair)
        explicit = {v for v, _ in overrides}
        identity = Correspondence.identity(pair)
        corr = Correspondence(identity.vertex_map, identity.step_map, None, overrides)
        offsets, n = pair.component_offsets()
        values = st.sampled_from([g("1"), g("-1"), I, g("2"), g("1/2"), g("3-i")])
        support = data.draw(st.dictionaries(st.integers(0, n - 1), values))
        table = tuple(support.get(i, g("1")) for i in range(n))
        dense = dense_boundary_map(pair, pair, corr).pull_back(table)
        read = {
            j
            for v, start in offsets.items()
            for j in range(start, start + pair.components[v].rank)
            if v in explicit or j >= start + pair.components[v].base.rank
        }
        assert torelli._pulled_support(pair, pair, corr, SparseCharacter(support)).values == {
            j: value for j, value in enumerate(dense) if j in read and not value.is_one()
        }

    def test_the_exceptional_columns_give_the_full_walk(self, pairs):
        # On correspondences that pass the checks before the periods, with
        # and without explicit component maps, the toric columns left out
        # of a derived block change nothing.
        rng = random.Random(19)
        checked = {"derived": 0, "explicit": 0}
        for name, pair in [*pairs.items(), ("scaling", scaling_pair(2, 8))]:
            partners = [pair, pair.torus_translate((g("2"), g("3"), I))]
            partners += filter(None, [perturbed_partner(name, pair)])
            corrs = [Correspondence.identity(pair)]
            corrs += [
                with_override(pair, v, matrix)
                for v, comp in sorted(pair.components.items())
                for matrix in (identity_matrix(comp.rank), exceptional_permutation(comp, rng))
            ]
            for other in partners:
                for corr in corrs:
                    if isinstance(torelli._matched(pair, other, corr), torelli.Verdict):
                        continue
                    boundary = dense_boundary_map(pair, other, corr)
                    assert_pulled_support_is_the_full_walk(pair, other, corr, boundary)
                    checked["explicit" if corr.mu_components else "derived"] += 1
        assert all(checked.values())


def reoriented(pair, flipped):
    """The pair with the edges whose keys are in ``flipped`` directed the other way.

    Every point on a flipped edge is written in the new reference chart,
    as its inverse, so the result is the same pair under the identity, with
    the rows of those edges negated in its edge-matching map.
    """

    def chart(v, w, q):
        return q.inverse() if frozenset((v, w)) in flipped else q

    program = []
    for step in pair.program:
        if isinstance(step, PointBlowup):
            program.append(PointBlowup(step.edge, chart(*step.edge, step.coordinate)))
        else:
            points = tuple(
                (w, tuple(chart(step.component, w, q) for q in coords))
                for w, coords in step.points
            )
            program.append(pair_module.CurveBlowup(step.component, step.curve_class, points))
    edges = [(w, v) if frozenset((v, w)) in flipped else (v, w) for v, w in pair.complex.edges]
    return LogCY3Pair.build(pair.fan, program, edges)


def carried(marking, images, flipped):
    """The marking moved along the vertex map ``images`` and written in the
    reference charts of a partner whose edges in ``flipped`` are reversed."""
    moved = {}
    for key, q in marking.points:
        image = frozenset(images[v] for v in key)
        moved[image] = q.inverse() if image in flipped else q
    return Marking.build(moved)


class TestTransportUnderRemarking:
    """Transport at any two markings, on partners that direct edges the
    other way or relabel the vertices, against the dense targets."""

    def cases(self):
        """(pair, other, corr, same): ``same`` carries a marking of the pair
        to the same marking of the other pair, which is the pair reoriented
        and relabelled, or is ``None`` for a perturbed partner."""
        rng = random.Random(11)
        out = []
        for name, pair in [*pair_fixtures().items(), ("scaling", scaling_pair(2, 8))]:
            keys = pair.edge_keys()
            flipped = set(rng.sample(keys, len(keys) // 2))
            identity = Correspondence.identity(pair)
            images = {v: v for v in pair.components}
            same = lambda m, images=images, flipped=flipped: carried(m, images, flipped)
            out.append((pair, reoriented(pair, flipped), identity, same))
            perturbed = perturbed_partner(name, pair)
            if perturbed is not None:
                out.append((pair, reoriented(perturbed, flipped), identity, None))
        # Point programs on projective space, whose every vertex permutation
        # is a symmetry of the fan, against the relabelled program.
        fan = projective_space_fan()
        for _ in range(4):
            edges = [tuple(e) for e in fan.dual_complex().edges]
            program = [
                PointBlowup(rng.choice(edges), GaussianRational(rng.randint(2, 5), k))
                for k in range(3)
            ]
            pair = LogCY3Pair.build(fan, program)
            order = list(range(4))
            rng.shuffle(order)
            images = dict(enumerate(order))
            relabelled = LogCY3Pair.build(
                fan,
                [PointBlowup(tuple(images[v] for v in s.edge), s.coordinate) for s in program],
                [(images[v], images[w]) for v, w in pair.complex.edges],
            )
            flipped = set(rng.sample(relabelled.edge_keys(), 3))
            corr = Correspondence(tuple(images.items()), tuple(range(len(program))))
            same = lambda m, images=images, flipped=flipped: carried(m, images, flipped)
            out.append((pair, reoriented(relabelled, flipped), corr, same))
        return out

    def test_transport_matches_the_dense_targets(self):
        rng = random.Random(5)
        statuses = []
        for pair, other, corr, same in self.cases():
            verdict = decide_isomorphism(pair, other, corr)
            assert verdict.certificate["check"] in ("complete", "period")
            marking = seeded_marking(pair, rng)
            for markings in (
                (pair.markers(), other.markers()),
                (pair.markers(), seeded_marking(other, rng)),
                (marking, seeded_marking(other, rng)),
            ):
                result = marking_transporter(pair, other, corr, *markings)
                assert result == dense_transporter(pair, other, corr, *markings)
                statuses.append(result[0])
                if verdict.is_isomorphic:
                    assert result[0] == "solved"
                else:
                    assert result == ("unsolvable", verdict.certificate["witness"])
            if same is not None:
                # The same marking on both sides: every target is 1.
                ones = [GaussianRational(1)] * len(pair.complex.edges)
                assert marking_transporter(pair, other, corr, marking, same(marking)) == (
                    "solved", ones
                )
        assert set(statuses) == {"solved", "unsolvable"}

    def test_a_marking_without_a_point_raises_as_the_table_does(self, pairs):
        pair = pairs["p3-mixed"]
        keys = sorted(pair.edge_keys(), key=sorted)
        points = {key: GaussianRational(2, 1) for key in keys}
        partial = Marking.build({key: q for key, q in points.items() if key not in keys[1:3]})
        full = Marking.build(points)
        zero = Marking(tuple((key, GaussianRational(0) if key == keys[2] else q)
                             for key, q in full.points))
        errors = {}
        for broken in (partial, zero):
            with pytest.raises(boundary.BoundaryError) as table:
                pair.character_table(broken)
            with pytest.raises(boundary.BoundaryError) as ratios:
                pair.marking_ratios(broken)
            errors[broken] = str(table.value)
            assert str(ratios.value) == errors[broken]
        assert errors == {
            partial: "marking has no point on edge (0, 2)",
            zero: "marking point on a 0-stratum",
        }
        # The other pair's marking is read first.
        for markings, error in (
            ((full, partial), errors[partial]),
            ((full, zero), errors[zero]),
            ((zero, partial), errors[partial]),
            ((partial, zero), errors[zero]),
        ):
            with pytest.raises(boundary.BoundaryError, match=f"^{re.escape(error)}$"):
                marking_transporter(pair, pair, None, *markings)
        assert pair.marking_ratios(full) == [-GaussianRational(2, 1)] * len(keys)


@cache
def shift_cases():
    """(pair, other, corr): the bundled pairs against themselves, a translate
    and a perturbed partner, and the reoriented and relabelled partners of
    :class:`TestTransportUnderRemarking`."""
    out = []
    for name, pair in BUNDLED.items():
        partners = [pair, pair.torus_translate((g("2"), g("3"), I)), perturbed_partner(name, pair)]
        out += [(pair, other, None) for other in partners if other is not None]
    out += [(pair, other, corr) for pair, other, corr, _ in TestTransportUnderRemarking().cases()]
    return out


class TestTransportIsTheMarkersSolutionTimesTheShift:
    """A torus character ``h0`` solves the system at the markers exactly when
    ``h0`` times the markings' shift solves it at the two markings, and the
    shift lies in Q(i)*: transport at any markings is the markers' outcome,
    a solution multiplied edge by edge by the shift."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_the_transporter_is_the_markers_solution_times_the_shift(self, data):
        pair, other, corr = data.draw(st.sampled_from(shift_cases()))
        point = st.builds(GaussianRational, st.integers(1, 9), st.integers(-3, 3))

        def marking(side):
            n = len(side.edge_keys())
            points = st.lists(point, min_size=n, max_size=n)
            return data.draw(st.sampled_from([side.markers(), None]) | points.map(
                lambda values: Marking.build(dict(zip(side.edge_keys(), values)))
            ))

        markings = marking(pair), marking(other)
        at_markers = marking_transporter(pair, other, corr)
        result = marking_transporter(pair, other, corr, *markings)
        if at_markers[0] != "solved":
            assert result == at_markers
            return
        shift = dense_edge_shift(
            pair, other, corr, markings[0] or pair.markers(), markings[1] or other.markers()
        )
        assert result == ("solved", [h * s for h, s in zip(at_markers[1], shift)])

    def test_a_root_the_shift_completes(self):
        # On [[2]] the target 1 at the markers has the root 1, and a shift of
        # 2 makes it 2, which solves the shifted target 1 * 2 ** 2; the
        # target 2 alone needs a root of 2, which is not in Q(i).
        two = g("2")
        dec = exactnum.snf(IntMatrix([[2]]))
        status, h0 = dec.solve_over_gaussian_torus(SparseCharacter({}))
        assert (status, h0) == ("solved", [g("1")])
        squared, alone = SparseCharacter({0: two**2}), SparseCharacter({0: two})
        assert dec.solve_over_gaussian_torus(squared) == ("solved", [h0[0] * two])
        assert dec.solve_over_gaussian_torus(alone) == ("complex_only", (2, two))


class TestTransportBuildsNoTable:
    def test_a_transport_after_decide_reads_no_table(self, monkeypatch):
        tables = []
        original = boundary.component_character_table

        def counted(comp, marking):
            tables.append(marking)
            return original(comp, marking)

        monkeypatch.setattr(pair_module, "component_character_table", counted)
        read = []
        character_table = LogCY3Pair.character_table

        def recorded(pair, marking):
            read.append((pair, marking))
            return character_table(pair, marking)

        monkeypatch.setattr(LogCY3Pair, "character_table", recorded)
        rng = random.Random(13)
        statuses = set()
        for name, pair in [*pair_fixtures().items(), ("scaling", scaling_pair(2, 8))]:
            full_report(pair)
            for other in filter(None, [
                pair.torus_translate((g("2"), g("3"), I)), perturbed_partner(name, pair)
            ]):
                decide_isomorphism(pair, other)
                tables.clear()
                read.clear()
                for marking in (None, seeded_marking(pair, rng)):
                    result = marking_transporter(
                        pair, other, None, marking, seeded_marking(other, rng)
                    )
                    statuses.add(result[0])
                assert tables == []
                assert [m for p, m in read if not m.is_markers_on(p.complex.edges)] == []
        assert statuses == {"solved", "unsolvable"}

    def test_the_markers_ratios_are_not_read(self, monkeypatch, pairs):
        read = []
        marking_ratios = LogCY3Pair.marking_ratios

        def recorded(pair, marking):
            read.append((pair, marking))
            return marking_ratios(pair, marking)

        monkeypatch.setattr(LogCY3Pair, "marking_ratios", recorded)
        rng = random.Random(17)
        pair = pairs["p3-mixed"]
        other = pair.torus_translate((g("2"), g("3"), I))
        remarking = seeded_marking(other, rng)
        # At this pair's markers only the other marking's ratios are read.
        for marking_other in (other.markers(), remarking):
            read.clear()
            marking_transporter(pair, other, None, None, marking_other)
            assert [(p is other, m) for p, m in read] == [(True, marking_other)]
        # A marking of this pair is read after the other's.
        marking = seeded_marking(pair, rng)
        read.clear()
        marking_transporter(pair, other, None, marking, remarking)
        assert [(p is other, m) for p, m in read] == [(True, remarking), (False, marking)]

    def test_the_exceptional_positions_are_held_on_the_pair(self, pairs):
        pair = pairs["p3-mixed"]
        for v in pair.components:
            positions = torelli._step_exc_positions(pair, v)
            assert torelli._step_exc_positions(pair, v) is positions
            assert sorted(positions.values()) == list(range(len(pair.components[v].excs)))


class TestMatchReadsHeldSparseColumns:
    """On a fan whose sparse classes are held, decide and transport build no
    dense ray class, and derive a toric column (``Fan2.sparse_class``) only
    for a component that carries a curve step, once per call; a ``period``
    verdict's witness image maps only the component blocks it touches."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"Fan2.ray_class": 0, "ToricPicBasis.ray_class": 0, "sparse_class": []}
        for cls in (toric.Fan2, toric.ToricPicBasis):
            def counted(self, i, original=cls.ray_class, name=f"{cls.__name__}.ray_class"):
                counts[name] += 1
                return original(self, i)

            monkeypatch.setattr(cls, "ray_class", counted)
        sparse_class = toric.Fan2.sparse_class

        def recorded(self, i):
            counts["sparse_class"].append(self)
            return sparse_class(self, i)

        monkeypatch.setattr(toric.Fan2, "sparse_class", recorded)
        return counts

    @pytest.mark.parametrize("case", ["family-20", "family-60", "conics-12"])
    def test_a_translate_decide_and_a_transport(self, counts, case):
        kind, rays = case.split("-")
        if kind == "family":
            fan, program = family(int(rays))
            curved = set()
        else:
            fan = conic_ladder_fan(int(rays))
            program = conic_ladder(fan, 3)
            curved = {3}
        # The fan holds its toric layer and every sparse class, the pair
        # its lattice data and matching values.
        pair = LogCY3Pair.build(fan, program)
        assert decide_isomorphism(pair, pair).is_isomorphic
        toric.ToricPicBasis.of(fan).sparse_classes
        for surface in fan._surfaces:
            surface.sparse_class(0)
        counts.update({"Fan2.ray_class": 0, "ToricPicBasis.ray_class": 0, "sparse_class": []})
        translate = pair.torus_translate((g("2"), g("3"), I))
        assert decide_isomorphism(pair, translate).is_isomorphic
        assert marking_transporter(pair, translate)[0] == "solved"
        bases = [translate.components[v].base for v in sorted(curved)]
        assert counts["sparse_class"] == 2 * [base for base in bases for _ in range(base.rank)]
        assert counts["Fan2.ray_class"] == counts["ToricPicBasis.ray_class"] == 0

    def test_a_period_decide_maps_only_the_blocks_its_witness_touches(self, monkeypatch):
        # The pulled support derives each component's exceptional rows once,
        # and the witness image once more for each block the witness touches.
        pair = LogCY3Pair.build(*family(20))
        other = perturbed_partner("family", pair)
        calls = []
        original = torelli._exceptional_rows

        def counted(pair, other, corr, v):
            calls.append(v)
            return original(pair, other, corr, v)

        monkeypatch.setattr(torelli, "_exceptional_rows", counted)
        certificate = decide_isomorphism(pair, other).certificate
        assert certificate["check"] == "period"
        witness = certificate["witness"]
        touched = [
            v
            for v, start in pair.component_offsets()[0].items()
            if any(witness[start:start + pair.components[v].rank])
        ]
        assert (len(pair.components), len(touched)) == (20, 2)
        assert sorted(calls) == sorted([*pair.components, *touched])

    def test_a_period_witness_image_is_the_dense_image(self, pairs):
        # The image of the witness under the boundary map built column by
        # column from the dense transports, toric rows included: against
        # the bundled pairs' perturbed partners, and against a perturbed
        # relabelling whose vertex and step maps are not the identity.
        cases = [
            (pair, perturbed_partner(name, pair), Correspondence.identity(pair))
            for name, pair in pairs.items()
            if perturbed_partner(name, pair) is not None
        ]
        cases.append(relabelled_perturbed())
        toric_rows = 0
        witnesses = []
        for pair, other, corr in cases:
            certificate = decide_isomorphism(pair, other, corr).certificate
            if certificate["check"] != "period":
                continue
            witnesses.append(corr)
            image = dense_image(
                pair, other, corr, dense_transports(pair, other, corr), certificate["witness"]
            )
            assert certificate["witness_image"] == image
            offsets = other.component_offsets()[0]
            toric_rows += any(
                image[start + i]
                for v, start in offsets.items()
                for i in range(other.components[v].base.rank)
            )
        assert witnesses[-1] is cases[-1][2] and len(witnesses) > 2
        assert toric_rows


class TestComponentTransportDiagnoses:
    """A derived component map that cannot exist is refused with a diagnostic.

    Steps at other places fail decide's step (iii) before any transport is
    built; a direct call names the component."""

    def case(self):
        fan = projective_space_fan()
        pair = LogCY3Pair.build(fan, [PointBlowup((0, 1), g("2")), PointBlowup((2, 3), g("3"))])
        other = LogCY3Pair.build(fan, [PointBlowup((0, 1), g("2")), PointBlowup((1, 2), g("3"))])
        corr = Correspondence.identity(pair)
        assert decide_isomorphism(pair, other, corr).certificate["check"] == "step_place"
        assert torelli.component_transport(pair, other, corr, 0).shape == (2, 2)
        return pair, other, corr

    def test_a_component_of_another_rank_is_refused(self):
        pair, other, corr = self.case()
        with pytest.raises(CorrespondenceError, match="^component 1 has rank 2, its image 1 rank 3$"):
            torelli.component_transport(pair, other, corr, 1)

    def test_an_exceptional_class_without_an_image_is_refused(self):
        pair, other, corr = self.case()
        message = "^the exceptional class of step 1 toward 3 on component 2 has no image on component 2$"
        with pytest.raises(CorrespondenceError, match=message):
            torelli.component_transport(pair, other, corr, 2)

"""Tests for contraction types, fan reconstruction, and the decision procedure."""

import random
import re
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3 import boundary, exactnum, pair as pair_module, periods, toric, torelli
from logcy3.boundary import Marking
from logcy3.exactnum import IntMatrix
from logcy3.gaussian import ExactArithmeticError, GaussianRational, I, power_product
from logcy3.fixtures import (
    pair_fixtures,
    perturbed_conic_pair,
    projective_space_fan,
    scaling_pair,
    toric_fixture_fans,
    triple_line_fan,
)
from logcy3.oracle import split_boundary_vector
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
from random_draws import solved_curve_step
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


def dense_image(pair, other, corr, transports, flat):
    """A flat boundary vector through each component's dense transport."""
    per_component = split_boundary_vector(pair, flat)
    images = {
        corr.vertex(v): transports[v].apply(per_component[v])
        for v in sorted(pair.components)
    }
    return tuple(x for u in sorted(other.components) for x in images[u])


def dense_transports(pair, other, corr):
    return {
        v: torelli.component_transport(pair, other, corr, v)
        for v in sorted(pair.components)
    }


def assert_edge_rows_carried(pair, other, corr):
    """The other pair's edge-matching map after the boundary map is the pair's,
    its rows carried to the image edges and signed by their directions.

    So the boundary map carries the matching lattice, the kernel, into the
    other pair's; decide relies on it once the correspondence is checked.
    """
    edges2 = other.complex.edges
    rows = []
    for a, b in pair.complex.edges:
        row = other.complex.edge_index(corr.vertex(a), corr.vertex(b))
        rows.append((row, 1 if edges2[row][0] == corr.vertex(a) else -1))
    carried = IntMatrix.from_columns(
        len(edges2),
        [
            sorted((rows[i][0], rows[i][1] * x) for i, x in column)
            for column in periods.edge_matching_map(pair).columns
        ],
    )
    boundary = torelli._boundary_map(pair, other, corr, dense_transports(pair, other, corr))
    assert periods.edge_matching_map(other) * boundary == carried


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


def dense_transporter(pair, other, corr, marking, marking_other):
    """Marking transport on the dense targets, after the isometry check."""
    failure = reference_isometry_failure(pair, other, corr)
    if failure is not None:
        return "component_isometry", failure
    targets = dense_targets(pair, other, corr, marking, marking_other)
    return periods.edge_matching_snf(pair).solve_over_gaussian_torus(targets)


def transposed_transporter(pair, other, marking, marking_other):
    """Transport as the transposed factorization solved it, on dense rows.

    The system was posed on the rows of the transposed edge-matching map,
    factored as ``V^T ell^T U^T``: the relations were the rows of ``V^T``
    past the rank, ``s_i`` the targets' product over row i of ``V^T``, and
    scalar e the roots' product over row e of ``U^T``.
    """
    dec = periods.edge_matching_snf(pair)
    corr = Correspondence.identity(pair)
    targets = dense_targets(pair, other, corr, marking, marking_other)
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
    return "solved", [power_product(y, row) for row in scalar_rows]


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
        for pair, other in cases:
            corr = Correspondence.identity(pair)
            transports = dense_transports(pair, other, corr)
            boundary = torelli._boundary_map(pair, other, corr, transports)
            length = boundary.rows
            columns = boundary.columns
            assert length == len(other.character_table(Marking.markers(other.edge_keys())))
            for j, column in enumerate(columns):
                unit = tuple(1 if i == j else 0 for i in range(len(columns)))
                image = dense_image(pair, other, corr, transports, unit)
                assert column == tuple((i, x) for i, x in enumerate(image) if x)

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
        original = torelli.power_product_of

        def recorded(factors):
            factors = tuple(factors)
            calls.append(factors)
            return original(factors)

        for module in (torelli, periods):
            monkeypatch.setattr(module, "power_product_of", recorded)
        for pair in [scaling_pair(2, 8), *pair_fixtures().values()]:
            unmarked_period(pair)
            support = pair.marker_support()
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
        # off the support and values whose product is 1 all occur.
        rows = data.draw(st.integers(1, 6))
        entries = st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(-3, 3).filter(bool)),
            max_size=4,
            unique_by=lambda entry: entry[0],
        )
        columns = data.draw(st.lists(entries, max_size=6))
        matrix = IntMatrix.from_columns(rows, [sorted(column) for column in columns])
        values = st.sampled_from([g("1"), g("-1"), I, g("2"), g("1/2"), g("3-i")])
        support = data.draw(st.dictionaries(st.integers(0, rows - 1), values))
        table = tuple(support.get(i, g("1")) for i in range(rows))
        dense = matrix.pull_back(table)
        assert torelli._pulled_support(matrix, support) == {
            j: value for j, value in enumerate(dense) if not value.is_one()
        }

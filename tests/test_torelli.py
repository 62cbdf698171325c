"""Tests for contraction types, fan reconstruction, and the decision procedure."""

from fractions import Fraction

import pytest

from logcy3.boundary import Marking
from logcy3.exactnum import GaussianRational, I
from logcy3.fixtures import (
    pair_fixtures,
    perturbed_conic_pair,
    scaling_pair,
    toric_fixture_fans,
)
from logcy3.periods import evaluate_boundary_character
from logcy3.toric import ToricIntersectionData, fan_isomorphism
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
        with pytest.raises(ReconstructionError):
            reconstruct_fan(bad)

    def test_disconnected_data_rejected(self):
        fan = toric_fixture_fans()["p3"]
        data = ToricIntersectionData.of_fan(fan)
        with pytest.raises(ReconstructionError):
            reconstruct_fan(
                ToricIntersectionData(data.n_vertices + 1, data.cones, data.wall_curves)
            )


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
        verdict = decide_isomorphism(other, pair, corr.inverse())
        assert verdict.kind == "distinct"

    def test_different_programs_are_distinct(self, pairs):
        verdict = decide_isomorphism(pairs["p3-point"], pairs["p3-conic"])
        assert verdict.kind == "distinct"
        assert verdict.certificate["check"] == "cubic_form"

    def test_shape_mismatch_raises(self, pairs):
        with pytest.raises(CorrespondenceError):
            decide_isomorphism(pairs["p3"], pairs["p111"])


class TestMarkingTransporter:
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

"""Tests for contraction types, fan reconstruction, and the decision procedure."""

import random
from fractions import Fraction

import pytest

from logcy3 import boundary, exactnum, pair as pair_module, periods, toric, torelli
from logcy3.boundary import Marking
from logcy3.exactnum import ExactArithmeticError, GaussianRational, I, IntMatrix
from logcy3.fixtures import (
    pair_fixtures,
    perturbed_conic_pair,
    scaling_pair,
    toric_fixture_fans,
)
from logcy3.pair import LogCY3Pair, PairError
from logcy3.periods import (
    edge_cokernel_report,
    evaluate_boundary_character,
    matching_lattice,
    quotient_character,
    unmarked_period,
)
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
            for mu in (IntMatrix.identity(r), random_unimodular(r, rng, 2 * r)):
                images = [mu.apply(u) for u in units]
                dense = {
                    (i, j, k): pair.cubic_form(images[i], images[j], images[k])
                    for i in range(r)
                    for j in range(i, r)
                    for k in range(j, r)
                }
                assert pair.pulled_back_cubic(mu) == {
                    t: v for t, v in dense.items() if v
                }

    def test_identity_mu_agrees_with_the_triple_loop(self, cases):
        for pair in cases:
            other = LogCY3Pair.build(pair.fan, pair.program)
            corr = self.with_mu(pair, IntMatrix.identity(pair.pic_rank))
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
        for pair in cases:
            r = pair.pic_rank
            mu = IntMatrix.zero(r + 1, r) if shape == "rows" else IntMatrix.zero(r, r + 1)
            with pytest.raises(error) as dense:
                dense_cubic_check(pair, pair, mu)
            with pytest.raises(error) as sparse:
                decide_isomorphism(pair, pair, self.with_mu(pair, mu))
            assert str(sparse.value) == str(dense.value)


class TestTransportReusesTheHeldFactorization:
    def test_no_snf_after_a_report(self, monkeypatch):
        pair = scaling_pair(1, 4)
        moved = pair.torus_translate((g("2"), g("3"), I))
        matching_lattice(pair)
        pair.k_image()
        edge_cokernel_report(pair)
        quotient_character(pair)
        unmarked_period(pair)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return exactnum.snf(*args, **kwargs)

        for module in (exactnum, toric, boundary, pair_module, periods, torelli):
            if hasattr(module, "snf"):
                monkeypatch.setattr(module, "snf", counted)
        status, scalars = marking_transporter(pair, moved)
        assert status == "solved"
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

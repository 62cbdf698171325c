"""Tests for contraction types, fan reconstruction, and the decision procedure."""

import random
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3 import boundary, exactnum, pair as pair_module, periods, toric, torelli
from logcy3.boundary import Marking
from logcy3.exactnum import (
    ExactArithmeticError,
    GaussianRational,
    I,
    IntMatrix,
    power_product,
)
from logcy3.fixtures import (
    pair_fixtures,
    perturbed_conic_pair,
    projective_space_fan,
    scaling_pair,
    toric_fixture_fans,
    triple_line_fan,
)
from logcy3.oracle import split_boundary_vector
from logcy3.pair import LogCY3Pair, PairError, PointBlowup
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
from test_pair import reference_intersection


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
            for mu in (identity_matrix(r), random_unimodular(r, rng, 2 * r)):
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
        for pair in cases:
            r = pair.pic_rank
            mu = zero_matrix(r + 1, r) if shape == "rows" else zero_matrix(r, r + 1)
            with pytest.raises(error) as dense:
                dense_cubic_check(pair, pair, mu)
            with pytest.raises(error) as sparse:
                decide_isomorphism(pair, pair, self.with_mu(pair, mu))
            assert str(sparse.value) == str(dense.value)


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
        verdict = outcome(decide_isomorphism, pair, other, corr)
        failure = reference_isometry_failure(pair, other, corr)
        if failure is not None:
            assert isinstance(verdict, torelli.Verdict)
            assert (verdict.kind, verdict.certificate) == ("distinct", failure)
            return "component_isometry"
        expected = outcome(dense_period_step, pair, other, corr)
        if not isinstance(verdict, torelli.Verdict):
            assert verdict == expected
            return "error"
        check = verdict.certificate["check"]
        if check == "period":
            assert ("distinct", verdict.certificate) == expected
        elif check == "complete":
            assert expected == ("isomorphic", verdict.certificate["period_transcript"])
        return check

    def test_columns_match_the_dense_transports(self, cases):
        for pair, other in cases:
            corr = Correspondence.identity(pair)
            transports = dense_transports(pair, other, corr)
            boundary = torelli.boundary_map(pair, other, corr, transports)
            length = boundary.rows
            columns = boundary.columns
            assert length == len(other.character_table(Marking.markers(other.edge_keys())))
            for j, column in enumerate(columns):
                unit = tuple(1 if i == j else 0 for i in range(len(columns)))
                image = dense_image(pair, other, corr, transports, unit)
                assert column == tuple((i, x) for i, x in enumerate(image) if x)

    def test_decide_matches_the_dense_period_step(self, cases):
        checks = [
            self.assert_decide_matches(pair, other, Correspondence.identity(pair))
            for pair, other in cases
        ]
        assert {"period", "complete"} <= set(checks)

    def test_component_overrides(self, pairs):
        # A random unimodular override of the right shape is rarely an
        # isometry, and decide and transport reject it before any period.
        # A shuffle of the exceptional classes is one: across edges it
        # breaks the edge-matching condition, and within an edge or as the
        # identity it reaches the periods.  Both paths must agree on each;
        # transport checks no edge matching, so it solves with any isometry.
        rng = random.Random(7)
        checks = []
        isometries = 0
        for pair in [*pairs.values(), scaling_pair(1, 4)]:
            markers = Marking.markers(pair.edge_keys())
            for v in sorted(pair.components):
                comp = pair.components[v]
                for matrix in (
                    random_unimodular(comp.rank, rng, 3),
                    exceptional_permutation(comp, rng),
                ):
                    corr = with_override(pair, v, matrix)
                    checks.append(self.assert_decide_matches(pair, pair, corr))
                    if torelli._isometry_failure(pair, pair, corr) is None:
                        # Every block is square, so the blocks tile the
                        # other pair's boundary lattice.
                        transports = dense_transports(pair, pair, corr)
                        boundary = torelli.boundary_map(pair, pair, corr, transports)
                        rank = pair.component_offsets()[1]
                        assert boundary.shape == (rank, rank)
                        isometries += 1
                    assert marking_transporter(
                        pair, pair, corr, markers, markers
                    ) == dense_transporter(pair, pair, corr, markers, markers)
        assert {"component_isometry", "error", "period", "complete"} <= set(checks)
        assert isometries

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

    def test_self_decide_makes_one_power_product_per_generator(self, monkeypatch):
        # Under the identity the boundary map is the identity, so each
        # generator is valued on the table over its own nonzero entries.
        calls = []
        original = torelli.power_product_of

        def recorded(factors):
            factors = tuple(factors)
            calls.append(factors)
            return original(factors)

        monkeypatch.setattr(torelli, "power_product_of", recorded)
        for pair in [scaling_pair(2, 8), *pair_fixtures().values()]:
            unmarked_period(pair)
            table = pair.character_table(pair.markers())
            calls.clear()
            assert decide_isomorphism(pair, pair).kind == "isomorphic"
            assert calls == [
                tuple((table[i], x) for i, x in column)
                for column in periods.matching_kernel(pair).columns
            ]

"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from logcy3.boundary import Marking
from logcy3.gaussian import GaussianRational, I, ONE
from logcy3.fixtures import (
    pair_fixtures,
    perturbed_conic_pair,
    toric_fixture_fans,
)
from logcy3.oracle import (
    cocycle_period,
    curve_subdivision_check,
    point_subdivision_check,
)
from logcy3.periods import (
    edge_cokernel_report,
    edge_scaling_character,
    evaluate_boundary_character,
    marked_period,
    matching_lattice,
    scale_marking,
    unmarked_period,
)
from logcy3.toric import ToricIntersectionData, fan_isomorphism
from logcy3.torelli import (
    ReconstructionError,
    classify_contraction,
    complexity,
    decide_isomorphism,
    reconstruct_fan,
)

TORIC_NAMES = [
    "p3",
    "p111",
    "p3-blowup-point",
    "p3-blowup-line",
    "p111-blowup-point",
]


@pytest.fixture(scope="module")
def pairs():
    return pair_fixtures()


def criterion(number, description):
    """Print the single pass/fail line for one acceptance criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {number:2d}: {status} - {description}")
            return False

    return _Reporter()


def random_scalar(rng) -> GaussianRational:
    while True:
        value = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        if not value.is_zero():
            return value


def test_criterion_1_contraction_table(pairs):
    with criterion(1, "contraction table for point and curve blowups"):
        start = time.perf_counter()
        mori_type, triple = classify_contraction(pairs["p3-point"], 0)
        assert (mori_type, triple) == (2, (-1, -2, 4))
        mori_type, triple = classify_contraction(pairs["p3-conic"], 0)
        assert mori_type == 1
        assert triple[:2] == (-1, -1)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_toric_triviality(pairs):
    with criterion(2, "marked period trivial on all toric fixtures"):
        start = time.perf_counter()
        for name in TORIC_NAMES:
            character = marked_period(pairs[name])
            assert all(v == ONE for v in character.values)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_cokernel_rank(pairs):
    with criterion(3, "edge-map cokernel free of rank 3, wedge composition zero"):
        for name in TORIC_NAMES:
            free_rank, torsion, composed_zero = edge_cokernel_report(pairs[name])
            assert free_rank == 3
            assert torsion == ()
            assert composed_zero


def test_criterion_4_marking_independence_and_torsor(pairs):
    with criterion(4, "marking independence and rescaling torsor identity"):
        start = time.perf_counter()
        pair = pairs["p3-mixed"]
        assert len(pair.program) >= 3
        rng = random.Random(20260823)
        generators = matching_lattice(pair)
        reference = unmarked_period(pair)
        n_edges = len(pair.complex.edges)
        edge_keys = sorted(pair.edge_keys(), key=lambda k: tuple(sorted(k)))
        for _ in range(100):
            marking = Marking.build(
                {key: random_scalar(rng) for key in edge_keys}
            )
            for gen, expected in zip(generators, reference.values):
                assert evaluate_boundary_character(pair, marking, gen) == expected
        base_marking = Marking.markers(pair.edge_keys())
        base = marked_period(pair, base_marking)
        for _ in range(100):
            alpha = [random_scalar(rng) for _ in range(n_edges)]
            theta = edge_scaling_character(pair, alpha)
            moved = marked_period(pair, scale_marking(pair, base_marking, alpha))
            for b, t, m in zip(base.values, theta.values, moved.values):
                assert t * b == m
        assert time.perf_counter() - start < 5.0


def test_criterion_5_triviality_on_restricted_classes(pairs):
    with criterion(5, "period trivial on every restricted global class"):
        for pair in pairs.values():
            marking = Marking.markers(pair.edge_keys())
            basis, _ = pair.k_image()
            for vec in basis:
                assert evaluate_boundary_character(pair, marking, vec) == ONE


def test_criterion_6_cubic_oracle(pairs):
    with criterion(6, "blowup cubic tensor matches star subdivisions; (-K)^3 = 64"):
        for name in ("p3", "p111"):
            fan = pairs[name].fan
            for cone in fan.max_cones:
                assert point_subdivision_check(fan, cone) is None
            for wall in fan.walls():
                assert curve_subdivision_check(fan, tuple(sorted(wall))) is None
        p3 = pairs["p3"]
        k = p3.canonical_class()
        assert p3.cubic_form(k, k, k) == -64


def test_criterion_7_fan_reconstruction():
    with criterion(7, "fan reconstruction from intersection data"):
        start = time.perf_counter()
        for fan in toric_fixture_fans().values():
            data = ToricIntersectionData.of_fan(fan)
            rebuilt = reconstruct_fan(data)
            assert fan_isomorphism(fan, rebuilt) is not None
        fan = toric_fixture_fans()["p3"]
        data = ToricIntersectionData.of_fan(fan)
        wall, (taa, tbb) = next(iter(sorted(data.wall_curves.items())))
        curves = dict(data.wall_curves)
        curves[wall] = (taa + 1, tbb)
        with pytest.raises(ReconstructionError):
            reconstruct_fan(ToricIntersectionData(data.n_vertices, data.cones, curves))
        assert time.perf_counter() - start < 1.0


def test_criterion_8_torelli_round_trip(pairs):
    with criterion(8, "translated copy isomorphic; perturbed ratio distinct"):
        start = time.perf_counter()
        pair = pairs["p3-conic"]
        moved = pair.torus_translate(
            (GaussianRational(2), GaussianRational(3), I)
        )
        assert decide_isomorphism(pair, moved).is_isomorphic
        other = perturbed_conic_pair()
        verdict = decide_isomorphism(pair, other)
        assert verdict.kind == "distinct"
        cert = verdict.certificate
        assert cert["check"] == "period"
        value = evaluate_boundary_character(
            pair, Marking.markers(pair.edge_keys()), cert["witness"]
        )
        value2 = evaluate_boundary_character(
            other, Marking.markers(other.edge_keys()), cert["witness_image"]
        )
        assert value != value2
        assert (str(value), str(value2)) == cert["values"]
        assert time.perf_counter() - start < 1.0


def test_criterion_9_two_path_periods(pairs):
    with criterion(9, "cocycle path equals section-ratio path on all generators"):
        for pair in pairs.values():
            character = unmarked_period(pair)
            for gen, expected in zip(character.basis, character.values):
                assert cocycle_period(pair, gen) == expected


def test_criterion_10_complexity(pairs):
    with criterion(10, "complexity zero for toric boundary decompositions"):
        for name in TORIC_NAMES:
            pair = pairs[name]
            decomposition = [
                (1, tuple(pair.toric_basis.ray_class(v)))
                for v in range(pair.fan.n_rays)
            ]
            assert complexity(pair, decomposition) == 0

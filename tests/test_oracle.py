"""Cross-checks: blowup tensors against fan subdivisions, two period paths."""

import sys

import pytest

from logcy3 import oracle
from logcy3 import pair as pair_module
from logcy3.gaussian import GaussianRational, symmetric_trilinear
from logcy3.fixtures import (
    pair_fixtures,
    projective_space_fan,
    toric_fixture_fans,
    triple_line_fan,
)
from logcy3.oracle import (
    cocycle_period,
    curve_subdivision_check,
    point_subdivision_check,
)
from logcy3.pair import LogCY3Pair, PairError, PointBlowup, curve_blowup_entries
from logcy3.periods import matching_lattice, unmarked_period
from logcy3.toric import TripleIntersection, star_subdivide
from test_pair import ladder_fans


@pytest.fixture(scope="module")
def pairs():
    return pair_fixtures()


class TestSplitBoundaryVector:
    def test_a_vector_of_another_length_is_rejected(self, pairs):
        pair = pairs["p3-conic"]
        _, total = pair.component_offsets()
        with pytest.raises(PairError, match="^boundary vector length mismatch$"):
            oracle.split_boundary_vector(pair, (0,) * (total + 1))


class TestSubdivisionOracle:
    def test_point_blowup_tensor_on_every_cone(self):
        for fan in (projective_space_fan(), triple_line_fan()):
            for cone in fan.max_cones:
                assert point_subdivision_check(fan, cone) is None

    def test_curve_blowup_tensor_on_every_wall(self):
        for fan in (projective_space_fan(), triple_line_fan()):
            for wall in fan.walls():
                assert curve_subdivision_check(fan, tuple(sorted(wall))) is None


def reference_compare(sub, center, base_pair, tensor):
    """The oracle's comparison before the sparse pull-back, kept as the reference.

    Every ray triple ``i <= j <= k`` of the subdivided fan, in order: the
    wall-relation tensor against the blowup tensor evaluated at the three
    dense blown-up classes (pullback of the ray class, -E on the center,
    E for the new ray).
    """
    table = TripleIntersection(sub)
    new_index = sub.n_rays - 1
    basis = base_pair.toric_basis
    classes = [
        (0,) * basis.rank + (1,)
        if u == new_index
        else tuple(basis.ray_class(u)) + (-1 if u in center else 0,)
        for u in range(sub.n_rays)
    ]
    for i in range(sub.n_rays):
        for j in range(i, sub.n_rays):
            for k in range(j, sub.n_rays):
                expected = table.ray_triple(i, j, k)
                got = symmetric_trilinear(tensor, classes[i], classes[j], classes[k])
                if expected != got:
                    return (
                        f"cubic mismatch at rays ({i}, {j}, {k}): "
                        f"subdivided fan gives {expected}, blowup rules give {got}"
                    )
    return None


def point_inputs(fan, cone):
    """What ``point_subdivision_check`` compares, as ``(sub, center, pair, tensor)``."""
    pair = LogCY3Pair.build(fan, [PointBlowup(tuple(sorted(cone[:2])), GaussianRational(2))])
    return star_subdivide(fan, cone), set(cone), pair, pair.cubic_entries()


def curve_inputs(fan, wall):
    """What ``curve_subdivision_check`` compares, as ``(sub, center, pair, tensor)``."""
    v, w = wall
    pair = LogCY3Pair.build(fan)
    comp = pair.components[v]
    curve = comp.base.ray_class(comp.base.ray_of_neighbor(w))
    lattice = pair._lattice()
    tensor = pair.cubic_entries()
    tensor.update(
        curve_blowup_entries(
            lattice.restriction, lattice.canonical, v, comp.intersection_vector(curve)
        )
    )
    return star_subdivide(fan, wall), {v, w}, pair, tensor


def perturbed(tensor):
    """The tensor with its first entry off by one, its last dropped, and one added."""
    keys = sorted(tensor)
    e = keys[-1][2]
    first, last, added = dict(tensor), dict(tensor), dict(tensor)
    first[keys[0]] += 1
    del last[keys[-1]]
    added[(0, e, e)] = added.get((0, e, e), 0) + 1
    return first, last, added


DIFFERENTIAL_FANS = list(toric_fixture_fans().values()) + [
    fan
    for seed, base in enumerate((projective_space_fan(), triple_line_fan()))
    for fan in ladder_fans(base, (9, 12), seed + 11)
]


class TestSparseComparisonAgainstTheReference:
    """The sparse pull-back gives the per-triple comparison's result, or its diagnostic."""

    @pytest.mark.parametrize("fan", DIFFERENTIAL_FANS, ids=lambda fan: f"{fan.n_rays}-rays")
    def test_every_cone_and_wall(self, fan):
        cases = [
            (point_subdivision_check, cone, point_inputs(fan, cone)) for cone in fan.max_cones
        ] + [
            (curve_subdivision_check, wall, curve_inputs(fan, wall))
            for wall in sorted(tuple(sorted(w)) for w in fan.walls())
        ]
        for check, target, (sub, center, pair, tensor) in cases:
            expected = reference_compare(sub, center, pair, tensor)
            assert expected is None
            assert check(fan, target) is None
            for changed in perturbed(tensor):
                expected = reference_compare(sub, center, pair, changed)
                assert expected is not None
                assert oracle._compare_against(sub, center, pair, changed) == expected


class TestSubdivisionChecksScale:
    def test_ray_triple_calls_grow_linearly(self, monkeypatch):
        """Both checks on the family at 20 and 60 rays: at most 4x the ``ray_triple`` calls.

        The family is projective space star-subdivided at its last max cone.
        A per-triple comparison makes about 22x the calls at 60 rays.
        """
        calls = []
        original = TripleIntersection.ray_triple

        def counted(self, i, j, k):
            calls.append(1)
            return original(self, i, j, k)

        monkeypatch.setattr(TripleIntersection, "ray_triple", counted)
        fan, counts = projective_space_fan(), []
        for size in (20, 60):
            while fan.n_rays < size:
                fan = star_subdivide(fan, fan.max_cones[-1])
            calls.clear()
            assert point_subdivision_check(fan, fan.max_cones[0]) is None
            assert curve_subdivision_check(fan, tuple(sorted(next(iter(fan.walls()))))) is None
            counts.append(len(calls))
        assert counts[1] <= 4 * counts[0], counts


class TestTheCurveCheckRunsTheBuildsRule:
    def test_off_by_one_rule_fails_the_check_and_changes_a_build(self, pairs, monkeypatch):
        original = pair_module.curve_blowup_entries

        def off_by_one(restriction, canonical, v, curve):
            entries = original(restriction, canonical, v, curve)
            e = len(canonical)
            entries[(e, e, e)] = entries.get((e, e, e), 0) + 1
            return entries

        conic = pairs["p3-conic"]
        before = conic.cubic_entries()
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "logcy3" and (
                vars(module).get("curve_blowup_entries") is original
            ):
                monkeypatch.setattr(module, "curve_blowup_entries", off_by_one)
        fan = projective_space_fan()
        diagnostics = [
            curve_subdivision_check(fan, tuple(sorted(wall))) for wall in fan.walls()
        ]
        assert any(d is not None and d.startswith("cubic mismatch") for d in diagnostics)
        rebuilt = LogCY3Pair.build(conic.fan, conic.program)
        assert rebuilt.cubic_entries() != before


class TestTwoPathPeriods:
    def test_paths_agree_on_matching_classes(self, pairs):
        for pair in pairs.values():
            character = unmarked_period(pair)
            for gen, expected in zip(character.basis, character.values):
                assert cocycle_period(pair, gen) == expected

    def test_flip_distinguishes_nontrivial_values(self, pairs):
        # Flipping every triangle's orientation inverts the value, which
        # differs from the value itself on a class of nontrivial period.
        pair = pairs["p3-conic"]
        values = [cocycle_period(pair, gen) for gen in matching_lattice(pair)]
        assert any(value != value.inverse() for value in values)

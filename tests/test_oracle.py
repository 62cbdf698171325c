"""Cross-checks: blowup tensors against fan subdivisions, two period paths."""

import sys

import pytest

from logcy3 import pair as pair_module
from logcy3.fixtures import pair_fixtures, projective_space_fan, triple_line_fan
from logcy3.oracle import (
    cocycle_period,
    curve_subdivision_check,
    point_subdivision_check,
)
from logcy3.pair import LogCY3Pair
from logcy3.periods import matching_lattice, unmarked_period


@pytest.fixture(scope="module")
def pairs():
    return pair_fixtures()


class TestSubdivisionOracle:
    def test_point_blowup_tensor_on_every_cone(self):
        for fan in (projective_space_fan(), triple_line_fan()):
            for cone in fan.max_cones:
                assert point_subdivision_check(fan, cone) is None

    def test_curve_blowup_tensor_on_every_wall(self):
        for fan in (projective_space_fan(), triple_line_fan()):
            for wall in fan.walls():
                assert curve_subdivision_check(fan, tuple(sorted(wall))) is None


class TestTheCurveCheckRunsTheBuildsRule:
    def test_off_by_one_rule_fails_the_check_and_changes_a_build(self, pairs, monkeypatch):
        original = pair_module.curve_blowup_entries

        def off_by_one(pair, v, curve):
            entries = original(pair, v, curve)
            e = len(pair.canonical)
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

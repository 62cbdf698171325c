"""Star subdivisions check their inputs and hold what those inputs decide.

``star_subdivide`` validates its parent (a held lookup along a chain) and
its target, and holds the output's verdict, global sign and cone set
without checking them.  These tests pin that:

* on seeded chains of cone and wall subdivisions, and on explicit cones
  and walls (the reference cone, also under a datum of global sign -1, a
  wall of it, and the last cone and first wall of longer ladders), every
  held verdict, sign and cone set equals what the whole-fan check finds on
  a fresh copy;
* a chain runs the whole-fan check once, on its root;
* an invalid parent is refused with its own diagnostic, and a target that
  is neither a max cone nor a wall with its own message.
"""

import random
import re

import pytest

from logcy3 import toric
from logcy3.fixtures import projective_space_fan, triple_line_fan
from logcy3.toric import Fan3, FanError, star_subdivide, validate_fan

from test_pair import fresh_copy, ladder_fans

BASES = (projective_space_fan(), triple_line_fan())


def last_cone(fan):
    return fan.max_cones[-1]


def first_wall(fan):
    return sorted(min(fan.walls(), key=sorted))


# Subdivisions named by hand, beside the seeded chains.
P3 = projective_space_fan()
EXPLICIT = [
    (projective_space_fan(), (0, 1, 2)),  # the reference cone: re-anchored
    (projective_space_fan(), (0, 1)),  # a wall of the reference cone
    (Fan3(P3.rays, P3.max_cones, ((0, 1, 2), -1)), (0, 1, 2)),  # global sign -1
    (triple_line_fan(), (0, 2, 4)),
    (triple_line_fan(), (1, 3)),
    (ladder_fans(projective_space_fan(), (12,), 3)[0], last_cone),
    (ladder_fans(projective_space_fan(), (12,), 3)[0], first_wall),
    (ladder_fans(triple_line_fan(), (14,), 4)[0], last_cone),
    (ladder_fans(triple_line_fan(), (14,), 4)[0], first_wall),
]


def assert_held_data_is_the_whole_fan_check(out):
    held = vars(out)
    assert held["_diagnostic"] is None
    fresh = fresh_copy(out)
    assert toric._diagnose_fan(fresh) is None
    assert held["_cone_set"] == fresh.cone_set()
    assert held["_global_sign"] == fresh.global_sign()
    # The walls stay lazy: their order is read off the cones.
    assert list(out.walls()) == list(fresh.walls())
    # The copy holds the star surfaces its check built; the output builds
    # the same ones on first use.
    surfaces = [toric.star_surface(out, v) for v in range(out.n_rays)]
    assert surfaces == list(vars(fresh)["_surfaces"])


def test_held_data_matches_the_whole_fan_check():
    chains = 0
    for seed in range(100):
        for base in BASES:
            steps = random.Random(seed).randint(1, 12)
            sizes = range(base.n_rays + 1, base.n_rays + steps + 1)
            for out in ladder_fans(base, sizes, seed):
                assert_held_data_is_the_whole_fan_check(out)
            chains += 1
    assert chains >= 200
    for fan, target in EXPLICIT:
        if callable(target):
            target = target(fan)
        assert_held_data_is_the_whole_fan_check(star_subdivide(fan, target))


def test_a_chain_checks_the_whole_fan_once_on_its_root(monkeypatch):
    checked = []
    check = toric._diagnose_fan
    monkeypatch.setattr(toric, "_diagnose_fan", lambda fan: checked.append(fan) or check(fan))
    root = fan = projective_space_fan()
    while fan.n_rays < 60:
        fan = star_subdivide(fan, fan.max_cones[-1])
    assert validate_fan(fan) is None
    assert len(checked) == 1 and checked[0] is root


@pytest.mark.parametrize(
    "parent",
    [
        # The cone (0, 1, 3) has determinant -2.
        Fan3([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)], projective_space_fan().max_cones),
        # Projective space without its cone (1, 2, 3).
        Fan3(projective_space_fan().rays, projective_space_fan().max_cones[:3]),
    ],
    ids=["non-smooth", "missing-cone"],
)
def test_an_invalid_parent_is_refused_before_the_star_check(parent):
    diagnostic = toric._diagnose_fan(fresh_copy(parent))
    assert diagnostic is not None
    with pytest.raises(FanError, match="cannot subdivide an invalid fan") as exc:
        star_subdivide(parent, (0, 1, 2))
    assert diagnostic in str(exc.value)


@pytest.mark.parametrize(
    "target, message",
    [
        # x+ and x- of (P^1)^3 are opposite: they share no cone and no wall.
        ((0, 1, 2), "(0, 1, 2) is not a max cone"),
        ((0, 1), "(0, 1) is not a wall"),
        ((0,), "target must be a wall or a max cone"),
    ],
    ids=["triple", "pair", "ray"],
)
def test_a_target_that_is_no_cone_or_wall_is_refused(target, message):
    with pytest.raises(FanError, match=f"^{re.escape(message)}$"):
        star_subdivide(triple_line_fan(), target)

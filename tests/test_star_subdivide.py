"""Star subdivisions check their inputs and hold what those inputs decide.

``star_subdivide`` validates its parent (a held lookup along a chain) and
its target, and holds the output's verdict, global sign and cone set
without checking them.  It builds the output from the parent's normalized
tuples, skipping ``Fan3.__init__``'s normalization.  The fixture roots are
held, so a chain from one of them checks that root once per process.
These tests pin that:

* on seeded chains of cone and wall subdivisions, and on explicit cones
  and walls (the reference cone, also under a datum of global sign -1, a
  wall of it, and the last cone and first wall of longer ladders), every
  held verdict, sign and cone set equals what the whole-fan check finds on
  a fresh copy, and every output is the value ``Fan3(...)`` makes of its
  fields: equal, of exact ints, with the same hash and pickle;
* a chain runs the whole-fan check once, on its root, and any number of
  chains from the held roots run it at most once per root;
* each held root holds what a fresh fan of the same data derives;
* an invalid parent is refused with its own diagnostic, and a target that
  is neither a max cone nor a wall with its own message.
"""

import pickle
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
    # A fresh root: the held fixture root may have been checked already.
    root = fan = Fan3(P3.rays, P3.max_cones)
    while fan.n_rays < 60:
        fan = star_subdivide(fan, fan.max_cones[-1])
    assert validate_fan(fan) is None
    assert len(checked) == 1 and checked[0] is root


def seeded_chains():
    """Every fan of 100 seeded chains of 0 to 8 subdivisions from each root."""
    for seed in range(100):
        for base in BASES:
            steps = random.Random(seed).randint(0, 8)
            yield from ladder_fans(base, range(base.n_rays + 1, base.n_rays + steps + 1), seed)


def test_the_held_roots_are_checked_at_most_once(monkeypatch):
    assert projective_space_fan() is projective_space_fan()
    assert triple_line_fan() is triple_line_fan()
    checked = []
    check = toric._diagnose_fan
    monkeypatch.setattr(toric, "_diagnose_fan", lambda fan: checked.append(fan) or check(fan))
    fans = list(seeded_chains())
    assert len(fans) > 200 and all(validate_fan(fan) is None for fan in fans)
    assert len(checked) <= 2
    assert all(fan is projective_space_fan() or fan is triple_line_fan() for fan in checked)


@pytest.mark.parametrize("root", [projective_space_fan, triple_line_fan])
def test_a_held_root_holds_what_a_fresh_fan_derives(root):
    held = root()
    fresh = Fan3(held.rays, held.max_cones, held.orientation)
    assert validate_fan(held) is None and validate_fan(fresh) is None
    assert list(held.walls().items()) == list(fresh.walls().items())
    assert held.cone_set() == fresh.cone_set()
    assert held.global_sign() == fresh.global_sign()
    assert held.oriented_triangles() == fresh.oriented_triangles()
    for v in range(held.n_rays):
        surface, other = toric.star_surface(held, v), toric.star_surface(fresh, v)
        assert surface == other and surface.wall_coefficients == other.wall_coefficients
    layer, other = toric.toric_layer(held), toric.toric_layer(fresh)
    assert layer.tensor == other.tensor
    assert layer.restriction == other.restriction


def exact_ints(value):
    """Whether ``value`` is an ``int`` or a tuple of such values, all exactly."""
    if type(value) is tuple:
        return all(exact_ints(x) for x in value)
    return type(value) is int


def test_a_child_is_the_value_the_constructor_makes():
    outputs = list(seeded_chains())
    for fan, target in EXPLICIT:
        outputs.append(star_subdivide(fan, target(fan) if callable(target) else target))
    for out in outputs:
        fresh = Fan3(out.rays, out.max_cones, out.orientation)
        assert out == fresh
        fields = (out.rays, out.max_cones, out.orientation)
        assert all(type(field) is tuple and exact_ints(field) for field in fields)
        copy = pickle.loads(pickle.dumps(out))
        assert copy == out and hash(copy) == hash(out) == hash(fresh)


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

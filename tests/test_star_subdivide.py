"""Star subdivisions check only the star they add.

``star_subdivide`` validates its parent (a held lookup along a chain), then
checks the cones at the new ray with ``_diagnose_star`` and holds the
output's verdict, global sign and cone set.  These tests pin that:

* on seeded chains of cone and wall subdivisions, every held verdict, sign
  and cone set equals what the whole-fan check finds on a fresh copy;
* each corruption of an honest star is rejected by the star check;
* a chain runs the whole-fan check once, on its root;
* an invalid parent is refused with its own diagnostic, before the star
  check runs.
"""

import random

import pytest

from logcy3 import toric
from logcy3.fixtures import projective_space_fan, triple_line_fan
from logcy3.toric import Fan3, FanError, star_subdivide, validate_fan

from test_pair import fresh_copy, ladder_fans

BASES = (projective_space_fan(), triple_line_fan())


def test_held_data_matches_the_whole_fan_check():
    chains = 0
    for seed in range(100):
        for base in BASES:
            steps = random.Random(seed).randint(1, 12)
            sizes = range(base.n_rays + 1, base.n_rays + steps + 1)
            for out in ladder_fans(base, sizes, seed):
                held = vars(out)
                assert held["_diagnostic"] is None
                fresh = fresh_copy(out)
                assert toric._diagnose_fan(fresh) is None
                assert held["_cone_set"] == fresh.cone_set()
                assert held["_global_sign"] == fresh.global_sign()
                # The walls stay lazy: their order is read off the cones.
                assert list(out.walls()) == list(fresh.walls())
            chains += 1
    assert chains >= 200


def star_arguments(fan, target):
    """The arguments with which ``star_subdivide(fan, target)`` checks its star."""
    calls = []
    check = toric._diagnose_star
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toric, "_diagnose_star", lambda *args: calls.append(args) or check(*args))
        star_subdivide(fan, target)
    (args,) = calls
    return args


# Positions in the arguments of ``_diagnose_star``.
OLD_STAR, NEW_STAR, RAYS, DATUM = 2, 3, 4, 5


def corruptions(args):
    """Each corrupted star, with the words of the check that must reject it."""
    fan, target, old_star, new_star, rays, orientation, cone_set = args
    n, (head, *rest) = len(rays) - 1, new_star
    others = [c for c in fan.max_cones if c not in old_star]
    # A new cone with one of its old rays moved so that it is not unimodular.
    tilted = [
        cone
        for k in range(3)
        if head[k] != n
        for cone in (head[:k] + (x,) + head[k + 1:] for x in range(n))
        if abs(toric._det3(*(rays[i] for i in cone))) != 1
    ][0]

    def corrupt(position, value):
        return args[:position] + (value,) + args[position + 1:]

    def new_ray(ray):
        return corrupt(RAYS, rays[:-1] + (ray,))

    yield "non-primitive ray", new_ray(tuple(2 * x for x in rays[-1]))
    yield "duplicate ray", new_ray(fan.rays[target[0]])
    yield "is not the sum of the rays", new_ray(
        tuple(x + y for x, y in zip(rays[-1], fan.rays[target[0]]))
    )
    yield "max cones", corrupt(OLD_STAR, old_star + others[:1])
    yield "reference is not a max cone", corrupt(DATUM, (old_star[0], orientation[1]))
    yield "does not induce", corrupt(DATUM, (orientation[0], -orientation[1]))
    yield "misses the new ray", corrupt(NEW_STAR, [others[0], *rest])
    yield "non-smooth cone", corrupt(NEW_STAR, [tilted, *rest])
    yield "incoherent orientation", corrupt(NEW_STAR, new_star + [head])
    yield "is not a cycle", corrupt(NEW_STAR, rest)
    yield "does not fill the rim", corrupt(OLD_STAR, old_star[:-1] + others[:1])


def last_cone(fan):
    return fan.max_cones[-1]


def first_wall(fan):
    return sorted(min(fan.walls(), key=sorted))


@pytest.mark.parametrize(
    "fan, target",
    [
        (projective_space_fan(), (0, 1, 2)),  # the reference cone: re-anchored
        (projective_space_fan(), (0, 1)),  # a wall of the reference cone
        (triple_line_fan(), (0, 2, 4)),
        (triple_line_fan(), (1, 3)),
        (ladder_fans(projective_space_fan(), (12,), 3)[0], last_cone),
        (ladder_fans(projective_space_fan(), (12,), 3)[0], first_wall),
        (ladder_fans(triple_line_fan(), (14,), 4)[0], last_cone),
        (ladder_fans(triple_line_fan(), (14,), 4)[0], first_wall),
    ],
)
def test_star_check_rejects_corrupted_stars(fan, target):
    if callable(target):
        target = target(fan)
    args = star_arguments(fan, target)
    assert toric._diagnose_star(*args) is None
    for words, corrupted in corruptions(args):
        assert words in (toric._diagnose_star(*corrupted) or "no diagnostic")


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
def test_an_invalid_parent_is_refused_before_the_star_check(parent, monkeypatch):
    diagnostic = toric._diagnose_fan(fresh_copy(parent))
    assert diagnostic is not None

    def star_check(*args):
        raise AssertionError("the star check ran on an invalid parent")

    monkeypatch.setattr(toric, "_diagnose_star", star_check)
    with pytest.raises(FanError, match="cannot subdivide an invalid fan") as exc:
        star_subdivide(parent, (0, 1, 2))
    assert diagnostic in str(exc.value)

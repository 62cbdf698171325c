"""Bundled example fans and pairs used by tests, the CLI and the docs.

The two root fans, projective space and the product of three lines, are
held: each call returns the same instance, checked at most once per
process, when first used.  A fan is an immutable value and all it holds is derived from
its fields, so every chain of star subdivisions can start from the held
root and the subdivisions are new fans.  A test that corrupts a held value
does so on a fan of its own, never on a root returned here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from logcy3.exactnum import GaussianRational
from logcy3.pair import CurveBlowup, LogCY3Pair, PointBlowup
from logcy3.toric import Fan3, star_subdivide


@cache
def projective_space_fan() -> Fan3:
    """The fan of the projective threefold on four coordinate hyperplanes, held."""
    return Fan3(
        rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        max_cones=[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )


@cache
def triple_line_fan() -> Fan3:
    """The fan of the threefold product of three projective lines, held."""
    return Fan3(
        rays=[
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
        ],
        max_cones=[
            (x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)
        ],
    )


def toric_fixture_fans() -> dict:
    """All bundled toric fans, including three star-subdivision variants."""
    p3 = projective_space_fan()
    p111 = triple_line_fan()
    return {
        "p3": p3,
        "p111": p111,
        "p3-blowup-point": star_subdivide(p3, (0, 1, 2)),
        "p3-blowup-line": star_subdivide(p3, (0, 1)),
        "p111-blowup-point": star_subdivide(p111, (0, 2, 4)),
    }


def conic_program(coordinates=None):
    """A conic blowup in the last component of the projective-space fan.

    ``coordinates`` gives the six boundary intersection points as pairs per
    adjacent vertex; their product must be 1 (the compatibility constraint
    between the curve class and its boundary data).
    """
    if coordinates is None:
        coordinates = {
            0: (GaussianRational(2), GaussianRational(3)),
            1: (GaussianRational(5), GaussianRational(7)),
            2: (
                GaussianRational(0, 1),
                GaussianRational(0, Fraction(-1, 210)),
            ),
        }
    return CurveBlowup(
        component=3,
        curve_class=(2,),
        points=tuple(sorted(coordinates.items())),
    )


def pair_fixtures() -> dict:
    """All bundled pairs, keyed by fixture name."""
    fans = toric_fixture_fans()
    out = {name: LogCY3Pair.build(fan) for name, fan in fans.items()}
    p3 = fans["p3"]
    out["p3-point"] = LogCY3Pair.build(
        p3, [PointBlowup((0, 1), GaussianRational(2))]
    )
    out["p3-conic"] = LogCY3Pair.build(p3, [conic_program()])
    out["p3-mixed"] = LogCY3Pair.build(
        p3,
        [
            conic_program(),
            PointBlowup((0, 1), GaussianRational(2)),
            PointBlowup((1, 2), GaussianRational(3, 1)),
        ],
    )
    return out


def scaling_pair(subdivisions: int, steps: int) -> LogCY3Pair:
    """A pair of growing size: a conic and then points on a subdivided P3.

    Projective space is star-subdivided ``subdivisions`` times, each time at
    the last max cone avoiding vertex 3, so component 3 stays a plane.  Step
    0 is the conic of :func:`conic_program`; step k > 0 is a point on the
    k-th wall in sorted order (cyclically), at a coordinate no other step
    uses; from three steps on, the last step is a second conic.
    """
    fan = projective_space_fan()
    for _ in range(subdivisions):
        fan = star_subdivide(fan, [c for c in fan.max_cones if 3 not in c][-1])
    walls = sorted(tuple(sorted(w)) for w in fan.walls())
    program = [conic_program()] + [
        PointBlowup(walls[k % len(walls)], GaussianRational(k + 2, k % 3 + 1))
        for k in range(1, steps)
    ]
    if steps >= 3:
        rank = 1 + sum(3 in step.edge for step in program[1:-1])
        second = conic_program(
            {
                0: (GaussianRational(11), GaussianRational(13)),
                1: (GaussianRational(17), GaussianRational(19)),
                2: (
                    GaussianRational(Fraction(1, 143)),
                    GaussianRational(Fraction(1, 323)),
                ),
            }
        )
        program[-1] = CurveBlowup(3, (2,) + (0,) * (rank - 1), second.points)
    return LogCY3Pair.build(fan, program)


def perturbed_conic_pair() -> LogCY3Pair:
    """The conic pair with one edge's coordinate ratio changed.

    The six-coordinate product stays 1 (so the pair is valid) but the ratio
    of the two points on the first edge moves, which changes the period.
    """
    coordinates = {
        0: (GaussianRational(4), GaussianRational(Fraction(3, 2))),
        1: (GaussianRational(5), GaussianRational(7)),
        2: (
            GaussianRational(0, 1),
            GaussianRational(0, Fraction(-1, 210)),
        ),
    }
    return LogCY3Pair.build(
        projective_space_fan(), [conic_program(coordinates)]
    )

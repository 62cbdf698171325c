"""Random pairs through the pipeline and the independent oracles.

A pair is drawn over the projective threefold or the product of three
projective lines, star-subdivided at seeded cones and walls, with point
blowups on random walls at small Gaussian coordinates.  Every property
checked here holds in any basis of the matching lattice:

* a build succeeds, or fails with a diagnostic ``PairError`` or ``FanError``;
* the tensor stores its nonzero entries only;
* the markers' period is one on the restriction of every threefold class;
* the cocycle path equals the unmarked period on every matching generator;
* the curve and point subdivision checks agree on a drawn wall and cone;
* a pair is isomorphic to itself and to a torus translate, whose markings
  the transporter aligns: for each boundary basis class e,
  ``value(pair, e) * scaling(e) == value(translate, e)``;
* at a random marking off the markers, each component's character table
  equals the section-ratio period of its unit vectors, at the head and the
  tail of every edge.

Run ``pytest --hypothesis-profile=default`` for fresh draws.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3.boundary import Marking, component_character_table, component_marked_period
from logcy3.exactnum import MINUS_ONE, GaussianRational
from logcy3.fixtures import projective_space_fan, triple_line_fan
from logcy3.oracle import cocycle_period, curve_subdivision_check, point_subdivision_check
from logcy3.pair import LogCY3Pair, PairError, PointBlowup
from logcy3.periods import (
    edge_scaling_character,
    evaluate_boundary_character,
    marked_period,
    unmarked_period,
)
from logcy3.torelli import decide_isomorphism, marking_transporter
from logcy3.toric import FanError
from test_pair import ladder_fans

BASES = (projective_space_fan(), triple_line_fan())

coordinates = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-3, 3)
).filter(lambda q: not q.is_zero())


@st.composite
def random_cases(draw):
    """A subdivided fan, a point program, a wall, a cone and a torus element."""
    base = draw(st.sampled_from(BASES))
    size = draw(st.integers(base.n_rays, 16))
    fan = ladder_fans(base, (size,), draw(st.integers(0, 2**16)))[0]
    walls = sorted(tuple(sorted(wall)) for wall in fan.walls())
    program = draw(
        st.lists(st.builds(PointBlowup, st.sampled_from(walls), coordinates), max_size=10)
    )
    wall = draw(st.sampled_from(walls))
    cone = draw(st.sampled_from(fan.max_cones))
    torus_element = draw(st.tuples(coordinates, coordinates, coordinates))
    return fan, program, wall, cone, torus_element


@settings(max_examples=30, deadline=None)
@given(random_cases())
def test_random_pairs(case):
    fan, program, wall, cone, torus_element = case
    assert curve_subdivision_check(fan, wall) is None
    assert point_subdivision_check(fan, cone) is None
    try:
        pair = LogCY3Pair.build(fan, program)
    except (PairError, FanError) as exc:
        assert str(exc)
        return
    assert all(pair.cubic_entries().values())
    restriction = pair.restriction_matrix()
    for a in range(pair.pic_rank):
        image = restriction.column(a)
        assert evaluate_boundary_character(pair, pair.markers(), image).is_one()

    unmarked = unmarked_period(pair)
    for gen, value in zip(unmarked.basis, unmarked.values):
        assert cocycle_period(pair, gen) == value

    assert decide_isomorphism(pair, pair).is_isomorphic
    moved = pair.torus_translate(torus_element)
    assert decide_isomorphism(pair, moved).is_isomorphic
    status, scalars = marking_transporter(pair, moved)
    assert status == "solved"
    scaling = edge_scaling_character(pair, scalars).values
    for value, scale, value2 in zip(
        marked_period(pair).values, scaling, marked_period(moved).values, strict=True
    ):
        assert value * scale == value2


@settings(max_examples=30, deadline=None)
@given(random_cases(), st.data())
def test_random_character_tables(case, data):
    fan, program, _, _, _ = case
    try:
        pair = LogCY3Pair.build(fan, program)
    except (PairError, FanError):
        return
    off_markers = coordinates.filter(lambda q: q != MINUS_ONE)
    marking = Marking.build({key: data.draw(off_markers) for key in pair.edge_keys()})
    sides = set()
    for comp in pair.boundary_components():
        expected = tuple(
            component_marked_period(comp, marking, unit) for unit in comp.basis_vectors()
        )
        assert component_character_table(comp, marking) == expected
        sides.update(comp.head_sides)
    assert sides == {True, False}

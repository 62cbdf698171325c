"""Random pairs through the pipeline and the independent oracles.

A pair is drawn over the projective threefold or the product of three
projective lines, star-subdivided at seeded cones and walls, with point
blowups on random walls at small Gaussian coordinates.  Every property
checked here holds in any basis of the matching lattice:

* a build succeeds, or fails with a diagnostic ``PairError`` or ``FanError``;
* the tensor stores its nonzero entries only;
* each step's kind fixes its contraction type: 2 for a point, 1 for a curve;
* the markers' period is one on the restriction of every threefold class;
* the cocycle path equals the unmarked period on every matching generator;
* the curve and point subdivision checks agree on a drawn wall and cone;
* a pair is isomorphic to itself and to a torus translate, whose markings
  the transporter aligns: for each boundary basis class e,
  ``value(pair, e) * scaling(e) == value(translate, e)``;
* a pair is isomorphic to its relabelling under a drawn permutation of the
  rays, with the cones, orientation datum, edge orientations and point
  steps carried along, through the permutation's correspondence: the
  transcript is the unmarked period, and the transporter solves;
* at a random marking off the markers, each component's character table
  equals the section-ratio period of its unit vectors, at the head and the
  tail of every edge;
* the toric block of the edge-matching map, its columns of the toric
  component classes, has rank ``edges - 3``, and every generator of its
  kernel has period one, under the markers and under a second marking.

Run ``pytest --hypothesis-profile=default`` for fresh draws.
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from logcy3.boundary import Marking, component_character_table, component_marked_period
from logcy3.exactnum import MINUS_ONE, GaussianRational, IntMatrix, power_product_of, snf
from logcy3.fixtures import projective_space_fan, triple_line_fan
from logcy3.oracle import cocycle_period, curve_subdivision_check, point_subdivision_check
from logcy3.pair import LogCY3Pair, PairError, PointBlowup
from logcy3.periods import (
    _alternative_marking,
    edge_matching_map,
    edge_scaling_character,
    evaluate_boundary_character,
    marked_period,
    unmarked_period,
)
from logcy3.torelli import (
    Correspondence,
    classify_contraction,
    decide_isomorphism,
    marking_transporter,
)
from logcy3.toric import Fan3, FanError
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


def relabelled(pair, sigma):
    """The pair with ray i renamed ``sigma[i]``, and everything carried along."""
    fan = pair.fan
    rays = [None] * fan.n_rays
    for i, ray in enumerate(fan.rays):
        rays[sigma[i]] = ray
    triangle, sign = fan.orientation
    fan2 = Fan3(
        rays,
        [tuple(sigma[i] for i in cone) for cone in fan.max_cones],
        (tuple(sigma[i] for i in triangle), sign),
    )
    program = [
        PointBlowup(tuple(sigma[v] for v in step.edge), step.coordinate)
        for step in pair.program
    ]
    edges = [(sigma[v], sigma[w]) for v, w in pair.complex.edges]
    return LogCY3Pair.build(fan2, program, edges)


# No shrink phase: a failure reports the drawn example at once, where
# shrinking it, each step rebuilding pairs and running decides and
# transports, took minutes.
@settings(
    max_examples=30,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(random_cases(), st.data())
def test_random_pairs(case, data):
    fan, program, wall, cone, torus_element = case
    assert curve_subdivision_check(fan, wall) is None
    assert point_subdivision_check(fan, cone) is None
    try:
        pair = LogCY3Pair.build(fan, program)
    except (PairError, FanError) as exc:
        assert str(exc)
        return
    assert all(pair.cubic_entries().values())
    for k, step in enumerate(pair.program):
        kind = 2 if isinstance(step, PointBlowup) else 1
        assert classify_contraction(pair, k)[0] == kind
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

    sigma = data.draw(st.permutations(range(pair.fan.n_rays)))
    corr = Correspondence(tuple(enumerate(sigma)), tuple(range(len(pair.program))))
    other = relabelled(pair, sigma)
    verdict = decide_isomorphism(pair, other, corr)
    assert verdict.is_isomorphic
    transcript = verdict.certificate["period_transcript"]
    assert [value for _, value in transcript] == [str(v) for v in unmarked.values]
    assert marking_transporter(pair, other, corr)[0] == "solved"


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


@settings(
    max_examples=20,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(random_cases())
def test_toric_block_kernel_has_period_one(case):
    fan, program, _, _, _ = case
    try:
        pair = LogCY3Pair.build(fan, program)
    except (PairError, FanError):
        return
    ell = edge_matching_map(pair)
    offsets, _ = pair.component_offsets()
    toric = [
        offsets[v] + i for v, comp in pair.components.items() for i in range(comp.base.rank)
    ]
    dec = snf(IntMatrix.from_columns(ell.rows, [ell.columns[n] for n in toric]))
    assert dec.rank == len(pair.complex.edges) - 3
    tables = [pair.character_table(m) for m in (pair.markers(), _alternative_marking(pair))]
    for column in dec.V.columns[dec.rank:]:
        assert column
        for table in tables:
            assert power_product_of((table[toric[j]], x) for j, x in column).is_one()

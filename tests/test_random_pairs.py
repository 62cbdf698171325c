"""Random pairs through the pipeline and the independent oracles.

A pair is drawn over the projective threefold or the product of three
projective lines, star-subdivided at seeded cones and walls, with point
blowups on random walls at small Gaussian coordinates, and in some draws a
curve blowup after them: a curve in a drawn component, in the class of a
star-surface ray of nonnegative square, with its points solved so that
its period is one.  Every property checked here holds in any basis of the
matching lattice:

* every drawn program builds: its walls are drawn first, then distinct
  coordinates on each, then the order of its steps, then the curve;
* the tensor stores its nonzero entries only;
* each step's kind fixes its contraction type: 2 for a point, 1 for a curve;
* the markers' period is one on the restriction of every threefold class;
* every matching kernel column lies in the kernel of the edge-matching map;
* the cocycle path equals the unmarked period on every matching generator;
* the curve and point subdivision checks agree on a drawn wall and cone;
* wherever decide and the transporter both run, decide's verdict fixes the
  transporter's outcome: ``complete`` gives ``solved`` or ``complex_only``,
  ``period`` gives ``unsolvable`` with decide's witness, and any other check
  gives that check with decide's certificate;
* a pair is isomorphic to itself and to a torus translate, whose markings
  the transporter aligns: for each boundary basis class e,
  ``value(pair, e) * scaling(e) == value(translate, e)``;
* a pair is isomorphic to its relabelling under a drawn permutation of the
  rays, with the cones (listed in reverse order), orientation datum, edge
  orientations and steps carried along, each curve class rewritten in the
  relabelled component's basis, through the permutation's correspondence:
  the transcript is the unmarked period, and the transporter solves;
* through a drawn permutation of its steps, a pair against itself gets a
  structural verdict (``step_place`` for points on other walls,
  ``cubic_form`` when the curve's exceptional class goes to a point's), or
  a verdict on the periods;
* through an explicit map of a drawn component that shuffles its
  exceptional classes, ``component_edges`` exactly when a class moves to
  another edge, and otherwise a verdict on the periods; a map for a vertex
  the pair lacks raises ``CorrespondenceError``;
* through the identity ``mu`` with the exceptional columns of two drawn
  point steps swapped, ``exceptional_match`` at the later of the two;
* wherever a correspondence gets past the structural checks, the boundary
  map carries the edge-matching map's rows to the image edges, signed, so
  it carries the matching lattice into the partner's;
* with the coordinate of a drawn point step moved by 3/2, decide says ``distinct`` at
  ``period``, with a witness in the matching lattice whose image is in the
  partner's and whose two values differ; otherwise the move is a torus
  translate, ``complete``;
* against the torus translate, the 3/2-moved partner and through the drawn
  step permutation, the call with the two pairs swapped, under the inverse
  vertex and step maps, gets a verdict of the same kind, and the
  transporter solves it exactly when it solves the first call;
* at a random marking off the markers, each component's character table
  equals the section-ratio period of its unit vectors, at the head and the
  tail of every edge;
* the toric block of the edge-matching map, its columns of the toric
  component classes, has rank ``edges - 3``, and every generator of its
  kernel has period one, under the markers and under a second marking.
* on 300 drawn point programs (``point_cases``), each against its torus
  translate with, in every other draw, one coordinate moved, decide's
  step (v) is the torus solve for three unknowns on the steps' edge
  characters: ``period`` exactly when it is ``unsolvable``, ``complete``
  when it is ``solved`` or ``complex_only``; at least 50 draws give
  ``period`` and one ``complex_only``.  The same holds on the scaling
  family at 20 and 60 rays and on the bundled point-only pairs, against
  their translate with and without step 0 moved.

Run ``pytest --hypothesis-profile=default`` for fresh draws.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from logcy3.boundary import Marking, component_character_table, component_marked_period
from logcy3.exactnum import IntMatrix, snf
from logcy3.fixtures import pair_fixtures
from logcy3.gaussian import MINUS_ONE, GaussianRational, SparseCharacter, power_product_of
from logcy3.oracle import cocycle_period, curve_subdivision_check, point_subdivision_check
from logcy3.pair import CurveBlowup, LogCY3Pair, PairError, PointBlowup
from logcy3.periods import (
    _alternative_marking,
    edge_matching_map,
    edge_scaling_character,
    evaluate_boundary_character,
    marked_period,
    matching_kernel,
    unmarked_period,
)
from logcy3.torelli import (
    Correspondence,
    CorrespondenceError,
    classify_contraction,
    decide_isomorphism,
    marking_transporter,
)
from logcy3.toric import Fan3, edge_reference_character, star_surface
from random_draws import coordinates, point_cases, random_cases
from stage_harness import TRANSLATION, family
from test_torelli import assert_edge_rows_carried, inverse

def decided_and_transported(pair, other, corr=None):
    """Decide's verdict and the transporter's result at the markers, after
    asserting that the verdict fixes the result."""
    verdict = decide_isomorphism(pair, other, corr)
    status, result = marking_transporter(pair, other, corr)
    check = verdict.certificate["check"]
    if check == "complete":
        assert status in ("solved", "complex_only")
    elif check == "period":
        assert (status, result) == ("unsolvable", verdict.certificate["witness"])
    else:
        assert (status, result) == (check, verdict.certificate)
    return verdict, status, result


def assert_swapped_agrees(pair, other, corr, verdict, status):
    """Decide and transport on ``(other, pair)`` under the inverse vertex and
    step maps agree with the call on ``(pair, other)`` that gave ``verdict``
    and ``status``: the same verdict kind, and ``solved`` on both or neither."""
    back = inverse(corr or Correspondence.identity(pair))
    verdict_back, status_back, _ = decided_and_transported(other, pair, back)
    assert verdict_back.kind == verdict.kind
    assert (status_back == "solved") == (status == "solved")


def rewritten(curve, base, base2, sigma):
    """A class of the component with star surface ``base``, in the basis of
    ``base2``, that surface with each ray label w renamed ``sigma[w]``.

    The toric part goes through the ray divisors; the exceptional part is
    kept, as the relabelled component gains its classes in the same order.
    """
    coeffs = dict.fromkeys(base2.labels, 0)
    for x, ray in zip(curve, base.basis_indices):
        coeffs[sigma[base.labels[ray]]] = x
    toric = base2.reduce_ray_vector([coeffs[w] for w in base2.labels])
    return tuple(toric) + tuple(curve[base.rank:])


def relabelled(pair, sigma):
    """The pair with ray i renamed ``sigma[i]``, and everything carried along.

    The cones are listed in reverse order, so a link may start at another
    ray and a component's basis change: each curve class is rewritten.
    """
    fan = pair.fan
    rays = [None] * fan.n_rays
    for i, ray in enumerate(fan.rays):
        rays[sigma[i]] = ray
    triangle, sign = fan.orientation
    fan2 = Fan3(
        rays,
        [tuple(sigma[i] for i in cone) for cone in reversed(fan.max_cones)],
        (tuple(sigma[i] for i in triangle), sign),
    )
    program = []
    for step in pair.program:
        if isinstance(step, PointBlowup):
            program.append(PointBlowup(tuple(sigma[v] for v in step.edge), step.coordinate))
        else:
            v = step.component
            curve = rewritten(
                step.curve_class, pair.components[v].base, star_surface(fan2, sigma[v]), sigma
            )
            points = tuple((sigma[w], coords) for w, coords in step.points)
            program.append(CurveBlowup(sigma[v], curve, points))
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
    pair = LogCY3Pair.build(fan, program)
    assert all(pair.cubic_entries().values())
    for k, step in enumerate(pair.program):
        kind = 2 if isinstance(step, PointBlowup) else 1
        assert classify_contraction(pair, k)[0] == kind
    restriction = pair.restriction_matrix()
    for a in range(pair.pic_rank):
        image = restriction.column(a)
        assert evaluate_boundary_character(pair, pair.markers(), image).is_one()

    assert not any((edge_matching_map(pair) * matching_kernel(pair)).columns)
    unmarked = unmarked_period(pair)
    for gen, value in zip(unmarked.basis, unmarked.values):
        assert cocycle_period(pair, gen) == value

    identity = Correspondence.identity(pair)
    assert decided_and_transported(pair, pair)[0].is_isomorphic
    moved = pair.torus_translate(torus_element)
    verdict, status, scalars = decided_and_transported(pair, moved)
    assert verdict.is_isomorphic
    assert status == "solved"
    assert_swapped_agrees(pair, moved, None, verdict, status)
    assert_edge_rows_carried(pair, moved, identity)
    scaling = edge_scaling_character(pair, scalars).values
    for value, scale, value2 in zip(
        marked_period(pair).values, scaling, marked_period(moved).values, strict=True
    ):
        assert value * scale == value2

    sigma = data.draw(st.permutations(range(pair.fan.n_rays)))
    corr = Correspondence(tuple(enumerate(sigma)), tuple(range(len(pair.program))))
    other = relabelled(pair, sigma)
    verdict, status, _ = decided_and_transported(pair, other, corr)
    assert verdict.is_isomorphic
    transcript = verdict.certificate["period_transcript"]
    assert [value for _, value in transcript] == [str(v) for v in unmarked.values]
    assert status == "solved"
    assert_edge_rows_carried(pair, other, corr)

    # The pair against itself through a drawn permutation of its steps: a
    # structural verdict, or both get past step (iii).  A curve's
    # exceptional class meets a toric class, which a point's meets in 0, so
    # moving the curve step changes the cubic form.
    tau = data.draw(st.permutations(range(len(pair.program))))
    corr = Correspondence(Correspondence.identity(pair).vertex_map, tuple(tau))
    verdict, status, _ = decided_and_transported(pair, pair, corr)
    if any(tau[k] != k for k, step in enumerate(pair.program) if isinstance(step, CurveBlowup)):
        assert verdict.certificate["check"] == "cubic_form"
    else:
        assert verdict.certificate["check"] in ("step_place", "period", "complete")
    assert_swapped_agrees(pair, pair, corr, verdict, status)

    # An explicit map of a drawn component that fixes its toric classes and
    # shuffles its exceptional ones: an isometry, which moves an edge
    # exactly when a class goes to one on another edge.  The component is
    # drawn among those with two exceptional classes or more, if any.
    several = [v for v, comp in sorted(pair.components.items()) if len(comp.excs) > 1]
    v = data.draw(st.sampled_from(several or sorted(pair.components)))
    comp = pair.components[v]
    base = comp.base.rank
    order = data.draw(st.permutations(range(base, comp.rank)))
    shuffle = IntMatrix.from_columns(comp.rank, [[(i, 1)] for i in [*range(base), *order]])
    corr = Correspondence(identity.vertex_map, identity.step_map, None, ((v, shuffle),))
    check = decided_and_transported(pair, pair, corr)[0].certificate["check"]
    moves = any(
        comp.excs[i - base].neighbor != comp.excs[j - base].neighbor
        for i, j in enumerate(order, base)
    )
    if moves:
        assert check == "component_edges"
    else:
        assert check in ("period", "complete")
        assert_edge_rows_carried(pair, pair, corr)
    missing = Correspondence(corr.vertex_map, corr.step_map, None, ((pair.fan.n_rays, shuffle),))
    for function in (decide_isomorphism, marking_transporter):
        with pytest.raises(CorrespondenceError, match="^mu_components: vertex"):
            function(pair, pair, missing)

    # The identity mu with the exceptional columns of two drawn point steps
    # swapped keeps the cubic form, as a point's exceptional class meets
    # only itself, but not the exceptional classes: the later step fails.
    points = [k for k, step in enumerate(pair.program) if isinstance(step, PointBlowup)]
    if len(points) > 1:
        steps = st.sampled_from(points)
        i, j = sorted(data.draw(st.lists(steps, min_size=2, max_size=2, unique=True)))
        columns = [[(a, 1)] for a in range(pair.pic_rank)]
        e_i, e_j = pair.exceptional_index(i), pair.exceptional_index(j)
        columns[e_i], columns[e_j] = columns[e_j], columns[e_i]
        mu = IntMatrix.from_columns(pair.pic_rank, columns)
        corr = Correspondence(identity.vertex_map, identity.step_map, mu)
        verdict = decided_and_transported(pair, pair, corr)[0]
        assert verdict.certificate == {"check": "exceptional_match", "steps": (j, j)}

    # A drawn point step's coordinate moved by 3/2: a period verdict, or a
    # translate.
    if not points:
        return
    k = data.draw(st.sampled_from(points))
    program = list(pair.program)
    step = program[k]
    program[k] = PointBlowup(step.edge, step.coordinate * GaussianRational.parse("3/2"))
    try:
        other = LogCY3Pair.build(fan, program, [tuple(e) for e in pair.complex.edges])
    except PairError:
        return  # the moved point met another on its edge
    verdict, status, _ = decided_and_transported(pair, other)
    assert_swapped_agrees(pair, other, None, verdict, status)
    check = verdict.certificate["check"]
    assert check in ("period", "complete")
    if check == "period":
        witness = verdict.certificate["witness"]
        image = verdict.certificate["witness_image"]
        assert not any(edge_matching_map(pair).apply(witness))
        assert not any(edge_matching_map(other).apply(image))
        values = (
            evaluate_boundary_character(pair, pair.markers(), witness),
            evaluate_boundary_character(other, other.markers(), image),
        )
        assert values[0] != values[1]
        assert tuple(map(str, values)) == verdict.certificate["values"]


@settings(max_examples=30, deadline=None)
@given(random_cases(), st.data())
def test_random_character_tables(case, data):
    fan, program, _, _, _ = case
    pair = LogCY3Pair.build(fan, program)
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
    pair = LogCY3Pair.build(fan, program)
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


def torus_solve_status(pair, other):
    """The outcome of solving for a torus element ``t`` with
    ``t ** m_k == q2_k / q_k`` on every point step ``k``.

    ``q_k`` and ``q2_k`` are the two programs' coordinates of step k and
    ``m_k`` is the reference character of its edge, as
    ``LogCY3Pair.torus_translate`` scales a coordinate: one column per
    step, three unknowns, no lattice.
    """
    columns, ratios = [], {}
    for k, (step, step2) in enumerate(zip(pair.program, other.program, strict=True)):
        m = edge_reference_character(pair.fan, pair.complex, step.edge)
        columns.append([(i, x) for i, x in enumerate(m) if x])
        ratios[k] = step2.coordinate / step.coordinate
    dec = snf(IntMatrix.from_columns(3, columns))
    return dec.solve_over_gaussian_torus(SparseCharacter(ratios))[0]


def step_v_against_the_torus_solve(pair, torus_element, k=None):
    """Decide's check and the torus solve's status for ``pair`` against its
    torus translate, with step ``k`` of the translate, modulo the program's
    length, multiplied by 5 unless ``k`` is None; ``period`` exactly when
    the solve finds no solution."""
    moved = list(pair.torus_translate(torus_element).program)
    if k is not None and moved:
        k %= len(moved)
        moved[k] = PointBlowup(moved[k].edge, moved[k].coordinate * 5)
    other = LogCY3Pair.build(pair.fan, moved, [tuple(e) for e in pair.complex.edges])
    check = decide_isomorphism(pair, other).certificate["check"]
    status = torus_solve_status(pair, other)
    assert check in ("complete", "period")
    assert (check == "period") == (status == "unsolvable")
    return check, status


def test_step_v_is_the_torus_solve_on_point_programs():
    # A drawn point program against its torus translate, with, in every
    # other draw, one coordinate of the translate multiplied by 5.  No two
    # coordinates on an edge can then agree: a drawn coordinate q has
    # 1 <= |q| <= 3 * 2 ** 0.5 < 5.
    outcomes = []

    @settings(
        max_examples=300,
        deadline=None,
        database=None,
        phases=(Phase.generate,),
        suppress_health_check=list(HealthCheck),
    )
    @given(point_cases())
    def compare(case):
        fan, program, torus_element, k = case
        pair = LogCY3Pair.build(fan, program)
        outcomes.append(
            step_v_against_the_torus_solve(pair, torus_element, k if len(outcomes) % 2 else None)
        )

    compare()
    assert len(outcomes) == 300
    assert sum(check == "period" for check, _ in outcomes) >= 50
    assert ("complete", "complex_only") in outcomes


def test_step_v_is_the_torus_solve_on_the_family_and_the_bundled_point_pairs():
    # The family's coordinates lie on distinct walls, one on each, and
    # p3-point has a single step, so a coordinate moved by 5 meets no other.
    pairs = [LogCY3Pair.build(*family(rays)) for rays in (20, 60)]
    pairs += [
        pair
        for pair in pair_fixtures().values()
        if all(isinstance(step, PointBlowup) for step in pair.program)
    ]
    outcomes = [
        step_v_against_the_torus_solve(pair, TRANSLATION, k) for pair in pairs for k in (None, 0)
    ]
    assert outcomes[:4] == [("complete", "solved"), ("period", "unsolvable")] * 2
    assert set(outcomes) == {("complete", "solved"), ("period", "unsolvable")}

"""The random pairs the property tests and ``tests/differential.py`` draw.

:func:`random_cases` draws a subdivided fan, a point program with at times
a curve step after it, a wall, a cone and a torus element, and
:func:`point_cases` a fan and point program drawn alike, with a torus
element and a step index;
:func:`solved_curve_step` solves a curve's points so that its period is one.

``tests/differential.py`` imports this module against an older commit's
``src/`` too, so it imports only names that ``src/`` has had since that
tool was added: the classes and functions imported below, and the methods
of the pairs, components and star surfaces that it calls.
"""

import random

from hypothesis import strategies as st

from logcy3.fixtures import projective_space_fan, triple_line_fan
from logcy3.gaussian import GaussianRational, power_product, product
from logcy3.pair import CurveBlowup, LogCY3Pair, PointBlowup
from logcy3.toric import star_subdivide

BASES = (projective_space_fan(), triple_line_fan())

coordinates = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-3, 3)
).filter(lambda q: not q.is_zero())
# The values of ``coordinates``, for the torus elements.
GRID = [GaussianRational(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b]


def ladder_fans(base, sizes, seed):
    """Star subdivisions of ``base`` at seeded cones and walls, one per size."""
    rng = random.Random(seed)
    fan, out = base, []
    for size in sizes:
        while fan.n_rays < size:
            if rng.random() < 0.5:
                target = rng.choice(fan.max_cones)
            else:
                target = sorted(rng.choice(sorted(fan.walls(), key=sorted)))
            fan = star_subdivide(fan, target)
        out.append(fan)
    return out


def reference_degree_on_ray(base, vec, i):
    """A class's degree on D_i, every basis ray paired with D_i."""
    return sum(
        x * base.pairing(b, i) for x, b in zip(vec, base.basis_indices, strict=True)
    )


def reference_edge_degree(comp, vec, w):
    """A class's degree on the edge toward w: its ray's degree plus the
    coefficients of the exceptional classes on that edge."""
    vt, ve = comp.split(vec)
    ray = comp.base.labels.index(w)
    return reference_degree_on_ray(comp.base, vt, ray) + sum(
        c for c, exc in zip(ve, comp.excs) if exc.neighbor == w
    )


def solved_curve_step(pair, v, curve, start):
    """A curve step in component v of ``pair`` whose period is one.

    The points on each met edge are ``start + 7 w + t``.  At the markers a
    toric class has the value 1 and a point q, seen from the component w
    it is added to, the value -q when w is the head of the edge and -1/q
    otherwise; an exceptional class of v takes its value from v's side.
    The last point is solved so that the curve's period is one.
    """
    comp = pair.components[v]
    points = {
        w: [GaussianRational(start + 7 * w + t) for t in range(d)]
        for w in comp.neighbors
        if (d := reference_edge_degree(comp, curve, w))
    }

    def value(side, other, q):
        head = pair.complex.directed_edge(side, other)[1] == side
        return -q if head else -q.inverse()

    own = power_product(
        [value(v, exc.neighbor, exc.coordinate) for exc in comp.excs],
        curve[comp.base.rank:],
    )
    last = max(points)
    period = own * product(value(w, v, q) for w, qs in points.items() for q in qs)
    target = value(last, v, points[last][-1]) / period
    head = pair.complex.directed_edge(v, last)[1] == last
    points[last][-1] = -target if head else (-target).inverse()
    return CurveBlowup(v, curve, tuple((w, tuple(qs)) for w, qs in points.items()))


def drawn_curve_step(fan, program, rng):
    """A curve after ``program``, in a component drawn by ``rng``.

    Its class is that of a ray of nonnegative square in the component's
    star surface, drawn among such rays, and a general member of the class
    is a smooth rational curve; its points start at 101, off the drawn
    coordinates, and are solved so that its period is one.
    """
    pair = LogCY3Pair.build(fan, program)
    rays = {}
    for comp in pair.boundary_components():
        for ray in range(comp.base.n_rays):
            if comp.base.self_intersection(ray) >= 0:
                rays.setdefault(comp.vertex, []).append(ray)
    v = rng.choice(sorted(rays))
    comp = pair.components[v]
    curve = comp.base.ray_class(rng.choice(rays[v])) + (0,) * len(comp.excs)
    return solved_curve_step(pair, v, curve, 101)


def _point_program(draw, min_walls=0):
    """A subdivided fan, its sorted walls and a point program on them.

    The program's walls are drawn first, ``min_walls`` to five of them, then
    one or two distinct coordinates on each, then the order of the steps, so
    every drawn point program builds; a program with no wall is the toric
    pair of the subdivided fan.
    """
    base = draw(st.sampled_from(BASES))
    size = draw(st.integers(base.n_rays, 16))
    fan = ladder_fans(base, (size,), draw(st.integers(0, 2**16)))[0]
    walls = sorted(tuple(sorted(wall)) for wall in fan.walls())
    wall_sets = st.lists(st.sampled_from(walls), min_size=min_walls, max_size=5, unique=True)
    steps = [
        PointBlowup(wall, q)
        for wall in draw(wall_sets)
        for q in draw(st.lists(coordinates, min_size=1, max_size=2, unique=True))
    ]
    return fan, walls, draw(st.permutations(steps))


@st.composite
def random_cases(draw):
    """A subdivided fan, a program, a wall, a cone and a torus element.

    The point program is drawn as :func:`_point_program` draws it.  In
    about one draw in three a curve step follows
    (:func:`drawn_curve_step`).  Whether it does, where, and the wall, cone
    and torus element come from one drawn random generator: the last three
    are not in the pair's document, and hypothesis, which varies the parts
    of a case drawn alike, would otherwise repeat the document of a case
    with only them changed.
    """
    fan, walls, program = _point_program(draw)
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 1 / 3:
        program.append(drawn_curve_step(fan, program, rng))
    wall = rng.choice(walls)
    cone = rng.choice(fan.max_cones)
    torus_element = tuple(rng.choice(GRID) for _ in range(3))
    return fan, program, wall, cone, torus_element


@st.composite
def point_cases(draw):
    """A subdivided fan, a point program of at least one step, a torus
    element and a step index in 0..15, the program drawn as
    :func:`random_cases` draws its points.

    The last two come from one drawn random generator, for the reason
    :func:`random_cases` gives.
    """
    fan, _, program = _point_program(draw, 1)
    rng = draw(st.randoms(use_true_random=True))
    return fan, program, tuple(rng.choice(GRID) for _ in range(3)), rng.randint(0, 15)

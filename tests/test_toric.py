"""Tests for smooth complete fans, triple intersections, and chart characters."""

import math
import random
from functools import cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3 import documents
from logcy3.gaussian import MINUS_ONE, held_property
from logcy3.fixtures import projective_space_fan, toric_fixture_fans, triple_line_fan
from logcy3 import toric
from logcy3.pair import LogCY3Pair, PairError
from logcy3.periods import marked_period, quotient_character, unmarked_period
from logcy3.toric import (
    DualComplex,
    Fan2,
    Fan3,
    FanError,
    ToricPicBasis,
    TripleIntersection,
    ToricIntersectionData,
    canonical_form,
    edge_reference_character,
    fan_isomorphism,
    star_subdivide,
    star_surface,
    toric_layer,
    toric_model_map,
    validate_fan,
)
from logcy3.torelli import decide_isomorphism

from random_draws import random_cases
from stage_harness import family
from test_pair import ALIAS_FANS, fresh_copy


@pytest.fixture
def p3():
    return projective_space_fan()


def reference_walls(fan):
    """Each wall's apexes, one list entry per max cone on it."""
    flanks = {}
    for cone in fan.max_cones:
        for k in range(3):
            wall = frozenset((cone[k], cone[(k + 1) % 3]))
            flanks.setdefault(wall, []).append(cone[(k + 2) % 3])
    return flanks


def reference_link(fan, v):
    """The link of v traced over oriented_triangle, one call per cone at v."""
    succ = {}
    count = 0
    for cone in fan.max_cones:
        if v not in cone:
            continue
        count += 1
        tri = fan.oriented_triangle(cone)
        i = tri.index(v)
        a, b = tri[(i + 1) % 3], tri[(i + 2) % 3]
        if a in succ:
            return None
        succ[a] = b
    if not succ or len(succ) != count:
        return None
    start = next(iter(succ))
    cycle = [start]
    cur = succ[start]
    while cur != start:
        if cur not in succ or len(cycle) > len(succ):
            return None
        cycle.append(cur)
        cur = succ[cur]
    if len(cycle) != len(succ):
        return None
    return tuple(cycle)


def reference_winding(fan, v, cycle):
    """How often the link of v winds around n_v, from the angles between
    consecutive link rays seen along n_v, in floating point."""
    n = fan.rays[v]
    nn = sum(x * x for x in n)

    def across(r):
        # r projected onto the plane orthogonal to n, scaled by n . n
        rn = sum(x * y for x, y in zip(r, n))
        return [x * nn - y * rn for x, y in zip(r, n)]

    points = [across(fan.rays[w]) for w in cycle]
    total = 0.0
    for p, q in zip(points, points[1:] + points[:1]):
        cross = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
        sine = sum(c * x for c, x in zip(cross, n)) / math.sqrt(nn)
        total += math.atan2(sine, sum(a * b for a, b in zip(p, q)))
    return abs(round(total / (2 * math.pi)))


def reference_diagnose_fan(fan):
    """The fan check with nothing held but the global sign: the reference."""
    n = fan.n_rays
    seen = set()
    for i, ray in enumerate(fan.rays):
        if ray == (0, 0, 0) or gcd(*ray) != 1:
            return f"non-primitive ray {i}: {ray}"
        if ray in seen:
            return f"duplicate ray {i}: {ray}"
        seen.add(ray)
    if not fan.max_cones:
        return "fan has no max cones"
    used = set()
    for cone in fan.max_cones:
        if len(cone) != 3 or len(set(cone)) != 3 or any(i < 0 or i >= n for i in cone):
            return f"bad cone {cone}"
        if abs(toric._det3(*(fan.rays[i] for i in cone))) != 1:
            return f"non-smooth cone {cone}"
        used.update(cone)
    if used != set(range(n)):
        return "unused ray"
    if len({frozenset(c) for c in fan.max_cones}) != len(fan.max_cones):
        return "duplicate max cone"
    flanks = reference_walls(fan)
    for wall, apexes in flanks.items():
        if len(apexes) != 2:
            return f"wall with {'one' if len(apexes) == 1 else len(apexes)} incident cone(s): {sorted(wall)}"
    euler = n - len(flanks) + len(fan.max_cones)
    if euler != 2:
        return f"dual complex has Euler characteristic {euler}, expected 2"
    for v in range(n):
        if reference_link(fan, v) is None:
            return f"link of vertex {v} is not a cycle"
    directed = set()
    for cone in fan.max_cones:
        a, b, c = fan.oriented_triangle(cone)
        for e in ((a, b), (b, c), (c, a)):
            if e in directed:
                return f"incoherent orientation at edge {e}"
            directed.add(e)
    for e in directed:
        if (e[1], e[0]) not in directed:
            return f"incoherent orientation at edge {e}"
    for v in range(n):
        winding = reference_winding(fan, v, reference_link(fan, v))
        if winding != 1:
            return f"link of vertex {v} winds {winding} times around its ray"
    return None


def wound_sphere_fan():
    """Two apexes over an 8-cycle that goes twice around the z-axis: every
    cone is unimodular, every wall lies in two cones and every link is a
    cycle, but the cones cover the sphere twice."""
    cycle = [(x, y, h) for h in (0, 1) for x, y in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    cones = [(apex, 2 + i, 2 + (i + 1) % 8) for apex in (0, 1) for i in range(8)]
    return Fan3([(0, 0, 1), (0, 0, -1)] + cycle, cones)


def wound_at_one_ray_fan():
    """Seven rays and ten cones, met in a random corruption of a fixture
    fan: only the link of vertex 1 winds twice."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 0, 0), (-1, 1, 1), (1, -2, -2)]
    cones = [
        (4, 1, 2), (4, 1, 3), (4, 2, 3), (0, 2, 3), (1, 0, 3),
        (5, 2, 0), (1, 5, 0), (6, 2, 5), (1, 6, 5), (1, 2, 6),
    ]
    return Fan3(rays, cones)


def disjoint_spheres_fan():
    """The fan of P^3 and its negative, side by side: two spheres."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return Fan3(
        rays + [tuple(-x for x in r) for r in rays],
        cones + [tuple(i + 4 for i in c) for c in cones],
    )


def pinched_sphere_fan():
    """P^3 and a second sphere through vertices 0 and 1 and the wall between
    them: the link of vertex 0 is two cycles."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, -1), (-2, -2, 1), (1, 1, 0)]
    cones = [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (6, 1, 4),
        (0, 6, 4), (6, 1, 5), (0, 6, 5), (0, 4, 5), (1, 4, 5),
    ]
    return Fan3(rays, cones)


def doubled_spheres_fan():
    """Two disjoint spheres with four cones listed twice: every successor
    table is one cycle and 2n - cones == 4, but keys repeat."""
    fan = disjoint_spheres_fan()
    return Fan3(fan.rays, fan.max_cones + fan.max_cones[:4])


NOT_SPHERES = {
    "wound": (wound_sphere_fan, "link of vertex 0 winds 2 times around its ray"),
    "wound-at-one-ray": (wound_at_one_ray_fan, "link of vertex 1 winds 2 times around its ray"),
    "disjoint": (disjoint_spheres_fan, "dual complex has Euler characteristic 4, expected 2"),
    "pinched": (pinched_sphere_fan, "link of vertex 0 is not a cycle"),
    "doubled": (doubled_spheres_fan, "duplicate max cone"),
}


def diagnosis(check, fan):
    """What ``check`` says of a fresh copy of ``fan``: a diagnostic or an error."""
    fresh = Fan3(fan.rays, fan.max_cones, fan.orientation)
    try:
        return "diagnostic", check(fresh)
    except (FanError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def broken_fans(fan, rng):
    """Named and seeded corruptions of a valid fan."""
    rays, cones, (tri, sign) = list(fan.rays), list(fan.max_cones), fan.orientation
    n = len(rays)
    off_cone = next(
        (
            (i, j, k)
            for i, j, k in combinations(range(n), 3)
            if toric._det3(rays[i], rays[j], rays[k])
            and frozenset((i, j, k)) not in fan.cone_set()
        ),
        None,
    )
    out = {
        "valid": fan,
        "reversed sign": Fan3(rays, cones, (tri, -sign)),
        "reordered reference": Fan3(rays, cones, ((tri[1], tri[0], tri[2]), sign)),
        "degenerate reference": Fan3(rays, cones, ((0, 0, 1), sign)),
        "unused ray": Fan3(rays + [(7, 5, 3)], cones),
        "duplicate cone": Fan3(rays, cones + [cones[-1][::-1]]),
        "negated ray": Fan3([tuple(-x for x in rays[0])] + rays[1:], cones),
        "missing cone": Fan3(rays, cones[:-1]),
    }
    if off_cone is not None:
        out["reference not a cone"] = Fan3(rays, cones, (off_cone, sign))
    for t in range(12):
        r, c = list(rays), list(cones)
        kind = rng.choice(("negate", "swap rays", "reindex", "drop", "double"))
        if kind == "negate":
            k = rng.randrange(n)
            r[k] = tuple(-x for x in r[k])
        elif kind == "swap rays":
            i, j = rng.sample(range(n), 2)
            r[i], r[j] = r[j], r[i]
        elif kind == "reindex":
            k = rng.randrange(len(c))
            cone = list(c[k])
            cone[rng.randrange(3)] = rng.randrange(-1, n + 1)
            c[k] = tuple(cone)
        elif kind == "drop":
            del c[rng.randrange(len(c))]
        else:
            c.append(tuple(rng.sample(c[rng.randrange(len(c))], 3)))
        orientation = (tri, sign) if frozenset(tri) in map(frozenset, c) else None
        out[f"{kind} {t}"] = Fan3(r, c, orientation)
    return out


def folded_fans(fan, rng):
    """Corruptions that a fan's successor tables alone would misname.

    The ordered checks name the first fault of each; the successor tables
    see only a repeated key or a walk that is no cycle.
    """
    rays, cones, (tri, sign) = list(fan.rays), list(fan.max_cones), fan.orientation
    k = rng.randrange(len(cones))
    a, b, c = cones[k]
    # The other cone on the wall (a, b), and the fan without both.
    j, other = next((j, o) for j, o in enumerate(cones) if j != k and {a, b} < set(o))
    d = next(i for i in other if i not in (a, b))
    both_gone = [cone for i, cone in enumerate(cones) if i not in (j, k)]
    # n_d + n_a lies on d's side of the wall: the cone (a, b, d + a) orients
    # the wall as (a, b, d) does.
    fold = tuple(x + y for x, y in zip(rays[d], rays[a]))
    folded_rays = rays if fold in rays else rays + [fold]
    folded = cones[:k] + [(a, b, folded_rays.index(fold))] + cones[k + 1:]
    third = next(
        (
            x
            for x in rng.sample(range(len(rays)), len(rays))
            if abs(toric._det3(rays[a], rays[b], rays[x])) == 1
            and frozenset((a, b, x)) not in fan.cone_set()
        ),
        c,
    )
    off_cone = next(
        (
            t
            for t in combinations(rng.sample(range(len(rays)), len(rays)), 3)
            if toric._det3(*(rays[i] for i in t)) and frozenset(t) not in fan.cone_set()
        )
    )
    # The first four fail a cone or wall check before the datum is read.
    return {
        "cone reversed": Fan3(folded_rays, folded, (tri, sign)),
        "duplicate across a wall": Fan3(rays, cones[:k] + [other] + cones[k + 1:], (tri, sign)),
        "third cone on a wall": Fan3(rays, cones + [(a, b, third)], (tri, sign)),
        "wall without cones": Fan3(rays, both_gone, (tri, sign)),
        "reference not a cone": Fan3(rays, cones, (off_cone, sign)),
        "degenerate reference, one-cone wall": Fan3(rays, cones[:k] + cones[k + 1:], ((a, a, b), sign)),
        "reference not a cone, one-cone wall": Fan3(rays, cones[:k] + cones[k + 1:], (off_cone, sign)),
    }


@cache
def family_fan(rays):
    return family(rays)[0]


@pytest.fixture
def p111():
    return triple_line_fan()


class TestValidation:
    def test_fixtures_are_valid(self):
        for fan in toric_fixture_fans().values():
            assert validate_fan(fan) is None

    def test_non_primitive_ray_rejected(self, p3):
        bad = Fan3([(2, 0, 0)] + list(p3.rays[1:]), p3.max_cones)
        assert "non-primitive" in validate_fan(bad)

    def test_missing_cone_rejected(self, p3):
        bad = Fan3(p3.rays, p3.max_cones[:-1])
        assert "wall with one incident" in validate_fan(bad)

    def test_singular_cone_rejected(self):
        rays = [(1, 0, 0), (0, 1, 0), (1, 1, 2), (-2, -2, -2)]
        bad = Fan3(rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert validate_fan(bad) is not None

    def test_duplicate_ray_rejected(self, p3):
        bad = Fan3(list(p3.rays) + [(1, 0, 0)], p3.max_cones)
        assert "duplicate" in validate_fan(bad)

    @pytest.mark.parametrize(
        "fan",
        list(toric_fixture_fans().values())
        + [
            star_subdivide(star_subdivide(projective_space_fan(), (0, 1, 2)), (0, 4)),
            star_subdivide(triple_line_fan(), (0, 2)),
        ],
        ids=lambda fan: f"{fan.n_rays}-rays",
    )
    def test_diagnostics_match_the_reference_check(self, fan):
        cases = broken_fans(fan, random.Random(fan.n_rays))
        said = {}
        for name, case in cases.items():
            said[name] = diagnosis(toric._diagnose_fan, case)
            assert said[name] == diagnosis(reference_diagnose_fan, case), name
        assert said["valid"] == said["reversed sign"] == ("diagnostic", None)
        assert said["unused ray"] == ("diagnostic", "unused ray")
        assert said["duplicate cone"] == ("diagnostic", "duplicate max cone")
        if "reference not a cone" in said:
            assert said["reference not a cone"] == (
                "FanError", "orientation reference is not a max cone"
            )
        assert said["degenerate reference"] == (
            "FanError", "degenerate orientation reference triangle"
        )
        if fan.n_rays == 4:
            assert said["negated ray"] == (
                "diagnostic", "link of vertex 1 is not a cycle"
            )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(12, 60), st.integers(0, 2**32 - 1), st.booleans())
    def test_refusals_match_the_reference_check(self, rays, seed, folded):
        # Corrupted family fans: the kinds of broken_fans, and faults whose
        # first diagnostic the successor tables alone would misname.
        fan, rng = family_fan(rays), random.Random(seed)
        cases = folded_fans(fan, rng) if folded else broken_fans(fan, rng)
        name = rng.choice(sorted(cases))
        said = diagnosis(toric._diagnose_fan, cases[name])
        assert said == diagnosis(reference_diagnose_fan, cases[name]), name

    @pytest.mark.parametrize("cone", [(1, 1, 2, 3), (0, 1, 2, 3), (1, 2)])
    def test_a_cone_not_of_three_entries_is_a_bad_cone(self, cone):
        # Three distinct vertices among four entries are still a bad cone.
        p3 = projective_space_fan()
        fan = Fan3(p3.rays, p3.max_cones[:-1] + (cone,))
        assert validate_fan(fan) == f"bad cone {cone}"
        assert diagnosis(reference_diagnose_fan, fan) == ("diagnostic", f"bad cone {cone}")

    @pytest.mark.parametrize("name", NOT_SPHERES)
    def test_a_complex_that_is_no_sphere_is_rejected(self, name):
        make, message = NOT_SPHERES[name]
        assert validate_fan(make()) == message
        assert diagnosis(reference_diagnose_fan, make()) == ("diagnostic", message)

    def test_a_wound_link_is_rejected_by_the_build(self):
        with pytest.raises(PairError, match="^invalid fan: link of vertex 0 winds 2 times"):
            LogCY3Pair.build(wound_sphere_fan())

    @pytest.mark.parametrize(
        "fan", toric_fixture_fans().values(), ids=lambda fan: f"{fan.n_rays}-rays"
    )
    def test_every_link_winds_once(self, fan):
        # The wall coefficients of a star surface with k rays sum to 3k - 12.
        for v in range(fan.n_rays):
            surface = star_surface(fan, v)
            assert sum(surface.wall_coefficients) == 3 * surface.n_rays - 12
            assert reference_winding(fan, v, surface.labels) == 1

    def test_validation_builds_the_star_surfaces_the_layer_reads(self, p111, monkeypatch):
        fan = Fan3(p111.rays, p111.max_cones, p111.orientation)
        assert validate_fan(fan) is None
        held = fan.__dict__["_surfaces"]
        for v, surface in enumerate(held):
            assert star_surface(fan, v) is surface
        # The toric layer and the intersection data build no surface of their own.
        built = []
        monkeypatch.setattr(Fan2, "__init__", lambda self, *args: built.append(args))
        toric_layer(fan)
        ToricIntersectionData.of_fan(fan)
        assert built == [] and fan.__dict__["_surfaces"] is held

    @pytest.mark.parametrize(
        "use",
        [TripleIntersection, lambda fan: star_surface(fan, 0), toric_layer, Fan3.dual_complex],
        ids=["triple-intersection", "star-surface", "toric-layer", "dual-complex"],
    )
    def test_public_functions_reject_an_invalid_fan(self, use):
        with pytest.raises(FanError, match="^link of vertex 0 winds 2 times around its ray$"):
            use(wound_sphere_fan())

    @pytest.mark.parametrize(
        "use", [toric_layer, ToricIntersectionData.of_fan], ids=["toric-layer", "intersection-data"]
    )
    def test_a_fan_without_rays_is_rejected_with_its_diagnostic(self, use):
        with pytest.raises(FanError, match="^fan has no max cones$"):
            use(Fan3([], []))

    def test_held_walls_cannot_be_changed(self, p111):
        walls = p111.walls()
        wall = next(iter(walls))
        with pytest.raises(TypeError):
            walls[wall] = (0,)
        with pytest.raises(TypeError):
            del walls[wall]
        assert walls[wall] == tuple(reference_walls(p111)[wall])
        with pytest.raises(AttributeError):
            walls[wall].append(0)
        assert p111.walls() is walls
        assert {w: list(a) for w, a in walls.items()} == reference_walls(p111)


class TestDualComplex:
    def test_euler_characteristic_is_spherical(self, p3, p111):
        for fan in (p3, p111):
            c = fan.dual_complex()
            assert len(c.vertices) - len(c.edges) + len(c.triangles) == 2

    def test_counts(self, p3, p111):
        c = p3.dual_complex()
        assert (len(c.vertices), len(c.edges), len(c.triangles)) == (4, 6, 4)
        c = p111.dual_complex()
        assert (len(c.vertices), len(c.edges), len(c.triangles)) == (6, 12, 8)

    def test_positive_triangle_orientation(self, p3):
        c = p3.dual_complex()
        for v, w in c.edges:
            t1 = c.positive_triangle(v, w)
            t2 = c.positive_triangle(w, v)
            assert t1 != t2
            assert {v, w} < set(t1) and {v, w} < set(t2)

    def test_positive_triangle_matches_a_scan_of_the_triangles(self, p3):
        def scan(complex_, v, w):
            for tri in complex_.triangles:
                for k in range(3):
                    if tri[k] == v and tri[(k + 1) % 3] == w:
                        return tri
            return None

        for fan in toric_fixture_fans().values():
            default = fan.dual_complex()
            flipped = [(w, v) for v, w in default.edges]
            for complex_ in (default, DualComplex.from_fan(fan, flipped)):
                for v, w in complex_.edges:
                    for edge in ((v, w), (w, v)):
                        expected = scan(complex_, *edge)
                        assert expected is not None
                        assert complex_.positive_triangle(*edge) == expected
        with pytest.raises(FanError, match=r"^directed edge \(0, 0\) not found$"):
            p3.dual_complex().positive_triangle(0, 0)

    def test_edge_orientations_must_cover_the_walls(self, p3):
        with pytest.raises(FanError, match="^edge orientation list does not match the walls$"):
            p3.dual_complex([(0, 1), (0, 2)])

    def test_no_edge_between_opposite_vertices(self, p111):
        with pytest.raises(FanError, match=r"^no edge between 0 and 1$"):
            p111.dual_complex().edge_index(0, 1)

    def test_custom_edge_orientations(self, p3):
        flipped = [(w, v) for v, w in p3.dual_complex().edges]
        c = DualComplex.from_fan(p3, edge_orientations=flipped)
        assert set(c.edges) == set(flipped)


class TestTripleIntersection:
    def test_projective_space_values(self, p3):
        table = TripleIntersection(p3)
        # Any three distinct rays span a cone: product 1.
        assert table.ray_triple(0, 1, 2) == 1
        assert table.ray_triple(0, 1, 3) == 1
        # All rays are linearly equivalent, so cubes agree.
        assert table.ray_triple(0, 0, 0) == 1
        assert table.ray_triple(0, 0, 1) == 1

    def test_split_threefold_values(self, p111):
        table = TripleIntersection(p111)
        # Opposite rays never share a cone.
        assert table.ray_triple(0, 1, 2) == 0
        # A divisor squared vanishes on a product factor of degree one.
        assert table.ray_triple(0, 0, 2) == 0
        assert table.ray_triple(0, 2, 4) == 1

    def test_symmetry(self, p3, p111):
        for fan in (p3, p111):
            n = fan.n_rays
            table = TripleIntersection(fan)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        value = table.ray_triple(i, j, k)
                        assert value == table.ray_triple(j, i, k)
                        assert value == table.ray_triple(k, j, i)

    def test_linear_equivalence_annihilated(self, p3, p111):
        # Sum_v <m, n_v> D_v is principal; its triple products all vanish.
        for fan in (p3, p111):
            table = TripleIntersection(fan)
            n = fan.n_rays
            for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                principal = tuple(
                    sum(mi * ri for mi, ri in zip(m, ray)) for ray in fan.rays
                )
                for j in range(n):
                    for k in range(n):
                        b = tuple(1 if x == j else 0 for x in range(n))
                        c = tuple(1 if x == k else 0 for x in range(n))
                        assert table.vector_triple(principal, b, c) == 0

    def test_anticanonical_cubes(self, p3, p111):
        basis = ToricPicBasis.of(p3)
        k = basis.to_ray_vector(basis.anticanonical())
        assert TripleIntersection(p3).vector_triple(k, k, k) == 64
        basis = ToricPicBasis.of(p111)
        k = basis.to_ray_vector(basis.anticanonical())
        assert TripleIntersection(p111).vector_triple(k, k, k) == 48

    def test_wall_relation(self, p111):
        # For a wall {i, k} with flanking rays p, q the relation
        # n_p + n_q = -a n_i - b n_k pins T(i,i,k) = a.
        table = TripleIntersection(p111)
        assert table.ray_triple(0, 0, 2) == 0
        data = ToricIntersectionData.of_fan(p111)
        for (a, b), (taa, tbb) in data.wall_curves.items():
            assert taa == table.ray_triple(b, b, a)
            assert tbb == table.ray_triple(a, a, b)


    def test_a_held_verdict_that_hides_a_fold_is_caught(self):
        # Both cones on the wall (0, 1) lie on one side of it, so the wall
        # relation gives the second apex coefficient +1.  Validation would
        # reject the fan; the verdict held here says it is valid.
        fan = Fan3([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)], [(0, 1, 2), (0, 1, 3)])
        object.__setattr__(fan, "_diagnostic", None)
        with pytest.raises(FanError, match=r"^broken wall relation at \[0, 1\]$"):
            TripleIntersection(fan).ray_triple(0, 0, 1)


class TestPicBasis:
    def test_ranks(self, p3, p111):
        assert ToricPicBasis.of(p3).rank == 1
        assert ToricPicBasis.of(p111).rank == 3

    def test_reduce_and_expand_round_trip(self, p111):
        basis = ToricPicBasis.of(p111)
        for v in range(p111.n_rays):
            cls = basis.ray_class(v)
            expanded = basis.to_ray_vector(cls)
            assert basis.reduce_ray_vector(expanded) == cls


def reference_pic_reduce(basis, coeffs):
    """The threefold's seed reduction, written out on its own: the reference."""
    out = {v: coeffs[v] for v in basis.basis_rays}
    for k, s in enumerate(basis.seed):
        c = coeffs[s]
        if c == 0:
            continue
        m = basis._dual[k]  # dual vector with <m, n_s> = 1, 0 on other seeds
        for v in basis.basis_rays:
            pairing = sum(m[t] * basis.fan.rays[v][t] for t in range(3))
            out[v] -= c * pairing
    return tuple(out[v] for v in basis.basis_rays)


def reference_surface_reduce(surface, coeffs):
    """A star surface's seed reduction, written out on its own: the reference."""
    u0, u1 = surface.rays[0], surface.rays[1]
    det = u0[0] * u1[1] - u0[1] * u1[0]
    if abs(det) != 1:
        raise FanError("seed rays do not form a lattice basis")
    # Dual basis vectors m0, m1 with <m_a, u_b> = delta.
    m0 = (u1[1] * det, -u1[0] * det)
    m1 = (-u0[1] * det, u0[0] * det)
    out = list(coeffs[2:])
    for c, m in ((coeffs[0], m0), (coeffs[1], m1)):
        if c:
            out = [
                x - c * (m[0] * u[0] + m[1] * u[1])
                for x, u in zip(out, surface.rays[2:])
            ]
    return tuple(out)


def unit(n, i):
    return [int(j == i) for j in range(n)]


class TestSeedReduction:
    """Both Picard bases reduce through one function; each old body is the reference."""

    @pytest.mark.parametrize("fan", ALIAS_FANS, ids=lambda fan: f"{fan.n_rays}-rays")
    def test_threefold_basis_matches_the_reference(self, fan):
        basis = ToricPicBasis.of(fan)
        n = fan.n_rays
        for v in range(n):
            assert basis.ray_class(v) == reference_pic_reduce(basis, unit(n, v))
        assert basis.anticanonical() == reference_pic_reduce(basis, [1] * n)

    @pytest.mark.parametrize("fan", ALIAS_FANS, ids=lambda fan: f"{fan.n_rays}-rays")
    def test_star_surfaces_match_the_reference(self, fan):
        for v in range(fan.n_rays):
            surface = star_surface(fan, v)
            k = surface.n_rays
            for i in range(k):
                assert surface.ray_class(i) == reference_surface_reduce(
                    surface, unit(k, i)
                )
            assert surface.anticanonical() == reference_surface_reduce(surface, [1] * k)

    def test_a_surface_seed_off_a_lattice_basis_is_rejected(self):
        # Every wall relation holds (with c = 0), but the rays are not primitive.
        surface = toric.Fan2(0, ((2, 0), (0, 2), (-2, 0), (0, -2)), (1, 2, 3, 4))
        with pytest.raises(FanError, match="seed rays do not form a lattice basis"):
            surface.ray_class(0)


def nonzero(vector):
    return tuple((i, x) for i, x in enumerate(vector) if x)


def assert_sparse_classes_are_the_ray_classes(fan):
    """Every ray's sparse class, on the threefold basis and on each star
    surface, is the nonzero entries of its dense class, seed rays included."""
    basis = ToricPicBasis.of(fan)
    assert basis.sparse_classes == tuple(nonzero(basis.ray_class(v)) for v in range(fan.n_rays))
    for v in range(fan.n_rays):
        surface = star_surface(fan, v)
        for i in range(surface.n_rays):
            expected = nonzero(surface.ray_class(i))
            assert surface.sparse_class(i) == expected


class TestSparseClasses:
    """The sparse classes decide and transport read, against ``ray_class``."""

    @pytest.mark.parametrize("name", sorted(toric_fixture_fans()))
    def test_bundled_fans(self, name):
        assert_sparse_classes_are_the_ray_classes(fresh_copy(toric_fixture_fans()[name]))

    @pytest.mark.parametrize("rays", [20, 60])
    def test_the_scaling_family(self, rays):
        assert_sparse_classes_are_the_ray_classes(fresh_copy(family(rays)[0]))

    @settings(max_examples=30, deadline=None)
    @given(random_cases())
    def test_random_fans(self, case):
        assert_sparse_classes_are_the_ray_classes(case[0])

    def test_only_the_seed_classes_are_held_on_a_surface(self, p111):
        surface = star_surface(fresh_copy(p111), 0)
        surface.sparse_class(2)
        assert "_seed_classes" not in vars(surface)
        surface.sparse_class(1)
        assert len(vars(surface)["_seed_classes"]) == 2


class TestStarSurface:
    def test_ray_counts(self, p3, p111):
        assert star_surface(p3, 0).n_rays == 3
        assert star_surface(p111, 0).n_rays == 4

    def test_projective_plane_intersections(self, p3):
        surface = star_surface(p3, 0)
        # Every boundary line of the plane has self-intersection 1.
        for i in range(3):
            assert surface.self_intersection(i) == 1
        assert surface.rank == 1

    def test_quadric_intersections(self, p111):
        surface = star_surface(p111, 0)
        for i in range(4):
            assert surface.self_intersection(i) == 0
        assert surface.rank == 2
        assert surface.pairing(0, 1) == 1

    def test_degree_matches_triple_intersection(self, p3, p111):
        # (D_w)|_{D_v} . (D_u)|_{D_v} = D_u . D_v . D_w for neighbors u, w.
        for fan in (p3, p111):
            table = TripleIntersection(fan)
            for v in range(fan.n_rays):
                surface = star_surface(fan, v)
                labels = surface.labels
                for i, u in enumerate(labels):
                    for j, w in enumerate(labels):
                        assert surface.pairing(i, j) == table.ray_triple(u, v, w)


class TestStarSubdivision:
    def test_results_are_valid(self, p3, p111):
        assert validate_fan(star_subdivide(p3, (0, 1, 2))) is None
        assert validate_fan(star_subdivide(p3, (0, 1))) is None
        assert validate_fan(star_subdivide(p111, (0, 2))) is None

    def test_cone_subdivision_counts(self, p3):
        sub = star_subdivide(p3, (0, 1, 2))
        assert sub.n_rays == 5
        assert len(sub.max_cones) == 6

    def test_wall_subdivision_counts(self, p3):
        sub = star_subdivide(p3, (0, 1))
        assert sub.n_rays == 5
        assert len(sub.max_cones) == 6

    def test_disjoint_subdivisions_commute(self, p111):
        a = star_subdivide(star_subdivide(p111, (0, 2, 4)), (1, 3, 5))
        b = star_subdivide(star_subdivide(p111, (1, 3, 5)), (0, 2, 4))
        assert canonical_form(a) == canonical_form(b)

    def test_missing_target_rejected(self, p3):
        with pytest.raises(FanError):
            star_subdivide(p3, (0, 1, 2, 3))


class TestFanIsomorphism:
    def test_self_isomorphism(self, p3, p111):
        for fan in (p3, p111):
            assert fan_isomorphism(fan, fan) is not None

    def test_relabeled_fan(self, p3):
        perm = [2, 3, 0, 1]
        rays = [p3.rays[perm.index(i)] for i in range(4)]
        cones = [tuple(sorted(perm[v] for v in cone)) for cone in p3.max_cones]
        relabeled = Fan3(rays, cones)
        assert fan_isomorphism(p3, relabeled) is not None

    def test_distinct_fans(self, p3, p111):
        assert fan_isomorphism(p3, p111) is None

    def test_subdivisions_with_the_same_counts_are_distinct(self, p3):
        # Both have 5 rays and 6 cones, so every frame is tried; the ray of
        # the cone subdivision lies in 3 cones, the wall's in 4.
        at_cone, at_wall = star_subdivide(p3, (0, 1, 2)), star_subdivide(p3, (0, 1))
        assert (at_cone.n_rays, len(at_cone.max_cones)) == (at_wall.n_rays, len(at_wall.max_cones))
        assert fan_isomorphism(at_cone, at_wall) is None


class TestToricModelMap:
    def test_identity_bijection(self):
        for fan in toric_fixture_fans().values():
            assert toric_model_map(fan, fan, lambda v: v) == (
                (1, 0, 0), (0, 1, 0), (0, 0, 1)
            )

    def test_recovers_a_unimodular_image(self):
        m = ((1, 2, 0), (0, 1, 0), (-1, 0, 1))  # determinant 1
        for fan in toric_fixture_fans().values():
            image = Fan3(
                [tuple(sum(m[r][c] * ray[c] for c in range(3)) for r in range(3))
                 for ray in fan.rays],
                fan.max_cones,
            )
            assert toric_model_map(fan, image, lambda v: v) == m
            assert fan_isomorphism(fan, image) is not None

    def test_wrong_bijection_has_no_map(self, p111):
        # Swapping x+ with y+ alone forces the swap of the x and y axes,
        # which sends x- to y-, not to its partner x-.
        swap = {0: 2, 2: 0}
        assert toric_model_map(p111, p111, lambda v: swap.get(v, v)) is None


class TestEdgeCharts:
    def test_marker_is_self_inverse(self, p3):
        # The marker -1 reads -1 in the tail chart of an edge, where a
        # coordinate is inverted.
        pair = LogCY3Pair.build(p3)
        v, w = pair.complex.edges[0]
        tail = pair.components[v]
        assert not tail.is_head(w)
        assert tail.side_coordinate(w, MINUS_ONE) == MINUS_ONE

    def test_reference_character_orthogonality(self, p3, p111):
        for fan in (p3, p111):
            complex_ = fan.dual_complex()
            for v, w in complex_.edges:
                m = edge_reference_character(fan, complex_, (v, w))
                for u in (v, w):
                    assert sum(a * b for a, b in zip(m, fan.rays[u])) == 0
                apex = next(
                    x
                    for x in complex_.positive_triangle(w, v)
                    if x not in (v, w)
                )
                pairing = sum(a * b for a, b in zip(m, fan.rays[apex]))
                assert pairing > 0


class TestIntersectionData:
    def test_round_trip_shape(self, p111):
        data = ToricIntersectionData.of_fan(p111)
        assert data.n_vertices == 6
        assert frozenset(map(frozenset, p111.max_cones)) == frozenset(
            map(frozenset, data.cones)
        )

    def test_self_intersection_lookup(self, p3):
        data = ToricIntersectionData.of_fan(p3)
        # A line inside a plane of the tetrahedral boundary has square 1.
        assert data.self_intersection_in(0, 1) == 1


# ---------------------------------------------------------------------------
# Values a fan derives, held once
# ---------------------------------------------------------------------------

HELD_ON_A_FAN = (
    "_cone_set", "_walls", "_link_pass", "_global_sign", "_cone_dets", "_oriented",
    "_links", "_dual_complex", "_diagnostic", "_frames", "_surfaces", "_picard_basis",
    "_toric_layer",
)
# What star_subdivide holds on its output from its construction.
SEEDED_BY_A_SUBDIVISION = ("_diagnostic", "_global_sign", "_cone_set")


def count_held_computations(monkeypatch, fan):
    """Count, by name, the held values of ``fan`` that are computed."""
    counts = dict.fromkeys(HELD_ON_A_FAN, 0)
    for name in HELD_ON_A_FAN:
        held = vars(Fan3)[name]

        def counted(instance, name=name, compute=held.compute):
            if instance is fan:
                counts[name] += 1
            return compute(instance)

        monkeypatch.setattr(held, "compute", counted)
    return counts


def read_everything(fan, program):
    """Validation, a build, the lattice read, a periods report and a self-decide."""
    assert validate_fan(fan) is None
    pair = LogCY3Pair.build(fan, program)
    pair.cubic_entries()
    marked_period(pair, pair.markers())
    unmarked_period(pair)
    quotient_character(pair)
    assert decide_isomorphism(pair, LogCY3Pair.build(fan, program)).is_isomorphic


class TestHeldValues:
    def test_a_fan_holds_what_it_derives_with_held_property(self):
        held = {name for name, value in vars(Fan3).items() if isinstance(value, held_property)}
        assert held == set(HELD_ON_A_FAN)

    def test_each_value_is_computed_at_most_once(self, monkeypatch):
        fan, program = family(20)
        fan = fresh_copy(fan)
        counts = count_held_computations(monkeypatch, fan)
        read_everything(fan, program)
        # Validation holds the determinants it reads; nothing computes them.
        # The wall map waits for a reader, and these stages have none.
        assert counts == {**dict.fromkeys(HELD_ON_A_FAN, 1), "_cone_dets": 0, "_walls": 0}

    def test_a_document_load_builds_no_wall_map_or_cone_set(self, monkeypatch):
        fan, program = family(20)
        text = documents.dumps(documents.pair_to_document(LogCY3Pair.build(fan, program)))
        passes = []
        trace = toric._trace_links
        monkeypatch.setattr(toric, "_trace_links", lambda fan: passes.append(fan) or trace(fan))
        pair, _ = documents.pair_from_document(documents.loads(text))
        held = vars(pair.fan)
        assert "_walls" not in held and "_cone_set" not in held
        assert passes == [pair.fan] and len(held["_links"]) == 20

    def test_a_subdivision_computes_none_of_the_values_it_holds(self, monkeypatch):
        parent, program = family(20)
        fan = star_subdivide(fresh_copy(parent), parent.max_cones[-1])
        counts = count_held_computations(monkeypatch, fan)
        read_everything(fan, program)
        assert all(counts[name] == 0 for name in SEEDED_BY_A_SUBDIVISION), counts
        assert max(counts.values()) == 1, counts

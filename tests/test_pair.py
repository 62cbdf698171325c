"""Tests for blowup-program pairs: cubic tensor, restriction, validation."""

import copy
import pickle
import random
import re
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from logcy3 import exactnum, toric
from logcy3 import pair as pair_module
from logcy3 import boundary
from logcy3.boundary import (
    ExceptionalClass,
    LooijengaComponent,
    Marking,
    adjunction_check,
    component_character_table,
    component_marked_period,
)
from logcy3.exactnum import (
    GaussianRational,
    I,
    IntMatrix,
    MINUS_ONE,
    kernel_basis,
    power_product,
    product,
    snf,
    solve_integer,
)
from logcy3.fixtures import (
    conic_program,
    pair_fixtures,
    projective_space_fan,
    toric_fixture_fans,
    triple_line_fan,
)
from logcy3.oracle import split_boundary_vector
from logcy3.pair import (
    CurveBlowup,
    LogCY3Pair,
    PairError,
    PointBlowup,
    validate_pair,
)
from logcy3.periods import quotient_character, unmarked_period
from logcy3.torelli import decide_isomorphism
from logcy3.toric import (
    DualComplex,
    Fan2,
    Fan3,
    ToricPicBasis,
    TripleIntersection,
    edge_reference_character,
    star_subdivide,
    star_surface,
    toric_layer,
)


@pytest.fixture(scope="module")
def pairs():
    return pair_fixtures()


def g(text):
    return GaussianRational.parse(text)


class TestBuild:
    def test_pic_ranks(self, pairs):
        assert pairs["p3"].pic_rank == 1
        assert pairs["p111"].pic_rank == 3
        assert pairs["p3-point"].pic_rank == 2
        assert pairs["p3-conic"].pic_rank == 2
        assert pairs["p3-mixed"].pic_rank == 4

    def test_component_ranks_track_blowups(self, pairs):
        # A point blowup on edge (0, 1) adds one class to each endpoint.
        assert [c.rank for c in pairs["p3-point"].boundary_components()] == [2, 2, 1, 1]
        # The conic meets edges toward 0, 1, 2 twice each.
        assert [c.rank for c in pairs["p3-conic"].boundary_components()] == [3, 3, 3, 1]

    def test_invalid_fan_rejected(self):
        from logcy3.toric import Fan3

        fan = projective_space_fan()
        bad = Fan3(fan.rays, fan.max_cones[:-1])
        with pytest.raises(PairError, match="invalid fan"):
            LogCY3Pair.build(bad)

    def test_validate_pair_reports(self):
        fan = projective_space_fan()
        assert validate_pair(fan) is None
        diag = validate_pair(fan, [PointBlowup((0, 1), g("0"))])
        assert diag is not None and "0-stratum" in diag

    def test_truncation_replays_prefix(self, pairs):
        pair = pairs["p3-mixed"]
        head = pair.truncated(1)
        assert head.pic_rank == 2
        assert head.program == pair.program[:1]


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


def dense_toric_layer(fan):
    """The toric layer the dense way: the reference for the closed forms.

    Every basis triple i <= j <= k goes through ``vector_triple``, and the
    restriction of each toric class to each component is solved from its
    degrees on the component's ray divisors, one SNF per component.
    """
    table = TripleIntersection(fan)
    basis = ToricPicBasis.of(fan)
    rank = basis.rank
    ray_vectors = [basis.to_ray_vector(_unit(rank, i)) for i in range(rank)]
    tensor = {}
    for i in range(rank):
        for j in range(i, rank):
            for k in range(j, rank):
                val = table.vector_triple(ray_vectors[i], ray_vectors[j], ray_vectors[k])
                if val:
                    tensor[(i, j, k)] = val
    restriction = [{} for _ in range(rank)]
    for v in range(fan.n_rays):
        base = star_surface(fan, v)
        degree_map = snf(
            IntMatrix(
                [
                    [base.pairing(b, i) for b in base.basis_indices]
                    for i in range(base.n_rays)
                ]
            )
        )
        edge_ray = _unit(fan.n_rays, v)
        wall_rays = [_unit(fan.n_rays, w) for w in base.labels]
        for images, ray_vector in zip(restriction, ray_vectors):
            degrees = [
                table.vector_triple(ray_vector, edge_ray, wall_ray)
                for wall_ray in wall_rays
            ]
            images[v] = tuple(degree_map.solve(degrees))
    canonical = tuple(-x for x in basis.anticanonical())
    return tensor, restriction, canonical


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


LAYER_FANS = list(toric_fixture_fans().values()) + [
    fan
    for seed, base in enumerate((projective_space_fan(), triple_line_fan()))
    for fan in ladder_fans(base, (8, 12, 16, 20), seed)
]


def fresh_copy(fan):
    """An equal fan that holds no derived data yet."""
    return Fan3(fan.rays, fan.max_cones, fan.orientation)


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_snf_calls(monkeypatch, calls):
    """Count ``snf`` calls in ``calls["snf"]``, in every module that binds it."""
    counted_snf = counting(calls, "snf", exactnum.snf)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "logcy3" and vars(module).get("snf") is exactnum.snf:
            monkeypatch.setattr(module, "snf", counted_snf)


def count_toric_calls(monkeypatch):
    """Count calls of snf, star_surface and TripleIntersection from now on."""
    calls = {"snf": 0, "star_surface": 0, "TripleIntersection": 0}
    count_snf_calls(monkeypatch, calls)
    monkeypatch.setattr(
        toric, "star_surface", counting(calls, "star_surface", toric.star_surface)
    )
    monkeypatch.setattr(
        TripleIntersection, "__init__",
        counting(calls, "TripleIntersection", TripleIntersection.__init__),
    )
    return calls


def counted_edges(calls):
    """``DualComplex.from_fan`` whose edge tuple counts the edges visited."""
    from_fan = DualComplex.from_fan

    class Edges(tuple):
        def __iter__(self):
            for edge in tuple.__iter__(self):
                calls["edges"] += 1
                yield edge

        def __getitem__(self, index):
            calls["edges"] += 1
            return tuple.__getitem__(self, index)

    def wrapper(fan, edge_orientations=None):
        complex_ = from_fan(fan, edge_orientations)
        object.__setattr__(complex_, "edges", Edges(complex_.edges))
        return complex_

    return wrapper


def point_program(fan, steps):
    walls = sorted(tuple(sorted(w)) for w in fan.walls())
    return [
        PointBlowup(walls[k % len(walls)], GaussianRational(k + 2, k % 3))
        for k in range(steps)
    ]


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
        if (d := comp.degree_on_edge(curve, w))
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


def curve_program(fan, edge_orientations, before, after):
    """Points, then a curve in the class of a ray divisor D with D.D >= 0.

    The curve lies in the first component (in vertex order) whose star
    surface has such a ray, after ``before`` point steps; a general
    member of the class is a smooth rational curve, and the adjunction and
    degree checks hold.  Its points are solved so that its period is one
    (:func:`solved_curve_step`).  Then ``after`` more points follow.
    """
    program = point_program(fan, before)
    pair = LogCY3Pair.build(fan, program, edge_orientations)
    v, ray = next(
        (comp.vertex, i)
        for comp in pair.boundary_components()
        for i in range(comp.base.n_rays)
        if comp.base.self_intersection(i) >= 0
    )
    comp = pair.components[v]
    curve = comp.base.ray_class(ray) + (0,) * len(comp.excs)
    step = solved_curve_step(pair, v, curve, 101 + 2 * len(comp.excs))
    return program + [step] + point_program(fan, before + after)[before:]


def through_point_program(fan, edge_orientations, before):
    """Points, then a curve D - E through one of them, or None.

    D is a ray divisor of nonnegative square with positive degree on the
    edge of an exceptional class E of its component, so D - E passes the
    adjunction and degree checks and has the coordinate -1 on E.
    """
    program = point_program(fan, before)
    pair = LogCY3Pair.build(fan, program, edge_orientations)
    for comp in pair.boundary_components():
        for ray in range(comp.base.n_rays):
            if comp.base.self_intersection(ray) < 0:
                continue
            divisor = comp.base.ray_class(ray) + (0,) * len(comp.excs)
            for j, exc in enumerate(comp.excs):
                if comp.degree_on_edge(divisor, exc.neighbor) > 0:
                    curve = list(divisor)
                    curve[comp.base.rank + j] = -1
                    step = solved_curve_step(pair, comp.vertex, tuple(curve), 301)
                    return program + [step]
    return None


def conic_ladder_fan(rays):
    """Projective space subdivided away from component 3, a plane throughout."""
    fan = projective_space_fan()
    while fan.n_rays < rays:
        cone = next(c for c in reversed(fan.max_cones) if 3 not in c)
        fan = star_subdivide(fan, cone)
    return fan


def conic_ladder(fan, steps):
    """``steps`` conics in component 3, each solved to period one."""
    program = []
    for k in range(steps):
        pair = LogCY3Pair.build(fan, program)
        program.append(solved_curve_step(pair, 3, (2,), 1000 * (k + 1)))
    return program


def moved_point(program):
    """The program with the first point of its first curve step moved."""
    k = next(k for k, step in enumerate(program) if isinstance(step, CurveBlowup))
    step = program[k]
    (w, coords), *rest = step.points
    moved = (w, (coords[0] + GaussianRational(1000),) + coords[1:])
    curve = CurveBlowup(step.component, step.curve_class, (moved, *rest))
    return program[:k] + [curve] + program[k + 1:]


def reference_degree_on_ray(base, vec, i):
    """A class's degree on D_i, every basis ray paired with D_i."""
    return sum(
        x * base.pairing(b, i) for x, b in zip(vec, base.basis_indices, strict=True)
    )


def reference_intersection(comp, a, b):
    """The intersection form summed ray by ray: O(rank**2) pairings."""
    at, ae = comp.split(a)
    bt, be = comp.split(b)
    toric = sum(
        x * reference_degree_on_ray(comp.base, bt, i)
        for x, i in zip(at, comp.base.basis_indices, strict=True)
    )
    return toric - sum(x * y for x, y in zip(ae, be))


class TableCheckedPair(LogCY3Pair):
    """Pairs whose curve steps run the table-based check, the reference.

    Each restriction image on the curve's component is padded to the
    component's rank and met with the curve by :func:`reference_intersection`;
    the period of the step's images is the product, over the components
    they name, of power products of each component's character table at
    the markers.
    """

    def _apply_curve(self, k, step):
        v = step.component
        if v not in self.components:
            raise PairError(f"step {k}: no component {v}")
        comp = self.components[v]
        curve = tuple(step.curve_class)
        if len(curve) != comp.rank:
            raise PairError(
                f"step {k}: curve class length {len(curve)} does not match "
                f"component rank {comp.rank}"
            )
        diag = adjunction_check(comp, curve)
        if diag is not None:
            raise PairError(f"step {k}: {diag}")
        declared = {w for w, _ in step.points}
        if not declared <= set(comp.neighbors):
            raise PairError(f"step {k}: points on a non-adjacent vertex")
        for w in comp.neighbors:
            coords = step.points_on(w)
            need = comp.degree_on_edge(curve, w)
            if len(coords) != need:
                raise PairError(
                    f"step {k}: {len(coords)} intersection points on edge "
                    f"toward {w}, class degree is {need}"
                )
            for q in coords:
                self._check_new_coordinate(k, v, w, q)
        e_index = self.toric_basis.rank + k
        k_dot_c = 0
        for a, images in enumerate(self._restriction):
            if v not in images:
                continue
            image = padded(images[v], comp.rank)
            a_dot_c = reference_intersection(comp, image, curve)
            if a_dot_c:
                self._tensor[(a, e_index, e_index)] = -a_dot_c
                k_dot_c += self.canonical[a] * a_dot_c
        # The tensor stores its nonzero entries only.
        if k_dot_c + 2:
            self._tensor[(e_index, e_index, e_index)] = k_dot_c + 2
        self.canonical = self.canonical + (1,)
        images = {v: curve}
        for w in comp.neighbors:
            coords = step.points_on(w)
            if not coords:
                continue
            old_rank = self.components[w].rank
            for q in coords:
                self.components[w] = self.components[w].with_exceptional(
                    ExceptionalClass(v, q, k)
                )
            images[w] = (0,) * old_rank + (1,) * len(coords)
        self._restriction.append(images)
        markers = Marking.markers(self.edge_keys())
        scalar = product(
            power_product(component_character_table(self.components[u], markers), image)
            for u, image in images.items()
        )
        if not scalar.is_one():
            raise PairError(
                f"step {k}: curve boundary data inconsistent with class "
                f"restriction (period obstruction {scalar})"
            )


def build_outcome(cls, fan, program, edges):
    """The diagnostic of a rejected build, else what the build computed."""
    try:
        pair = cls.build(fan, program, edges)
    except PairError as exc:
        return str(exc)
    return pair.cubic_entries(), pair._restriction, pair.canonical, pair.warnings


def snf_star_surface(fan, v):
    """The star surface projected by the SNF of n_v: the dual frame's reference."""
    dec = snf(IntMatrix([[x] for x in fan.rays[v]]))
    assert dec.factors == (1,)
    proj = dec.U.data[1:]
    cycle = toric._link_cycle(fan, v)
    rays = tuple(
        tuple(sum(r[t] * fan.rays[w][t] for t in range(3)) for r in proj)
        for w in cycle
    )
    return Fan2(v, rays, tuple(cycle))


def normal_class(fan, surface, m):
    """D_v restricted to D_v through D_v ~ -sum <m, n_w> D_w."""
    return surface.reduce_ray_vector(
        [-sum(x * y for x, y in zip(m, fan.rays[w])) for w in surface.labels]
    )


def kernel_reference_character(fan, complex_, edge):
    """The chart character as the signed kernel of the edge rays."""
    v, w = complex_.directed_edge(*edge)
    (m,) = kernel_basis(IntMatrix([fan.rays[v], fan.rays[w]]))
    apex = next(i for i in complex_.positive_triangle(w, v) if i not in (v, w))
    pairing = sum(m[t] * fan.rays[apex][t] for t in range(3))
    assert pairing != 0
    return tuple(m) if pairing > 0 else tuple(-x for x in m)


def padded(image, rank):
    """A stored restriction image read at a component's current rank."""
    return tuple(image) + (0,) * (rank - len(image))


def layer_snapshot(pair):
    """Copies of the parts of a pair that its toric layer seeds."""
    return (
        dict(pair._tensor),
        [dict(images) for images in pair._restriction],
        pair.canonical,
        pair.cubic_entries(),
        pair.restriction_matrix().data,
        {v: comp.head_sides for v, comp in pair.components.items()},
    )


def alias_builds(fan):
    """Point and curve programs, with the walls' and the reversed edges."""
    walls = sorted(tuple(sorted(w)) for w in fan.walls())
    reverse = [(b, a) for a, b in walls]
    return [
        (point_program(fan, 6), None),
        (curve_program(fan, None, 0, 0), None),
        (curve_program(fan, None, 5, 2), None),
        (point_program(fan, 4), reverse),
        (curve_program(fan, reverse, 3, 2), reverse),
    ]


ALIAS_FANS = list(toric_fixture_fans().values()) + [
    fan
    for seed, base in enumerate((projective_space_fan(), triple_line_fan()))
    for fan in ladder_fans(base, (8, 14, 20), seed + 7)
]


class TestToricLayer:
    @pytest.mark.parametrize(
        "fan",
        [pytest.param(fan, id=f"{fan.n_rays}-rays") for fan in LAYER_FANS]
        + [
            pytest.param(fan, id=f"alias-{fan.n_rays}-rays")
            for fan in ALIAS_FANS
            if fan not in LAYER_FANS
        ],
    )
    def test_closed_forms_match_the_dense_layer(self, fan):
        pair = LogCY3Pair.build(fan)
        tensor, restriction, canonical = dense_toric_layer(fan)
        assert pair._tensor == tensor
        # Only nonzero images are stored, so a stored zero image fails too.
        assert pair._restriction == [
            {v: image for v, image in images.items() if any(image)}
            for images in restriction
        ]
        assert pair.canonical == canonical

    def test_build_makes_no_dense_triple_and_few_snf_calls(self, monkeypatch):
        calls = {"snf": 0, "vector_triple": 0}
        count_snf_calls(monkeypatch, calls)
        monkeypatch.setattr(
            TripleIntersection, "vector_triple",
            counting(calls, "vector_triple", TripleIntersection.vector_triple),
        )
        # A fresh copy of the fan, so that this is a first build on it.
        fan = fresh_copy(LAYER_FANS[-1])
        assert fan.n_rays == 20
        LogCY3Pair.build(fan)
        assert calls == {"snf": 0, "vector_triple": 0}

    def test_program_free_builds_share_the_held_complex(self):
        fan = fresh_copy(LAYER_FANS[-1])
        first, second = LogCY3Pair.build(fan), LogCY3Pair.build(fan)
        assert first.complex is second.complex
        walls = [tuple(e) for e in first.complex.edges]
        explicit = LogCY3Pair.build(fan, (), walls)
        assert explicit.complex is not first.complex
        assert explicit.complex == first.complex

    def test_translated_and_truncated_pairs_keep_the_complex(self):
        fan = fresh_copy(LAYER_FANS[-1])
        pair = LogCY3Pair.build(fan, point_program(fan, 6))
        assert pair.complex is fan.dual_complex()
        t = (g("2"), g("3"), I)
        for derived in (pair.torus_translate(t), pair.truncated(3)):
            assert derived.complex is pair.complex
        flipped = [(w, v) for v, w in pair.complex.edges]
        other = LogCY3Pair.build(fan, pair.program, flipped)
        for derived in (other.torus_translate(t), other.truncated(3)):
            assert derived.complex.edges == tuple(flipped)
            assert derived.complex is not other.complex

    def test_translations_compute_each_reference_character_once(self, monkeypatch):
        fan = fresh_copy(LAYER_FANS[-1])
        program = point_program(fan, 24)
        pair = LogCY3Pair.build(fan, program)
        calls = {"edge_reference_character": 0}
        monkeypatch.setattr(
            pair_module, "edge_reference_character",
            counting(calls, "edge_reference_character", edge_reference_character),
        )
        t = (g("2"), g("3"), I)
        first, second = pair.torus_translate(t), pair.torus_translate(t)
        assert calls["edge_reference_character"] == len(
            {frozenset(step.edge) for step in program}
        ) == 24
        monkeypatch.undo()
        again = LogCY3Pair.build(fresh_copy(fan), program).torus_translate(t)
        assert first.program == second.program == again.program

    def test_torus_translation_makes_no_snf_call(self, monkeypatch):
        fan = fresh_copy(LAYER_FANS[-1])
        pair = LogCY3Pair.build(fan, point_program(fan, 24))
        calls = {"snf": 0}
        count_snf_calls(monkeypatch, calls)
        moved = pair.torus_translate((g("2"), g("3"), I))
        assert calls == {"snf": 0}
        assert moved.program != pair.program

    @pytest.mark.parametrize("fan", LAYER_FANS, ids=lambda fan: f"{fan.n_rays}-rays")
    def test_dual_frames_match_the_elimination_values(self, fan):
        table = TripleIntersection(fan)
        for v in range(fan.n_rays):
            m = table.unit_character(v)
            solved = solve_integer(IntMatrix([fan.rays[v]]), (1,))
            assert sum(x * y for x, y in zip(m, fan.rays[v])) == 1
            surface, reference = star_surface(fan, v), snf_star_surface(fan, v)
            assert surface.labels == reference.labels
            # Both characters give D_v the same normal class on D_v.
            assert normal_class(fan, surface, m) == normal_class(
                fan, reference, solved
            )
            for i in range(surface.n_rays):
                assert surface.ray_class(i) == reference.ray_class(i)
                for j in range(surface.n_rays):
                    assert surface.pairing(i, j) == reference.pairing(i, j)
        walls = sorted(tuple(sorted(w)) for w in fan.walls())
        for edges in (walls, [(b, a) for a, b in walls]):
            complex_ = fan.dual_complex(edges)
            for v, w in edges:
                for edge in ((v, w), (w, v)):
                    assert edge_reference_character(
                        fan, complex_, edge
                    ) == kernel_reference_character(fan, complex_, edge)

    def test_second_build_on_a_fan_reads_the_held_layer(self, monkeypatch):
        ladder = fresh_copy(LAYER_FANS[-1])
        mixed = pair_fixtures()["p3-mixed"]
        programs = [
            (ladder, point_program(ladder, 12)),
            (mixed.fan, mixed.program),
        ]
        for fan, program in programs:
            LogCY3Pair.build(fan, program)
            calls = count_toric_calls(monkeypatch)
            pair = LogCY3Pair.build(fan, program)
            assert calls == {"snf": 0, "star_surface": 0, "TripleIntersection": 0}
            monkeypatch.undo()
            assert pair.cubic_entries() == LogCY3Pair.build(
                fresh_copy(fan), program
            ).cubic_entries()

    def test_first_build_is_linear_in_the_fan(self, monkeypatch):
        # Deterministic counts, not wall time: 2d wall relations solved by
        # the star surfaces and edges visited by edge lookups, in a first
        # build at 20 and 60 rays of projective space star-subdivided at its
        # last max cone.
        counts = {}
        for rays in (20, 60):
            fan = projective_space_fan()
            while fan.n_rays < rays:
                fan = star_subdivide(fan, fan.max_cones[-1])
            calls = {"_solve_wall_coefficient": 0, "edges": 0}
            monkeypatch.setattr(
                toric, "_solve_wall_coefficient",
                counting(
                    calls, "_solve_wall_coefficient", toric._solve_wall_coefficient
                ),
            )
            monkeypatch.setattr(
                DualComplex, "from_fan", staticmethod(counted_edges(calls))
            )
            LogCY3Pair.build(fresh_copy(fan))
            monkeypatch.undo()
            counts[rays] = calls
            # One solve per ray of each star surface: two per wall.
            assert calls["_solve_wall_coefficient"] == 2 * len(fan.walls())
        for name in ("_solve_wall_coefficient", "edges"):
            assert 0 < counts[60][name] <= 4 * counts[20][name], (name, counts)

    @pytest.mark.parametrize("rays", (12, 20))
    def test_first_build_reads_the_fan_once(self, monkeypatch, rays):
        # No TripleIntersection, one walls() computation, and one
        # determinant per max cone for validation and orientation: every
        # other determinant inverts a dual frame, plus one for the
        # orientation reference.
        fan = fresh_copy(next(fan for fan in LAYER_FANS if fan.n_rays == rays))
        calls = {
            "TripleIntersection": 0, "_compute_walls": 0,
            "_det3": 0, "_inverse_unimodular": 0,
        }
        monkeypatch.setattr(
            TripleIntersection, "__init__",
            counting(calls, "TripleIntersection", TripleIntersection.__init__),
        )
        monkeypatch.setattr(
            Fan3, "_compute_walls",
            counting(calls, "_compute_walls", Fan3._compute_walls),
        )
        for name in ("_det3", "_inverse_unimodular"):
            monkeypatch.setattr(
                toric, name, counting(calls, name, getattr(toric, name))
            )
        LogCY3Pair.build(fan, point_program(fan, 4))
        assert calls["TripleIntersection"] == 0
        assert calls["_compute_walls"] == 1
        assert calls["_det3"] - calls["_inverse_unimodular"] == (
            len(fan.max_cones) + 1
        )

    @pytest.mark.parametrize("rays", (12, 20))
    def test_first_build_makes_one_frame_and_one_link_per_vertex(
        self, monkeypatch, rays
    ):
        fan = next(fan for fan in LAYER_FANS if fan.n_rays == rays)
        calls = {"_dual_frame": 0, "_trace_link": 0}
        for name in calls:
            monkeypatch.setattr(
                toric, name, counting(calls, name, getattr(toric, name))
            )
        LogCY3Pair.build(fresh_copy(fan), point_program(fan, 4))
        assert calls == {"_dual_frame": rays, "_trace_link": rays}

    @pytest.mark.parametrize("fan", ALIAS_FANS, ids=lambda fan: f"{fan.n_rays}-rays")
    def test_builds_on_one_fan_do_not_share_what_they_change(self, fan):
        shared = fresh_copy(fan)
        builds = alias_builds(fan)
        pairs, held = [], []
        for program, edges in builds:
            pairs.append(LogCY3Pair.build(shared, program, edges))
            held.append(layer_snapshot(pairs[-1]))
        for (program, edges), pair, snapshot in zip(builds, pairs, held):
            assert layer_snapshot(pair) == snapshot
            fresh = LogCY3Pair.build(fresh_copy(fan), program, edges)
            assert layer_snapshot(fresh) == snapshot
        assert layer_snapshot(LogCY3Pair.build(shared)) == layer_snapshot(
            LogCY3Pair.build(fresh_copy(fan))
        )

    @pytest.mark.parametrize("fan", ALIAS_FANS, ids=lambda fan: f"{fan.n_rays}-rays")
    def test_builds_share_the_layer_images_and_store_no_zero(self, fan):
        shared = fresh_copy(fan)
        layer = toric_layer(shared)
        before = [dict(images) for images in layer.restriction]
        for program, edges in alias_builds(fan):
            pair = LogCY3Pair.build(shared, program, edges)
            assert all(a is b for a, b in zip(pair._restriction, layer.restriction))
            for images in pair._restriction:
                for v, image in images.items():
                    assert any(image)
                    assert len(image) <= pair.components[v].rank
        assert list(layer.restriction) == before

    def test_restriction_matrix_stacks_the_images(self, pairs):
        # Column a is class a's image on each component, padded to the
        # component's rank, in vertex order.
        for pair in pairs.values():
            columns = [
                tuple(
                    x
                    for v, comp in sorted(pair.components.items())
                    for x in padded(images.get(v, ()), comp.rank)
                )
                for images in pair._restriction
            ]
            matrix = pair.restriction_matrix()
            assert matrix.data == tuple(zip(*columns))
            assert [
                matrix.apply(_unit(pair.pic_rank, a)) for a in range(pair.pic_rank)
            ] == columns


def differential_builds(fan):
    """Point and curve programs on ``fan``, and each curve program moved.

    The curve programs solve their periods to one, some through an earlier
    point (a curve with a negative exceptional coordinate), with the
    walls' and the reversed edges; each has a copy with one intersection
    point moved, whose period is not one.
    """
    walls = sorted(tuple(sorted(w)) for w in fan.walls())
    reverse = [(b, a) for a, b in walls]
    builds = alias_builds(fan)
    for edges, before in ((None, 5), (reverse, 3)):
        program = through_point_program(fan, edges, before)
        if program is not None:
            builds.append((program, edges))
    moved = [
        (moved_point(program), edges)
        for program, edges in builds
        if any(isinstance(step, CurveBlowup) for step in program)
    ]
    return builds, moved


LADDER_COMPONENTS = [
    (fan, v) for fan in LAYER_FANS[len(toric_fixture_fans()):] for v in (0, 3)
]


@st.composite
def components_with_exceptionals(draw):
    """A star surface of a ladder fan blown up at one to four points."""
    fan, v = draw(st.sampled_from(LADDER_COMPONENTS))
    base = star_surface(fan, v)
    heads = tuple(draw(st.booleans()) for _ in base.labels)
    comp = LooijengaComponent(base, (), heads)
    for k in range(draw(st.integers(1, 4))):
        w = draw(st.sampled_from(base.labels))
        comp = comp.with_exceptional(ExceptionalClass(w, GaussianRational(k + 2), k))
    return comp


class TestCurveStepAgainstTheTables:
    """The curve step against the table-based check it replaced."""

    def test_bundled_pairs(self, pairs):
        moved = 0
        for pair in pairs.values():
            edges = pair._orientations()
            outcome = build_outcome(LogCY3Pair, pair.fan, pair.program, edges)
            assert not isinstance(outcome, str), outcome
            assert outcome == build_outcome(
                TableCheckedPair, pair.fan, pair.program, edges
            )
            if any(isinstance(step, CurveBlowup) for step in pair.program):
                program = moved_point(list(pair.program))
                diag = build_outcome(LogCY3Pair, pair.fan, program, edges)
                assert "period obstruction" in diag
                assert diag == build_outcome(TableCheckedPair, pair.fan, program, edges)
                moved += 1
        assert moved >= 2

    @pytest.mark.parametrize("fan", ALIAS_FANS, ids=lambda fan: f"{fan.n_rays}-rays")
    def test_curve_programs(self, fan):
        builds, moved = differential_builds(fan)
        for program, edges in builds:
            outcome = build_outcome(LogCY3Pair, fan, program, edges)
            assert not isinstance(outcome, str), outcome
            assert outcome == build_outcome(TableCheckedPair, fan, program, edges)
        for program, edges in moved:
            diag = build_outcome(LogCY3Pair, fan, program, edges)
            assert "period obstruction" in diag
            assert diag == build_outcome(TableCheckedPair, fan, program, edges)

    def test_some_curves_run_through_a_point(self):
        found = [
            program
            for fan in ALIAS_FANS
            for program in (through_point_program(fan, None, 5),)
            if program is not None
        ]
        assert len(found) >= len(ALIAS_FANS) // 2
        for program in found:
            assert -1 in program[-1].curve_class

    @given(components_with_exceptionals(), st.data())
    def test_intersection_matches_the_ray_by_ray_sum(self, comp, data):
        classes = st.lists(st.integers(-5, 5), min_size=comp.rank, max_size=comp.rank)
        a, b = data.draw(classes), data.draw(classes)
        assume(any(a[comp.base.rank:]) and any(b[comp.base.rank:]))
        assert comp.intersection(a, b) == reference_intersection(comp, a, b)
        assert comp.intersection_vector(b) == tuple(
            reference_intersection(comp, unit, b) for unit in comp.basis_vectors()
        )
        toric_part = tuple(b[: comp.base.rank])
        for i in range(comp.base.n_rays):
            assert comp.base.degree_on_ray(toric_part, i) == reference_degree_on_ray(
                comp.base, toric_part, i
            )

    def test_degree_on_ray_rejects_a_wrong_length(self):
        base = star_surface(LAYER_FANS[-1], 0)
        for vec in ((0,) * (base.rank - 1), (0,) * (base.rank + 1)):
            with pytest.raises(ValueError):
                base.degree_on_ray(vec, 0)


def valence_fan(valence):
    """Projective space subdivided at cones of ray 3 missing ray 0.

    Component 3 gains one ray per subdivision and keeps ray 0 at square 1.
    """
    fan = projective_space_fan()
    while len(star_surface(fan, 3).labels) < valence:
        cone = next(c for c in reversed(fan.max_cones) if 3 in c and 0 not in c)
        fan = star_subdivide(fan, cone)
    return fan


class TestCurveStepCost:
    def test_pairings_grow_linearly_in_the_component_rank(self, monkeypatch):
        # Deterministic counts, not wall time: Fan2.pairing calls of one
        # intersection of dense classes and of one curve step, in component
        # 3 at ranks 4 and 16.  A ray-by-ray sum makes rank**2 of them.
        counts = {}
        for valence in (6, 18):
            fan = valence_fan(valence)
            pair = LogCY3Pair.build(fan)
            comp = pair.components[3]
            dense = tuple(range(1, comp.rank + 1))
            curve = comp.base.ray_class(comp.base.labels.index(0))
            step = solved_curve_step(pair, 3, curve, 101)
            calls = {"pairing": 0}
            monkeypatch.setattr(
                Fan2, "pairing", counting(calls, "pairing", Fan2.pairing)
            )
            comp.intersection(dense, dense)
            intersection = calls["pairing"]
            LogCY3Pair.build(fan, [step])
            monkeypatch.undo()
            counts[comp.rank] = (intersection, calls["pairing"] - intersection)
        assert sorted(counts) == [4, 16]
        for small, large in zip(counts[4], counts[16]):
            assert 0 < large <= 5 * small, counts


class TestCubicForm:
    def test_toric_values(self, pairs):
        p3, p111 = pairs["p3"], pairs["p111"]
        assert p3.cubic_form((1,), (1,), (1,)) == 1
        k = p3.canonical_class()
        assert p3.cubic_form(k, k, k) == -64
        k = p111.canonical_class()
        assert p111.cubic_form(k, k, k) == -48

    def test_point_blowup_values(self, pairs):
        pair = pairs["p3-point"]
        e = pair.exceptional_class(0)
        h = (1, 0)
        assert pair.cubic_form(e, e, e) == 1
        assert pair.cubic_form(h, e, e) == 0
        assert pair.cubic_form(h, h, e) == 0
        k = pair.canonical_class()
        assert pair.cubic_form(e, k, k) == 4
        assert pair.cubic_form(k, k, k) == -56

    def test_curve_blowup_values(self, pairs):
        pair = pairs["p3-conic"]
        e = pair.exceptional_class(0)
        h = (1, 0)
        # The center is a conic: H.E^2 = -(deg C) = -2.
        assert pair.cubic_form(h, e, e) == -2
        # E^3 = K_Y.C + 2 = -8 + 2.
        assert pair.cubic_form(e, e, e) == -6
        k = pair.canonical_class()
        assert pair.cubic_form(e, k, k) == 10

    def test_symmetry(self, pairs):
        pair = pairs["p3-mixed"]
        n = pair.pic_rank

        def unit(i):
            return tuple(1 if j == i else 0 for j in range(n))

        import itertools

        for i, j, k in itertools.product(range(n), repeat=3):
            value = pair.cubic_form(unit(i), unit(j), unit(k))
            assert value == pair.cubic_form(unit(j), unit(k), unit(i))

    def test_pullback_is_an_isometry(self, pairs):
        # Triple products of pulled-back classes are unchanged by blowups.
        base = pairs["p3"]
        for name in ("p3-point", "p3-conic", "p3-mixed"):
            pair = pairs[name]
            a = (1,) + (0,) * (pair.pic_rank - 1)
            assert pair.cubic_form(a, a, a) == base.cubic_form((1,), (1,), (1,))

    def test_length_mismatch_rejected(self, pairs):
        with pytest.raises(PairError, match="length"):
            pairs["p3"].cubic_form((1, 0), (1,), (1,))


def restricted_exceptional(pair):
    """The first exceptional class's restriction, one tuple per component."""
    flat = pair.restriction_matrix().apply(pair.exceptional_class(0).coords)
    return split_boundary_vector(pair, flat)


class TestRestriction:
    def test_point_exceptional_hits_both_endpoints(self, pairs):
        pair = pairs["p3-point"]
        raw = restricted_exceptional(pair)
        assert raw[0] == (0, 1) and raw[1] == (0, 1)
        assert raw[2] == (0,) and raw[3] == (0,)

    def test_curve_exceptional_restriction(self, pairs):
        pair = pairs["p3-conic"]
        raw = restricted_exceptional(pair)
        # On the host component the restriction is the curve class itself.
        assert raw[3] == (2,)
        # On each met neighbor: the sum of the new exceptional classes.
        for v in (0, 1, 2):
            assert raw[v] == (0, 1, 1)

    def test_restriction_matrix_shape(self, pairs):
        pair = pairs["p3-conic"]
        matrix = pair.restriction_matrix()
        _, total = pair.component_offsets()
        assert (matrix.rows, matrix.cols) == (total, pair.pic_rank)

    def test_k_image_ranks(self, pairs):
        for name, expected in [("p3", 1), ("p3-point", 2), ("p3-conic", 2)]:
            basis, saturated = pairs[name].k_image()
            assert len(basis) == expected
            assert saturated


class TestCopies:
    def test_bundled_pairs_deepcopy_and_pickle(self, pairs):
        for name, pair in pairs.items():
            verdict = decide_isomorphism(pair, pair)
            assert copy.deepcopy(pair.fan) == pair.fan
            copies = [copy.deepcopy(pair)] + [
                pickle.loads(pickle.dumps(pair, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for other in copies:
                # A copied fan holds its fields only, and derives the rest
                # on first use; its walls are read-only again.
                assert set(vars(other.fan)) == {"rays", "max_cones", "orientation"}
                assert other.fan == pair.fan, name
                with pytest.raises(TypeError):
                    other.fan.walls()[frozenset()] = ()
                again = decide_isomorphism(other, pair)
                assert again.is_isomorphic, name
                assert again.certificate == verdict.certificate, name
                assert unmarked_period(other) == unmarked_period(pair)
                assert quotient_character(other) == quotient_character(pair)


class TestHeldMarkers:
    def test_markers_are_held_and_key_the_same_table(self, pairs):
        for pair in pairs.values():
            markers = pair.markers()
            assert markers is pair.markers()
            assert markers == Marking.markers(pair.edge_keys())
            assert pair.character_table(markers) is pair.character_table(
                Marking.markers(pair.edge_keys())
            )

    def test_a_build_holds_nothing_and_reads_no_marking(self, monkeypatch):
        calls = {"component_character_table": 0, "marker_ratios": 0}
        for name in calls:
            original = getattr(boundary, name)
            counted = counting(calls, name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "logcy3":
                    if vars(module).get(name) is original:
                        monkeypatch.setattr(module, name, counted)
        fan = conic_ladder_fan(12)
        builds = [
            (pair.fan, pair.program, pair._orientations())
            for pair in pair_fixtures().values()
        ] + [(fan, conic_ladder(fan, 8), None)]
        for fan, program, edges in builds:
            pair = LogCY3Pair.build(fan, program, edges)
            assert pair._held == {}
        assert calls == {"component_character_table": 0, "marker_ratios": 0}


class TestProgramValidation:
    def setup_method(self):
        self.fan = projective_space_fan()

    def test_point_off_edge_rejected(self):
        diag = validate_pair(self.fan, [PointBlowup((0, 0), g("2"))])
        assert diag is not None and "not an edge" in diag

    def test_repeated_coordinate_rejected(self):
        program = [PointBlowup((0, 1), g("2")), PointBlowup((0, 1), g("2"))]
        diag = validate_pair(self.fan, program)
        assert diag is not None and "already used" in diag

    def test_curve_repeating_a_point_on_an_edge_rejected(self):
        coords = {0: (g("2"), g("2")), 1: (g("5"), g("7")), 2: (g("11"), g("13"))}
        diag = validate_pair(self.fan, [conic_program(coords)])
        assert diag == (
            "step 0: coordinate 2 already used on edge (0, 3) "
            "(infinitely-near centers rejected)"
        )

    def test_curve_point_on_an_earlier_point_step_rejected(self):
        # The point is listed from vertex 0 and the curve meets the same
        # edge from component 3, at the same reference coordinate.
        curve = CurveBlowup(
            3,
            (2, 0),
            ((0, (g("5"), g("2"))), (1, (g("7"), g("11"))), (2, (g("13"), g("17")))),
        )
        diag = validate_pair(self.fan, [PointBlowup((0, 3), g("2")), curve])
        assert diag == (
            "step 1: coordinate 2 already used on edge (0, 3) "
            "(infinitely-near centers rejected)"
        )

    def test_same_coordinate_on_distinct_edges_allowed(self):
        program = [PointBlowup((0, 1), g("2")), PointBlowup((1, 2), g("2"))]
        assert validate_pair(self.fan, program) is None

    def test_marker_center_warns_but_builds(self):
        pair = LogCY3Pair.build(self.fan, [PointBlowup((0, 1), MINUS_ONE)])
        assert any("marker" in w for w in pair.warnings)

    def test_wrong_point_count_rejected(self):
        program = [
            CurveBlowup(3, (2,), ((0, (g("2"),)), (1, (g("5"), g("7"))), (2, (I, -I))))
        ]
        diag = validate_pair(self.fan, program)
        assert diag is not None and "intersection points" in diag

    def test_non_adjacent_points_rejected(self):
        program = [CurveBlowup(3, (2,), ((3, (g("2"), g("3"))),))]
        diag = validate_pair(self.fan, program)
        assert diag is not None and "non-adjacent" in diag

    def test_inconsistent_curve_data_rejected(self):
        # Conic boundary data whose coordinate product is not 1.
        coords = {
            0: (g("2"), g("3")),
            1: (g("5"), g("7")),
            2: (g("11"), g("13")),
        }
        diag = validate_pair(self.fan, [conic_program(coords)])
        assert diag is not None and "period obstruction" in diag
        # The obstruction is the marked period of E's restriction, taken
        # component by component along the section ratios.
        toric_pair = LogCY3Pair.build(self.fan)
        components = toric_pair.components
        touched = [(components[3], (2,))]
        for w, points in coords.items():
            comp = components[w]
            for q in points:
                comp = comp.with_exceptional(ExceptionalClass(3, q, 0))
            touched.append((comp, (0,) * comp.base.rank + (1,) * len(points)))
        markers = Marking.markers(toric_pair.edge_keys())
        expected = product(
            component_marked_period(comp, markers, image) for comp, image in touched
        )
        assert not expected.is_one()
        scalar = re.search(r"period obstruction (.*)\)", diag).group(1)
        assert scalar == str(expected)

    def test_non_curve_class_rejected(self):
        program = [CurveBlowup(3, (3,), ())]
        diag = validate_pair(self.fan, program)
        assert diag is not None and "adjunction failed" in diag


class TestTorusAction:
    def test_translate_preserves_structure(self, pairs):
        pair = pairs["p3-conic"]
        t = (g("2"), g("3"), I)
        moved = pair.torus_translate(t)
        assert moved.pic_rank == pair.pic_rank
        assert moved.cubic_form(
            moved.canonical_class(),
            moved.canonical_class(),
            moved.canonical_class(),
        ) == pair.cubic_form(
            pair.canonical_class(), pair.canonical_class(), pair.canonical_class()
        )

    def test_translation_composes(self, pairs):
        pair = pairs["p3-point"]
        s = (g("2"), g("1"), g("3"))
        t = (g("1/2"), g("5"), g("1"))
        st = tuple(a * b for a, b in zip(s, t))
        once = pair.torus_translate(st)
        twice = pair.torus_translate(s).torus_translate(t)
        assert once.program == twice.program

    def test_zero_element_rejected(self, pairs):
        with pytest.raises(PairError):
            pairs["p3-point"].torus_translate((g("0"), g("1"), g("1")))

    def test_trivial_element_fixes_pair(self, pairs):
        pair = pairs["p3-mixed"]
        same = pair.torus_translate((g("1"), g("1"), g("1")))
        assert same.program == pair.program

"""Smooth complete fans in rank 3 and their divisor-level combinatorics.

The fan is the source of every toric pair in this package: it carries the
Picard presentation, the star surfaces of boundary components, the cubic
intersection tensor (read off those surfaces), the dual complex with its
orientation data, and the chart character of each 1-stratum.  One pass
over the oriented cones gives each ray's link and first max cone; it
accepts a valid fan, and the links give the star surfaces and the dual
complex's edges.  The wall map and the cone set are built only for their
own readers: a refused fan's first fault, star subdivision, the triple
intersections and the decision procedure.  A pair build reads the fan's
Picard basis and star surfaces only.  The lattice data of a pair
(:class:`LatticeData`) starts from the toric layer, the lattice data of
the fan's empty program, which is computed when a pair's lattice data is
first read.

A star subdivision is the toric blowup behind every subdivided fan.  A star
subdivision of a smooth complete fan at a max cone or a wall is smooth and
complete (Fulton 1993, section 2.4; Cox, Little and Schenck, section 3.3),
so :func:`star_subdivide` checks only its inputs, a valid parent (along a
chain, a held verdict) and a target that is a max cone or a wall, and its
output holds the verdict ``None``, the global sign and the cone set; it is
built from its parent's normalized tuples, not normalized again.  Fans
from documents, constructors, copies and pickles get the whole-fan check.

Every max cone is smooth, so the rows of the inverse of its ray frame are
the dual basis of M.  The lattice data of this module is read off such a
dual frame: the character pairing 1 with a ray, the projection onto the
quotient lattice of a star, and the chart character of a 1-stratum.  No
integer elimination is needed.
"""

from __future__ import annotations

from itertools import permutations
from math import gcd
from operator import mul
from types import MappingProxyType

from logcy3.gaussian import Frozen, held_property


class FanError(ValueError):
    """Raised when an operation receives structurally invalid fan data."""


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _inverse_unimodular(cols):
    """Inverse of a 3x3 integer matrix with det +-1, given by columns."""
    a, b, c = cols
    d = _det3(a, b, c)
    if d != 1 and d != -1:
        raise FanError("matrix is not unimodular")
    # Adjugate / det, and 1 / d == d: the rows are b x c, c x a and a x b, times d.
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c
    return (
        ((b1 * c2 - b2 * c1) * d, (b2 * c0 - b0 * c2) * d, (b0 * c1 - b1 * c0) * d),
        ((c1 * a2 - c2 * a1) * d, (c2 * a0 - c0 * a2) * d, (c0 * a1 - c1 * a0) * d),
        ((a1 * b2 - a2 * b1) * d, (a2 * b0 - a0 * b2) * d, (a0 * b1 - a1 * b0) * d),
    )


def _dual_frame(fan: Fan3, cone, v: int):
    """Rows dual to the rays of a max cone at v, the row dual to n_v first.

    The first row pairs 1 with n_v; the other two vanish on n_v, so they
    project N onto the quotient lattice N / Z n_v.
    """
    a, b, c = cone
    a, b, c = (a, b, c) if v == a else (b, a, c) if v == b else (c, a, b)
    return _inverse_unimodular((fan.rays[a], fan.rays[b], fan.rays[c]))


def _orient(cone: tuple, d: int, global_sign: int) -> tuple:
    """The ordering of a cone with determinant d that is positively oriented."""
    if d * global_sign > 0:
        return cone
    return (cone[0], cone[2], cone[1])


# ---------------------------------------------------------------------------
# Fan3 and its dual complex
# ---------------------------------------------------------------------------


class Fan3(Frozen):
    """A smooth complete fan in a rank-3 lattice.

    ``orientation`` is a reference datum ``(triangle, sign)``: the ordered
    ray-index triple is declared positively (+1) or negatively (-1) oriented
    on the dual complex; all other triangle orientations are derived from it.
    It defaults to the first max cone, positively oriented, and is ``None``
    when there is no max cone.
    """

    _fields = ("rays", "max_cones", "orientation")

    def __init__(self, rays, max_cones, orientation=None):
        rays = tuple([tuple(map(int, r)) for r in rays])
        max_cones = tuple([tuple(map(int, c)) for c in max_cones])
        if orientation is None and max_cones:
            orientation = (max_cones[0], 1)
        if orientation is not None:
            orientation = (tuple(orientation[0]), int(orientation[1]))
        super().__init__(rays, max_cones, orientation)

    def __reduce__(self):
        # The derived data is left behind; a copy recomputes it on first use.
        return type(self), (self.rays, self.max_cones, self.orientation)

    # -- basic queries -------------------------------------------------------

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @held_property
    def _cone_set(self) -> frozenset:
        """The max cones as frozen ray-index sets."""
        return frozenset(frozenset(c) for c in self.max_cones)

    def cone_set(self) -> frozenset:
        return self._cone_set

    @held_property
    def _walls(self):
        """Read-only map from wall (frozen ray-index pair) to the third rays
        of the max cones on it, two on a valid fan."""
        flanks: dict = {}
        for a, b, c in self.max_cones:
            flanks.setdefault(frozenset((a, b)), []).append(c)
            flanks.setdefault(frozenset((b, c)), []).append(a)
            flanks.setdefault(frozenset((c, a)), []).append(b)
        return MappingProxyType({wall: tuple(a) for wall, a in flanks.items()})

    def walls(self):
        """Read-only map from wall (frozen ray-index pair) to its apex tuple, held."""
        return self._walls

    # -- orientation ---------------------------------------------------------

    @held_property
    def _global_sign(self) -> int:
        """Sign making det-ordering of the reference triangle match its datum."""
        tri, sign = self.orientation
        d = _det3(*(self.rays[i] for i in tri))
        if d == 0:
            raise FanError("degenerate orientation reference triangle")
        if frozenset(tri) not in map(frozenset, self.max_cones):
            raise FanError("orientation reference is not a max cone")
        return sign * (1 if d > 0 else -1)

    def global_sign(self) -> int:
        return self._global_sign

    @held_property
    def _cone_dets(self) -> tuple:
        """The determinant of each max cone, in order."""
        return tuple(_det3(*(self.rays[i] for i in c)) for c in self.max_cones)

    def oriented_triangle(self, cone):
        """The ordering of a max cone that is positively oriented."""
        cone = tuple(cone)
        return _orient(cone, _det3(*(self.rays[i] for i in cone)), self.global_sign())

    @held_property
    def _oriented(self) -> tuple:
        """The positively oriented ordering of each max cone, in order."""
        g = self._global_sign
        return tuple(_orient(c, d, g) for c, d in zip(self.max_cones, self._cone_dets))

    def oriented_triangles(self) -> tuple:
        """The positively oriented ordering of each max cone, in order, held."""
        return self._oriented

    @held_property
    def _link_pass(self) -> tuple:
        """The links and the first max cone at each ray (see :func:`_trace_links`)."""
        return _trace_links(self)

    @held_property
    def _links(self) -> tuple:
        """The link of each ray as a cyclically ordered tuple, or None."""
        return self._link_pass[0]

    @held_property
    def _dual_complex(self) -> "DualComplex":
        """The dual complex with default edge orientations."""
        return DualComplex.from_fan(self)

    def dual_complex(self, edge_orientations=None) -> "DualComplex":
        """The dual complex; the one with default edge orientations is held."""
        if edge_orientations is None:
            return self._dual_complex
        return DualComplex.from_fan(self, edge_orientations)

    # -- validation and lattice data -----------------------------------------

    @held_property
    def _diagnostic(self):
        """The verdict of :func:`validate_fan`."""
        return _diagnose_fan(self)

    @held_property
    def _frames(self) -> tuple:
        """The dual frame of the first max cone at each ray."""
        return tuple([_dual_frame(self, cone, v) for v, cone in enumerate(self._link_pass[1])])

    @held_property
    def _surfaces(self) -> tuple:
        """The star surface of each ray, unchecked (see :func:`star_surface`)."""
        rays, surfaces = self.rays, []
        for v, (cycle, (_, (a, b, c), (p, q, r))) in enumerate(zip(self._links, self._frames)):
            images = tuple([
                (a * x + b * y + c * z, p * x + q * y + r * z)
                for x, y, z in map(rays.__getitem__, cycle)
            ])
            surfaces.append(Fan2(v, images, cycle))  # solves the 2d wall relations
        return tuple(surfaces)

    @held_property
    def _picard_basis(self) -> "ToricPicBasis":
        """The Picard basis with seed cone ``max_cones[0]``."""
        seed = self.max_cones[0]
        return ToricPicBasis(self, seed, tuple(v for v in range(self.n_rays) if v not in seed))

    @held_property
    def _toric_layer(self) -> "LatticeData":
        """The lattice data of the fan's empty program."""
        return _compute_toric_layer(self)


def validate_fan(fan: Fan3):
    """Check all Fan3 invariants; return ``None`` if ok, else a diagnostic.

    The diagnostics come in this order: a ray not primitive, a ray twice,
    no max cone, a cone not of three ray indices, a cone not unimodular, a
    ray in no cone, a cone twice, a wall not in two cones, an Euler
    characteristic not 2, a link not a cycle, a link not winding once.
    A bad orientation datum (a degenerate reference triangle, or one that
    is no max cone) raises ``FanError`` after the Euler check, where the
    links are first needed.  The verdict is held, so a fan is checked once.
    """
    return fan._diagnostic


def _diagnose_fan(fan: Fan3):
    n, rays, cones = fan.n_rays, fan.rays, fan.max_cones
    seen = set()
    for i, ray in enumerate(rays):
        if gcd(*ray) != 1:
            return f"non-primitive ray {i}: {ray}"
        if ray in seen:
            return f"duplicate ray {i}: {ray}"
        seen.add(ray)
    if not cones:
        return "fan has no max cones"
    used, dets, indices = set(), [], set(range(n))
    for cone in cones:
        if len(cone) != 3 or len(vertices := {*cone}) != 3 or not vertices <= indices:
            return f"bad cone {cone}"
        a, b, c = cone
        d = _det3(rays[a], rays[b], rays[c])
        if d != 1 and d != -1:
            return f"non-smooth cone {cone}"
        dets.append(d)
        used |= vertices
    # The links orient each cone by these determinants; none is taken twice.
    object.__setattr__(fan, "_cone_dets", tuple(dets))
    if used != indices:
        return "unused ray"
    # The link pass accepts the fan when no successor key repeats (3 per cone),
    # each walk is one cycle and n - keys / 2 + cones == 2: then each key w of
    # v has v among its keys, and the checks that name a refusal's fault pass.
    try:
        links = fan._links
    except FanError:  # a bad orientation datum raises below, after the Euler check
        links = (None,)
    if None in links or sum(map(len, links)) != 3 * len(cones) or 2 * n - len(cones) != 4:
        if len(fan.cone_set()) != len(cones):
            return "duplicate max cone"
        flanks = fan.walls()
        for wall, apexes in flanks.items():
            if len(apexes) != 2:
                return f"wall with {'one' if len(apexes) == 1 else len(apexes)} incident cone(s): {sorted(wall)}"
        euler = n - len(flanks) + len(cones)
        if euler != 2:
            return f"dual complex has Euler characteristic {euler}, expected 2"
        # With every wall in two cones, a key repeats only where a walk fails.
        return f"link of vertex {fan._links.index(None)} is not a cycle"
    # Each link is a unimodular loop: its n rays wind w times around the
    # ray, and its wall coefficients sum to 3n - 12w (Poonen and
    # Rodriguez-Villegas, "Lattice polygons and the number 12", 2000).
    for surface in fan._surfaces:
        winding = (3 * len(surface.rays) - sum(surface.wall_coefficients)) // 12
        if winding != 1:
            return f"link of vertex {surface.vertex} winds {winding} times around its ray"
    return None


def _trace_links(fan: Fan3) -> tuple:
    """The link of each ray, or None, and the first max cone at each ray.

    One pass over the oriented cones: (p, q, r) records q -> r in p's
    successor table, r -> p in q's and p -> q in r's.  A link is the walk
    from its table's first key, which the ray's first cone gave; it is None
    unless the walk returns to that key after visiting every key once.
    """
    n = fan.n_rays
    tables = [{} for _ in range(n)]
    firsts = [None] * n
    for cone, (p, q, r) in zip(fan.max_cones, fan.oriented_triangles()):
        tables[p][q] = r
        tables[q][r] = p
        tables[r][p] = q
        firsts[p] = firsts[p] or cone
        firsts[q] = firsts[q] or cone
        firsts[r] = firsts[r] or cone
    links = []
    for table in tables:
        cur = start = next(iter(table))
        cycle = [start]
        for _ in range(len(table) - 1):
            cur = table.get(cur)
            cycle.append(cur)
        links.append(tuple(cycle) if table.get(cur) == start and cycle.count(start) == 1 else None)
    return tuple(links), tuple(firsts)


class DualComplex(Frozen):
    """The dual complex of the boundary: a coherently oriented S^2 triangulation.

    Edges carry a chosen direction; for a directed edge (v, w) the two
    incident triangles split into the one traversing v -> w positively
    (``positive_triangle``) and the one traversing it negatively.
    ``edges`` holds directed pairs (v, w), and ``triangles`` positively
    oriented ordered triples.
    """

    _fields = ("vertices", "edges", "triangles")

    @staticmethod
    def from_fan(fan: Fan3, edge_orientations=None) -> "DualComplex":
        """The dual complex of a valid fan, else ``FanError``; edges read off the links."""
        if (diag := validate_fan(fan)) is not None:
            raise FanError(diag)
        edges = sorted([(v, w) for v, link in enumerate(fan._links) for w in link if w > v])
        if edge_orientations is not None:
            chosen = {}
            for e in edge_orientations:
                if frozenset(e) in chosen:
                    raise FanError(f"edge {tuple(sorted(e))} is oriented twice")
                chosen[frozenset(e)] = tuple(e)
            if set(chosen) != {frozenset(w) for w in edges}:
                raise FanError("edge orientation list does not match the walls")
            edges = [chosen[frozenset(w)] for w in edges]
        return DualComplex(tuple(range(fan.n_rays)), tuple(edges), fan.oriented_triangles())

    @held_property
    def _edge_at(self) -> dict:
        # Read once per complex; the first edge listed on a wall wins.
        index = {}
        for i, e in enumerate(self.edges):
            index.setdefault(frozenset(e), i)
        return index

    def has_edge(self, key: frozenset) -> bool:
        """Whether the vertex pair ``key`` spans an edge."""
        return key in self._edge_at

    def edge_index(self, v: int, w: int) -> int:
        try:
            return self._edge_at[frozenset((v, w))]
        except KeyError:
            raise FanError(f"no edge between {v} and {w}") from None

    def directed_edge(self, v: int, w: int):
        return self.edges[self.edge_index(v, w)]

    @held_property
    def _triangle_at(self) -> dict:
        # Read once per complex; the first triangle listed on a directed
        # edge wins.
        index = {}
        for tri in self.triangles:
            for k in range(3):
                index.setdefault((tri[k], tri[(k + 1) % 3]), tri)
        return index

    def positive_triangle(self, v: int, w: int):
        """The triangle in which the directed edge (v, w) occurs positively."""
        try:
            return self._triangle_at[(v, w)]
        except KeyError:
            raise FanError(f"directed edge ({v}, {w}) not found") from None


# ---------------------------------------------------------------------------
# Picard presentations: ray divisors outside a seed cone
# ---------------------------------------------------------------------------


def _nonzero(vector) -> tuple:
    """The nonzero ``(index, value)`` entries of a vector: a sparse column."""
    return tuple([(i, x) for i, x in enumerate(vector) if x])


def _reduce_ray_vector(coeffs, seed, dual, rays, basis) -> tuple:
    """Coordinates of ``sum coeffs[v] * D_v`` on the divisors of ``basis``.

    The seed rays form a lattice basis with dual rows ``dual``: row k pairs
    1 with the ray of ``seed[k]`` and 0 with the other seed rays.  Each
    seed divisor D_s is traded for the linearly equivalent -sum <m_s, n_v>
    D_v, which lies on the basis rays, so basis ray v gets coeffs[v] -
    <m, n_v> for the one character m = sum coeffs[s] * m_s.  Serves the
    threefold and its star surfaces alike.
    """
    m = [0] * len(dual)
    for s, row in zip(seed, dual):
        if c := coeffs[s]:
            m = [x + c * y for x, y in zip(m, row)]
    if any(m):
        return tuple([coeffs[v] - sum(map(mul, m, rays[v])) for v in basis])
    return tuple([coeffs[v] for v in basis])


class ToricPicBasis(Frozen):
    """Basis of Pic of the toric threefold: ray divisors outside a seed cone.

    The three seed-cone rays form a lattice basis, so their divisor classes
    are eliminated by the character relations; every ray divisor reduces to
    an integer vector on the remaining rays.
    """

    _fields = ("fan", "seed", "basis_rays")

    def __init__(self, fan: Fan3, seed: tuple, basis_rays: tuple):
        super().__init__(fan, seed, basis_rays)
        # The dual rows of the seed rays follow from the fan and the seed.
        object.__setattr__(self, "_dual", _inverse_unimodular([fan.rays[i] for i in seed]))

    @staticmethod
    def of(fan: Fan3) -> "ToricPicBasis":
        """The basis with seed cone ``fan.max_cones[0]``, held on the fan."""
        return fan._picard_basis

    @property
    def rank(self) -> int:
        return len(self.basis_rays)

    def reduce_ray_vector(self, coeffs):
        """Coordinates of ``sum coeffs[v] * D_v`` in the chosen basis."""
        return _reduce_ray_vector(
            coeffs, self.seed, self._dual, self.fan.rays, self.basis_rays
        )

    def ray_class(self, v: int):
        coeffs = [0] * self.fan.n_rays
        coeffs[v] = 1
        return self.reduce_ray_vector(coeffs)

    @held_property
    def sparse_classes(self) -> tuple:
        """The nonzero ``(coordinate, value)`` entries of each ray's class, by ray, held.

        A basis ray's class is its unit column; only the three seed rays are
        reduced, through :meth:`ray_class`.
        """
        seeds = {s: _nonzero(self.ray_class(s)) for s in self.seed}
        index = {v: i for i, v in enumerate(self.basis_rays)}
        return tuple([seeds[v] if v in seeds else ((index[v], 1),) for v in range(self.fan.n_rays)])

    def to_ray_vector(self, vec):
        """A ray-divisor representative of a basis vector."""
        coeffs = [0] * self.fan.n_rays
        for x, v in zip(vec, self.basis_rays, strict=True):
            coeffs[v] = x
        return tuple(coeffs)

    def anticanonical(self):
        return self.reduce_ray_vector([1] * self.fan.n_rays)


# ---------------------------------------------------------------------------
# Triple intersections by wall-relation reduction
# ---------------------------------------------------------------------------


class TripleIntersection:
    """Cubic intersection numbers of ray divisors on a smooth complete fan.

    This is the independent path the toric layer's tensor is checked
    against: it solves each 3d wall relation, where the layer reads the
    star surfaces.
    """

    def __init__(self, fan: Fan3):
        if (diag := validate_fan(fan)) is not None:
            raise FanError(diag)
        self.fan = fan
        self._cones = fan.cone_set()
        self._walls = fan.walls()
        self._cache: dict = {}

    def unit_character(self, i: int) -> tuple:
        """A character m with <m, n_i> = 1: the row dual to n_i in a cone at i."""
        return self.fan._frames[i][0]

    def ray_triple(self, i: int, j: int, k: int) -> int:
        key = tuple(sorted((i, j, k)))
        if key in self._cache:
            return self._cache[key]
        a, b, c = key
        if a != b and b != c:
            val = 1 if frozenset(key) in self._cones else 0
        elif a == b == c:
            val = self._triple_same(a)
        else:
            rep = a if a == b else b  # the repeated index
            other = c if a == b else a
            val = self._wall_coefficient(rep, other)
        self._cache[key] = val
        return val

    def _wall_coefficient(self, i: int, k: int) -> int:
        """D_i . D_i . D_k via the wall relation n_p + n_q + a n_i + b n_k = 0."""
        wall = frozenset((i, k))
        if wall not in self._walls:
            return 0
        p, q = self._walls[wall]
        rays = self.fan.rays
        inv = _inverse_unimodular([rays[i], rays[k], rays[p]])
        coeffs = [sum(inv[r][t] * rays[q][t] for t in range(3)) for r in range(3)]
        if coeffs[2] != -1:
            raise FanError(f"broken wall relation at {sorted(wall)}")
        return -coeffs[0]

    def _triple_same(self, i: int) -> int:
        # Pick m in M with <m, n_i> = 1 and trade one copy of D_i for the
        # linearly equivalent combination -sum <m, n_v> D_v over v != i;
        # D_i . D_i . D_v vanishes unless v is a wall neighbour of i.
        m = self.unit_character(i)
        total = 0
        for v in self.fan._links[i]:
            pairing = sum(m[t] * self.fan.rays[v][t] for t in range(3))
            if pairing:
                total -= pairing * self.ray_triple(i, i, v)
        return total

    def vector_triple(self, a, b, c) -> int:
        """Trilinear extension to ray-divisor coefficient vectors."""
        total = 0
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, ck in enumerate(c):
                    if ck:
                        total += ai * bj * ck * self.ray_triple(i, j, k)
        return total


# ---------------------------------------------------------------------------
# Star surfaces (boundary components)
# ---------------------------------------------------------------------------


class Fan2(Frozen):
    """A smooth complete fan in the rank-2 quotient lattice of a boundary ray.

    ``rays`` are listed in the cyclic order induced by the global orientation
    of the dual complex; ``labels[i]`` is the neighbouring vertex whose image
    spans ray ``i``, so ray ``i`` corresponds to the 1-stratum between the
    component and that neighbour.  ``wall_coefficients[i]`` is the c with
    u_{i-1} + u_{i+1} = c * u_i, solved once on construction, which raises
    ``FanError`` if some relation has no integer c.  The dual rows of the
    seed rays 0 and 1, the anticanonical class and the degree rows of the
    basis classes and the sparse classes of the seed rays are held once
    read.
    """

    _fields = ("vertex", "rays", "labels")

    def __init__(self, vertex: int, rays: tuple, labels: tuple):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "labels", labels)
        coefficients = tuple([_solve_wall_coefficient(rays, i) for i in range(len(rays))])
        object.__setattr__(self, "wall_coefficients", coefficients)

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray_of_neighbor(self, w: int) -> int:
        return self.labels.index(w)

    def self_intersection(self, i: int) -> int:
        return -self.wall_coefficients[i]

    def pairing(self, i: int, j: int) -> int:
        """Intersection number of the ray divisors with indices i and j."""
        k = self.n_rays
        if i == j:
            return self.self_intersection(i)
        if (i - j) % k in (1, k - 1):
            return 1
        return 0

    def square(self, coeffs) -> int:
        """Self-intersection of ``sum coeffs[i] * D_i``.

        Only D_i . D_i and the products D_i . D_{i+1} = 1 of neighbouring
        rays are nonzero, and a complete fan has at least three rays, so
        the sum is ``sum c_i^2 (D_i^2) + 2 sum c_{i-1} c_i``.
        """
        total, prev = 0, coeffs[-1]
        for c, w in zip(coeffs, self.wall_coefficients, strict=True):
            total += c * (2 * prev - w * c)
            prev = c
        return total

    # -- Picard basis --------------------------------------------------------

    @property
    def basis_indices(self):
        return tuple(range(2, self.n_rays))

    @property
    def rank(self) -> int:
        return len(self.rays) - 2

    @held_property
    def _dual(self) -> tuple:
        # Dual basis vectors m0, m1 of the seed rays 0, 1: <m_a, u_b> = delta.
        u0, u1 = self.rays[0], self.rays[1]
        det = u0[0] * u1[1] - u0[1] * u1[0]
        if abs(det) != 1:
            raise FanError("seed rays do not form a lattice basis")
        return ((u1[1] * det, -u1[0] * det), (-u0[1] * det, u0[0] * det))

    def reduce_ray_vector(self, coeffs):
        """Basis coordinates of ``sum coeffs[i] * D_i`` (seed rays 0, 1)."""
        basis = range(2, self.n_rays)
        return _reduce_ray_vector(coeffs, (0, 1), self._dual, self.rays, basis)

    def ray_class(self, i: int):
        """The class of D_i: a unit vector, or -<m_i, u_b> on ray b for a seed."""
        if i < 2:
            p, q = self._dual[i]
            return tuple([-p * x - q * y for x, y in self.rays[2:]])
        self._dual  # a seed off a lattice basis raises for every ray
        coeffs = [0] * self.rank
        coeffs[i - 2] = 1
        return tuple(coeffs)

    def sparse_class(self, i: int) -> tuple:
        """The nonzero ``(coordinate, value)`` entries of :meth:`ray_class`.

        A basis ray's is the unit column ``((i - 2, 1),)``, built on read;
        the two seed rays' are read off :meth:`ray_class` once and held.
        """
        if i >= 2:
            return ((i - 2, 1),)
        return self._seed_classes[i]

    @held_property
    def _seed_classes(self) -> tuple:
        return (_nonzero(self.ray_class(0)), _nonzero(self.ray_class(1)))

    def degree_on_ray(self, vec, i: int) -> int:
        """Degree of a basis-coordinate class on D_i, read off rays i and i +- 1.

        A complete fan has at least three rays, so the three rays differ.
        """
        if len(vec) != self.rank:
            raise FanError("class length does not match the surface rank")
        k = self.n_rays
        degree = 0
        for b in ((i - 1) % k, i, (i + 1) % k):
            if b >= 2:
                degree += vec[b - 2] * self.pairing(b, i)
        return degree

    @held_property
    def degree_rows(self) -> tuple:
        """The nonzero ``(label, degree)`` pairs of each basis class, held.

        Row ``b - 2`` lists the degrees of D_b on its own ray and the two
        adjacent ones, the only rays it meets, where they are nonzero.
        """
        n = self.n_rays
        rows = []
        for b in self.basis_indices:
            entries = []
            for ray in sorted({(b - 1) % n, b, (b + 1) % n}):
                d = self.pairing(b, ray)
                if d:
                    entries.append((self.labels[ray], d))
            rows.append(tuple(entries))
        return tuple(rows)

    def anticanonical(self) -> tuple:
        """The class of the boundary cycle, the sum of the ray divisors, held."""
        return self._anticanonical

    @held_property
    def _anticanonical(self) -> tuple:
        return self.reduce_ray_vector([1] * self.n_rays)


def _solve_wall_coefficient(rays, i: int) -> int:
    """The c with u_{i-1} + u_{i+1} = c * u_i, read off a nonzero entry of u_i."""
    (a, b), (x, y), (p, q) = rays[i - 1], rays[i], rays[(i + 1) % len(rays)]
    s, t = a + p, b + q
    c = s // x if x else t // y if y else 0
    if c * x == s and c * y == t:
        return c
    raise FanError(f"rays around index {i} are not a smooth 2d fan")


def star_surface(fan: Fan3, v: int) -> Fan2:
    """The 2d fan of the boundary component D_v, with its edge correspondence.

    The quotient projection kills the ray of v: it is given by the two rows
    of the dual frame of a cone at v that vanish on n_v.  The cyclic order
    of the image rays follows the link of v in the oriented dual complex.
    Validation builds every star surface once, to count how often each link
    winds, and the fan holds them.

    The image is smooth, so it is not checked: consecutive link rays w, w'
    span a unimodular cone (v, w, w'), and n_v is (1, 0, 0) in the dual
    frame, so the 2x2 determinant of their images is that cone's, +-1.
    """
    return _checked_surfaces(fan)[v]


def _checked_surfaces(fan: Fan3) -> tuple:
    """The held star surface of every ray of a valid fan; else ``FanError``."""
    if (diag := validate_fan(fan)) is not None:
        raise FanError(diag)
    return fan._surfaces


# ---------------------------------------------------------------------------
# Lattice data, and the toric layer held per fan
# ---------------------------------------------------------------------------


class LatticeData(Frozen):
    """A pair's cubic tensor, restriction images and canonical class.

    ``tensor`` maps sorted basis index triples to the nonzero cubic
    entries; ``canonical`` is K in the Picard basis.  ``restriction[i]``
    maps a component v to the restriction of basis class i to v, in v's
    basis, and names only the components where that image is nonzero.  An
    image tuple has the rank its component had when the image was made: a
    pair's program appends one such dict per step, and the exceptional
    classes a component gains later read as 0 in every earlier image.

    The toric layer of a fan (:func:`toric_layer`) is the lattice data of
    its empty program, shared by all pairs on the fan: a pair's lattice
    data copies the tensor its program extends and shares the image dicts.
    Nothing changes a value once made.
    """

    _fields = ("tensor", "restriction", "canonical")
    # The tensor is a dict: values compare and hash by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def toric_layer(fan: Fan3) -> LatticeData:
    """The lattice data of ``fan``'s empty program, computed on first use
    and held on the fan."""
    return fan._toric_layer


def _compute_toric_layer(fan: Fan3) -> LatticeData:
    surfaces = _checked_surfaces(fan)
    basis = ToricPicBasis.of(fan)
    index = {ray: i for i, ray in enumerate(basis.basis_rays)}
    # The cubic entries are read off the star surfaces: a max cone gives 1,
    # D_w^2 . D_v is the self-intersection of ray w in the surface of v, and
    # D_v^3 is the square there of D_v's normal class (below).  No 3d wall
    # relation n_p + n_q + a n_v + b n_w = 0 is solved, and none needs a
    # check: on a validated fan the cones are unimodular and coherently
    # oriented, so the apexes p and q lie on opposite sides of the wall and
    # both carry coefficient 1.
    entries = [
        (tuple(sorted((index[a], index[b], index[c]))), 1)
        for a, b, c in fan.max_cones
        if a in index and b in index and c in index
    ]
    # D_w restricts to D_v as the curve D_v . D_w when w is a neighbour
    # (never the zero class), to zero when w misses v, and D_v itself
    # through the linear equivalence D_v ~ -sum <m, n_w> D_w for m with
    # <m, n_v> = 1; that normal class can be zero.
    restriction = [{} for _ in basis.basis_rays]
    for v, (base, frame) in enumerate(zip(surfaces, fan._frames)):
        i = index.get(v)
        for ray, w in enumerate(base.labels):
            if (j := index.get(w)) is not None:
                restriction[j][v] = base.ray_class(ray)
                if i is not None:
                    key = (j, j, i) if j < i else (i, j, j)
                    entries.append((key, base.self_intersection(ray)))
        if i is not None:
            a, b, c = frame[0]
            link_rays = map(fan.rays.__getitem__, base.labels)
            normal = [-a * x - b * y - c * z for x, y, z in link_rays]
            image = base.reduce_ray_vector(normal)
            if any(image):
                restriction[i][v] = image
            entries.append(((i, i, i), base.square(normal)))
    tensor = {key: value for key, value in sorted(entries) if value}
    canonical = tuple([-x for x in basis.anticanonical()])
    return LatticeData(tensor, tuple(restriction), canonical)


# ---------------------------------------------------------------------------
# Star subdivisions (the toric blowup oracle)
# ---------------------------------------------------------------------------


def star_subdivide(fan: Fan3, target) -> Fan3:
    """Subdivide at a wall or max cone; the new ray is the ray sum.

    The parent must be valid (along a chain, a held verdict, so the
    whole-fan check runs once, on the root) and the target one of its max
    cones or walls.  These inputs decide the output, which is not checked
    (Fulton, *Introduction to Toric Varieties*, 1993, section 2.4; Cox,
    Little and Schenck, *Toric Varieties*, section 3.3): the target's rays
    are part of a basis, so their sum is primitive and lies in the target's
    relative interior, where no ray lies; each new cone has the determinant
    of the cone it replaces, so it is unimodular; determinant signs orient
    a complete simplicial fan coherently; and the re-anchored datum
    ``(cones[0], g * sign(det))`` induces the parent's global sign g, which
    the output holds with the verdict ``None`` and its cone set.
    """
    if (diag := validate_fan(fan)) is not None:
        raise FanError(f"cannot subdivide an invalid fan: {diag}")
    target = tuple(target)
    if len(target) not in (2, 3):
        raise FanError("target must be a wall or a max cone")
    if len(target) == 3 and frozenset(target) not in fan.cone_set():
        raise FanError(f"{target} is not a max cone")
    if len(target) == 2 and frozenset(target) not in fan.walls():
        raise FanError(f"{target} is not a wall")
    rays = fan.rays + (tuple(sum(fan.rays[i][t] for i in target) for t in range(3)),)
    new_index = fan.n_rays
    cones, old_star, new_star = [], [], []
    in_star = set(target).issubset
    for cone in fan.max_cones:
        if in_star(cone):
            old_star.append(frozenset(cone))
            for drop in target:
                replaced = tuple(new_index if i == drop else i for i in cone)
                cones.append(replaced)
                new_star.append(frozenset(replaced))
        else:
            cones.append(cone)
    # Re-anchor the orientation datum if its reference cone was subdivided,
    # keeping the induced global orientation.
    g = fan.global_sign()
    orientation = fan.orientation
    if frozenset(orientation[0]) in old_star:
        anchor = cones[0]
        d = _det3(*(rays[i] for i in anchor))
        orientation = (anchor, g * (1 if d > 0 else -1))
    cone_set = fan.cone_set().difference(old_star).union(new_star)
    # The parent's tuples are normalized already, so __init__'s pass is skipped.
    out = Fan3.__new__(Fan3)
    Frozen.__init__(out, rays, tuple(cones), orientation)
    object.__setattr__(out, "_diagnostic", None)
    object.__setattr__(out, "_global_sign", g)
    object.__setattr__(out, "_cone_set", cone_set)
    return out


def canonical_form(fan: Fan3):
    """A hashable normal form: sorted rays with relabelled, sorted cones."""
    order = sorted(range(fan.n_rays), key=lambda i: fan.rays[i])
    relabel = {old: new for new, old in enumerate(order)}
    rays = tuple(fan.rays[i] for i in order)
    cones = tuple(sorted(tuple(sorted(relabel[i] for i in c)) for c in fan.max_cones))
    return rays, cones


def _frame_map(inverse, frame):
    """The matrix sending the columns whose inverse is given to ``frame``."""
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = inverse
    return tuple([
        (a * p0 + b * q0 + c * r0, a * p1 + b * q1 + c * r1, a * p2 + b * q2 + c * r2)
        for a, b, c in zip(*frame)
    ])


def _apply3(m, vec):
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = vec
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def fan_isomorphism(f: Fan3, g: Fan3):
    """A unimodular map sending f onto g, found by frame search, or None."""
    if f.n_rays != g.n_rays or len(f.max_cones) != len(g.max_cones):
        return None
    seed = f.max_cones[0]
    seed_cols = [f.rays[i] for i in seed]
    inv = _inverse_unimodular(seed_cols)
    g_cones = g.cone_set()
    g_rays = set(g.rays)
    for cone in g.max_cones:
        for perm in permutations(cone):
            # matrix M with M * f.rays[seed[k]] = g.rays[perm[k]]
            m = _frame_map(inv, [g.rays[i] for i in perm])
            images = {ray: _apply3(m, ray) for ray in f.rays}
            if set(images.values()) != g_rays:
                continue
            index_of = {ray: i for i, ray in enumerate(g.rays)}
            mapped = {
                frozenset(index_of[images[f.rays[i]]] for i in c) for c in f.cone_set()
            }
            if mapped == g_cones:
                return m
    return None


def toric_model_map(f: Fan3, g: Fan3, vertex):
    """The unimodular matrix sending each ray i of f to ray ``vertex(i)`` of g.

    For valid fans and a bijection ``vertex``: the matrix is fixed by the
    first max cone of f, or ``None`` when some ray misses its image.  It hits
    every ray of g, so a lattice basis (a max cone), so it is unimodular.
    """
    seed = f.max_cones[0]
    cols_f = [f.rays[i] for i in seed]
    cols_g = [g.rays[vertex(i)] for i in seed]
    m = _frame_map(_inverse_unimodular(cols_f), cols_g)
    for v in range(f.n_rays):
        if _apply3(m, f.rays[v]) != g.rays[vertex(v)]:
            return None
    return m


# ---------------------------------------------------------------------------
# Chart characters of 1-strata
# ---------------------------------------------------------------------------


def edge_reference_character(fan: Fan3, complex_: DualComplex, edge):
    """The lattice character giving the reference coordinate on a 1-stratum.

    The character annihilates the two rays of the edge and its sign is
    pinned by the chart convention: it vanishes at the 0-stratum of the
    triangle where the directed edge occurs negatively (the 0 of the
    reference chart).  It is the row dual to the apex of that triangle,
    the one primitive character that vanishes on the edge and pairs 1 with
    the apex.
    """
    v, w = complex_.directed_edge(*edge)
    zero_tri = complex_.positive_triangle(w, v)
    apex = next(i for i in zero_tri if i not in (v, w))
    return _dual_frame(fan, zero_tri, apex)[0]


# ---------------------------------------------------------------------------
# Intersection data extraction (input to fan reconstruction)
# ---------------------------------------------------------------------------


class ToricIntersectionData(Frozen):
    """The divisor-level data that determines a toric pair combinatorially.

    ``cones`` are the vertex triples with triple product 1, ``wall_curves``
    maps each adjacency pair {a, b} to the self-intersections of the wall
    curve inside the two components: ``(C^2 in D_a, C^2 in D_b)`` keyed by
    the sorted pair order.
    """

    _fields = ("n_vertices", "cones", "wall_curves")

    @staticmethod
    def of_fan(fan: Fan3) -> "ToricIntersectionData":
        surfaces = _checked_surfaces(fan)
        wall_curves = {}
        for wall in fan.walls():
            a, b = sorted(wall)
            # C = D_a . D_b is ray b of the star surface of a, and ray a of b's.
            wall_curves[(a, b)] = (
                surfaces[a].self_intersection(surfaces[a].ray_of_neighbor(b)),
                surfaces[b].self_intersection(surfaces[b].ray_of_neighbor(a)),
            )
        return ToricIntersectionData(fan.n_rays, fan.cone_set(), wall_curves)

    def self_intersection_in(self, component: int, other: int) -> int:
        a, b = sorted((component, other))
        pair = self.wall_curves[(a, b)]
        return pair[0] if component == a else pair[1]

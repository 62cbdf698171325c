"""Smooth complete fans in rank 3 and their divisor-level combinatorics.

The fan is the source of every toric pair in this package: it carries the
Picard presentation, the star surfaces of boundary components, the cubic
intersection tensor (read off those surfaces), the dual complex with its
orientation data, and the chart character of each 1-stratum.  The fan-only
part of a pair build, the :class:`ToricLayer`, is computed once per fan and
held on it, as are the fan's walls, the oriented ordering of each max cone and
the link and dual frame at each ray: validation, the star surfaces and the
dual complex read each of them once.

A star subdivision is the toric blowup behind every subdivided fan.  A star
subdivision of a smooth complete fan at a max cone or a wall is smooth and
complete (Fulton 1993, section 2.4; Cox, Little and Schenck, section 3.3),
so :func:`star_subdivide` checks only its inputs, a valid parent (along a
chain, a held verdict) and a target that is a max cone or a wall, and its
output holds the verdict ``None``, the global sign and the cone set.  Fans
from documents, constructors, copies and pickles get the whole-fan check.

Every max cone is smooth, so the rows of the inverse of its ray frame are
the dual basis of M.  The lattice data of this module is read off such a
dual frame: the character pairing 1 with a ray, the projection onto the
quotient lattice of a star, and the chart character of a 1-stratum.  No
integer elimination is needed.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from math import gcd
from operator import mul
from types import MappingProxyType

from logcy3.exactnum import Frozen


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


def _vertex_frame(fan: Fan3, v: int) -> tuple:
    """The dual frame of the first max cone at v; every vertex's is held."""
    return fan._held(
        "_frames",
        lambda: tuple([
            _dual_frame(fan, fan.max_cones[at[0]], u)
            for u, at in enumerate(_cones_at(fan))
        ]),
    )[v]


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

    # Derived data (the cone set, the walls, the determinant and oriented
    # ordering of each max cone, the cones, link and dual frame at each ray,
    # the global sign, the verdict of validate_fan, the toric layer and the
    # dual complex with default edge orientations) is computed on first use
    # and held on the instance; it is not a field, so equality and hashing
    # see the three fields only.  A star subdivision's output holds its
    # verdict, global sign and cone set from its construction.

    def __init__(self, rays, max_cones, orientation=None):
        rays = tuple([tuple(map(int, r)) for r in rays])
        max_cones = tuple([tuple(map(int, c)) for c in max_cones])
        if orientation is None and max_cones:
            orientation = (max_cones[0], 1)
        if orientation is not None:
            orientation = (tuple(orientation[0]), int(orientation[1]))
        super().__init__(rays, max_cones, orientation)

    def __reduce__(self):
        # The derived data (the walls are a read-only mapping) is left
        # behind; a copy recomputes it on first use.
        return type(self), (self.rays, self.max_cones, self.orientation)

    # -- basic queries -------------------------------------------------------

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def _held(self, name, compute):
        """The derived value ``name``, computed once and held on the fan."""
        try:
            return self.__dict__[name]
        except KeyError:
            value = compute()
            object.__setattr__(self, name, value)
            return value

    def cone_set(self) -> frozenset:
        return self._held(
            "_cone_set", lambda: frozenset(frozenset(c) for c in self.max_cones)
        )

    def walls(self):
        """Read-only map from wall (frozen ray-index pair) to its apex tuple.

        The apexes are the third rays of the max cones on the wall, two on a
        valid fan.  The map is held on the fan.
        """
        return self._held("_walls", self._compute_walls)

    def _compute_walls(self):
        flanks: dict = {}
        for a, b, c in self.max_cones:
            flanks.setdefault(frozenset((a, b)), []).append(c)
            flanks.setdefault(frozenset((b, c)), []).append(a)
            flanks.setdefault(frozenset((c, a)), []).append(b)
        return MappingProxyType({wall: tuple(a) for wall, a in flanks.items()})

    # -- orientation ---------------------------------------------------------

    def global_sign(self) -> int:
        """Sign making det-ordering of the reference triangle match its datum."""
        return self._held("_global_sign", self._compute_global_sign)

    def _compute_global_sign(self) -> int:
        tri, sign = self.orientation
        d = _det3(*(self.rays[i] for i in tri))
        if d == 0:
            raise FanError("degenerate orientation reference triangle")
        if frozenset(tri) not in self.cone_set():
            raise FanError("orientation reference is not a max cone")
        return sign * (1 if d > 0 else -1)

    def oriented_triangle(self, cone):
        """The ordering of a max cone that is positively oriented."""
        cone = tuple(cone)
        return _orient(cone, _det3(*(self.rays[i] for i in cone)), self.global_sign())

    def oriented_triangles(self) -> tuple:
        """The positively oriented ordering of each max cone, in order, held."""
        return self._held("_oriented", self._compute_oriented_triangles)

    def _compute_oriented_triangles(self) -> tuple:
        g = self.global_sign()
        dets = self._held(
            "_cone_dets",
            lambda: tuple(_det3(*(self.rays[i] for i in c)) for c in self.max_cones),
        )
        return tuple(_orient(c, d, g) for c, d in zip(self.max_cones, dets))

    def dual_complex(self, edge_orientations=None) -> "DualComplex":
        """The dual complex; the one with default edge orientations is held."""
        if edge_orientations is None:
            return self._held("_dual_complex", lambda: DualComplex.from_fan(self))
        return DualComplex.from_fan(self, edge_orientations)


def validate_fan(fan: Fan3):
    """Check all Fan3 invariants; return ``None`` if ok, else a diagnostic.

    The verdict is held on the fan, so each fan is checked once.
    """
    return fan._held("_diagnostic", lambda: _diagnose_fan(fan))


def _diagnose_fan(fan: Fan3):
    n, rays = fan.n_rays, fan.rays
    seen = set()
    for i, ray in enumerate(rays):
        if gcd(*ray) != 1:
            return f"non-primitive ray {i}: {ray}"
        if ray in seen:
            return f"duplicate ray {i}: {ray}"
        seen.add(ray)
    if not fan.max_cones:
        return "fan has no max cones"
    used = set()
    dets = []
    for cone in fan.max_cones:
        if len(set(cone)) != 3 or min(cone) < 0 or max(cone) >= n:
            return f"bad cone {cone}"
        a, b, c = cone
        d = _det3(rays[a], rays[b], rays[c])
        if d != 1 and d != -1:
            return f"non-smooth cone {cone}"
        dets.append(d)
        used.update(cone)
    # The links and the orientation check below orient each cone by these
    # determinants; none is taken twice.
    dets = tuple(dets)
    fan._held("_cone_dets", lambda: dets)
    if used != set(range(n)):
        return "unused ray"
    if len(fan.cone_set()) != len(fan.max_cones):
        return "duplicate max cone"
    flanks = fan.walls()
    for wall, apexes in flanks.items():
        if len(apexes) != 2:
            return f"wall with {'one' if len(apexes) == 1 else len(apexes)} incident cone(s): {sorted(wall)}"
    # Dual complex must triangulate the 2-sphere.
    euler = n - len(flanks) + len(fan.max_cones)
    if euler != 2:
        return f"dual complex has Euler characteristic {euler}, expected 2"
    for v in range(n):
        if _link_cycle(fan, v) is None:
            return f"link of vertex {v} is not a cycle"
    # Orientation datum must induce a coherent orientation: each wall gets
    # opposite directions from its two oriented triangles.
    directed = set()
    for a, b, c in fan.oriented_triangles():
        for e in ((a, b), (b, c), (c, a)):
            if e in directed:
                return f"incoherent orientation at edge {e}"
            directed.add(e)
    for e in directed:
        if (e[1], e[0]) not in directed:
            return f"incoherent orientation at edge {e}"
    return None


def _cones_at(fan: Fan3) -> tuple:
    """The indices of the max cones containing each ray, ascending, held."""

    def compute():
        at = [[] for _ in range(fan.n_rays)]
        for k, cone in enumerate(fan.max_cones):
            for i in cone:
                at[i].append(k)
        return tuple(map(tuple, at))

    return fan._held("_cones_at", compute)


def _link_cycle(fan: Fan3, v: int):
    """The link of v as a cyclically ordered tuple, or None; every link is held."""
    return fan._held(
        "_links", lambda: tuple([_trace_link(fan, u) for u in range(fan.n_rays)])
    )[v]


def _trace_link(fan: Fan3, v: int):
    succ = {}
    oriented = fan.oriented_triangles()
    at = _cones_at(fan)[v]
    for k in at:
        a, b, c = oriented[k]  # a, b become the two rays after v, in order
        if v == a:
            a, b = b, c
        elif v == b:
            a, b = c, a
        if a in succ:
            return None
        succ[a] = b
    if not succ or len(succ) != len(at):
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
        walls = sorted(tuple(sorted(w)) for w in fan.walls())
        if edge_orientations is not None:
            chosen = {}
            for e in edge_orientations:
                if frozenset(e) in chosen:
                    raise FanError(f"edge {tuple(sorted(e))} is oriented twice")
                chosen[frozenset(e)] = tuple(e)
            if set(chosen) != {frozenset(w) for w in walls}:
                raise FanError("edge orientation list does not match the walls")
            edges = tuple(chosen[frozenset(w)] for w in walls)
        else:
            edges = tuple(walls)
        return DualComplex(tuple(range(fan.n_rays)), edges, fan.oriented_triangles())

    @cached_property
    def _edge_at(self) -> dict:
        # Read once per complex; the first edge listed on a wall wins.
        index = {}
        for i, e in enumerate(self.edges):
            index.setdefault(frozenset(e), i)
        return index

    def has_edge(self, v: int, w: int) -> bool:
        return frozenset((v, w)) in self._edge_at

    def edge_index(self, v: int, w: int) -> int:
        try:
            return self._edge_at[frozenset((v, w))]
        except KeyError:
            raise FanError(f"no edge between {v} and {w}") from None

    def directed_edge(self, v: int, w: int):
        return self.edges[self.edge_index(v, w)]

    @cached_property
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
        seed = fan.max_cones[0]
        return ToricPicBasis(fan, seed, tuple(v for v in range(fan.n_rays) if v not in seed))

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
        self._neighbours = {i: [] for i in range(fan.n_rays)}
        for a, b in self._walls:
            self._neighbours[a].append(b)
            self._neighbours[b].append(a)
        self._cache: dict = {}

    def unit_character(self, i: int) -> tuple:
        """A character m with <m, n_i> = 1: the row dual to n_i in a cone at i."""
        return _vertex_frame(self.fan, i)[0]

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
        for v in self._neighbours[i]:
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
    basis classes are held once read.
    """

    _fields = ("vertex", "rays", "labels")

    def __init__(self, vertex: int, rays: tuple, labels: tuple):
        super().__init__(vertex, rays, labels)
        object.__setattr__(
            self,
            "wall_coefficients",
            tuple([_solve_wall_coefficient(rays, i) for i in range(len(rays))]),
        )

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
        return self.n_rays - 2

    @cached_property
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

    def degree_on_ray(self, vec, i: int) -> int:
        """Degree of a basis-coordinate class on D_i, read off rays i and i +- 1."""
        if len(vec) != self.rank:
            raise FanError("class length does not match the surface rank")
        k = self.n_rays
        return sum(
            vec[b - 2] * self.pairing(b, i)
            for b in {(i - 1) % k, i, (i + 1) % k}
            if b >= 2
        )

    @cached_property
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

    @cached_property
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

    The image is smooth, so it is not checked: consecutive link rays w, w'
    span a unimodular cone (v, w, w'), and n_v is (1, 0, 0) in the dual
    frame, so the 2x2 determinant of their images is that cone's, +-1.
    """
    if (diag := validate_fan(fan)) is not None:
        raise FanError(diag)
    cycle = _link_cycle(fan, v)
    _, (a, b, c), (p, q, r) = _vertex_frame(fan, v)
    images = []
    for w in cycle:
        x, y, z = fan.rays[w]
        images.append((a * x + b * y + c * z, p * x + q * y + r * z))
    return Fan2(v, tuple(images), cycle)  # solves the 2d wall relations


# ---------------------------------------------------------------------------
# The toric layer of a pair build, held per fan
# ---------------------------------------------------------------------------


class ToricLayer(Frozen):
    """The fan-only part of every pair built on one fan.

    ``tensor`` maps sorted basis index triples to the nonzero cubic entries
    of the toric classes, in ascending key order; ``surfaces[v]`` is the
    star surface of vertex v;
    ``canonical`` is K in the Picard basis.

    ``restriction[i]`` maps a component v to the restriction of basis class
    i to v, in v's basis, and names only the components where that image
    is nonzero.  An image tuple has the rank its component had when the
    image was made; a pair's program appends one such dict per step, and
    the exceptional classes a component gains later read as 0 in every
    earlier image.  The layer is shared by all pairs on the fan and never
    changed: a pair copies the tensor its program extends and shares the
    image dicts.
    """

    _fields = ("basis", "tensor", "surfaces", "restriction", "canonical")
    # One layer per fan, compared and hashed by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def toric_layer(fan: Fan3) -> ToricLayer:
    """The toric layer of ``fan``, computed on first use and held on the fan."""
    return fan._held("_toric_layer", lambda: _compute_toric_layer(fan))


def _compute_toric_layer(fan: Fan3) -> ToricLayer:
    if (diag := validate_fan(fan)) is not None:
        raise FanError(diag)
    basis = ToricPicBasis.of(fan)
    index = {ray: i for i, ray in enumerate(basis.basis_rays)}
    surfaces = tuple([star_surface(fan, v) for v in range(fan.n_rays)])
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
    for v, base in enumerate(surfaces):
        i = index.get(v)
        for ray, w in enumerate(base.labels):
            if (j := index.get(w)) is not None:
                restriction[j][v] = base.ray_class(ray)
                if i is not None:
                    key = (j, j, i) if j < i else (i, j, j)
                    entries.append((key, base.self_intersection(ray)))
        if i is not None:
            a, b, c = _vertex_frame(fan, v)[0]
            link_rays = map(fan.rays.__getitem__, base.labels)
            normal = [-a * x - b * y - c * z for x, y, z in link_rays]
            image = base.reduce_ray_vector(normal)
            if any(image):
                restriction[i][v] = image
            entries.append(((i, i, i), base.square(normal)))
    tensor = {key: value for key, value in sorted(entries) if value}
    canonical = tuple([-x for x in basis.anticanonical()])
    return ToricLayer(basis, tensor, surfaces, tuple(restriction), canonical)


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
    ``(cones[0], g * sign(det))`` induces the parent's global sign g.  The
    output holds the verdict ``None``, g and its cone set.
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
    out = Fan3(rays, cones, orientation)
    out._held("_diagnostic", lambda: None)
    out._held("_global_sign", lambda: g)
    out._held("_cone_set", lambda: cone_set)
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

    The matrix is fixed by the first max cone of f; ``None`` when either
    frame of that cone is not unimodular or some ray misses its image.
    """
    seed = f.max_cones[0]
    cols_f = [f.rays[i] for i in seed]
    cols_g = [g.rays[vertex(i)] for i in seed]
    if abs(_det3(*cols_f)) != 1 or abs(_det3(*cols_g)) != 1:
        return None
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
        surfaces = toric_layer(fan).surfaces
        cones = frozenset(frozenset(c) for c in fan.max_cones)
        wall_curves = {}
        for wall in fan.walls():
            a, b = sorted(wall)
            # C = D_a . D_b is ray b of the star surface of a, and ray a of b's.
            wall_curves[(a, b)] = (
                surfaces[a].self_intersection(surfaces[a].ray_of_neighbor(b)),
                surfaces[b].self_intersection(surfaces[b].ray_of_neighbor(a)),
            )
        return ToricIntersectionData(fan.n_rays, cones, wall_curves)

    def self_intersection_in(self, component: int, other: int) -> int:
        a, b = sorted((component, other))
        pair = self.wall_curves[(a, b)]
        return pair[0] if component == a else pair[1]

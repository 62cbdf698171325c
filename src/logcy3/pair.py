"""Log Calabi-Yau threefold pairs given as blowup programs over a toric model.

A pair is a smooth complete toric threefold together with an ordered list
of interior blowups: points on 1-strata of the boundary, or smooth rational
curves inside a boundary component meeting the 1-strata transversely.
Building a pair replays the program and caches everything downstream code
needs: the threefold Picard basis (toric classes plus one exceptional class
per step), the cubic intersection tensor, the boundary components as
blown-up toric surfaces, and the restriction map to the boundary lattice.
The toric layer (Picard basis, cubic tensor, star surfaces, toric
restrictions and canonical class) is read off the fan's cones, walls and
star surfaces once per fan and held on the fan, so every later pair on the
same fan copies the tensor, shares the layer's restriction images, makes
its components with its own edge orientations, and replays only its
program.  Each step appends its own images and rewrites no earlier one
(see :class:`~logcy3.toric.ToricLayer` for their format).
A curve step checks its boundary data with one power product over the
exceptional classes it touches, valued at the markers; the section-ratio
path of :mod:`logcy3.boundary` is the reference for that value.  A build
holds nothing on the pair.
"""

from __future__ import annotations

from itertools import permutations

from logcy3.boundary import (
    ExceptionalClass,
    LooijengaComponent,
    Marking,
    component_character_table,
    marker_value,
)
from logcy3.exactnum import (
    Frozen,
    GaussianRational,
    IntMatrix,
    MINUS_ONE,
    dot,
    power_product_of,
    snf,
    symmetric_trilinear,
)
from logcy3.toric import (
    Fan3,
    FanError,
    edge_reference_character,
    toric_layer,
    validate_fan,
)


class PairError(ValueError):
    """Raised when a blowup program is structurally invalid."""


class PicVector(Frozen):
    """Integer coordinates of a divisor class in a tagged basis."""

    _fields = ("coords", "basis")

    def __init__(self, coords, basis):
        super().__init__(tuple(int(x) for x in coords), str(basis))


class PointBlowup(Frozen):
    """Blowup of an interior point of a 1-stratum.

    ``edge`` is the vertex pair of the stratum; ``coordinate`` is the point
    in the reference chart of the stratum's directed edge.
    """

    _fields = ("edge", "coordinate")


class CurveBlowup(Frozen):
    """Blowup of a smooth rational curve inside a boundary component.

    ``curve_class`` is given in the basis the component has at the time of
    this step; ``points`` lists, per adjacent vertex, the reference
    coordinates where the curve meets the shared 1-stratum, as a tuple of
    (neighbor, (coordinates...)).
    """

    _fields = ("component", "curve_class", "points")

    def points_on(self, w: int):
        for neighbor, coords in self.points:
            if neighbor == w:
                return tuple(coords)
        return ()


def curve_blowup_entries(pair: "LogCY3Pair", v: int, vector) -> dict:
    """The nonzero cubic entries that blowing up a curve in component ``v`` adds.

    ``pair`` is read as it stands before the step, and ``vector`` is the
    curve's intersection vector on its component ``v``
    (:meth:`~logcy3.boundary.LooijengaComponent.intersection_vector`).  The
    exceptional class E takes the next index e.  Each class a meets the
    curve in ``a.C``, its restriction image on ``v`` dotted with the vector
    (reading 0 past the image's end), and gets ``(a, e, e) = -a.C``; then
    ``E^3 = K.C + 2``, as the curve is smooth and rational.  The build and
    the subdivision oracle both run this rule.
    """
    e_index = len(pair._restriction)
    entries = {}
    k_dot_c = 0
    for a, images in enumerate(pair._restriction):
        a_dot_c = dot(images.get(v, ()), vector)
        if a_dot_c:
            entries[(a, e_index, e_index)] = -a_dot_c
            k_dot_c += pair.canonical[a] * a_dot_c
    if k_dot_c + 2:
        entries[(e_index, e_index, e_index)] = k_dot_c + 2
    return entries


class LogCY3Pair:
    """A validated pair with all derived caches.

    Construct with :meth:`build`; instances are immutable in practice: after
    construction the only state that changes is the set of held derived
    values (lattice maps, their factorizations, per-marking character
    tables), each computed on first use and never changed afterwards.
    """

    def __init__(self):
        raise TypeError("use LogCY3Pair.build")

    @classmethod
    def build(cls, fan: Fan3, program=(), edge_orientations=None) -> "LogCY3Pair":
        self = object.__new__(cls)
        diag = validate_fan(fan)
        if diag is not None:
            raise PairError(f"invalid fan: {diag}")
        self.fan = fan
        self.program = tuple(program)
        self.complex = fan.dual_complex(edge_orientations)
        self.warnings = []
        self._build_toric_layer()
        # Held values are computed after the build; the build reads none.
        self._held = {}
        # The reference coordinates occupied on each edge, held for the build.
        self._occupied = {}
        for k, step in enumerate(self.program):
            if isinstance(step, PointBlowup):
                self._apply_point(k, step)
            elif isinstance(step, CurveBlowup):
                self._apply_curve(k, step)
            else:
                raise PairError(f"unknown step kind at index {k}")
        del self._occupied
        self.warnings = tuple(self.warnings)
        return self

    # -- construction internals ---------------------------------------------

    def _build_toric_layer(self):
        # The fan holds the layer; copy the tensor the program extends, share
        # the restriction images, and give each component this pair's edge
        # orientations.  The tensor stores its nonzero entries only.
        layer = toric_layer(self.fan)
        self.toric_basis = layer.basis
        self._tensor = dict(layer.tensor)
        self._restriction = list(layer.restriction)
        self.canonical = layer.canonical
        self.components = {}
        for v, base in enumerate(layer.surfaces):
            heads = tuple(
                self.complex.directed_edge(v, w)[1] == v for w in base.labels
            )
            self.components[v] = LooijengaComponent(base, (), heads)

    def _check_new_coordinate(self, k, v, w, q):
        if not isinstance(q, GaussianRational):
            raise PairError(f"step {k}: coordinate must be a Gaussian rational")
        if q.is_zero():
            raise PairError(f"step {k}: blowup point on a 0-stratum")
        occupied = self._occupied.setdefault(frozenset((v, w)), set())
        if q in occupied:
            raise PairError(
                f"step {k}: coordinate {q} already used on edge "
                f"{tuple(sorted((v, w)))} (infinitely-near centers rejected)"
            )
        if q == MINUS_ONE:
            self.warnings.append(
                f"step {k}: blowup point at the marker of edge "
                f"{tuple(sorted((v, w)))}"
            )
        occupied.add(q)

    def _apply_point(self, k: int, step: PointBlowup):
        v, w = step.edge
        if not self.complex.has_edge(v, w):
            raise PairError(f"step {k}: {tuple(step.edge)} is not an edge")
        self._check_new_coordinate(k, v, w, step.coordinate)
        e_index = self.toric_basis.rank + k
        self._tensor[(e_index, e_index, e_index)] = 1
        self.canonical = self.canonical + (2,)
        images = {}
        for u, other in ((v, w), (w, v)):
            comp = self.components[u] = self.components[u].with_exceptional(
                ExceptionalClass(other, step.coordinate, k)
            )
            images[u] = comp.exceptional_vector(len(comp.excs) - 1)
        self._restriction.append(images)

    def _apply_curve(self, k: int, step: CurveBlowup):
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
        # A smooth rational curve has C^2 + K.C = -2 and meets no edge
        # negatively.  One intersection vector gives C^2, K.C (the
        # anticanonical class is -K) and the tensor entries.
        vector = comp.intersection_vector(curve)
        self_int = dot(curve, vector)
        k_dot = -dot(comp.anticanonical(), vector)
        if self_int + k_dot != -2:
            raise PairError(
                f"step {k}: adjunction failed: C^2 + K.C = {self_int} + {k_dot} = "
                f"{self_int + k_dot}, expected -2"
            )
        degrees = comp.edge_degrees(curve)
        for w, d in degrees.items():
            if d < 0:
                raise PairError(f"step {k}: negative boundary degree {d} on edge toward {w}")
        declared = {w for w, _ in step.points}
        if not declared <= degrees.keys():
            raise PairError(f"step {k}: points on a non-adjacent vertex")
        for w, need in degrees.items():
            coords = step.points_on(w)
            if len(coords) != need:
                raise PairError(
                    f"step {k}: {len(coords)} intersection points on edge "
                    f"toward {w}, class degree is {need}"
                )
            for q in coords:
                self._check_new_coordinate(k, v, w, q)
        self._tensor.update(curve_blowup_entries(self, v, vector))
        self.canonical = self.canonical + (1,)
        # The period of E's restriction (a global class, hence trivial on the
        # boundary lattice) must be exactly 1.  At the markers it is 1 on
        # every toric class, so only v's exceptional classes the curve meets
        # (with the curve's coordinates) and the classes this step adds count.
        factors = [
            (marker_value(comp, exc), x)
            for exc, x in zip(comp.excs, curve[comp.base.rank:])
            if x
        ]
        # Neighbors gain one exceptional class per intersection point.
        images = {v: curve}
        for w, need in degrees.items():
            if not need:
                continue
            coords = step.points_on(w)
            old_rank = self.components[w].rank
            for q in coords:
                exc = ExceptionalClass(v, q, k)
                self.components[w] = self.components[w].with_exceptional(exc)
                factors.append((marker_value(self.components[w], exc), 1))
            images[w] = (0,) * old_rank + (1,) * need
        self._restriction.append(images)
        scalar = power_product_of(factors)
        if not scalar.is_one():
            raise PairError(
                f"step {k}: curve boundary data inconsistent with class "
                f"restriction (period obstruction {scalar})"
            )

    # -- public queries ------------------------------------------------------

    @property
    def pic_rank(self) -> int:
        return self.toric_basis.rank + len(self.program)

    def exceptional_index(self, step: int) -> int:
        return self.toric_basis.rank + step

    def exceptional_class(self, step: int) -> PicVector:
        index = self.exceptional_index(step)
        return PicVector([int(a == index) for a in range(self.pic_rank)], "Y")

    def canonical_class(self) -> PicVector:
        return PicVector(self.canonical, "Y")

    def edge_keys(self):
        return [frozenset(e) for e in self.complex.edges]

    def boundary_components(self):
        return [self.components[v] for v in sorted(self.components)]

    def component_offsets(self):
        """Start index of each component's block in the boundary lattice."""
        offsets = {}
        total = 0
        for v in sorted(self.components):
            offsets[v] = total
            total += self.components[v].rank
        return offsets, total

    def cubic_form(self, a, b, c) -> int:
        """The triple intersection product of three threefold classes."""
        va, vb, vc = (self._as_y_coords(x) for x in (a, b, c))
        return symmetric_trilinear(self._tensor, va, vb, vc)

    def cubic_entries(self) -> dict:
        """The nonzero entries of the cubic tensor, under sorted index triples."""
        return dict(self._tensor)

    def entries_ending_at(self, index: int) -> tuple:
        """The nonzero stored entries ``((i, j, index), value)``, ``i <= j <= index``.

        For an exceptional index these are the entries its step appended.
        The entries are grouped by largest index in one pass, on first use,
        and the grouping is then held.
        """
        groups = self.held("entries_ending_at", LogCY3Pair._entries_by_last_index)
        return groups[index]

    def _entries_by_last_index(self):
        groups = [[] for _ in range(self.pic_rank)]
        for key, value in self._tensor.items():
            groups[key[2]].append((key, value))
        return tuple(tuple(group) for group in groups)

    def pulled_back_cubic(self, mu: IntMatrix) -> dict:
        """The nonzero entries of the cubic form pulled back along ``mu``.

        ``mu`` has one row per basis class of this pair.  Entry ``(i, j, k)``
        with ``i <= j <= k`` is ``cubic_form(mu e_i, mu e_j, mu e_k)``.  It is
        summed from the stored entries alone: each is spread over its
        distinct index orders, and each order through the nonzero entries of
        the matching rows of ``mu``, so a sparse ``mu`` costs time linear in
        the stored entries.
        """
        if mu.rows != len(self._restriction):
            raise PairError("class length does not match the Picard rank")
        rows = mu.transpose().columns
        pulled: dict = {}
        for key, value in self._tensor.items():
            for a, b, c in set(permutations(key)):
                for i, x in rows[a]:
                    for j, y in rows[b]:
                        if j < i:
                            continue
                        for k, z in rows[c]:
                            if k >= j:
                                triple = (i, j, k)
                                pulled[triple] = (
                                    pulled.get(triple, 0) + value * x * y * z
                                )
        return {key: value for key, value in pulled.items() if value}

    def _as_y_coords(self, x):
        if isinstance(x, PicVector):
            if x.basis != "Y":
                raise PairError(f"expected a threefold class, got basis {x.basis!r}")
            coords = x.coords
        else:
            coords = tuple(x)
        if len(coords) != len(self._restriction):
            raise PairError("class length does not match the Picard rank")
        return coords

    def restriction_matrix(self) -> IntMatrix:
        """Matrix of the restriction map, boundary lattice by threefold basis."""
        offsets, total = self.component_offsets()
        columns = [
            [
                (offsets[v] + i, x)
                for v in sorted(images)
                for i, x in enumerate(images[v])
                if x
            ]
            for images in self._restriction
        ]
        return IntMatrix.from_columns(total, columns)

    def held(self, key, compute):
        """The value ``compute(self)`` under ``key``, computed once per pair.

        The first call with a key computes and holds the value; later calls
        return the held object, so held values must be immutable.
        """
        try:
            return self._held[key]
        except KeyError:
            value = self._held[key] = compute(self)
            return value

    def markers(self) -> Marking:
        """The distinguished marking, the point -1 on every edge, held."""
        return self.held("markers", lambda pair: Marking.markers(pair.edge_keys()))

    def character_table(self, marking: Marking) -> tuple:
        """Marked period values of the boundary basis classes, in flat order.

        Each value is read off its own component's degree table.  The
        table of a marking is computed on first use and then held on the pair.
        """
        return self.held(
            ("character_table", marking),
            lambda pair: tuple(
                value
                for comp in pair.boundary_components()
                for value in component_character_table(comp, marking)
            ),
        )

    def k_image(self):
        """Basis of the image of restriction, and whether it is saturated.

        Computed on first use and then held; the basis is returned as a
        fresh list.
        """
        basis, saturated = self.held("k_image", LogCY3Pair._k_image)
        return list(basis), saturated

    def _k_image(self):
        # The image is spanned by the restriction matrix applied to the
        # first ``rank`` sparse columns of V, and saturated iff every
        # invariant factor is 1.
        matrix = self.restriction_matrix()
        dec = snf(matrix)
        basis = tuple(matrix.apply(dec.V.column(j)) for j in range(dec.rank))
        return basis, all(d == 1 for d in dec.factors)

    def truncated(self, steps: int) -> "LogCY3Pair":
        """The pair given by the first ``steps`` program entries."""
        return LogCY3Pair.build(self.fan, self.program[:steps], self._orientations())

    def _orientations(self):
        # None when the pair has the fan's held complex, so a new pair shares it.
        if self.complex is self.fan.dual_complex():
            return None
        return [tuple(e) for e in self.complex.edges]

    # -- torus action --------------------------------------------------------

    def edge_scale(self, torus_element, v: int, w: int) -> GaussianRational:
        """Value of a torus element on the reference chart of an edge.

        ``torus_element`` is a triple of nonzero Gaussian rationals, the
        images of the three character basis vectors.
        """
        m = self.held(
            frozenset((v, w)),
            lambda pair: edge_reference_character(pair.fan, pair.complex, (v, w)),
        )
        return power_product_of(zip(torus_element, m, strict=True))

    def torus_translate(self, torus_element) -> "LogCY3Pair":
        """The image of the pair under a torus translation of the boundary."""
        for t in torus_element:
            if t.is_zero():
                raise PairError("torus element coordinates must be nonzero")
        new_program = []
        for step in self.program:
            if isinstance(step, PointBlowup):
                v, w = step.edge
                scale = self.edge_scale(torus_element, v, w)
                new_program.append(
                    PointBlowup(step.edge, scale * step.coordinate)
                )
            else:
                new_points = []
                for w, coords in step.points:
                    scale = self.edge_scale(torus_element, step.component, w)
                    new_points.append((w, tuple(scale * q for q in coords)))
                new_program.append(
                    CurveBlowup(step.component, step.curve_class, tuple(new_points))
                )
        return LogCY3Pair.build(self.fan, new_program, self._orientations())


def validate_pair(fan: Fan3, program=(), edge_orientations=None):
    """Build-check a pair; return ``None`` if ok, else the first diagnostic."""
    try:
        LogCY3Pair.build(fan, program, edge_orientations)
    except (PairError, FanError) as exc:
        return str(exc)
    return None

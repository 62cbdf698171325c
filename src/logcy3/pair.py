"""Log Calabi-Yau threefold pairs given as blowup programs over a toric model.

A pair is a smooth complete toric threefold together with an ordered list
of interior blowups: points on 1-strata of the boundary, or smooth rational
curves inside a boundary component meeting the 1-strata transversely.
Building a pair checks the program and builds its boundary components as
blown-up toric surfaces, and nothing more: the fan's verdict, each step's
edge and coordinates (with the warning for a point at a marker), and for
a curve step its class length, adjunction, boundary degrees, point counts
and period obstruction.  A curve step checks its boundary data with one
power product, valued at the markers: the exceptional classes of its own
component that it meets, at their marker values, and each new point q as
it is, q where the neighbour it is added to is the head of the edge and
1/q where it is the tail, with one factor -1 when the step adds an odd
number of points; the section-ratio path of :mod:`logcy3.boundary` is the
reference for that value.  A step checks its coordinates once per edge,
and a curve step copies each neighbour it meets once.  The build reads
only the fan's held Picard basis and star surfaces, and holds nothing on
the pair.

The lattice data (:class:`~logcy3.toric.LatticeData`: the cubic
intersection tensor, the restriction images on the boundary components and
the canonical class, in the threefold Picard basis of toric classes plus
one exceptional class per step) is derived once, by its first reader, and
then held on the pair.  It starts from the fan's toric layer, the lattice
data of the empty program (computed on the first such read on the fan and
held there, whose restriction images every pair on the fan shares), and
replays what each step recorded in the build: its restriction images, and
for a curve step its intersection vector.  Each step appends its own images
and tensor entries and rewrites no earlier one.
"""

from __future__ import annotations

from operator import itemgetter

from logcy3.boundary import (
    ExceptionalClass,
    LooijengaComponent,
    Marking,
    component_character_table,
    marker_value,
)
from logcy3.gaussian import (
    Frozen, GaussianRational, MINUS_ONE, ONE, SparseCharacter, dot, power_product,
    power_product_of, symmetric_trilinear,
)
from logcy3.toric import (
    Fan3,
    FanError,
    LatticeData,
    ToricPicBasis,
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
    (neighbor, (coordinates...)) in ascending neighbour order, sorted once
    here, so a step reads back from its document as it was made.
    """

    _fields = ("component", "curve_class", "points")

    # Written out for speed, as LooijengaComponent's is; the reason is there.
    def __init__(self, component, curve_class, points):
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "curve_class", curve_class)
        object.__setattr__(self, "points", tuple(sorted(points, key=itemgetter(0))))

    def points_on(self, w: int):
        for neighbor, coords in self.points:
            if neighbor == w:
                return tuple(coords)
        return ()


def curve_blowup_entries(restriction, canonical, v: int, vector) -> dict:
    """The nonzero cubic entries that blowing up a curve in component ``v`` adds.

    ``restriction`` and ``canonical`` are the restriction images and the
    canonical class of the lattice data before the step
    (:class:`~logcy3.toric.LatticeData`).  ``vector`` is the curve's
    intersection vector on its component ``v``
    (:meth:`~logcy3.boundary.LooijengaComponent.intersection_vector`).  The
    exceptional class E takes the next index e.  Each class a meets the
    curve in ``a.C``, its restriction image on ``v`` dotted with the vector
    (reading 0 past the image's end), and gets ``(a, e, e) = -a.C``; then
    ``E^3 = K.C + 2``, as the curve is smooth and rational.  The derivation
    of a pair's lattice data and the subdivision oracle both run this rule.
    """
    e_index = len(restriction)
    entries = {}
    k_dot_c = 0
    for a, images in enumerate(restriction):
        a_dot_c = dot(images.get(v, ()), vector)
        if a_dot_c:
            entries[(a, e_index, e_index)] = -a_dot_c
            k_dot_c += canonical[a] * a_dot_c
    if k_dot_c + 2:
        entries[(e_index, e_index, e_index)] = k_dot_c + 2
    return entries


def pull_back_tensor(tensor: dict, mu) -> dict:
    """The nonzero entries of a symmetric cubic tensor pulled back along ``mu``.

    ``tensor`` holds its nonzero entries under sorted triples of ``mu``'s
    rows.  Entry ``(i, j, k)``, ``i <= j <= k``, is the tensor at columns i,
    j and k of ``mu``, summed from the stored entries alone: each is spread
    over its distinct index orders (one when all three indices are equal,
    its three rotations when two are, else all six), and each order through
    the nonzero entries of the matching rows of ``mu``, so a sparse ``mu``
    costs time linear in the stored entries.  When ``mu`` is a signed
    relabelling (each row holds one entry, no two rows in one column, as
    the derived map of a vertex bijection that keeps the seed cone is),
    each stored entry instead moves to the one sorted triple of its rows'
    columns, times their three entries: one step per stored entry.  Decide
    step (ii) and the subdivision oracle both pull back through it.
    """
    rows = mu.transpose().columns
    if all(len(row) == 1 for row in rows) and len({row[0][0] for row in rows}) == len(rows):
        relabelled = {}
        for (a, b, c), value in tensor.items():
            (i, x), = rows[a]
            (j, y), = rows[b]
            (k, z), = rows[c]
            if i > j:
                i, j = j, i
            if j > k:
                j, k = k, j
                if i > j:
                    i, j = j, i
            relabelled[(i, j, k)] = value * x * y * z
        return relabelled
    pulled: dict = {}
    for key, value in tensor.items():
        a, b, c = key
        orders = (key,) if a == c else (key, (b, c, a), (c, a, b))
        if a < b < c:
            orders += ((b, a, c), (a, c, b), (c, b, a))
        for a, b, c in orders:
            for i, x in rows[a]:
                for j, y in rows[b]:
                    if j < i:
                        continue
                    for k, z in rows[c]:
                        if k >= j:
                            triple = (i, j, k)
                            pulled[triple] = pulled.get(triple, 0) + value * x * y * z
    return {key: value for key, value in pulled.items() if value}


class LogCY3Pair:
    """A validated pair with all derived caches.

    Construct with :meth:`build`; instances are immutable in practice: after
    construction the only state that changes is the set of held derived
    values (the lattice data, lattice maps, their factorizations,
    per-marking character tables), each computed on first use and never
    changed afterwards.
    """

    def __init__(self):
        raise TypeError("use LogCY3Pair.build")

    @classmethod
    def build(cls, fan: Fan3, program=(), edge_orientations=None) -> "LogCY3Pair":
        """Check a blowup program on ``fan`` and build its components.

        Raises ``PairError`` with the first failed check.  The build
        derives no lattice data: each step records only what its share of
        the lattice data needs (see the module docstring).
        """
        self = object.__new__(cls)
        diag = validate_fan(fan)
        if diag is not None:
            raise PairError(f"invalid fan: {diag}")
        self.fan = fan
        self.program = tuple(program)
        self.complex = fan.dual_complex(edge_orientations)
        self.warnings = []
        self.toric_basis = ToricPicBasis.of(fan)
        # The fan is valid, so its star surfaces are read unchecked; each
        # component has this pair's edge orientations: v is the head of the
        # edge toward w when (w, v) is a directed edge.
        directed = set(self.complex.edges)
        self.components = {}
        for v, base in enumerate(fan._surfaces):
            heads = tuple([(w, v) in directed for w in base.labels])
            self.components[v] = LooijengaComponent(base, (), heads)
        # Held values are computed after the build; the build reads none.
        self._held = {}
        # The reference coordinates occupied on each edge, held for the build.
        self._occupied = {}
        # What each step's share of the lattice data needs, in program order.
        self._records = []
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

    def _check_new_coordinates(self, k, key, coords):
        """Check step ``k``'s new points on the edge ``key``, in order, and hold them.

        A point is inserted once: the set does not grow when it is taken.
        """
        occupied = self._occupied.setdefault(key, set())
        for q in coords:
            if not isinstance(q, GaussianRational):
                raise PairError(f"step {k}: coordinate must be a Gaussian rational")
            if q.is_zero():
                raise PairError(f"step {k}: blowup point on a 0-stratum")
            size = len(occupied)
            occupied.add(q)
            if len(occupied) == size:
                raise PairError(
                    f"step {k}: coordinate {q} already used on edge "
                    f"{tuple(sorted(key))} (infinitely-near centers rejected)"
                )
            if q == MINUS_ONE:
                self.warnings.append(
                    f"step {k}: blowup point at the marker of edge {tuple(sorted(key))}"
                )

    def _apply_point(self, k: int, step: PointBlowup):
        v, w = step.edge
        key = frozenset((v, w))
        if not self.complex.has_edge(key):
            raise PairError(f"step {k}: {tuple(step.edge)} is not an edge")
        q = step.coordinate
        self._check_new_coordinates(k, key, (q,))
        # E restricts to the new class on each end of its edge.
        images = {u: (0,) * self.components[u].rank + (1,) for u in (v, w)}
        self._records.append((None, images))
        for u, other in ((v, w), (w, v)):
            self.components[u] = self.components[u].with_exceptionals(
                (ExceptionalClass(other, q, k),)
            )

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
        met = []
        for w, need in degrees.items():
            coords = step.points_on(w)
            if len(coords) != need:
                raise PairError(
                    f"step {k}: {len(coords)} intersection points on edge "
                    f"toward {w}, class degree is {need}"
                )
            if need:
                self._check_new_coordinates(k, frozenset((v, w)), coords)
                met.append((w, coords))
        # The period of E's restriction (a global class, hence trivial on the
        # boundary lattice) must be exactly 1.  At the markers it is 1 on
        # every toric class, so only v's exceptional classes the curve meets
        # (with the curve's coordinates) and the classes this step adds count.
        factors = [
            (marker_value(comp, exc), x)
            for exc, x in zip(comp.excs, curve[comp.base.rank:])
            if x
        ]
        # Neighbours gain one exceptional class per intersection point.  The
        # class of a point q has the marker value -q on the head side of its
        # edge and -1/q on the tail side: q or 1/q per point, and one -1
        # when the step adds an odd number of points.
        images = {v: curve}
        for w, coords in met:
            neighbor = self.components[w]
            side = 1 if neighbor.is_head(v) else -1
            factors += [(q, side) for q in coords]
            self.components[w] = neighbor.with_exceptionals(
                tuple([ExceptionalClass(v, q, k) for q in coords])
            )
            images[w] = (0,) * neighbor.rank + (1,) * len(coords)
        if sum(degrees.values()) % 2:
            factors.append((MINUS_ONE, 1))
        self._records.append((vector, images))
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
        if not 0 <= step < len(self.program):
            raise PairError(f"no step {step}")
        return self.toric_basis.rank + step

    def exceptional_class(self, step: int) -> PicVector:
        index = self.exceptional_index(step)
        return PicVector([int(a == index) for a in range(self.pic_rank)], "Y")

    @property
    def canonical(self) -> tuple:
        """K in the Picard basis, from the held lattice data."""
        return self._lattice().canonical

    def canonical_class(self) -> PicVector:
        return PicVector(self.canonical, "Y")

    def edge_keys(self):
        return [frozenset(e) for e in self.complex.edges]

    def boundary_components(self):
        return [self.components[v] for v in sorted(self.components)]

    def component_offsets(self):
        """Start index of each component's block in the boundary lattice, and
        the lattice's rank, held: the map must not be changed."""
        return self.held("component_offsets", LogCY3Pair._component_offsets)

    def _component_offsets(self):
        offsets = {}
        total = 0
        for v in sorted(self.components):
            offsets[v] = total
            total += self.components[v].rank
        return offsets, total

    def cubic_form(self, a, b, c) -> int:
        """The triple intersection product of three threefold classes."""
        va, vb, vc = (self.as_y_coords(x) for x in (a, b, c))
        return symmetric_trilinear(self._lattice().tensor, va, vb, vc)

    def cubic_entries(self) -> dict:
        """The nonzero entries of the cubic tensor, under sorted index triples."""
        return dict(self._lattice().tensor)

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
        for key, value in self._lattice().tensor.items():
            groups[key[2]].append((key, value))
        return tuple(tuple(group) for group in groups)

    def as_y_coords(self, x) -> tuple:
        """The coordinates of a threefold class: a ``PicVector`` in the ``Y``
        basis or a sequence, either of the Picard rank, or ``PairError``."""
        if isinstance(x, PicVector):
            if x.basis != "Y":
                raise PairError(f"expected a threefold class, got basis {x.basis!r}")
            coords = x.coords
        else:
            coords = tuple(x)
        if len(coords) != self.pic_rank:
            raise PairError("class length does not match the Picard rank")
        return coords

    def restriction_matrix(self):
        """Matrix of the restriction map, boundary lattice by threefold basis."""
        from logcy3.exactnum import IntMatrix  # here, so that a build loads no lattice code

        offsets, total = self.component_offsets()
        columns = [
            [
                (offsets[v] + i, x)
                for v in sorted(images)
                for i, x in enumerate(images[v])
                if x
            ]
            for images in self._lattice().restriction
        ]
        return IntMatrix.from_columns(total, columns)

    def _lattice(self) -> LatticeData:
        """The lattice data, derived by its first reader and then held."""
        return self.held("lattice", LogCY3Pair._derive_lattice)

    def _derive_lattice(self) -> LatticeData:
        # The fan's toric layer, then each step's share in program order:
        # a point's exceptional class E has E^3 = 1 and K-coordinate 2; a
        # curve's entries come from curve_blowup_entries, its K-coordinate
        # is 1.  Each step's images were recorded in the build.
        layer = toric_layer(self.fan)
        tensor = dict(layer.tensor)
        restriction = list(layer.restriction)
        canonical = list(layer.canonical)
        for step, (vector, images) in zip(self.program, self._records):
            if isinstance(step, PointBlowup):
                e_index = len(restriction)
                tensor[(e_index, e_index, e_index)] = 1
                canonical.append(2)
            else:
                tensor.update(
                    curve_blowup_entries(restriction, canonical, step.component, vector)
                )
                canonical.append(1)
            restriction.append(images)
        return LatticeData(tensor, tuple(restriction), tuple(canonical))

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

    def marker_support(self) -> SparseCharacter:
        """The markers' character on the boundary lattice, held.

        At the markers every toric class has period 1, so the
        :class:`~logcy3.gaussian.SparseCharacter` holds the exceptional
        rows alone: each exceptional row of the boundary lattice, in flat
        order, with its :func:`~logcy3.boundary.marker_value`, and no toric
        row.  A reader multiplies over these rows only.
        """
        return self.held("marker_support", LogCY3Pair._marker_support)

    def _marker_support(self) -> SparseCharacter:
        support = {}
        row = 0
        for comp in self.boundary_components():
            row += comp.base.rank
            for exc in comp.excs:
                support[row] = marker_value(comp, exc)
                row += 1
        return SparseCharacter(support)

    def marking_ratios(self, marking: Marking) -> list:
        """Minus the marking's point on each edge, in the order of the edges.

        The ratio of the marking to the markers, which are -1 on every
        edge: the :meth:`character_table` at the marking is the
        :meth:`marker_support` (1 off it) times the edge-matching map's
        pull-back of these ratios, class by class.  A marking with no
        point, or the point 0, on an edge raises the error that its table
        raises: the components' tables are read in order until one raises.
        """
        edges = self.complex.edges
        by_edge = marking._by_edge
        try:
            ratios = [-by_edge[frozenset(edge)] for edge in edges]
        except KeyError:
            ratios = []
        if len(ratios) < len(edges) or any(r.is_zero() for r in ratios):
            for comp in self.boundary_components():
                component_character_table(comp, marking)
        return ratios

    def character_table(self, marking: Marking) -> tuple:
        """Marked period values of the boundary basis classes, in flat order.

        For a marking with the marker -1 on every edge, the table is 1 on
        each toric row and the :meth:`marker_support` elsewhere, held once
        for all such markings.  Otherwise each value is read off its own
        component's degree table.  The table of a marking is computed on
        first use and then held on the pair.
        """
        return self.held(("character_table", marking), lambda pair: pair._table(marking))

    def _table(self, marking: Marking) -> tuple:
        if marking.is_markers_on(self.complex.edges):
            return self.held("marker_table", LogCY3Pair._marker_table)
        return tuple(
            value
            for comp in self.boundary_components()
            for value in component_character_table(comp, marking)
        )

    def _marker_table(self) -> tuple:
        table = [ONE] * self.component_offsets()[1]
        for row, value in self.marker_support().values.items():
            table[row] = value
        return tuple(table)

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
        from logcy3.exactnum import snf  # here, so that a build loads no lattice code

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
        return power_product(torus_element, m)

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

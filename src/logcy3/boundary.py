"""Boundary components as anticanonical-cycle surfaces.

Each boundary component of a pair is a smooth toric surface blown up at
interior points of its boundary cycle.  This module holds the component
lattice (toric classes plus exceptional classes), restriction of classes
to the boundary cycle, markings of the 1-strata, and the per-component
period character, read off each component's degree table.  The section
ratios on each boundary edge are the reference the tests check the tables
against, and the cocycle oracle reads its section values from them.

Coordinate conventions, fixed once for the whole package:

* every 1-stratum has a single *reference chart*, the identification
  attached to the head of its directed edge; all stored coordinates
  (blowup points, markings, restrictions to the cycle) are reference
  coordinates;
* the tail component sees the inverse coordinate;
* the distinguished marker point has coordinate -1 in either chart.
"""

from __future__ import annotations

from logcy3.gaussian import (
    ExactArithmeticError,
    Frozen,
    GaussianRational,
    MINUS_ONE,
    ONE,
    SparseCharacter,
    held_property,
    product,
)
from logcy3.toric import Fan2


class BoundaryError(ValueError):
    """Raised on structurally invalid boundary data."""


class ExceptionalClass(Frozen):
    """An exceptional curve class on a component, created by one blowup step.

    ``neighbor`` names the other endpoint of the boundary edge carrying the
    blowup point; ``coordinate`` is the point in the reference chart of that
    edge; ``step`` is the index of the originating program step.
    """

    _fields = ("neighbor", "coordinate", "step")

    # Slots, set as GaussianRational's are: a build makes one of these per
    # point it adds to a component (48 of them for a 12-ray document with 8
    # conics), and this takes 0.37 us to the 0.71 us of three
    # ``object.__setattr__`` calls (timeit, CPython 3.11, x86-64).
    __slots__ = ("neighbor", "coordinate", "step")

    def __init__(self, neighbor: int, coordinate: GaussianRational, step: int):
        _set_neighbor(self, neighbor)
        _set_coordinate(self, coordinate)
        _set_step(self, step)

    def __reduce__(self):
        return ExceptionalClass, (self.neighbor, self.coordinate, self.step)


# Slot setters that bypass the immutable ``Frozen.__setattr__``.
_set_neighbor = ExceptionalClass.neighbor.__set__
_set_coordinate = ExceptionalClass.coordinate.__set__
_set_step = ExceptionalClass.step.__set__


class Marking(Frozen):
    """A choice of interior point on each 1-stratum, in reference coordinates.

    ``points`` is a tuple of (frozenset edge key, coordinate).
    """

    _fields = ("points",)

    @staticmethod
    def build(values: dict) -> "Marking":
        items = []
        for key in sorted(values, key=lambda k: tuple(sorted(k))):
            coord = values[key]
            if coord.is_zero():
                raise BoundaryError("marking point on a 0-stratum")
            items.append((frozenset(key), coord))
        return Marking(tuple(items))

    @staticmethod
    def markers(edge_keys) -> "Marking":
        """The distinguished marking: the point -1 on every edge."""
        return Marking.build({frozenset(e): MINUS_ONE for e in edge_keys})

    @held_property
    def _hash(self) -> int:
        return hash(self.points)

    def __hash__(self):
        # Held, so looking up a held table under a marking hashes no point.
        return self._hash

    @held_property
    def _by_edge(self) -> dict:
        # Read once per marking; the first point listed on an edge wins.
        by_edge = {}
        for key, coord in self.points:
            by_edge.setdefault(key, coord)
        return by_edge

    def is_markers_on(self, edges) -> bool:
        """Whether the point on every edge ``(v, w)`` of ``edges`` is the marker -1.

        The scan stops at the first edge whose point is not -1 or that has
        no point, so a marking off the markers costs one lookup.
        """
        by_edge = self._by_edge
        return all(by_edge.get(frozenset(edge)) == MINUS_ONE for edge in edges)

    def point(self, v: int, w: int) -> GaussianRational:
        key = frozenset((v, w))
        try:
            return self._by_edge[key]
        except KeyError:
            raise BoundaryError(
                f"marking has no point on edge {tuple(sorted(key))}"
            ) from None


class LooijengaComponent(Frozen):
    """A boundary component: toric surface plus boundary-interior blowups.

    The Picard basis is the toric basis of ``base`` followed by the
    exceptional classes in ``excs`` order.  ``head_sides[i]`` records
    whether this component is the head of the directed edge toward
    ``base.labels[i]`` (so sees reference coordinates directly).
    """

    _fields = ("base", "excs", "head_sides")

    # Written out for speed: the 280 validations of a seed-1 ingest run build
    # 6,520 components, and three ``object.__setattr__`` calls take 0.8-1.4 us
    # to the generic 1.4-2.3 us for three fields (timeit, CPython 3.11, x86-64).
    def __init__(self, base: Fan2, excs: tuple, head_sides: tuple):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "excs", excs)
        object.__setattr__(self, "head_sides", head_sides)

    @property
    def vertex(self) -> int:
        return self.base.vertex

    @property
    def neighbors(self):
        return self.base.labels

    @property
    def rank(self) -> int:
        return self.base.rank + len(self.excs)

    def with_exceptionals(self, excs: tuple) -> "LooijengaComponent":
        """The component blown up at ``excs`` too: one copy for the batch."""
        labels = self.base.labels
        for exc in excs:
            if exc.neighbor not in labels:
                raise BoundaryError(
                    f"vertex {exc.neighbor} is not adjacent to component {self.vertex}"
                )
        return LooijengaComponent(self.base, self.excs + excs, self.head_sides)

    # -- charts --------------------------------------------------------------

    def is_head(self, w: int) -> bool:
        return self.head_sides[self.base.ray_of_neighbor(w)]

    def side_coordinate(self, w: int, reference: GaussianRational) -> GaussianRational:
        """Convert a reference coordinate on edge to this component's chart."""
        return reference if self.is_head(w) else reference.inverse()

    # -- lattice -------------------------------------------------------------

    def split(self, vec):
        if len(vec) != self.rank:
            raise BoundaryError("class length does not match component rank")
        return tuple(vec[: self.base.rank]), tuple(vec[self.base.rank:])

    def intersection_vector(self, b) -> tuple:
        """``b``'s degree on each toric basis ray, then ``-b_e`` per (-1)-class.

        The intersection form: ``a.b`` is ``a`` dotted with this vector.
        """
        bt, be = self.split(b)
        base = self.base
        return tuple([base.degree_on_ray(bt, i) for i in base.basis_indices] + [-x for x in be])

    @held_property
    def degree_table(self) -> tuple:
        """The nonzero edge degrees of each basis class, in basis order.

        Entry ``i`` lists the ``(neighbor, degree)`` pairs of basis class
        ``i`` with a nonzero degree on the edge toward ``neighbor``: at most
        three for a toric class (its own ray and the two adjacent ones), held
        on the star surface (:attr:`~logcy3.toric.Fan2.degree_rows`), and
        ``(exc.neighbor, 1)`` for an exceptional class.  Computed on first
        use and then held on the component.
        """
        return self.base.degree_rows + tuple(((exc.neighbor, 1),) for exc in self.excs)

    def edge_degrees(self, vec) -> dict:
        """A class's degree on each (strict-transform) edge divisor, by neighbour.

        One pass over the degree table, the nonzero coordinates only; the
        neighbours come in ``neighbors`` order.
        """
        if len(vec) != self.rank:
            raise BoundaryError("class length does not match component rank")
        degrees = dict.fromkeys(self.base.labels, 0)
        for x, entries in zip(vec, self.degree_table):
            if x:
                for w, d in entries:
                    degrees[w] += x * d
        return degrees

    def anticanonical(self):
        """The boundary cycle class (the anticanonical class of the component)."""
        return tuple(self.base.anticanonical()) + (-1,) * len(self.excs)

    def basis_vectors(self):
        for i in range(self.rank):
            vec = [0] * self.rank
            vec[i] = 1
            yield tuple(vec)


# ---------------------------------------------------------------------------
# Restriction to the cycle and section ratios
# ---------------------------------------------------------------------------


def restrict_to_cycle(c: LooijengaComponent, vec) -> dict:
    """Restrict a component class to its boundary cycle.

    The result maps each neighbour to the ``(reference coordinate,
    multiplicity)`` entries on the edge toward it, with no zero
    multiplicity.  A toric class of degree d on an edge restricts to d
    times the marker point; an exceptional class restricts to its blowup
    point with multiplicity 1.
    """
    vt, ve = c.split(vec)
    per_edge: dict = {w: [] for w in c.neighbors}
    for w in c.neighbors:
        ray = c.base.ray_of_neighbor(w)
        d = c.base.degree_on_ray(vt, ray) if c.base.rank else 0
        if d:
            per_edge[w].append((MINUS_ONE, d))
    for coeff, exc in zip(ve, c.excs):
        if coeff:
            per_edge[exc.neighbor].append((exc.coordinate, coeff))
    return {w: tuple(entries) for w, entries in per_edge.items()}


def section_ratio(points, marking_point: GaussianRational) -> GaussianRational:
    """Boundary value ratio of the rational section cut out by a divisor.

    For a divisor ``sum a_i [q_i]`` of total degree d on a 1-stratum with
    chart coordinate z, the section ``f(z) = prod (z - q_i)**a_i / (z - p)**d``
    has ``f(inf) = 1`` and ``f(0) = prod q_i**a_i / p**d`` up to cancelling
    signs, so the ratio ``f(0)/f(inf)`` is ``prod q_i**a_i / p**d``.

    ``points`` is a list of (coordinate, multiplicity) pairs in a single
    chart; 0-stratum points (coordinate 0) are rejected.
    """
    if marking_point.is_zero():
        raise BoundaryError("marking point on a 0-stratum")
    degree = 0
    value = ONE
    for q, mult in points:
        if q.is_zero():
            raise BoundaryError("divisor supported on a 0-stratum")
        degree += mult
        if mult:
            value = value * (q ** mult)
    return value * (marking_point ** (-degree))


def flag_section_ratios(c: LooijengaComponent, marking: Marking, vec) -> dict:
    """The section ratio of a class on each edge of the component, by neighbour.

    The class is restricted to the cycle, and each edge's points and
    marking point are read in this component's chart on it.
    """
    divisor = restrict_to_cycle(c, vec)
    ratios = {}
    for w in c.neighbors:
        points = [(c.side_coordinate(w, q), m) for q, m in divisor[w]]
        p = c.side_coordinate(w, marking.point(c.vertex, w))
        ratios[w] = section_ratio(points, p)
    return ratios


def component_marked_period(
    c: LooijengaComponent, marking: Marking, vec
) -> GaussianRational:
    """The period character of the component at a class, for a given marking.

    The value is the product over boundary edges of the section ratios of
    the restricted class (:func:`flag_section_ratios`).
    """
    return product(flag_section_ratios(c, marking, vec).values())


def marker_value(c: LooijengaComponent, exc: ExceptionalClass) -> GaussianRational:
    """An exceptional class's marked period at the markers: -(its point here).

    That is -x at the head of its edge and -1/x at the tail, for the
    reference point x.  At the markers every toric class has period 1, so
    these values are the whole of the markers' character: a pair holds them
    as its support (:meth:`~logcy3.pair.LogCY3Pair.marker_support`).
    """
    return -c.side_coordinate(exc.neighbor, exc.coordinate)


def component_character_table(c: LooijengaComponent, marking: Marking) -> tuple:
    """Marked period values of the component's basis classes, in basis order.

    The values of :func:`component_marked_period` on the unit vectors, read
    off the degree table.  With q the marking point of an edge in reference
    coordinates, this component's chart sees p = q at the head of the edge
    and p = 1/q at the tail.  A toric class of degree d on the edge
    restricts to d times the marker point -1 and contributes ``(-1/p)**d``,
    that is ``(-1/q)**d`` at the head and ``(-q)**d`` at the tail; an
    exceptional class at reference point x contributes its own coordinate
    over p, ``x/q`` at the head and ``q/x`` at the tail.  The head sides
    are read by ray index, the marking once per edge.

    At the markers (q = -1) every toric value is 1 and each exceptional
    value is its :func:`marker_value`, so a pair builds the markers' table
    from those alone and reads this function for other markings only.
    """
    ratios = {}
    points = {}
    for w, head in zip(c.base.labels, c.head_sides):
        q = marking.point(c.vertex, w)
        if q.is_zero():
            raise BoundaryError("marking point on a 0-stratum")
        ratios[w] = -q.inverse() if head else -q
        points[w] = (q, head)
    values = list(map(SparseCharacter(ratios).at, c.degree_table[: c.base.rank]))
    for exc in c.excs:
        q, head = points[exc.neighbor]
        x = exc.coordinate
        values.append(x / q if head else q / x)
    return tuple(values)

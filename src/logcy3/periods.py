"""Global lattice maps and period characters of the boundary surface.

The boundary lattice is the direct sum of the component Picard lattices.
This module builds the edge-matching map (whose kernel is the matching
lattice of classes agreeing in degree across every 1-stratum), the wedge
map into the second exterior power of the cocharacter lattice, and the
period characters: marked on the full boundary lattice, unmarked on the
matching lattice, and the induced character on the quotient by the image
of the threefold Picard lattice.
"""

from __future__ import annotations

from logcy3.boundary import Marking
from logcy3.exactnum import IntMatrix, snf
from logcy3.gaussian import (
    ONE, ExactArithmeticError, Frozen, GaussianRational, power_product, power_product_of,
)
from logcy3.pair import LogCY3Pair, PairError


class PeriodConsistencyError(RuntimeError):
    """Raised when an internal period invariant fails (implementation bug)."""


class PeriodCharacter(Frozen):
    """A multiplicative character on a lattice, stored on a fixed basis.

    ``basis`` holds the basis vectors (as integer tuples in the ambient
    coordinates) and ``values`` the corresponding nonzero values in Q(i).
    """

    _fields = ("basis", "values")

    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values)


def edge_matching_map(pair: LogCY3Pair) -> IntMatrix:
    """The degree-difference map from the boundary lattice to the edge lattice.

    Row per directed edge (v, w): the degree of the v-component minus the
    degree of the w-component on that edge.  Built on first use and then
    held on the pair, as is its Smith normal form.
    """
    return pair.held("edge_matching_map", _build_edge_matching_map)


def edge_matching_snf(pair: LogCY3Pair):
    """The Smith normal form of the edge-matching map, held on the pair."""
    return pair.held("edge_matching_snf", lambda p: snf(edge_matching_map(p)))


def _build_edge_matching_map(pair: LogCY3Pair) -> IntMatrix:
    # Column n holds the nonzero edge degrees of basis class n, read off its
    # component's degree table, signed as the rows require and sorted by row.
    edges = pair.complex.edges
    columns = []
    for comp in pair.boundary_components():
        u = comp.vertex
        for entries in comp.degree_table:
            column = []
            for w, d in entries:
                row = pair.complex.edge_index(u, w)
                column.append((row, d if edges[row][0] == u else -d))
            column.sort()
            columns.append(column)
    return IntMatrix.from_columns(len(edges), columns)


def matching_kernel(pair: LogCY3Pair) -> IntMatrix:
    """The matching generators as the sparse columns of one matrix.

    This is the one place that chooses the matching basis: the kernel
    columns of the held factorization's ``V``, from the rank on.  Held on
    the pair; every reader of the basis goes through it, except the
    quotient's coordinates, which are read off the same factorization's
    ``V_inv``.
    """
    return pair.held("matching_kernel", _matching_kernel)


def _matching_kernel(pair: LogCY3Pair) -> IntMatrix:
    factored = edge_matching_snf(pair)
    return IntMatrix.from_columns(factored.V.rows, factored.V.columns[factored.rank :])


def matching_lattice(pair: LogCY3Pair):
    """Saturated basis of the kernel of the edge-matching map.

    The :func:`matching_kernel` columns made dense once, held on the pair,
    and returned as a fresh list.
    """
    return list(pair.held("matching_lattice", _dense_generators))


def _dense_generators(pair: LogCY3Pair) -> tuple:
    kernel = matching_kernel(pair)
    return tuple(map(kernel.column, range(kernel.cols)))


def matching_values(pair: LogCY3Pair) -> tuple:
    """The markers' period value on each :func:`matching_lattice` generator.

    Each :func:`matching_kernel` column valued on the pair's
    :meth:`~logcy3.pair.LogCY3Pair.marker_support` by :func:`support_value`,
    over its exceptional entries only, as every toric class has period 1 at
    the markers.  Computed on first use and held on the pair; the unmarked
    period, the quotient and the decision procedure all read them from here.
    """
    return pair.held("matching_values", _matching_values)


def _matching_values(pair: LogCY3Pair) -> tuple:
    support = pair.marker_support()
    return tuple(support_value(support, column) for column in matching_kernel(pair).columns)


def support_value(support: dict, column) -> GaussianRational:
    """A character that is 1 off ``support``, valued at a sparse column.

    ``support`` maps rows to values and ``column`` lists ``(row, entry)``
    pairs; the value is the power product over the rows in the support,
    and a row left out contributes exactly 1.
    """
    return power_product_of((support[i], x) for i, x in column if i in support)


def _wedge(a, b):
    return (
        a[0] * b[1] - a[1] * b[0],
        a[0] * b[2] - a[2] * b[0],
        a[1] * b[2] - a[2] * b[1],
    )


def wedge_map(pair: LogCY3Pair) -> IntMatrix:
    """Edge lattice to second exterior power of the cocharacter lattice."""
    rays = pair.fan.rays
    return IntMatrix.from_columns(
        3,
        [
            [(i, x) for i, x in enumerate(_wedge(rays[v], rays[w])) if x]
            for v, w in pair.complex.edges
        ],
    )


def edge_cokernel_report(pair: LogCY3Pair):
    """Cokernel of the edge-matching map and the composition check.

    Returns ``(free_rank, torsion, composition_zero)``.  The wedge map
    annihilates the degree vectors of toric component classes (the
    composition flag checks exactly those columns); exceptional classes map
    onto wedge tensors instead, which is what cuts the quotient lattice
    down for non-toric pairs.  Only the toric columns are composed.
    """
    ell = edge_matching_map(pair)
    offsets, _ = pair.component_offsets()
    toric = IntMatrix.from_columns(
        ell.rows,
        [
            ell.columns[offsets[v] + i]
            for v, comp in pair.components.items()
            for i in range(comp.base.rank)
        ],
    )
    composition_zero = not any((wedge_map(pair) * toric).columns)
    free_rank, torsion = edge_matching_snf(pair).cokernel()
    return free_rank, torsion, composition_zero


# ---------------------------------------------------------------------------
# Period characters
# ---------------------------------------------------------------------------


def evaluate_boundary_character(
    pair: LogCY3Pair, marking: Marking, flat
) -> GaussianRational:
    """Period value of a flat boundary-lattice vector for a given marking.

    The period is a character, so its value is the power product of the
    marking's character table over the coordinates of the vector.
    """
    table = pair.character_table(marking)
    if len(flat) != len(table):
        raise PairError("boundary vector length mismatch")
    return power_product(table, flat)


def _unit_basis(n: int) -> tuple:
    """The unit vectors of Z^n, each sliced from one zero tuple."""
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(n))


def marked_period(pair: LogCY3Pair, marking: Marking = None) -> PeriodCharacter:
    """The marked period character on the full boundary lattice."""
    if marking is None:
        marking = pair.markers()
    values = pair.character_table(marking)
    return PeriodCharacter(_unit_basis(len(values)), values)


def _alternative_marking(pair: LogCY3Pair) -> Marking:
    # A deterministic marking distinct from the markers on every edge.
    values = {}
    for n, key in enumerate(sorted(pair.edge_keys(), key=lambda k: tuple(sorted(k)))):
        values[key] = GaussianRational(n + 2, 1)
    return Marking.build(values)


def unmarked_period(pair: LogCY3Pair) -> PeriodCharacter:
    """The period character on the matching lattice.

    On matching classes the per-edge degrees agree across the two sides, so
    the value does not depend on the marking.  The values are the held
    :func:`matching_values` at the markers.  Per boundary basis class, a
    second marking's table must be the markers' times the scaling character
    at the ratio of the points on each edge, trivial on matching classes;
    the markers' value is read off the support, 1 on a toric class.
    """
    values = matching_values(pair)
    support, other = pair.marker_support(), _alternative_marking(pair)
    # The markers' point is -1 on every edge, so the ratio is -(other's point).
    ratios = [-other.point(v, w) for v, w in pair.complex.edges]
    moved = edge_matching_map(pair).pull_back(ratios)
    table = pair.character_table(other)
    if any(b != support.get(n, ONE) * m for n, (b, m) in enumerate(zip(table, moved))):
        raise PeriodConsistencyError(
            "period value depends on the marking on a matching class"
        )
    return PeriodCharacter(tuple(matching_lattice(pair)), values)


def edge_scaling_character(pair: LogCY3Pair, lambdas) -> PeriodCharacter:
    """The character moving the marked period under a marking rescaling.

    ``lambdas`` lists a nonzero scalar for every edge, in the order of the
    dual complex edges.  The value on a boundary basis class is the product
    over edges of the scalar raised to the degree difference of the class
    across that edge.
    """
    values = edge_matching_map(pair).pull_back(_edge_scalars(pair, lambdas))
    return PeriodCharacter(_unit_basis(len(values)), values)


def _edge_scalars(pair: LogCY3Pair, lambdas):
    scalars = list(lambdas)
    if len(scalars) != len(pair.complex.edges):
        raise PairError("one scalar per edge required")
    for s in scalars:
        if s.is_zero():
            raise ExactArithmeticError("edge scalars must be nonzero")
    return scalars


def scale_marking(pair: LogCY3Pair, marking: Marking, lambdas) -> Marking:
    """Multiply each marking point by its edge's scalar, in reference charts.

    ``lambdas`` lists one nonzero scalar per edge, in the order of the dual
    complex edges, as :func:`edge_scaling_character` reads it.
    """
    scalars = _edge_scalars(pair, lambdas)
    values = {}
    for (v, w), lam in zip(pair.complex.edges, scalars):
        values[frozenset((v, w))] = lam * marking.point(v, w)
    return Marking.build(values)


# ---------------------------------------------------------------------------
# The induced character on the quotient by global classes
# ---------------------------------------------------------------------------


def quotient_character(pair: LogCY3Pair):
    """Period character induced on the quotient of the matching lattice.

    The quotient is by the image of the threefold Picard lattice under
    restriction.  Returns ``(character, torsion_invariants)`` where the
    character is evaluated on lifts of a free-part basis of the quotient.
    Raises :class:`PeriodConsistencyError` if the period is not already
    trivial on the image (which would signal an implementation bug).

    Everything is read off the held factorization of the edge-matching
    map: an image vector's coordinates in the matching basis are the
    entries of ``V_inv k`` from the rank on, and the lifts are columns of
    the ``U_inv`` of the small inclusion of the image into the matching
    lattice, the one Smith normal form this computes.  The character is
    multiplicative, so a lift's value is the power product of the held
    :func:`matching_values` over its column of ``U_inv``; only the image
    vectors are evaluated on the markers' character itself, over the rows
    of the pair's :meth:`~logcy3.pair.LogCY3Pair.marker_support`.
    """
    support = pair.marker_support()
    k_basis, _ = pair.k_image()
    for gen in k_basis:
        if not power_product_of((value, gen[i]) for i, value in support.items()).is_one():
            raise PeriodConsistencyError(
                "period is nontrivial on a restricted global class"
            )
    factored = edge_matching_snf(pair)
    rank = factored.rank
    columns = []
    for gen in k_basis:
        coordinates = factored.coordinates(gen)
        if any(coordinates[:rank]):
            raise PeriodConsistencyError(
                "restricted global class outside the matching lattice"
            )
        columns.append([(i, x) for i, x in enumerate(coordinates[rank:]) if x])
    kernel = matching_kernel(pair)
    s = kernel.cols
    dec = snf(IntMatrix.from_columns(s, columns))  # s x t inclusion
    _, torsion = dec.cokernel()
    held = matching_values(pair)
    basis = []
    values = []
    for i in range(dec.rank, s):
        # The lift's coefficients in the matching basis.
        basis.append(kernel.apply(dec.U_inv.column(i)))
        values.append(
            power_product_of((held[j], x) for j, x in dec.U_inv.columns[i])
        )
    return PeriodCharacter(tuple(basis), tuple(values)), torsion

"""Independent cross-checks for the blowup cubic form and the period recipe.

Two oracles live here:

* subdivision checks: blowing up a torus-invariant center (a 0-stratum
  point, or a 1-stratum curve) has a purely toric model, the star
  subdivision of the fan; the blowup rules for the cubic tensor must
  reproduce the subdivided fan's tensor entry by entry under the standard
  basis identification (pullbacks plus exceptional class).  The blowup
  tensor is pulled back once along that identification, through
  :func:`~logcy3.pair.pull_back_tensor` as decide step (ii) pulls back, and
  compared with the wall-relation tensor on the pulled-back keys and the
  triples a toric tensor can hold, so a check costs time linear in the
  rays;
* the cocycle period path: the period of a matching class can also be
  computed as a product over oriented triangles of local comparison
  scalars of the explicit sections; this must agree with the per-component
  product of section ratios.
"""

from __future__ import annotations

from logcy3.boundary import Marking, flag_section_ratios
from logcy3.exactnum import IntMatrix
from logcy3.gaussian import GaussianRational, ONE
from logcy3.pair import LogCY3Pair, PairError, PointBlowup, curve_blowup_entries, pull_back_tensor
from logcy3.toric import Fan3, TripleIntersection, star_subdivide, toric_layer


# ---------------------------------------------------------------------------
# Boundary vectors per component
# ---------------------------------------------------------------------------


def split_boundary_vector(pair: LogCY3Pair, flat) -> dict:
    """A flat boundary-lattice vector as one coordinate tuple per component."""
    offsets, total = pair.component_offsets()
    if len(flat) != total:
        raise PairError("boundary vector length mismatch")
    return {
        v: tuple(flat[offsets[v]: offsets[v] + pair.components[v].rank])
        for v in sorted(pair.components)
    }


# ---------------------------------------------------------------------------
# Star-subdivision cubic checks
# ---------------------------------------------------------------------------


def point_subdivision_check(fan: Fan3, cone):
    """Check the point-blowup tensor against the subdivided fan's tensor.

    Returns ``None`` on exact agreement, else a diagnostic naming the first
    mismatching triple.
    """
    cone = tuple(cone)
    sub = star_subdivide(fan, cone)
    # Any interior point has the same cubic data; use a generic coordinate.
    edge = tuple(sorted(cone[:2]))
    pair = LogCY3Pair.build(fan, [PointBlowup(edge, GaussianRational(2))])
    return _compare_against(sub, set(cone), pair, pair.cubic_entries())


def curve_subdivision_check(fan: Fan3, wall):
    """Check the curve-blowup tensor rules against a 1-stratum blowup.

    The center is the invariant curve of the wall; the entries that the
    rule a pair's lattice data is derived with
    (:func:`~logcy3.pair.curve_blowup_entries`) adds for it to the toric
    pair's lattice data must match the star-subdivided fan.
    """
    v, w = tuple(wall)
    sub = star_subdivide(fan, (v, w))
    base_pair = LogCY3Pair.build(fan)
    comp = base_pair.components[v]
    curve = comp.base.ray_class(comp.base.ray_of_neighbor(w))
    layer = toric_layer(fan)
    tensor = dict(layer.tensor)
    tensor.update(
        curve_blowup_entries(
            layer.restriction, layer.canonical, v, comp.intersection_vector(curve)
        )
    )
    return _compare_against(sub, {v, w}, base_pair, tensor)


def _compare_against(sub: Fan3, center, base_pair, tensor):
    # Ray divisor u of the subdivided fan is the pullback of D_u, less E on
    # the center; the new ray is E, the class after the toric ones.
    basis = base_pair.toric_basis
    columns = []
    for u, column in enumerate(basis.sparse_classes):
        columns.append(column + ((basis.rank, -1),) if u in center else column)
    columns.append(((basis.rank, 1),))
    pulled = pull_back_tensor(tensor, IntMatrix.from_columns(basis.rank + 1, columns))
    # Off the pulled-back keys and the triples a toric tensor can hold (the
    # max cones, (a, a, b) and (a, b, b) on a wall, (i, i, i)), both are 0.
    support = set(pulled)
    support.update(tuple(sorted(cone)) for cone in sub.max_cones)
    for wall in sub.walls():
        a, b = sorted(wall)
        support.update(((a, a, b), (a, b, b)))
    support.update((i, i, i) for i in range(sub.n_rays))
    table = TripleIntersection(sub)
    for key in sorted(support):
        expected, got = table.ray_triple(*key), pulled.get(key, 0)
        if expected != got:
            return (
                f"cubic mismatch at rays {key}: "
                f"subdivided fan gives {expected}, blowup rules give {got}"
            )
    return None


# ---------------------------------------------------------------------------
# Cocycle period path
# ---------------------------------------------------------------------------


def cocycle_period(pair: LogCY3Pair, flat, marking: Marking = None) -> GaussianRational:
    """Period of a matching class computed as a product over triangles.

    For each (component, edge) flag, the explicit section of the restricted
    class takes the value f(0) at the triangle where the flag's directed
    edge occurs positively, and 1 at the other; the scalar of a triangle is
    the product of section values with sign +1 at each flag's 0-end and -1
    at its infinity-end.  The product over all triangles telescopes to the
    period; computing it triangle by triangle is an independent consistency
    path through the orientation data.  The section values are those of
    :func:`~logcy3.boundary.flag_section_ratios`; the triangle walk is this
    path's own.
    """
    if marking is None:
        marking = pair.markers()
    per_component = split_boundary_vector(pair, flat)
    # Section boundary values per flag (u, w): value at the 0-end triangle.
    flag_values = {}
    for u in sorted(pair.components):
        ratios = flag_section_ratios(pair.components[u], marking, per_component[u])
        flag_values.update(((u, w), ratio) for w, ratio in ratios.items())
    value = ONE
    for tri in pair.complex.triangles:
        alpha = ONE
        for idx in range(3):
            u, w = tri[idx], tri[(idx + 1) % 3]
            # The directed flag (u, w) occurs positively in this triangle:
            # this corner is the 0-end of u's chart on the edge, and the
            # infinity-end of w's chart, which contributes f(inf)**(-1) = 1.
            alpha = alpha * flag_values[(u, w)]
        value = value * alpha
    return value

"""Independent cross-checks for the blowup cubic form and the period recipe.

Two oracles live here:

* subdivision checks: blowing up a torus-invariant center (a 0-stratum
  point, or a 1-stratum curve) has a purely toric model, the star
  subdivision of the fan; the blowup rules for the cubic tensor must
  reproduce the subdivided fan's tensor entry by entry under the standard
  basis identification (pullbacks plus exceptional class);
* the cocycle period path: the period of a matching class can also be
  computed as a product over oriented triangles of local comparison
  scalars of the explicit sections; this must agree with the per-component
  product of section ratios.
"""

from __future__ import annotations

from logcy3.boundary import Marking, restrict_to_cycle, section_ratio
from logcy3.exactnum import GaussianRational, ONE, symmetric_trilinear
from logcy3.pair import LogCY3Pair, PairError, PointBlowup, curve_blowup_entries
from logcy3.toric import Fan3, TripleIntersection, star_subdivide


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


def _ray_class_with_exc(pair: LogCY3Pair, u: int, exc_coeff: int):
    """Threefold class ``(pullback of D_u) + exc_coeff * E`` in the blown-up basis."""
    toric = pair.toric_basis.ray_class(u)
    return tuple(toric) + (exc_coeff,)


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
    return _compare_tensors(pair, sub, set(cone))


def curve_subdivision_check(fan: Fan3, wall):
    """Check the curve-blowup tensor rules against a 1-stratum blowup.

    The center is the invariant curve of the wall; the entries the build's
    own rule (:func:`~logcy3.pair.curve_blowup_entries`) adds for it must
    match the star-subdivided fan.
    """
    v, w = tuple(wall)
    sub = star_subdivide(fan, (v, w))
    base_pair = LogCY3Pair.build(fan)
    comp = base_pair.components[v]
    curve = comp.base.ray_class(comp.base.ray_of_neighbor(w))
    tensor = base_pair.cubic_entries()
    tensor.update(curve_blowup_entries(base_pair, v, curve))

    def blowup_triple(x, y, z):
        return symmetric_trilinear(tensor, x, y, z)

    return _compare_against(sub, {v, w}, base_pair, blowup_triple)


def _compare_tensors(pair: LogCY3Pair, sub: Fan3, center):
    return _compare_against(
        sub, center, pair, lambda x, y, z: pair.cubic_form(x, y, z)
    )


def _compare_against(sub: Fan3, center, base_pair, triple_fn):
    table = TripleIntersection(sub)
    new_index = sub.n_rays - 1

    def mapped(u):
        if u == new_index:
            toric = (0,) * base_pair.toric_basis.rank
            return toric + (1,)
        return _ray_class_with_exc(base_pair, u, -1 if u in center else 0)

    classes = [mapped(u) for u in range(sub.n_rays)]
    for i in range(sub.n_rays):
        for j in range(i, sub.n_rays):
            for k in range(j, sub.n_rays):
                expected = table.ray_triple(i, j, k)
                got = triple_fn(classes[i], classes[j], classes[k])
                if expected != got:
                    return (
                        f"cubic mismatch at rays ({i}, {j}, {k}): "
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
    :func:`~logcy3.boundary.section_ratio`; the triangle walk is this
    path's own.
    """
    if marking is None:
        marking = pair.markers()
    per_component = split_boundary_vector(pair, flat)
    # Section boundary values per flag (u, w): value at the 0-end triangle.
    flag_values = {}
    for u in sorted(pair.components):
        comp = pair.components[u]
        divisor = restrict_to_cycle(comp, per_component[u])
        for w in comp.neighbors:
            points = [(comp.side_coordinate(w, q), m) for q, m in divisor[w]]
            p = comp.side_coordinate(w, marking.point(u, w))
            flag_values[(u, w)] = section_ratio(points, p)
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

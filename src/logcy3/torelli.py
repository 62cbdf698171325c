"""Deciding isomorphism of pairs by reduction to a common toric model.

The pipeline matches the combinatorics of the two dual complexes, checks
that the supplied correspondence preserves the cubic form, peels the blowup
programs step by step (classifying each contraction against the divisorial
contraction table), compares the base toric models up to unimodular
equivalence, and finally compares the exact period characters on the
matching lattice.  Every verdict carries a certificate naming the check
that decided it, with its witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from logcy3.boundary import Marking
from logcy3.exactnum import (
    ExactArithmeticError,
    Frozen,
    IntMatrix,
    dot,
    power_product_of,
    snf,
)
from logcy3.pair import CurveBlowup, LogCY3Pair, PairError, PicVector, PointBlowup
from logcy3.periods import (
    edge_matching_map,
    edge_matching_snf,
    matching_kernel,
    matching_lattice,
    matching_values,
)
from logcy3.toric import (
    Fan3,
    ToricIntersectionData,
    toric_model_map,
    validate_fan,
)


class CorrespondenceError(PairError):
    """Raised for a malformed correspondence between two pairs.

    A ``PairError``, so a caller that reports malformed pairs reports it
    without importing this module.
    """


class ReconstructionError(ValueError):
    """Raised when intersection data cannot come from a smooth complete fan."""


# ---------------------------------------------------------------------------
# Contraction classification
# ---------------------------------------------------------------------------

_CONTRACTION_TABLE = {
    # (E.l, K.l, E.K^2) -> divisorial contraction type
    (-1, -2, 4): 2,
    (-2, -1, 1): 5,
}


def recognize_contraction_type(triple):
    """Divisorial contraction type of an intersection triple, or None.

    ``(-1, -1, c)`` is the blowup of a smooth curve (type 1); for ``c = 2``
    the same triple also fits the small-center types 3 and 4, which blowup
    programs never produce, so type 1 is reported.
    """
    triple = tuple(triple)
    if triple in _CONTRACTION_TABLE:
        return _CONTRACTION_TABLE[triple]
    if triple[:2] == (-1, -1):
        return 1
    return None


def classify_contraction(pair: LogCY3Pair, step: int):
    """Type and intersection triple of the contraction undoing one step.

    The triple is ``(E.l, K.l, E.K^2)`` for the extremal curve class l of
    the contraction, taken on the threefold just after the step.  It is
    read off the pair itself: building replays the program in order, and
    each step only appends its exceptional class, its canonical coordinate
    and tensor entries whose largest index is that class.  So the pair
    truncated after the step has exactly the tensor entries with indices up
    to the step's exceptional index, and its canonical class is ``K`` with
    every later coordinate set to zero.
    """
    if not 0 <= step < len(pair.program):
        raise PairError(f"no step {step}")
    e_index = pair.exceptional_index(step)
    k = pair.canonical
    # The extremal curve lies in E; pullbacks meet it trivially and E meets
    # it in -1, so intersection against l reads off the E-coefficient.
    e_dot_l = -1
    k_dot_l = -k[e_index]
    # E.K^2 with K cut after the step: only entries (i, j, e) with e the
    # largest index meet E there, and i != j counts both orders.
    e_k2 = sum(
        value * (1 if i == j else 2) * k[i] * k[j]
        for (i, j, _), value in pair.entries_ending_at(e_index)
    )
    triple = (e_dot_l, k_dot_l, e_k2)
    mori_type = recognize_contraction_type(triple)
    if mori_type is None:
        raise PairError(f"step {step}: triple {triple} matches no contraction type")
    return mori_type, triple


# ---------------------------------------------------------------------------
# Fan reconstruction from intersection data
# ---------------------------------------------------------------------------


def reconstruct_fan(data: ToricIntersectionData, seed=None) -> Fan3:
    """Rebuild a fan, up to unimodular equivalence, from intersection data.

    One cone is seeded with the standard basis; all other rays are placed
    by propagating the wall relation
    ``v_apex + c1 * v_x + c2 * v_y + v_other = 0`` across walls, where the
    coefficients are the self-intersections of the wall curve inside the
    two adjacent components.  Inconsistent data raises
    :class:`ReconstructionError`.
    """
    cones = [tuple(sorted(c)) for c in data.cones]
    wall_cones: dict = {}
    for cone in cones:
        for t in range(3):
            wall = frozenset((cone[t], cone[(t + 1) % 3]))
            wall_cones.setdefault(wall, []).append(cone)
    for wall, incident in wall_cones.items():
        if len(incident) != 2:
            raise ReconstructionError(
                f"wall {sorted(wall)} lies in {len(incident)} cones, expected 2"
            )
    if seed is None:
        seed = min(cones)
    seed = tuple(sorted(seed))
    if seed not in cones:
        raise ReconstructionError("seed is not a cone of the data")
    rays = {seed[0]: (1, 0, 0), seed[1]: (0, 1, 0), seed[2]: (0, 0, 1)}
    placed = {frozenset(seed)}
    queue = [seed]
    while queue:
        cone = queue.pop()
        for t in range(3):
            x, y = cone[t], cone[(t + 1) % 3]
            apex = cone[(t + 2) % 3]
            wall = frozenset((x, y))
            other = next(
                c for c in wall_cones[wall] if frozenset(c) != frozenset(cone)
            )
            q = next(i for i in other if i not in wall)
            c1 = data.self_intersection_in(y, x)
            c2 = data.self_intersection_in(x, y)
            v = tuple(
                -rays[apex][r] - c1 * rays[x][r] - c2 * rays[y][r] for r in range(3)
            )
            if q in rays:
                if rays[q] != v:
                    raise ReconstructionError(
                        f"wall relation at {sorted(wall)} places vertex {q} "
                        f"at {v}, already placed at {rays[q]}"
                    )
            else:
                rays[q] = v
            if frozenset(other) not in placed:
                placed.add(frozenset(other))
                queue.append(other)
    if set(rays) != set(range(data.n_vertices)):
        raise ReconstructionError("intersection data is not connected")
    fan = Fan3([rays[i] for i in range(data.n_vertices)], cones)
    diag = validate_fan(fan)
    if diag is not None:
        raise ReconstructionError(f"reconstructed data is not a smooth fan: {diag}")
    if ToricIntersectionData.of_fan(fan) != data:
        raise ReconstructionError(
            "reconstructed fan does not reproduce the intersection data"
        )
    return fan


# ---------------------------------------------------------------------------
# Complexity of a decomposition
# ---------------------------------------------------------------------------


def complexity(pair: LogCY3Pair, decomposition) -> Fraction:
    """``3 + (rank of the span of the classes) - (sum of the weights)``.

    ``decomposition`` is an iterable of (weight, class) entries with
    nonnegative rational weights and threefold classes.
    """
    weights = []
    classes = []
    for weight, cls in decomposition:
        weight = Fraction(weight)
        if weight < 0:
            raise PairError("decomposition weights must be nonnegative")
        coords = cls.coords if isinstance(cls, PicVector) else tuple(cls)
        weights.append(weight)
        classes.append(coords)
    r = snf(IntMatrix(classes)).rank if classes else 0
    return Fraction(3) + r - sum(weights, Fraction(0))


# ---------------------------------------------------------------------------
# Correspondences and verdicts
# ---------------------------------------------------------------------------


class Correspondence(Frozen):
    """A proposed matching of two pairs.

    ``vertex_map`` is the bijection of dual-complex vertices, as a tuple of
    (vertex, image vertex), and ``step_map[k]`` the index of the step matched
    with step k.  The induced lattice maps are derived from these; explicit
    overrides may be supplied: ``mu`` on the threefold, and ``mu_components``
    as a tuple of (vertex, IntMatrix).
    """

    _fields = ("vertex_map", "step_map", "mu", "mu_components")

    def __init__(self, vertex_map, step_map, mu: IntMatrix = None, mu_components=()):
        super().__init__(vertex_map, step_map, mu, mu_components)

    @staticmethod
    def identity(pair: LogCY3Pair) -> "Correspondence":
        return Correspondence(
            tuple((v, v) for v in sorted(pair.components)),
            tuple(range(len(pair.program))),
        )

    @cached_property
    def _images(self) -> dict:
        # Held once read; reversed, so the first image listed for a vertex wins.
        return dict(reversed(self.vertex_map))

    @cached_property
    def _overrides(self) -> dict:
        return dict(reversed(self.mu_components))

    def vertex(self, v: int) -> int:
        try:
            return self._images[v]
        except KeyError:
            raise CorrespondenceError(f"vertex {v} not in correspondence") from None

    def component_override(self, v: int):
        return self._overrides.get(v)


class Verdict(Frozen):
    """A decision's ``kind``, "isomorphic" or "distinct", with its certificate."""

    _fields = ("kind", "reason", "certificate")

    @property
    def is_isomorphic(self) -> bool:
        return self.kind == "isomorphic"


def _step_exc_positions(pair: LogCY3Pair, v: int):
    """Map (step, neighbor, occurrence index) -> exc index on component v.

    The keys come in basis order.
    """
    positions = {}
    counters: dict = {}
    for idx, exc in enumerate(pair.components[v].excs):
        key = (exc.step, exc.neighbor)
        n = counters.get(key, 0)
        counters[key] = n + 1
        positions[(exc.step, exc.neighbor, n)] = idx
    return positions


def component_transport(
    pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence, v: int
) -> IntMatrix:
    """The induced map from Pic of component v to Pic of its image component.

    Toric basis classes map through the vertex bijection; exceptional
    classes map to the matched step's exceptional on the matched edge, in
    order of occurrence.
    """
    override = corr.component_override(v)
    if override is not None:
        return override
    comp = pair.components[v]
    image_vertex = corr.vertex(v)
    comp2 = other.components[image_vertex]
    if comp.rank != comp2.rank:
        raise CorrespondenceError(
            f"components {v} and {image_vertex} have different ranks"
        )
    columns = []
    for b in comp.base.basis_indices:
        neighbor = comp.base.labels[b]
        image_ray = comp2.base.ray_of_neighbor(corr.vertex(neighbor))
        toric = comp2.base.ray_class(image_ray)
        columns.append([(i, x) for i, x in enumerate(toric) if x])
    positions2 = _step_exc_positions(other, image_vertex)
    for step, neighbor, n in _step_exc_positions(pair, v):
        target = (corr.step_map[step], corr.vertex(neighbor), n)
        if target not in positions2:
            raise CorrespondenceError(
                f"no matching exceptional for step {step} on component {v}"
            )
        columns.append([(comp2.base.rank + positions2[target], 1)])
    return IntMatrix.from_columns(comp2.rank, columns)


def boundary_map(pair, other, corr, transports) -> IntMatrix:
    """The correspondence's boundary map, from the pair's boundary lattice.

    Column ``j`` is the image of the pair's boundary basis class ``j``:
    column ``j`` of its component's transport, placed at the offset of the
    image component's block in the other pair's boundary lattice.  Every
    transport is square, of both components' rank: a derived one raises
    ``CorrespondenceError`` unless the two ranks are equal, and an explicit
    one reaches here only after :func:`_isometry_failure` has found it
    square of both ranks.  So the blocks tile the other pair's boundary
    lattice, and the map has its rank as rows.
    """
    offsets, length = other.component_offsets()
    columns = []
    for v in sorted(pair.components):
        start = offsets[corr.vertex(v)]
        for column in transports[v].columns:
            columns.append([(start + i, c) for i, c in column])
    return IntMatrix.from_columns(length, columns)


def threefold_transport(
    pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence
) -> IntMatrix:
    """The induced map on threefold Picard lattices."""
    if corr.mu is not None:
        return corr.mu
    if pair.pic_rank != other.pic_rank:
        raise CorrespondenceError("Picard ranks differ")
    columns = []
    for v in pair.toric_basis.basis_rays:
        image = other.toric_basis.ray_class(corr.vertex(v))
        columns.append([(i, x) for i, x in enumerate(image) if x])
    for k in range(len(pair.program)):
        columns.append([(other.exceptional_index(corr.step_map[k]), 1)])
    return IntMatrix.from_columns(other.pic_rank, columns)


def _checked_correspondence(pair, other, corr):
    """The correspondence to compare through (``None`` is the identity), and
    :func:`_isometry_failure`'s verdict; no bijection raises ``CorrespondenceError``.
    """
    if corr is None:
        corr = Correspondence.identity(pair)
    vertices = [sorted(pair.components), sorted(other.components)]
    if [sorted(side) for side in zip(*corr.vertex_map)] != vertices:
        raise CorrespondenceError("vertex map is not a bijection of components")
    steps = corr.step_map
    if len(steps) != len(pair.program) or sorted(steps) != list(range(len(other.program))):
        raise CorrespondenceError("step map is not a bijection of program steps")
    return corr, _isometry_failure(pair, other, corr)


def _isometry_failure(pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence):
    """A distinct verdict for the first explicit component map that is no isometry.

    Each map ``corr.mu_components`` gives for a component of the pair is
    checked with integers alone, in O(rank**3): it must be square, of the
    component's rank and the image component's; it must preserve the
    intersection form, read through both components' intersection vectors;
    and it must carry the anticanonical class to the image component's.
    The certificate names the component, then the map's shape and the two
    ranks, or the first pair of basis classes ``i <= j`` whose product
    differs with both products, or the image of the anticanonical class
    beside the image component's.  Returns ``None`` when every explicit map
    passes.  Derived maps are isometries by construction and are not
    checked.
    """
    for v in sorted(pair.components):
        matrix = corr.component_override(v)
        if matrix is None:
            continue
        comp = pair.components[v]
        comp2 = other.components[corr.vertex(v)]
        r = comp.rank
        certificate = {"check": "component_isometry", "component": v}
        if matrix.shape != (r, r) or comp2.rank != r:
            certificate.update(shape=matrix.shape, ranks=(r, comp2.rank))
            return Verdict(
                "distinct",
                f"the map of component {v} is not square of the component's rank",
                certificate,
            )
        images = [matrix.column(j) for j in range(r)]
        met = [comp2.intersection_vector(image) for image in images]
        form = [comp.intersection_vector(unit) for unit in comp.basis_vectors()]
        for i in range(r):
            for j in range(i, r):
                values = (form[j][i], dot(images[i], met[j]))
                if values[0] != values[1]:
                    certificate.update(classes=(i, j), values=values)
                    return Verdict(
                        "distinct",
                        f"the map of component {v} does not preserve the "
                        "intersection form",
                        certificate,
                    )
        image = matrix.apply(comp.anticanonical())
        if image != comp2.anticanonical():
            certificate.update(anticanonical=(image, comp2.anticanonical()))
            return Verdict(
                "distinct",
                f"the map of component {v} does not carry the anticanonical class",
                certificate,
            )
    return None


def decide_isomorphism(
    pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence = None
) -> Verdict:
    """Run the full decision pipeline and return a verdict with certificate."""
    # Explicit component maps are checked with integers before anything
    # else, so that no exponent is taken from a map that is no isometry.
    corr, failure = _checked_correspondence(pair, other, corr)
    if failure is not None:
        return failure

    # (i) Dual complexes must match under the vertex bijection.
    cones = {frozenset(corr.vertex(i) for i in c) for c in pair.fan.cone_set()}
    if cones != other.fan.cone_set():
        return Verdict(
            "distinct",
            "dual complexes do not match under the vertex bijection",
            {"check": "dual_complex"},
        )

    # (ii) The induced threefold map must preserve the cubic form: the
    # tensor of the other pair, pulled back through mu, must equal this
    # pair's.  The witness is the least differing triple i <= j <= k.
    mu = threefold_transport(pair, other, corr)
    r = pair.pic_rank
    if mu.cols != r:
        raise ExactArithmeticError("vector length mismatch")
    left = pair.cubic_entries()
    right = other.pulled_back_cubic(mu)
    differing = [t for t in left.keys() | right.keys() if left.get(t) != right.get(t)]
    if differing:
        triple = min(differing)
        return Verdict(
            "distinct",
            "cubic forms disagree under the correspondence",
            {
                "check": "cubic_form",
                "triple": triple,
                "values": (left.get(triple, 0), right.get(triple, 0)),
            },
        )

    # (iii) Peel the programs step by step.
    transports = {
        v: component_transport(pair, other, corr, v) for v in sorted(pair.components)
    }
    for k in range(len(pair.program) - 1, -1, -1):
        k2 = corr.step_map[k]
        step, step2 = pair.program[k], other.program[k2]
        if type(step) is not type(step2):
            return Verdict(
                "distinct",
                f"steps {k} and {k2} have different kinds",
                {"check": "step_kind", "steps": (k, k2)},
            )
        type1, triple1 = classify_contraction(pair, k)
        type2, triple2 = classify_contraction(other, k2)
        if type1 != type2:
            return Verdict(
                "distinct",
                f"contraction types differ at steps {k} and {k2}",
                {"check": "contraction_type", "triples": (triple1, triple2)},
            )
        if mu.columns[pair.exceptional_index(k)] != ((other.exceptional_index(k2), 1),):
            return Verdict(
                "distinct",
                f"exceptional classes of steps {k} and {k2} do not correspond",
                {"check": "exceptional_match", "steps": (k, k2)},
            )
        if isinstance(step, CurveBlowup):
            v = step.component
            v2 = corr.vertex(v)
            if step2.component != v2:
                return Verdict(
                    "distinct",
                    f"curve steps {k} and {k2} sit in non-corresponding components",
                    {"check": "curve_component", "steps": (k, k2)},
                )
            curve = tuple(step.curve_class) + (0,) * (
                pair.components[v].rank - len(step.curve_class)
            )
            curve2 = tuple(step2.curve_class) + (0,) * (
                other.components[v2].rank - len(step2.curve_class)
            )
            if transports[v].apply(curve) != curve2:
                return Verdict(
                    "distinct",
                    f"curve classes of steps {k} and {k2} do not correspond",
                    {"check": "curve_class", "steps": (k, k2)},
                )

    # (iv) Compare the base toric models through the vertex bijection.
    frame_map = toric_model_map(pair.fan, other.fan, corr.vertex)
    if frame_map is None:
        return Verdict(
            "distinct",
            "base toric models are not unimodularly equivalent "
            "under the vertex bijection",
            {"check": "toric_model"},
        )

    # (v) Compare exact periods on the matching lattice.  This pair's side
    # is its held matching values.  The matching generators are the held
    # kernel's sparse columns: one sparse product moves them all through the
    # boundary map, and every image is checked against the other pair's
    # edge-matching map, with integers, before any period is taken.  Then
    # each image is valued on the other pair's character table, one power
    # product over its nonzero entries, generator by generator, so a
    # distinct verdict stops at its witness.
    boundary = boundary_map(pair, other, corr, transports)
    moved = boundary * matching_kernel(pair)
    if any((edge_matching_map(other) * moved).columns):
        raise CorrespondenceError(
            "transported matching class violates the edge-matching condition"
        )
    table2 = other.character_table(other.markers())
    transcript = []
    generators = zip(matching_lattice(pair), moved.columns, matching_values(pair))
    for j, (gen, image, value) in enumerate(generators):
        value2 = power_product_of((table2[i], x) for i, x in image)
        if value != value2:
            return Verdict(
                "distinct",
                "periods disagree on a matching class",
                {
                    "check": "period",
                    "witness": gen,
                    "witness_image": moved.column(j),
                    "values": (str(value), str(value2)),
                },
            )
        transcript.append((gen, str(value)))
    return Verdict(
        "isomorphic",
        "combinatorics, cubic form, program and periods all match",
        {
            "check": "complete",
            "toric_model_map": frame_map,
            "period_transcript": tuple(transcript),
        },
    )


# ---------------------------------------------------------------------------
# Marking transport
# ---------------------------------------------------------------------------


def marking_transporter(
    pair: LogCY3Pair,
    other: LogCY3Pair,
    corr: Correspondence = None,
    marking: Marking = None,
    marking_other: Marking = None,
):
    """Solve for per-edge scalars aligning the two marked periods.

    Returns ``("solved", scalars)`` with one Q(i)* value per edge of the
    first pair, ``("complex_only", witness)`` when a solution exists over
    the full torus but requires roots missing from Q(i), or
    ``("unsolvable", relation)`` with a violated multiplicative relation
    (the expected outcome when the unmarked periods differ).  An explicit
    component map that is no isometry gives ``("component_isometry",
    certificate)``, the certificate :func:`decide_isomorphism` gives.
    """
    corr, failure = _checked_correspondence(pair, other, corr)
    if failure is not None:
        return "component_isometry", failure.certificate
    if marking is None:
        marking = pair.markers()
    if marking_other is None:
        marking_other = other.markers()
    transports = {
        v: component_transport(pair, other, corr, v) for v in sorted(pair.components)
    }
    table = pair.character_table(marking)
    boundary = boundary_map(pair, other, corr, transports)
    table2 = other.character_table(marking_other)
    # target j is the other pair's period of the image of basis class j
    # over this pair's period of the class.
    targets = [
        value2 / value for value2, value in zip(boundary.pull_back(table2), table)
    ]
    # The scalars h on the edges solve h(ell e_j) = targets[j] on the columns
    # of the edge-matching map ell, read off its held factorization.
    return edge_matching_snf(pair).solve_over_gaussian_torus(targets)

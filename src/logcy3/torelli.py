"""Deciding isomorphism of pairs by reduction to a common toric model.

The pipeline checks the supplied correspondence against both pairs once,
with integers (explicit component maps must be isometries that keep edge
degrees, and the dual complexes must match), checks that it preserves the
cubic form, peels the blowup programs step by step, compares the base toric
models up to unimodular equivalence, and finally compares the exact period
characters on the matching lattice.  Every verdict carries a certificate
naming the check that decided it, with its witness.  Marking transport runs
the same checks before the periods, and where one fails it returns that
check's certificate.
"""

from __future__ import annotations

from logcy3.boundary import Marking
from logcy3.exactnum import IntMatrix, snf
from logcy3.gaussian import Frozen, SparseCharacter, dot, held_property
from logcy3.pair import CurveBlowup, LogCY3Pair, PairError, PointBlowup, pull_back_tensor
from logcy3.periods import (
    edge_matching_snf, matching_kernel, matching_lattice, matching_values,
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
    read off the pair itself: its lattice data replays the program in order,
    and each step only appends its exceptional class, its canonical coordinate
    and tensor entries whose largest index is that class.  So the pair
    truncated after the step has exactly the tensor entries with indices up
    to the step's exceptional index, and its canonical class is ``K`` with
    every later coordinate set to zero.  A point step appends the coordinate 2
    and one entry, ``(e, e, e) = 1``, a curve step the coordinate 1: type 2 or 1.
    """
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
    return recognize_contraction_type(triple), triple


# ---------------------------------------------------------------------------
# Fan reconstruction from intersection data
# ---------------------------------------------------------------------------


def reconstruct_fan(data: ToricIntersectionData) -> Fan3:
    """Rebuild a fan, up to unimodular equivalence, from intersection data.

    The least cone is seeded with the standard basis; all other rays are
    placed by propagating the wall relation
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
    seed = min(cones)
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


def complexity(pair: LogCY3Pair, decomposition):
    """``3 + (rank of the span of the classes) - (sum of the weights)``.

    ``decomposition`` is an iterable of (weight, class) entries with
    nonnegative rational weights and threefold classes, each read as
    :meth:`~logcy3.pair.LogCY3Pair.cubic_form` reads its arguments.  The
    value is a ``Fraction``.
    """
    from fractions import Fraction  # here, so that a comparison loads no ``fractions``

    weights = []
    classes = []
    for weight, cls in decomposition:
        weight = Fraction(weight)
        if weight < 0:
            raise PairError("decomposition weights must be nonnegative")
        weights.append(weight)
        classes.append(pair.as_y_coords(cls))
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
        """The identity on the pair's components and steps, held on the pair,
        so its decides and transports read one object's held images."""
        return pair.held("identity_correspondence", _identity)

    @held_property
    def _images(self) -> dict:
        # Held once read; reversed, so the first image listed for a vertex wins.
        return dict(reversed(self.vertex_map))

    @held_property
    def _overrides(self) -> dict:
        return dict(reversed(self.mu_components))

    def vertex(self, v: int) -> int:
        try:
            return self._images[v]
        except KeyError:
            raise CorrespondenceError(f"vertex {v} not in correspondence") from None

    def component_override(self, v: int):
        return self._overrides.get(v)


def _identity(pair: LogCY3Pair) -> Correspondence:
    return Correspondence(
        tuple((v, v) for v in sorted(pair.components)), tuple(range(len(pair.program)))
    )


class Verdict(Frozen):
    """A decision's ``kind``, "isomorphic" or "distinct", with its certificate."""

    _fields = ("kind", "reason", "certificate")

    @property
    def is_isomorphic(self) -> bool:
        return self.kind == "isomorphic"


def _step_exc_positions(pair: LogCY3Pair, v: int):
    """Map (step, neighbor, occurrence index) -> exc index on component v.

    The keys come in basis order.  Held on the pair for every component,
    so decide and transport read this pair's positions once.
    """
    return pair.held("step_exc_positions", _exc_positions)[v]


def _exc_positions(pair: LogCY3Pair) -> dict:
    out = {}
    for v, comp in pair.components.items():
        positions = out[v] = {}
        counters: dict = {}
        for idx, exc in enumerate(comp.excs):
            key = (exc.step, exc.neighbor)
            n = counters.get(key, 0)
            counters[key] = n + 1
            positions[(exc.step, exc.neighbor, n)] = idx
    return out


def _step_place(step, vertex):
    """Where a step sits, its vertices read through ``vertex``: a point step's
    edge, or the neighbours a curve step's points lie on, with their counts."""
    if isinstance(step, PointBlowup):
        return frozenset(map(vertex, step.edge))
    return {vertex(w): len(step.points_on(w)) for w, _ in step.points if step.points_on(w)}


def component_transport(
    pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence, v: int
) -> IntMatrix:
    """The induced map from Pic of component v to Pic of its image component:
    the explicit map if ``corr`` gives one, else the derived map.

    The derived map sends a toric basis class through the vertex bijection
    to the sparse class of its image ray
    (:meth:`~logcy3.toric.Fan2.sparse_class`), and an exceptional class to
    the unit column of its :func:`_exceptional_rows` row.  It holds, and
    raises, as those rows do.  Every component map is made here.
    """
    override = corr.component_override(v)
    if override is not None:
        return override
    comp2 = other.components[corr.vertex(v)]
    rows = _exceptional_rows(pair, other, corr, v)
    base2, images = comp2.base, corr._images
    ray_of = {w: ray for ray, w in enumerate(base2.labels)}
    columns = [base2.sparse_class(ray_of[images[w]]) for w in pair.components[v].base.labels[2:]]
    columns += [((row, 1),) for row in rows]
    return IntMatrix.from_columns(comp2.rank, columns)


def _exceptional_rows(pair, other, corr, v: int) -> list:
    """The row, in the image component's block, of the image of each
    exceptional class of component v, in basis order.

    An exceptional class maps to the matched step's exceptional on the
    matched edge, in order of occurrence, read off both pairs' held
    positions.  The rows hold once :func:`_matched` has passed the first
    pass of step (iii): then both components have the same rank and the
    same exceptionals.  Before, a derived map that cannot exist raises
    ``CorrespondenceError``: for components of different ranks, or for an
    exceptional class whose matched step has no class on the matched edge
    of the image component.
    """
    comp = pair.components[v]
    image_vertex = corr.vertex(v)
    comp2 = other.components[image_vertex]
    if comp.rank != comp2.rank:
        raise CorrespondenceError(
            f"component {v} has rank {comp.rank}, its image {image_vertex} rank {comp2.rank}"
        )
    if not comp.excs:
        return []
    positions2 = _step_exc_positions(other, image_vertex)
    base = comp2.base.rank
    images, steps = corr._images, corr.step_map
    rows = []
    for step, neighbor, n in _step_exc_positions(pair, v):
        try:
            rows.append(base + positions2[steps[step], images[neighbor], n])
        except KeyError:
            raise CorrespondenceError(
                f"the exceptional class of step {step} toward {neighbor} on component "
                f"{v} has no image on component {image_vertex}"
            ) from None
    return rows


def threefold_transport(
    pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence
) -> IntMatrix:
    """The induced map on threefold Picard lattices, or the explicit ``mu``.

    A toric basis class maps to the held sparse class of its image ray
    (:attr:`~logcy3.toric.ToricPicBasis.sparse_classes`), step k's
    exceptional class to the exceptional class of its matched step.  It
    holds, as :func:`component_transport` does, only under the checks.
    """
    if corr.mu is not None:
        return corr.mu
    classes = other.toric_basis.sparse_classes
    columns = [classes[corr.vertex(v)] for v in pair.toric_basis.basis_rays]
    rank = other.toric_basis.rank
    columns += [((rank + k2, 1),) for k2 in corr.step_map]
    return IntMatrix.from_columns(other.pic_rank, columns)


def _component_map_failure(pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence):
    """A distinct verdict for the first explicit component map that is no
    isometry or moves an edge.

    Each map ``corr.mu_components`` gives for a component of the pair is
    checked with integers alone, in O(rank**3): it must be square, of the
    component's rank and the image component's; it must preserve the
    intersection form, read through both components' intersection vectors;
    it must carry the anticanonical class to the image component's; and, as
    an isomorphism of pairs keeps each double curve, it must keep each basis
    class's edge degrees, by neighbour through the vertex map.  The
    certificate names the component, then the map's shape and the two ranks,
    or the first classes ``i <= j`` whose product differs with both products,
    or the anticanonical image beside the image component's class, or
    (``component_edges``) the first class that moves with both degree maps.
    Returns ``None`` when every explicit map passes, at once when there is
    none; derived maps pass by construction and are not checked.
    """
    overrides = corr._overrides
    for v in sorted(overrides):
        matrix = overrides[v]
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
        for i, (unit, image) in enumerate(zip(comp.basis_vectors(), images)):
            degrees = {corr.vertex(w): d for w, d in comp.edge_degrees(unit).items()}
            degrees2 = comp2.edge_degrees(image)
            if degrees != degrees2:
                certificate.update({"check": "component_edges", "class": i})
                certificate["degrees"] = (degrees, degrees2)
                return Verdict(
                    "distinct",
                    f"the map of component {v} moves the edge degrees of class {i}",
                    certificate,
                )
    return None


def _matched(pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence):
    """Decide's steps (i)-(iv), which transport runs too: the distinct verdict
    of the first check that fails, or else the toric model map.

    The pass reads held sparse data and copies no tensor: step (ii) pulls
    the other pair's held cubic tensor back through ``mu`` and compares it
    with this pair's by dict equality, and names the least differing triple
    only when they differ.  A component map is made as a matrix only where
    step (iii) carries a curve class through it, and no boundary map is
    built: its readers map what they read (:func:`_pulled_support`,
    :func:`_boundary_image`).

    ``None`` is the identity correspondence; no bijection, a
    ``mu_components`` key for no vertex of the pair or a ``mu`` of another
    shape raises ``CorrespondenceError``.
    """
    if corr is None:
        corr = Correspondence.identity(pair)
    vertices = [sorted(pair.components), sorted(other.components)]
    if [sorted(side) for side in zip(*corr.vertex_map)] != vertices:
        raise CorrespondenceError("vertex map is not a bijection of components")
    steps = corr.step_map
    if len(steps) != len(pair.program) or sorted(steps) != list(range(len(other.program))):
        raise CorrespondenceError("step map is not a bijection of program steps")
    for v, _ in corr.mu_components:
        if v not in pair.components:
            raise CorrespondenceError(
                f"mu_components: vertex {v} is not a component of the first pair"
            )
    expected = (other.pic_rank, pair.pic_rank)
    if corr.mu is not None and corr.mu.shape != expected:
        raise CorrespondenceError(
            "mu: expected a {} x {} matrix, got {} x {}".format(*expected, *corr.mu.shape)
        )

    # Explicit component maps are checked with integers first, so no exponent
    # is taken from a map that breaks them; then (i) the dual complexes.  The
    # vertex map is a bijection of the components, so its held images answer
    # every lookup below.
    failure = _component_map_failure(pair, other, corr)
    if failure is not None:
        return failure
    vertex = corr._images.__getitem__
    if {frozenset(map(vertex, c)) for c in pair.fan.cone_set()} != other.fan.cone_set():
        return Verdict(
            "distinct",
            "dual complexes do not match under the vertex bijection",
            {"check": "dual_complex"},
        )

    # (ii) The induced threefold map must preserve the cubic form: the
    # tensor of the other pair, pulled back through mu, must equal this
    # pair's held one.  The witness is the least differing triple i <= j <= k.
    mu = threefold_transport(pair, other, corr)
    left = pair._lattice().tensor
    right = pull_back_tensor(other._lattice().tensor, mu)
    if left != right:
        triple = min(t for t in left.keys() | right.keys() if left.get(t) != right.get(t))
        return Verdict(
            "distinct",
            "cubic forms disagree under the correspondence",
            {
                "check": "cubic_form",
                "triple": triple,
                "values": (left.get(triple, 0), right.get(triple, 0)),
            },
        )

    # (iii) Peel the programs step by step.  Once every matched step sits
    # at the corresponding place, every derived component map exists; a
    # matched step has the same kind, so its contraction has the same type.
    for k in range(len(pair.program) - 1, -1, -1):
        k2 = steps[k]
        step, step2 = pair.program[k], other.program[k2]
        if type(step) is not type(step2):
            return Verdict(
                "distinct",
                f"steps {k} and {k2} have different kinds",
                {"check": "step_kind", "steps": (k, k2)},
            )
        if isinstance(step, CurveBlowup) and step2.component != vertex(step.component):
            return Verdict(
                "distinct",
                f"curve steps {k} and {k2} sit in non-corresponding components",
                {"check": "curve_component", "steps": (k, k2)},
            )
        if _step_place(step, vertex) != _step_place(step2, lambda v: v):
            return Verdict(
                "distinct",
                f"steps {k} and {k2} sit at non-corresponding places",
                {"check": "step_place", "steps": (k, k2)},
            )
    # The component map of a curve step's component, made once where a
    # curve class is carried through it.  Step k's exceptional index is
    # ``e + k``, and that of the other pair's step k2 is ``e2 + k2``.
    maps = {}
    e, e2 = pair.toric_basis.rank, other.toric_basis.rank
    for k in range(len(pair.program) - 1, -1, -1):
        k2 = steps[k]
        step, step2 = pair.program[k], other.program[k2]
        if mu.columns[e + k] != ((e2 + k2, 1),):
            return Verdict(
                "distinct",
                f"exceptional classes of steps {k} and {k2} do not correspond",
                {"check": "exceptional_match", "steps": (k, k2)},
            )
        if isinstance(step, CurveBlowup):
            v, v2 = step.component, step2.component
            if v not in maps:
                maps[v] = component_transport(pair, other, corr, v)
            curve = tuple(step.curve_class) + (0,) * (
                pair.components[v].rank - len(step.curve_class)
            )
            curve2 = tuple(step2.curve_class) + (0,) * (
                other.components[v2].rank - len(step2.curve_class)
            )
            if maps[v].apply(curve) != curve2:
                return Verdict(
                    "distinct",
                    f"curve classes of steps {k} and {k2} do not correspond",
                    {"check": "curve_class", "steps": (k, k2)},
                )

    # (iv) Compare the base toric models through the vertex bijection.
    frame_map = toric_model_map(pair.fan, other.fan, vertex)
    if frame_map is None:
        return Verdict(
            "distinct",
            "base toric models are not unimodularly equivalent "
            "under the vertex bijection",
            {"check": "toric_model"},
        )
    return frame_map


def _boundary_image(pair, other, corr, flat) -> tuple:
    """The image of a flat boundary vector under the boundary map of a
    correspondence that passes :func:`_matched`.

    Only the component blocks that ``flat`` touches are mapped, each
    through :func:`component_transport` and written at its image block's
    offset.  Decide reads it for a ``period`` verdict's witness image.
    """
    offsets2, length = other.component_offsets()
    image = [0] * length
    for v, start in pair.component_offsets()[0].items():
        block = flat[start:start + pair.components[v].rank]
        if any(block):
            start2 = offsets2[corr.vertex(v)]
            mapped = component_transport(pair, other, corr, v).apply(block)
            image[start2:start2 + len(mapped)] = mapped
    return tuple(image)


def _pulled_support(pair, other, corr, support: SparseCharacter) -> SparseCharacter:
    """The markers' character of the other pair pulled back through the
    boundary map, where it is not 1.

    Column ``j`` is valued over its rows in the other pair's support alone,
    which holds exceptional rows only.  A derived block sends toric classes
    to toric rows, so only its exceptional classes are read, each a single
    row with entry 1 (:func:`_exceptional_rows`), which gives that row's
    value.  Every column of an explicit map is read, the support valued at
    it over the offset rows.  A column whose value is 1 is left out, so
    the result holds no 1.
    """
    pulled = {}
    held = support.values
    offsets2 = other.component_offsets()[0]
    images, overrides = corr._images, corr._overrides
    for v, start in pair.component_offsets()[0].items():
        start2 = offsets2[images[v]]
        matrix = overrides.get(v)
        if matrix is None:
            first = start + pair.components[v].base.rank
            for j, row in enumerate(_exceptional_rows(pair, other, corr, v), first):
                value = held.get(start2 + row)
                if value is not None and not value.is_one():
                    pulled[j] = value
            continue
        for j, column in enumerate(matrix.columns, start):
            value = support.at((start2 + i, x) for i, x in column)
            if not value.is_one():
                pulled[j] = value
    return SparseCharacter(pulled)


def decide_isomorphism(
    pair: LogCY3Pair, other: LogCY3Pair, corr: Correspondence = None
) -> Verdict:
    """Run the full decision pipeline and return a verdict with certificate.

    Step (v) compares the markers' periods, which are 1 on every toric
    class: the other pair's :meth:`~logcy3.pair.LogCY3Pair.marker_support`
    is pulled back through the boundary map over its held rows, and the
    pulled :class:`~logcy3.gaussian.SparseCharacter` is valued at each
    matching generator's column.  This is exact for any ``mu`` or
    ``mu_components``, as a row left out contributes exactly 1, and it
    builds neither the other pair's markers nor its character table.
    """
    corr = Correspondence.identity(pair) if corr is None else corr
    frame_map = _matched(pair, other, corr)
    if isinstance(frame_map, Verdict):
        return frame_map

    # (v) Compare exact periods on the matching lattice.  This pair's side
    # is its held matching values; the other's is its support pulled back
    # through the boundary map, valued on each generator's entries in it,
    # generator by generator, so a distinct verdict stops at its witness.
    pulled = _pulled_support(pair, other, corr, other.marker_support())
    transcript = []
    generators = zip(matching_lattice(pair), matching_kernel(pair).columns, matching_values(pair))
    for gen, column, value in generators:
        value2 = pulled.at(column)
        if value != value2:
            return Verdict(
                "distinct",
                "periods disagree on a matching class",
                {
                    "check": "period",
                    "witness": gen,
                    "witness_image": _boundary_image(pair, other, corr, gen),
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


def _edge_shift(pair, other, corr, marking, marking_other) -> dict:
    """The other marking over this one on each edge of the pair, carried to the
    image edge, ``rho2(e') ** sigma / rho(e)``, on the edges where it is not 1.

    ``rho`` and ``rho2`` are the two markings'
    :meth:`~logcy3.pair.LogCY3Pair.marking_ratios`, ``e'`` is the image of
    edge ``e`` under the vertex map, and ``sigma`` is -1 where the other
    pair directs ``e'`` against ``e``.  Under a correspondence that passes
    :func:`_matched`, the other pair's edge-matching map after the boundary
    map is the pair's with each row carried to its image edge, signed so,
    and each table is its markers' support times its ratios pulled back
    along the edge-matching map; so the other table pulled back over this
    one is the support's ratio times this shift pulled back along the
    pair's edge-matching map.  The other marking is read first; the pair's
    markers have ratio 1 on every edge, so theirs are not read, and at the
    markers on both sides the shift is empty.
    """
    ratios2 = other.marking_ratios(marking_other)
    ratios = () if marking is pair.markers() else pair.marking_ratios(marking)
    edges2, edge_at2 = other.complex.edges, other.complex._edge_at
    images = corr._images
    shift = {}
    for e, (v, w) in enumerate(pair.complex.edges):
        v2 = images[v]
        row = edge_at2[frozenset((v2, images[w]))]
        value = ratios2[row] if edges2[row][0] == v2 else ratios2[row].inverse()
        if ratios:
            value = value / ratios[e]
        if not value.is_one():
            shift[e] = value
    return shift


def marking_transporter(
    pair: LogCY3Pair,
    other: LogCY3Pair,
    corr: Correspondence = None,
    marking: Marking = None,
    marking_other: Marking = None,
):
    """Solve for per-edge scalars aligning the two marked periods.

    Transport runs decide's steps (i)-(iv) first, so decide's verdict fixes
    its outcome.  A check that fails there gives ``(check, certificate)``
    with decide's certificate.  Otherwise it returns ``("solved", scalars)``
    with one Q(i)* value per edge of the first pair, ``("complex_only",
    witness)`` when a solution exists over the full torus but requires roots
    missing from Q(i), or ``("unsolvable", relation)`` with a violated
    multiplicative relation.

    A period at any marking is the markers' period times the torus
    character of the marking's ratio to the markers, so transport values
    the markers' supports, not the tables: its targets are the other
    pair's :meth:`~logcy3.pair.LogCY3Pair.marker_support` pulled back
    through the boundary map, as step (v) pulls it, divided by this pair's
    (:meth:`~logcy3.gaussian.SparseCharacter.over`), and live on the
    exceptional rows.  If ``h0`` solves the system at the markers, ``h0``
    times the markings' per-edge :func:`_edge_shift` solves it at the
    markings, both sides being characters of the edge lattice; the shift
    lies in Q(i)*, so the outcome, a ``complex_only`` witness included, is
    otherwise the markers'.  A relation is valued over the targets alone,
    so ``unsolvable`` is step (v)'s comparison: decide's ``complete`` gives
    ``solved`` or ``complex_only``, and its ``period`` gives
    ``("unsolvable", witness)`` with decide's witness, at any markings.
    No character table is built.
    """
    corr = Correspondence.identity(pair) if corr is None else corr
    matched = _matched(pair, other, corr)
    if isinstance(matched, Verdict):
        return matched.certificate["check"], matched.certificate
    marking = pair.markers() if marking is None else marking
    marking_other = other.markers() if marking_other is None else marking_other
    shift = _edge_shift(pair, other, corr, marking, marking_other)
    pulled = _pulled_support(pair, other, corr, other.marker_support())
    # The scalars h0 on the edges solve h0(ell e_j) = targets[j] on the
    # columns of the edge-matching map ell, read off its held factorization.
    # The solve's relation check values the kernel columns over these
    # quotients.  Valuing them over ``pulled`` against the held matching
    # values, as step (v) does, was slower (0.089 against 0.069 ms on a
    # 12-ray point-ladder rung, 0.207 against 0.159 ms on a curve rung,
    # CPython 3.11, x86-64): the pulled values carry the partner's digits,
    # the quotients are torus values, and the roots need the quotients anyway.
    targets = pulled.over(pair.marker_support())
    status, result = edge_matching_snf(pair).solve_over_gaussian_torus(targets)
    if status != "solved":
        return status, result
    return status, [h * shift[e] if e in shift else h for e, h in enumerate(result)]

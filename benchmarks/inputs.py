"""Seeded inputs for the benchmark workloads.

Everything the program sees is made here from the workload seed: the fans
and programs of the ladder rungs, their translated, perturbed and re-marked
partners, and the ingest documents.  The shapes are fixed per workload, and
each round of a run gets its own alternatives of them (other subdivided
cones or edges); the seed chooses coordinates, subdivision targets and
edges.  Generating inputs never builds a pair, so no derived object exists
before the timed region.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from logcy3.exactnum import MINUS_ONE, GaussianRational, product
from logcy3.fixtures import projective_space_fan, triple_line_fan
from logcy3.pair import CurveBlowup, PointBlowup, validate_pair
from logcy3.toric import DualComplex, edge_reference_character, star_subdivide

# (rays, steps).  The last rung of each ladder runs in the traced pass only:
# one 20-ray alternative costs 25-30 s on a 2-vCPU machine, more than the
# untraced runs can repeat.
POINT_RUNGS = ((8, 6), (12, 12), (20, 24))
CURVE_RUNGS = ((8, 4), (12, 8), (20, 12))
SMOKE_INGEST_DOCS = 12  # per round
# Per round of a ladder: alternatives of the largest rung whose documents
# are validated (the first is the round's instance), and of those, how many
# go through the CLI.
DOC_ALTERNATIVES = 8
CLI_ALTERNATIVES = 2
CONIC_COMPONENT = 3  # vertex of the projective-space fan kept a plane

# Malformed ingest kinds.  The first three crash `logcy3 validate` with a
# traceback at the commit that defined this benchmark; the rest are rejected
# with a diagnostic.
CRASH_KINDS = ("ray_two_entries", "curve_point_key_x", "edge_one_element")
CLEAN_KINDS = (
    "bad_json",
    "wrong_format",
    "missing_rays",
    "unknown_step_kind",
    "bad_coordinate_text",
    "zero_coordinate",
    "not_an_edge",
    "curve_product_not_one",
)


@dataclass
class Instance:
    """A pair with its partners; every op of a ladder rung runs on one."""

    label: str  # the shape; alternatives of one shape share it
    alt: int  # which alternative of the shape
    fan: object
    program: tuple
    translated: tuple  # torus translate of ``program``: isomorphic
    perturbed: tuple  # one coordinate changed: distinct at the period check
    marking: dict  # edge key -> coordinate, the re-marking for transport
    docs: dict = field(default_factory=dict)  # role -> document path


@dataclass
class Doc:
    path: str
    key: str  # the shape; documents of one key are alternatives
    kind: str  # "valid" or a malformed kind
    picard_rank: int = None
    steps: int = None
    program: tuple = ()


@dataclass
class Round:
    """One fresh alternative of every shape: rung ops, validations, CLI calls."""

    instances: list
    docs: list
    cli_calls: list  # (key, arguments of `python -m logcy3.cli --json ...`)


@dataclass
class Workload:
    name: str
    shapes: list  # instance labels, small to large
    rounds: list  # no input occurs in two rounds, or twice in one

    @property
    def small(self):
        return self.shapes[0]

    @property
    def large(self):
        return self.shapes[-1]

    @property
    def instances(self):
        return [inst for rnd in self.rounds for inst in rnd.instances]

    @property
    def docs(self):
        return [doc for rnd in self.rounds for doc in rnd.docs]


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------


def _fresh(rng, used):
    """A seeded coordinate that is nonzero, not the marker -1 and unused."""
    while True:
        q = GaussianRational(rng.randint(2, 60), rng.randint(-3, 3))
        if q not in used:
            used.add(q)
            return q


def _conic_points(rng, used):
    """Two points on each of the three edges of the conic component.

    Five coordinates are drawn; the sixth makes the product one, the
    compatibility condition between the class (2,) and its boundary data.
    """
    edges = (0, 0, 1, 1, 2)
    while True:
        drawn = [_fresh(rng, used[w]) for w in edges]
        last = product(drawn).inverse()
        if last not in used[2] and last != MINUS_ONE:
            used[2].add(last)
            coords = drawn + [last]
            return tuple((w, (coords[2 * w], coords[2 * w + 1])) for w in (0, 1, 2))
        for w, q in zip(edges, drawn):
            used[w].discard(q)


def _walls(fan):
    return sorted(tuple(sorted(w)) for w in fan.walls())


# ---------------------------------------------------------------------------
# Partners
# ---------------------------------------------------------------------------


def _translated(fan, program, rng):
    """The program moved by a seeded torus element, as ``torus_translate`` does."""
    complex_ = DualComplex.from_fan(fan)
    torus = [GaussianRational(rng.randint(2, 5), rng.randint(-1, 1)) for _ in range(3)]

    def scale(v, w):
        m = edge_reference_character(fan, complex_, (v, w))
        return product(t ** e for t, e in zip(torus, m))

    out = []
    for step in program:
        if isinstance(step, PointBlowup):
            out.append(PointBlowup(step.edge, scale(*step.edge) * step.coordinate))
        else:
            points = tuple(
                (w, tuple(scale(step.component, w) * q for q in coords))
                for w, coords in step.points
            )
            out.append(CurveBlowup(step.component, step.curve_class, points))
    return tuple(out)


def _perturbed(program, rng):
    """Change one coordinate: the ratio on one conic edge, else the first point.

    The factor is redrawn until the new coordinates are unused on their edge,
    so the perturbed program stays valid.
    """
    out = list(program)
    curves = [k for k, s in enumerate(program) if isinstance(s, CurveBlowup)]
    k = curves[0] if curves else 0
    step = program[k]
    if curves:
        (w, (a, b)), *rest = step.points
        edge = (step.component, w)
    else:
        edge = step.edge
    taken = _coordinates_on(program, edge) | {MINUS_ONE}
    while True:
        factor = GaussianRational(rng.randint(7, 11), rng.randint(-2, 2))
        if curves:
            new = (a * factor, b / factor)
            out[k] = CurveBlowup(step.component, step.curve_class, ((w, new), *rest))
        else:
            new = (step.coordinate * factor,)
            out[k] = PointBlowup(step.edge, new[0])
        if not taken & set(new):
            return tuple(out)


def _coordinates_on(program, edge):
    key = frozenset(edge)
    found = set()
    for step in program:
        if isinstance(step, PointBlowup):
            if frozenset(step.edge) == key:
                found.add(step.coordinate)
        else:
            for w, coords in step.points:
                if frozenset((step.component, w)) == key:
                    found.update(coords)
    return found


def _remarking(fan, rng):
    return {
        frozenset(w): GaussianRational(rng.randint(2, 9), rng.randint(-3, 3))
        for w in _walls(fan)
    }


def _instance(label, alt, fan, program, rng):
    program = tuple(program)
    return Instance(
        label,
        alt,
        fan,
        program,
        _translated(fan, program, rng),
        _perturbed(program, rng),
        _remarking(fan, rng),
    )


# ---------------------------------------------------------------------------
# Ladders
# ---------------------------------------------------------------------------


def _ladder_fan(rays, alt, avoid=None):
    """Iterated star subdivisions of projective space.

    Alternative 0 subdivides the last max cone each time (the ROADMAP
    family); alternative j the j-th from last.  Only max cones avoiding the
    vertex ``avoid`` are candidates.  Every alternative has the same numbers
    of rays, edges and cones, but its own lattice maps.
    """
    fan = projective_space_fan()
    while fan.n_rays < rays:
        cones = [c for c in fan.max_cones if avoid not in c]
        fan = star_subdivide(fan, cones[-1 - alt % len(cones)])
    return fan


def point_rung(rays, steps, alt, rng):
    """Point program ``walls[k % len(walls)]`` on a subdivided projective space."""
    fan = _ladder_fan(rays, alt)
    walls = _walls(fan)
    used = {w: set() for w in walls}
    program = [
        PointBlowup(walls[k % len(walls)], _fresh(rng, used[walls[k % len(walls)]]))
        for k in range(steps)
    ]
    return _instance(f"r{rays}", alt, fan, program, rng)


def curve_rung(rays, steps, alt, rng):
    """Conic program in component 3, kept a plane by subdividing away from it."""
    fan = _ladder_fan(rays, alt, avoid=CONIC_COMPONENT)
    used = {w: set() for w in (0, 1, 2)}
    program = [
        CurveBlowup(CONIC_COMPONENT, (2,), _conic_points(rng, used))
        for _ in range(steps)
    ]
    return _instance(f"r{rays}", alt, fan, program, rng)


# ---------------------------------------------------------------------------
# Ingest documents
# ---------------------------------------------------------------------------


def _mixed_program(fan, conic_ok, n_steps, rng, offset=None):
    """Points on edges; every third step, from the first, is a conic in
    component 3 where ``conic_ok``.  Point k goes on a seeded edge, or on
    wall k + offset (in sorted order) when the shape must not depend on the
    seed."""
    walls = _walls(fan)
    used = {frozenset(w): set() for w in walls}
    program = []
    extra_on_conic = 0  # exceptionals component 3 gained from points
    for k in range(n_steps):
        if conic_ok and k % 3 == 0:
            per_edge = {w: used[frozenset((w, CONIC_COMPONENT))] for w in (0, 1, 2)}
            points = _conic_points(rng, per_edge)
            curve_class = (2,) + (0,) * extra_on_conic
            program.append(CurveBlowup(CONIC_COMPONENT, curve_class, points))
        else:
            edge = walls[rng.randrange(len(walls)) if offset is None else (k + offset) % len(walls)]
            program.append(PointBlowup(edge, _fresh(rng, used[frozenset(edge)])))
            extra_on_conic += CONIC_COMPONENT in edge
    return tuple(program)


def _ingest_fan(base, subdivisions, rng):
    fan = projective_space_fan() if base == "p3" else triple_line_fan()
    for _ in range(subdivisions):
        if base == "p3":
            cones = [c for c in fan.max_cones if CONIC_COMPONENT not in c]
            walls = [
                tuple(sorted(w))
                for w, apexes in fan.walls().items()
                if CONIC_COMPONENT not in (*w, *apexes)
            ]
        else:
            cones, walls = list(fan.max_cones), _walls(fan)
        target = rng.choice(walls) if walls and rng.random() < 0.4 else rng.choice(cones)
        fan = star_subdivide(fan, target)
    return fan


# Alternatives per round of the ingest workload's two instance shapes.
INGEST_ALTERNATIVES = (("p3-mixed2", 8), ("r8-mixed8", 2))


def ingest_instance(label, alt, rng):
    """A fixed-shape mixed program, an ingest report/decide input."""
    if label == "p3-mixed2":
        fan = projective_space_fan()
        program = _mixed_program(fan, True, 2, rng, offset=alt)
    else:
        fan = _ladder_fan(8, alt, avoid=CONIC_COMPONENT)
        program = _mixed_program(fan, True, 8, rng, offset=0)
    return _instance(label, alt, fan, program, rng)


def document(fan, program) -> dict:
    """The pair document of a fan and program (default edge orientations)."""
    return {
        "format": "logcy3-pair",
        "version": 1,
        "lattice_rank": 3,
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c) for c in fan.max_cones],
        "orientation": {
            "triangle": list(fan.orientation[0]),
            "sign": fan.orientation[1],
        },
        "blowups": [_step_document(s) for s in program],
    }


def _step_document(step) -> dict:
    if isinstance(step, PointBlowup):
        return {"kind": "point", "edge": list(step.edge), "coordinate": str(step.coordinate)}
    return {
        "kind": "curve",
        "component": step.component,
        "curve_class": list(step.curve_class),
        "points": {str(w): [str(q) for q in coords] for w, coords in step.points},
    }


def _malform(kind, doc, fan, rng):
    """Damage a valid document; returns its text."""
    steps = doc["blowups"]
    point = next((s for s in steps if s["kind"] == "point"), None)
    curve = next((s for s in steps if s["kind"] == "curve"), None)
    if kind == "bad_json":
        return json.dumps(doc)[: rng.randint(10, 60)]
    if kind == "wrong_format":
        doc["format"] = "logcy3-correspondence"
    elif kind == "missing_rays":
        del doc["rays"]
    elif kind == "ray_two_entries":
        doc["rays"][rng.randrange(len(doc["rays"]))] = doc["rays"][0][:2]
    elif kind in ("edge_one_element", "zero_coordinate", "not_an_edge",
                  "unknown_step_kind", "bad_coordinate_text"):
        if point is None:
            point = {"kind": "point", "edge": list(_walls(fan)[0]), "coordinate": "2"}
            steps.append(point)
        if kind == "edge_one_element":
            point["edge"] = point["edge"][:1]
        elif kind == "zero_coordinate":
            point["coordinate"] = "0"
        elif kind == "not_an_edge":
            point["edge"] = [point["edge"][0], point["edge"][0]]
        elif kind == "unknown_step_kind":
            point["kind"] = "surface"
        else:
            point["coordinate"] = "two"
    elif kind in ("curve_point_key_x", "curve_product_not_one"):
        if curve is None:
            curve = _step_document(_mixed_program(fan, True, 1, rng)[0])
            steps.append(curve)
        if kind == "curve_point_key_x":
            curve["points"]["x"] = curve["points"].pop("0")
        else:
            a, b = curve["points"]["0"]
            curve["points"]["0"] = [a, str(GaussianRational.parse(b) * 2)]
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return json.dumps(doc)


INGEST_GRID = [(base, s, k) for s in range(9) for k in range(0, 13, 2) for base in ("p3", "p111")]
INGEST_ROUND_DOCS = len(INGEST_GRID) * 10 // 9  # the grid once, plus one in ten malformed


def ingest_docs(rng, kinds, first, count, directory):
    """Write documents ``first`` to ``first + count - 1``; every tenth one,
    counting from 0, is malformed, with the kinds taken in the order given.

    The valid documents sweep a fixed grid of shapes (base fan, 0-8
    subdivisions, 0-12 steps) in order, so every seed sees the same sizes
    and each block of ``INGEST_ROUND_DOCS`` holds every shape once; the seed
    chooses subdivision targets, edges and coordinates.  No document repeats.
    """
    docs = []
    valid = 0
    for n in range(first, first + count):
        kind = kinds[(n // 10) % len(kinds)] if n % 10 == 9 else "valid"
        base, subdivisions, steps = INGEST_GRID[valid % len(INGEST_GRID)]
        if kind.startswith("curve"):
            base = "p3"  # curve damage needs a conic, which only p3 carries
        fan = _ingest_fan(base, subdivisions, rng)
        program = _mixed_program(fan, base == "p3", steps, rng)
        doc = document(fan, program)
        path = os.path.join(directory, f"ingest-{n:04d}.pair.json")
        if kind == "valid":
            text = json.dumps(doc)
            key = f"{base}/{subdivisions}/{steps}"
            docs.append(Doc(path, key, kind, fan.n_rays - 3 + len(program), len(program), program))
            valid += 1
        else:
            text = _malform(kind, doc, fan, rng)
            docs.append(Doc(path, path, kind))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return docs


def _rung_docs(name, inst, directory):
    """Write the pair document of a rung and of both partners."""
    docs = []
    for role in ("program", "translated", "perturbed"):
        path = os.path.join(directory, f"{name}-{inst.label}-{inst.alt}-{role}.pair.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document(inst.fan, getattr(inst, role)), handle)
        inst.docs[role] = path
        docs.append(Doc(path, f"{inst.label}/{role}", "valid",
                        inst.fan.n_rays - 3 + len(inst.program), len(inst.program)))
    return docs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def make_workload(name, seed, directory, bundled, rounds, smoke=False, trace=False) -> Workload:
    """Generate a workload's inputs and write its documents into ``directory``.

    Each of the ``rounds`` rounds gets a fresh alternative of every shape,
    so no input is seen twice.  With ``trace`` there are two rounds: a
    warm-up (one alternative of the smallest shape and three documents) and
    the round that runs untraced and then traced; the ladders then add their
    last rung.
    """
    def rng(*parts):
        # One stream per input, so an input does not depend on which others
        # a run generates (smoke, traced and untraced runs share them).
        return random.Random(":".join(map(str, (name, seed) + parts)))

    rounds = 2 if trace else rounds
    out = []
    if name == "ingest":
        per_round = SMOKE_INGEST_DOCS if smoke else INGEST_ROUND_DOCS
        kinds = list(CRASH_KINDS + CLEAN_KINDS)
        rng("kinds").shuffle(kinds)
        # Each bundled call runs at most once, in a fresh interpreter.
        cli_calls = [
            (f"{command} {os.path.basename(path)}",
             [command, path] if command != "compare" else [command, path, path])
            for path in (bundled[:2] if smoke else bundled)
            for command in ("validate", "invariants", "periods", "compare")
        ]
        for r in range(rounds):
            docs = ingest_docs(rng("docs", r), kinds, r * per_round, per_round, directory)
            instances = [ingest_instance(label, alt, rng(label, alt))
                         for label, n in INGEST_ALTERNATIVES for alt in range(r * n, (r + 1) * n)]
            out.append(Round(instances, docs, cli_calls[r::rounds]))
    else:
        if name == "point-ladder":
            rungs, make = POINT_RUNGS, point_rung
        else:
            rungs, make = CURVE_RUNGS, curve_rung
        rungs = rungs[:1] if smoke else rungs if trace else rungs[:-1]
        for r in range(rounds):
            instances = [make(rays, steps, r, rng(rays, r)) for rays, steps in rungs]
            # Documents of the largest rung only: with every rung's, the
            # validation times would form one cluster per rung, and their
            # median would fall between two clusters.  More alternatives of
            # it, with documents only, give the percentiles more samples.
            rays, steps = rungs[-1]
            extra = [rounds * (i + 1) + r for i in range(DOC_ALTERNATIVES - 1)]
            sources = instances[-1:] + [make(rays, steps, alt, rng(rays, alt)) for alt in extra]
            docs = [doc for inst in sources for doc in _rung_docs(name, inst, directory)]
            cli_calls = [(f"validate {inst.label}", ["validate", inst.docs["program"]])
                         for inst in sources[:CLI_ALTERNATIVES]]
            out.append(Round(instances, docs, cli_calls))
    if trace:
        out[0] = Round(out[0].instances[:1], out[0].docs[:3], [])
    return Workload(name, list(dict.fromkeys(inst.label for inst in out[-1].instances)), out)


def self_check(workload):
    """Problems with the generated inputs themselves, as a list of strings.

    Every instance program and partner must build, and every conic must
    satisfy the product-one condition.  Valid ingest documents are built by
    their own validate op, whose outcome is checked there.
    """
    problems = []
    programs = [d.program for d in workload.docs if d.kind == "valid"]
    for inst in workload.instances:
        for role in ("program", "translated", "perturbed"):
            program = getattr(inst, role)
            programs.append(program)
            diag = validate_pair(inst.fan, program)
            if diag is not None:
                problems.append(f"{inst.label} {role} does not build: {diag}")
    for program in programs:
        for step in program:
            if isinstance(step, CurveBlowup):
                if not product(q for _, coords in step.points for q in coords).is_one():
                    problems.append(f"conic without product one: {step}")
    return problems

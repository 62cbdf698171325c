"""A differential test: one fixed corpus, on another commit's package and on ``src/``.

    PYTHONPATH=src python tests/differential.py <commit>

Extracts ``<commit>``'s ``src/`` with ``git archive`` into a temporary
``.differential-*`` directory under the working tree, which is removed on
exit, on Ctrl-C too.  Then builds the corpus in a child process that
imports ``logcy3`` from that tree, and again in one that imports it from
``src/``; both run this checkout's tests, and each must show that it
imported its own tree.  The corpus has four groups:

* ``reports`` (40 items): ``tests/test_golden_reports.py``'s ``run_report``,
  exit code and standard output, for its five commands on the 8 bundled
  pairs;
* ``scale`` (20 items): ``tests/test_golden_scale.py``'s 5 documents, each
  document's text and its ``periods``, ``invariants`` and ``compare``
  reports through the same runner;
* ``verdicts`` (127 items): decide's verdict, reason and certificate and the
  transporter's outcome, through ``cli._stringify``, for each of the 8
  bundled pairs and ``tests/stage_harness.py``'s family at 20 and 60 rays
  against itself, against its torus translate by ``(2, 3, i)``, and
  against each pair with one point coordinate moved by 3/2; and for
  ``p3-point`` and ``p111-blowup-point``, each with the point steps of
  ``RELABELLED`` appended, against their frame relabelling, whose vertex
  and step maps are not the identity, and against its step 1 moved by 3/2,
  and, under the identity with every component map given explicitly,
  against its translate and against itself with step 1 moved by 3/2;
  the transport at the markers, with the partner re-marked, and with both
  re-marked, each re-marking a seeded point ``a + b i`` on every edge;
* ``random`` (100 items): the first 100 derandomized draws of
  ``tests/random_draws.py``'s ``random_cases``, each pair's document
  text from ``pair_to_document``, or the build's error.

Both sides import this checkout's ``child.py``, ``stage_harness.py``,
``random_draws.py``, ``test_golden_reports.py`` and ``test_golden_scale.py``,
so those modules may import from ``src/`` only names that the compared
commit has too, and may import no other test module: a name new in
``src/`` belongs in the test modules that need it.

Prints, per group, its item count and the digest of each side, and, where
a group differs, how many items differ and a unified diff of the first of
them.  Exits 1 on any difference, 2 when a side cannot be built, and 0
otherwise.  A full run takes about 8 s on a 2-vCPU x86-64 Xeon (CPython
3.11).  Pytest does not collect this file; ``tests/test_golden_reports.py``
builds two bundled pairs' corpus in process.
"""

import difflib
import hashlib
import json
import subprocess
import sys
import tempfile

import child

FAMILY_RAYS = (20, 60)
DRAWS = 100
# Per bundled pair, the point steps appended before it is relabelled, so
# the step map can reverse the program, and the new labels of its rays.
RELABELLED = {
    "p3-point": ((((1, 2), "3+i"), ((0, 3), "5"), ((2, 3), "7"), ((0, 1), "4")), (2, 0, 3, 1)),
    "p111-blowup-point": (
        (((2, 6), "2"), ((1, 2), "3+i"), ((0, 3), "5"), ((1, 4), "7")), (3, 5, 0, 6, 1, 4, 2)
    ),
}
USAGE = "usage: PYTHONPATH=src python tests/differential.py <commit>"

# The child prints the corpus as one line of JSON, then the file it
# imported the package from.  The group builders import the package and the
# tests where they run, so the comparing process imports neither.
_CHILD = (
    "import json, differential, logcy3\n"
    "print(json.dumps(differential.corpus(), default=str))\n"
    "print(logcy3.__file__)\n"
)


def reports(names) -> dict:
    from test_golden_reports import COMMANDS, bundled, run_report

    return {f"{c} {n}": run_report(c, bundled(n)) for c in COMMANDS for n in names}


def scale() -> dict:
    from test_golden_reports import run_report
    from test_golden_scale import COMMANDS, write_documents

    items = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, (path, text) in write_documents(directory).items():
            items[f"document {name}"] = text
            items.update({f"{c} {name}": run_report(c, path) for c in COMMANDS})
    return items


def bundled_pairs(names) -> dict:
    from logcy3.documents import loads, pair_from_document
    from test_golden_reports import bundled

    pairs = {}
    for name in names:
        with open(bundled(name), encoding="utf-8") as f:
            pairs[name] = pair_from_document(loads(f.read()))[0]
    return pairs


def verdicts(pairs) -> dict:
    """Decide and transport of each pair against itself, its translate and
    each one-point perturbation, and of the ``RELABELLED`` pairs against
    their relabelling and its perturbation."""
    from logcy3.exactnum import IntMatrix
    from logcy3.gaussian import GaussianRational
    from logcy3.pair import LogCY3Pair, PointBlowup
    from logcy3.torelli import Correspondence
    from stage_harness import TRANSLATION

    moved_by = GaussianRational.parse("3/2")
    items = {}
    for name, pair in pairs.items():
        partners = {"self": pair, "translate": pair.torus_translate(TRANSLATION)}
        edges = [tuple(e) for e in pair.complex.edges]
        for k, step in enumerate(pair.program):
            if isinstance(step, PointBlowup):
                program = list(pair.program)
                program[k] = PointBlowup(step.edge, step.coordinate * moved_by)
                partners[f"perturbed {k}"] = LogCY3Pair.build(pair.fan, program, edges)
        for partner, other in partners.items():
            items[f"{name} {partner}"] = _verdict_item(f"{name} {partner}", pair, other, None)
    for name in [name for name in RELABELLED if name in pairs]:
        points, sigma = RELABELLED[name]
        pair = pairs[name]
        program = [*pair.program, *(PointBlowup(e, GaussianRational.parse(q)) for e, q in points)]
        pair = LogCY3Pair.build(pair.fan, program, [tuple(e) for e in pair.complex.edges])
        corr = Correspondence(tuple(enumerate(sigma)), tuple(reversed(range(len(program)))))
        perturbed = list(program)
        perturbed[1] = PointBlowup(program[1].edge, program[1].coordinate * moved_by)
        for partner, steps in (("relabelled", program), ("relabelled, perturbed 1", perturbed)):
            other = relabelled(pair, sigma, steps[::-1])
            items[f"{name} {partner}"] = _verdict_item(f"{name} {partner}", pair, other, corr)
        # The identity with every component map given explicitly.
        identity = Correspondence.identity(pair)
        maps = tuple(
            (v, IntMatrix.from_columns(comp.rank, [((i, 1),) for i in range(comp.rank)]))
            for v, comp in sorted(pair.components.items())
        )
        corr = Correspondence(identity.vertex_map, identity.step_map, None, maps)
        edges = [tuple(e) for e in pair.complex.edges]
        partners = {
            "explicit, translate": pair.torus_translate(TRANSLATION),
            "explicit, perturbed 1": LogCY3Pair.build(pair.fan, perturbed, edges),
        }
        for partner, other in partners.items():
            items[f"{name} {partner}"] = _verdict_item(f"{name} {partner}", pair, other, corr)
    return items


def _verdict_item(key, pair, other, corr) -> dict:
    """Decide's verdict and the three transports, with markings seeded by ``key``."""
    import random

    from logcy3.cli import _stringify
    from logcy3.torelli import decide_isomorphism, marking_transporter

    verdict = decide_isomorphism(pair, other, corr)
    rng = random.Random(key)
    marking, marking_other = (remarked(side, rng) for side in (pair, other))
    return {
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "certificate": _stringify(verdict.certificate),
        "transport": _stringify(marking_transporter(pair, other, corr)),
        "transport, partner re-marked": _stringify(
            marking_transporter(pair, other, corr, None, marking_other)
        ),
        "transport, both re-marked": _stringify(
            marking_transporter(pair, other, corr, marking, marking_other)
        ),
    }


def relabelled(pair, sigma, program):
    """``program``, a point program of the pair's fan, on the fan with ray
    i renamed ``sigma[i]``, and with the pair's edge orientations."""
    from logcy3.pair import LogCY3Pair, PointBlowup
    from logcy3.toric import Fan3

    fan = pair.fan
    rays = [None] * fan.n_rays
    for i, ray in enumerate(fan.rays):
        rays[sigma[i]] = ray
    triangle, sign = fan.orientation
    fan2 = Fan3(
        rays,
        [tuple(sigma[i] for i in cone) for cone in fan.max_cones],
        (tuple(sigma[i] for i in triangle), sign),
    )
    moved = [PointBlowup(tuple(sigma[v] for v in step.edge), step.coordinate) for step in program]
    return LogCY3Pair.build(fan2, moved, [(sigma[v], sigma[w]) for v, w in pair.complex.edges])


def remarked(pair, rng):
    """A seeded marking of the pair: ``a + b i`` on every edge, ``a`` in 2..9
    and ``b`` in -3..3."""
    from logcy3.boundary import Marking
    from logcy3.gaussian import GaussianRational

    return Marking.build(
        {key: GaussianRational(rng.randint(2, 9), rng.randint(-3, 3)) for key in pair.edge_keys()}
    )


def random_documents() -> dict:
    from hypothesis import HealthCheck, Phase, given, settings

    from logcy3.documents import dumps, pair_to_document
    from logcy3.pair import LogCY3Pair, PairError
    from logcy3.toric import FanError
    from random_draws import random_cases

    drawn = []

    @settings(
        max_examples=DRAWS,
        derandomize=True,
        database=None,
        deadline=None,
        phases=(Phase.generate,),
        suppress_health_check=list(HealthCheck),
    )
    @given(random_cases())
    def draw(case):
        drawn.append(case)

    draw()
    items = {}
    for i, (fan, program, *_) in enumerate(drawn):
        try:
            items[f"draw {i}"] = dumps(pair_to_document(LogCY3Pair.build(fan, program)))
        except (PairError, FanError) as exc:
            items[f"draw {i}"] = f"{type(exc).__name__}: {exc}"
    return items


def corpus() -> dict:
    """Every group's items, by group."""
    from logcy3.pair import LogCY3Pair
    from test_golden_reports import NAMES
    from stage_harness import family

    pairs = bundled_pairs(NAMES)
    pairs.update({f"family-{r}": LogCY3Pair.build(*family(r)) for r in FAMILY_RAYS})
    return {
        "reports": reports(NAMES),
        "scale": scale(),
        "verdicts": verdicts(pairs),
        "random": random_documents(),
    }


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def _lines(item) -> list:
    """An item as lines for a diff, a report's standard output line by line."""
    if item is None:
        return []
    if isinstance(item, dict) and "stdout" in item:
        return [f"exit {item['exit']}", *item["stdout"].splitlines()]
    if isinstance(item, str):
        return item.splitlines()
    return json.dumps(item, indent=1, sort_keys=True).splitlines()


def _build(tree):
    """The corpus built against ``tree``, or ``None`` after printing why not."""
    done = child.run(tree, _CHILD, [], capture_output=True, text=True)
    failure = child.failure(done, tree)
    if failure:
        print(done.stderr, end="")
        print(f"the corpus on {tree} {failure}")
        return None
    return json.loads(done.stdout.splitlines()[-2])


def main(argv):
    if len(argv) != 1 or argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    commit = argv[0]
    try:
        with child.package_tree(".differential-", commit) as tree:
            old = _build(tree)
    except subprocess.CalledProcessError:
        print(f"cannot extract src/ of {commit}")
        return 2
    new = _build(child.SRC)
    if old is None or new is None:
        return 2
    differs = False
    for group, items in new.items():
        before = old[group]
        print(f"{group}: {len(items)} items, {commit} {_digest(before)}, src/ {_digest(items)}")
        changed = [key for key in {**before, **items} if before.get(key) != items.get(key)]
        if changed:
            differs = True
            key = changed[0]
            print(f"{group}: {len(changed)} items differ; the first, {key!r}:")
            diff = difflib.unified_diff(
                _lines(before.get(key)), _lines(items.get(key)), commit, "src/", lineterm=""
            )
            print("\n".join(diff))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Stage times of a comparison on the scaling family, in milliseconds.

    PYTHONPATH=src python tests/stage_harness.py [RAYS ...] [cli]
    PYTHONPATH=src python tests/stage_harness.py COMMIT [RAYS ...] [cli] [--runs N] [--json PATH]

The family is the one the ROADMAP's stage tables time: projective space,
star-subdivided at its last max cone until it has RAYS rays (default 12, 60
and 120), with 6/5 as many point steps, step k on wall ``k % walls`` in
``fan.walls()`` order, as a sorted vertex pair, at the coordinate
``(k + 2) + (k % 3) i``.  :func:`family` builds it here for the tests too:
``tests/test_golden_scale.py`` pins its 20-ray reports.  For each size it
prints one row:

- ``load``: :func:`~logcy3.documents.pair_from_document` on the family
  pair's document, parsed untimed from its text, so each call reads the
  fan into a fresh ``Fan3``: what ``logcy3 validate`` pays past the parse;
- ``load conics``: the same on the document of :func:`conic_ladder` with
  8 conics on :func:`conic_ladder_fan` of RAYS rays, where the curve
  steps' points and period obstructions are most of the cost;
- ``fan``: a build with the empty program on a fresh ``Fan3`` of the
  family's rays, cones and orientation: the whole-fan check, the dual
  complex and the star surfaces, and nothing else;
- ``build``: a build of the family pair on its held, checked fan;
- ``marked``: the markers' marked period of a fresh build;
- ``snf``: the matching kernel of a fresh build: the Smith normal form of
  its edge-matching map, the map included, and the ``V`` the kernel is
  read off.  The factorization keeps its steps and builds each transform
  on first read, so the elimination alone would leave out the ``V`` that
  every report reads; commits that built all four transforms inside the
  factorization pay for them here;
- ``values``: the matching values of a fresh build whose matching kernel
  and markers' table are held: the pull-back alone.  Commits that hold the
  markers' character as its support on the exceptional rows build the
  table from the support, so the support is held here too, and the cell
  times the power products over the kernel columns on both sides;
- ``unmarked``: the unmarked period of a fresh build whose matching values
  are held, so the cell times the second marking's table and the
  marking-independence check (the markers' values are held on both sides:
  the table, or the support it was built from);
- ``k_image``: the image of restriction of a fresh build;
- ``quotient``: the quotient character of a fresh build whose matching
  values and k-image are held, and with the values the markers' table or
  support that the image check reads; it builds the factorization's ``V_inv``,
  which commits that built every transform inside the factorization paid
  for in the ``snf`` cell;
- ``fresh``: a self-compare of two fresh builds (every held value computed
  in the call);
- ``translate``: decide against a fresh torus translate by ``(2, 3, i)``,
  the pair's report held;
- ``perturbed``: decide against a fresh build with step 0's point moved by
  3/2, a ``period`` verdict, the pair's report held;
- ``transport``: marking transport to a fresh torus translate, the pair's
  report held;
- ``chain``: the family's fan, subdivided from a fresh ``Fan3`` root (not
  the held fixture root), so the one whole-fan check of the root is in it.

Each cell is the best of five calls (three from 120 rays on; a ``chain``
cell, which is cheap, of fifteen), garbage collection off inside each
call.

The ``cli`` row, printed when ``cli`` is named, is the median wall time of
``CLI_CALLS`` calls of ``python -m logcy3.cli --json SUBCOMMAND`` per
subcommand, each in a fresh interpreter that imports the package this file
imported, on the bundled ``p3-mixed.pair.json`` (``compare`` against
itself); the subcommands take turns, so a drift of the machine reaches
each alike.  The environment is passed on as it is, so the calls compile
the package when ``PYTHONDONTWRITEBYTECODE`` is set, as a user's do; one
untimed call first compiles it when they may write bytecode.

Named first, a COMMIT (anything but ``cli`` and a number; write a commit
named by digits alone as ``DIGITS^{commit}``) gives a paired table of that
commit's ``src/`` against the working one.  The commit's tree is
extracted by :func:`child.package_tree`.  Per size, ``N`` child processes
of each tree (default 10, at least 2) each print one row of the cells
above, the trees taking turns at going first; with ``cli``, each round of
calls runs both trees in turn, also alternating.  Per cell the table gives
both medians, their ratio (working tree over commit), the number of pairs
the working tree won, and the verdict of the 9-of-10 rule
(:func:`compared`).  ``--json PATH`` writes the same table with every
run.

This file imports only ``src/`` names that every commit since
``tests/differential.py`` was added has, since that tool imports it
against older commits.  Pytest does not collect it.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import child
import logcy3
from logcy3 import documents
from logcy3.gaussian import GaussianRational, I
from logcy3.fixtures import projective_space_fan
from logcy3.pair import LogCY3Pair, PointBlowup
from logcy3.periods import (
    marked_period,
    matching_kernel,
    matching_values,
    quotient_character,
    unmarked_period,
)
from logcy3.toric import Fan3, star_subdivide
from logcy3.torelli import decide_isomorphism, marking_transporter
from random_draws import solved_curve_step

TRANSLATION = (GaussianRational(2), GaussianRational(3), I)
CLI_CALLS = 21
RUNS = 10
# A child prints its row as one line of JSON, then the file it imported
# the package from (see child.py).
_CHILD = (
    "import sys, logcy3, stage_harness\n"
    "stage_harness.child_row(int(sys.argv[1]))\n"
    "print(logcy3.__file__)\n"
)


def subdivided(root, rays):
    """``root`` star-subdivided at its last max cone until it has ``rays`` rays."""
    fan = root
    while fan.n_rays < rays:
        fan = star_subdivide(fan, fan.max_cones[-1])
    return fan


def fresh_root():
    held = projective_space_fan()
    return Fan3(held.rays, held.max_cones)


def family(rays):
    """The fan with ``rays`` rays and its point program."""
    fan = subdivided(projective_space_fan(), rays)
    walls = [tuple(sorted(w)) for w in fan.walls()]
    program = [
        PointBlowup(walls[k % len(walls)], GaussianRational(k + 2, k % 3))
        for k in range(rays * 6 // 5)
    ]
    return fan, program


def conic_ladder_fan(rays):
    """Projective space subdivided away from component 3, a plane throughout."""
    fan = projective_space_fan()
    while fan.n_rays < rays:
        cone = next(c for c in reversed(fan.max_cones) if 3 not in c)
        fan = star_subdivide(fan, cone)
    return fan


def conic_ladder(fan, steps):
    """``steps`` conics in component 3, each solved to period one."""
    program = []
    for k in range(steps):
        pair = LogCY3Pair.build(fan, program)
        program.append(solved_curve_step(pair, 3, (2,), 1000 * (k + 1)))
    return program


def best_ms(call, prepare, repeats):
    """Best wall time of ``call(*prepare())`` in ms, preparing untimed."""
    best = float("inf")
    for _ in range(repeats):
        args = prepare()
        gc.disable()
        try:
            start = perf_counter()
            call(*args)
            best = min(best, perf_counter() - start)
        finally:
            gc.enable()
    return best * 1000


def stage_row(rays):
    fan, program = family(rays)
    perturbed = list(program)
    moved = program[0].coordinate * GaussianRational.parse("3/2")
    perturbed[0] = PointBlowup(program[0].edge, moved)
    pair = LogCY3Pair.build(fan, program)
    unmarked_period(pair)
    assert decide_isomorphism(pair, LogCY3Pair.build(fan, perturbed)).kind == "distinct"
    repeats = 3 if rays >= 120 else 5

    def build():
        return LogCY3Pair.build(fan, program)

    def translate():
        return pair, build().torus_translate(TRANSLATION)

    def built():
        return (build(),)

    def factored():
        fresh = build()
        matching_kernel(fresh)
        marked_period(fresh, fresh.markers())
        return (fresh,)

    def held_values():
        fresh = build()
        matching_values(fresh)
        return (fresh,)

    def held_image():
        fresh, = held_values()
        fresh.k_image()
        return (fresh,)

    text = documents.dumps(documents.pair_to_document(pair))
    conics = conic_ladder_fan(rays)
    conic_text = documents.dumps(
        documents.pair_to_document(LogCY3Pair.build(conics, conic_ladder(conics, 8)))
    )
    return {
        "load": best_ms(documents.pair_from_document, lambda: (documents.loads(text),), repeats),
        "load conics": best_ms(
            documents.pair_from_document, lambda: (documents.loads(conic_text),), repeats
        ),
        "fan": best_ms(
            LogCY3Pair.build, lambda: (Fan3(fan.rays, fan.max_cones, fan.orientation),), repeats
        ),
        "build": best_ms(build, lambda: (), repeats),
        "marked": best_ms(lambda p: marked_period(p, p.markers()), built, repeats),
        "snf": best_ms(matching_kernel, built, repeats),
        "values": best_ms(matching_values, factored, repeats),
        "unmarked": best_ms(unmarked_period, held_values, repeats),
        "k_image": best_ms(LogCY3Pair.k_image, built, repeats),
        "quotient": best_ms(quotient_character, held_image, repeats),
        "fresh": best_ms(decide_isomorphism, lambda: (build(), build()), repeats),
        "translate": best_ms(decide_isomorphism, translate, repeats),
        "perturbed": best_ms(
            decide_isomorphism, lambda: (pair, LogCY3Pair.build(fan, perturbed)), repeats
        ),
        "transport": best_ms(marking_transporter, translate, repeats),
        "chain": best_ms(subdivided, lambda: (fresh_root(), rays), 15),
    }


def child_row(rays):
    """Print :func:`stage_row` as one line of JSON: a paired run's child."""
    print(json.dumps(stage_row(rays)), flush=True)


def cli_times(trees, rounds):
    """``{tree: {subcommand: [ms, ...]}}`` of fresh-interpreter CLI calls.

    Each round calls every subcommand once per tree, the trees in turn, and
    the tree that goes first alternates between rounds.  ``tree`` is the
    directory that holds a ``logcy3`` package.
    """
    package = os.path.dirname(os.path.abspath(logcy3.__file__))
    path = os.path.join(package, "data", "p3-mixed.pair.json")
    commands = {
        "validate": [path],
        "invariants": [path],
        "periods": [path],
        "compare": [path, path],
        "oracle-check": [path],
    }

    def call(tree, name):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "logcy3.cli", "--json", name, *commands[name]],
            env=dict(os.environ, PYTHONPATH=str(tree)),
            capture_output=True,
        )
        assert done.returncode == 0, (name, done.stderr)
        return (perf_counter() - start) * 1000

    for tree in trees:
        call(tree, "validate")
    times = {tree: {name: [] for name in commands} for tree in trees}
    for k in range(rounds):
        for name in commands:
            for tree in trees if k % 2 == 0 else trees[::-1]:
                times[tree][name].append(call(tree, name))
    return times


def cli_row():
    """Median ms of fresh-interpreter CLI calls, per subcommand."""
    tree = os.path.dirname(os.path.dirname(os.path.abspath(logcy3.__file__)))
    times = cli_times([tree], CLI_CALLS)[tree]
    return {name: statistics.median(t) for name, t in times.items()}


def compared(before, after):
    """A cell of the paired table from the commit's and the working runs.

    The verdict is the 9-of-10 rule's: ``faster`` (``slower``) when the
    working tree wins (loses) at least 9 pairs of 10 and the medians differ
    by more than the commit's interquartile range, else ``neither``.
    """
    old, new = statistics.median(before), statistics.median(after)
    won = sum(a < b for a, b in zip(after, before))
    lost = sum(a > b for a, b in zip(after, before))
    q1, _, q3 = statistics.quantiles(before, n=4)
    verdict = "neither"
    if 10 * won >= 9 * len(before) and old - new > q3 - q1:
        verdict = "faster"
    elif 10 * lost >= 9 * len(before) and new - old > q3 - q1:
        verdict = "slower"
    return {
        "commit_median_ms": old,
        "src_median_ms": new,
        "ratio": new / old,
        "won": won,
        "pairs": len(before),
        "verdict": verdict,
        "commit_ms": before,
        "src_ms": after,
    }


def _child_row(tree, rays):
    done = child.run(tree, _CHILD, [str(rays)], capture_output=True, text=True)
    failure = child.failure(done, tree)
    if failure:
        raise SystemExit(f"{done.stderr}a {rays}-ray row on {tree} {failure}")
    return json.loads(done.stdout.splitlines()[-2])


def paired_table(commit, sizes, runs, cli):
    """``{row: {cell: compared(...)}}`` of ``commit``'s tree against ``src/``."""
    table = {}
    with child.package_tree(".stage-", commit) as tree:
        sides = (tree, child.SRC)
        for rays in sizes:
            rows = {side: [] for side in sides}
            for k in range(runs):
                for side in sides if k % 2 == 0 else sides[::-1]:
                    rows[side].append(_child_row(side, rays))
            table[str(rays)] = {
                cell: compared([r[cell] for r in rows[tree]], [r[cell] for r in rows[child.SRC]])
                for cell in rows[tree][0]
            }
        if cli:
            times = cli_times(sides, runs)
            table["cli"] = {
                name: compared(times[tree][name], times[child.SRC][name]) for name in times[tree]
            }
    return table


def print_paired(commit, table):
    print(f"| row | cell | {commit} ms | src ms | ratio | won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for row, cells in table.items():
        for cell, c in cells.items():
            print(
                f"| {row} | {cell} | {c['commit_median_ms']:.2f} | {c['src_median_ms']:.2f} "
                f"| {c['ratio']:.3f} | {c['won']}/{c['pairs']} | {c['verdict']} |",
                flush=True,
            )


def _option(argv, name, default):
    """The value after ``name`` in ``argv``, removed from it, or ``default``."""
    if name not in argv:
        return default
    i = argv.index(name)
    value = argv[i + 1]
    del argv[i: i + 2]
    return value


def main(argv):
    argv = list(argv)
    json_path = _option(argv, "--json", None)
    runs = int(_option(argv, "--runs", RUNS))
    if argv and argv[0] != "cli" and not argv[0].isdigit():
        commit, argv = argv[0], argv[1:]
        sizes = [int(a) for a in argv if a != "cli"] or [12, 60, 120]
        table = paired_table(commit, sizes, runs, "cli" in argv)
        print_paired(commit, table)
        if json_path:
            with open(json_path, "w", encoding="utf-8") as f:
                json.dump({"commit": commit, "runs": runs, "rows": table}, f, indent=1)
                f.write("\n")
        return
    sizes = [int(a) for a in argv if a != "cli"]
    if not argv:
        sizes = [12, 60, 120]
    for i, rays in enumerate(sizes):
        row = stage_row(rays)
        if i == 0:
            print("| rays | " + " | ".join(row) + " |")
        print(f"| {rays} | " + " | ".join(f"{row[k]:.2f}" for k in row) + " |", flush=True)
    if "cli" in argv:
        row = cli_row()
        print("| cli | " + " | ".join(row) + " |")
        print("| ms | " + " | ".join(f"{row[k]:.1f}" for k in row) + " |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

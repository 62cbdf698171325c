"""Stage times of a comparison on the scaling family, in milliseconds.

    PYTHONPATH=src python tests/stage_harness.py [RAYS ...]

The family is the one the ROADMAP's stage tables time: projective space,
star-subdivided at its last max cone until it has RAYS rays (default 12, 60
and 120), with 6/5 as many point steps, step k on wall ``k % walls`` in
``fan.walls()`` order at the coordinate ``(k + 2) + (k % 3) i``.  For each
size it prints one row:

- ``fresh``: a self-compare of two fresh builds (every held value computed
  in the call);
- ``translate``: decide against a fresh torus translate by ``(2, 3, i)``,
  the pair's report held;
- ``perturbed``: decide against a fresh build with step 0's point moved by
  3/2, a ``period`` verdict, the pair's report held;
- ``transport``: marking transport to a fresh torus translate, the pair's
  report held.

Each cell is the best of five calls (three from 120 rays on), garbage
collection off inside each call.  To compare two checkouts, run this file
from each in turn, alternating, and compare cells within one machine.
Pytest does not collect it.
"""

import gc
import sys
from time import perf_counter

from logcy3.exactnum import GaussianRational, I
from logcy3.fixtures import projective_space_fan
from logcy3.pair import LogCY3Pair, PointBlowup
from logcy3.periods import unmarked_period
from logcy3.toric import star_subdivide
from logcy3.torelli import decide_isomorphism, marking_transporter

TRANSLATION = (GaussianRational(2), GaussianRational(3), I)


def family(rays):
    """The fan with ``rays`` rays and its point program."""
    fan = projective_space_fan()
    while fan.n_rays < rays:
        fan = star_subdivide(fan, fan.max_cones[-1])
    walls = list(fan.walls())
    program = [
        PointBlowup(walls[k % len(walls)], GaussianRational(k + 2, k % 3))
        for k in range(rays * 6 // 5)
    ]
    return fan, program


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

    return {
        "fresh": best_ms(decide_isomorphism, lambda: (build(), build()), repeats),
        "translate": best_ms(decide_isomorphism, translate, repeats),
        "perturbed": best_ms(
            decide_isomorphism, lambda: (pair, LogCY3Pair.build(fan, perturbed)), repeats
        ),
        "transport": best_ms(marking_transporter, translate, repeats),
    }


def main(argv):
    sizes = [int(a) for a in argv] or [12, 60, 120]
    print("| rays | fresh | translate | perturbed | transport |")
    for rays in sizes:
        row = stage_row(rays)
        print(f"| {rays} | " + " | ".join(f"{row[k]:.2f}" for k in row) + " |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Command-line surface: validation, invariants, periods, comparison, oracles.

Exit codes: 0 for ok / isomorphic, 1 for a diagnostic / distinct verdict,
2 for errors, including any unexpected exception (reported on one line) and
an argument list that fits no line of the usage (reported with it).
Reports are deterministic for identical inputs; ``--json``, before the
subcommand, switches to machine-readable output.
"""

from __future__ import annotations

import hashlib
import json
import sys

from logcy3 import documents
from logcy3.documents import DocumentError
from logcy3.pair import PairError

OK, DIAGNOSTIC, ERROR = 0, 1, 2


def _load(parse, path, name, inputs: dict):
    """``parse`` of the document at ``path``, whose bytes are read once.

    The sha256 of those bytes goes into ``inputs[name]`` before they are
    parsed, so a report on a malformed document still names them.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    inputs[name] = hashlib.sha256(data).hexdigest()
    return parse(documents.loads(data))


def _report(command, inputs: dict, results) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "exact": True,
    }


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"command: {report['command']}")
    for name, digest in sorted(report["inputs"].items()):
        print(f"input {name}: sha256 {digest}")
    _emit_tree(report["results"], "")


def _emit_tree(value, prefix):
    if isinstance(value, dict):
        for key in sorted(value):
            child = value[key]
            if isinstance(child, (dict, list)):
                print(f"{prefix}{key}:")
                _emit_tree(child, prefix + "  ")
            else:
                print(f"{prefix}{key}: {child}")
    elif isinstance(value, list):
        for child in value:
            if isinstance(child, (dict, list)):
                _emit_tree(child, prefix + "  ")
            else:
                print(f"{prefix}- {child}")


# ---------------------------------------------------------------------------
# Subcommands.  Each imports the modules only it runs, so a call loads no
# more of the package than its subcommand needs.
# ---------------------------------------------------------------------------


def cmd_validate(as_json, file):
    inputs = {}
    try:
        pair, _ = _load(documents.pair_from_document, file, "file", inputs)
    except DocumentError as exc:
        report = _report("validate", inputs, {"status": "invalid", "diagnostic": str(exc)})
        _emit(report, as_json)
        return DIAGNOSTIC
    results = {
        "status": "ok",
        "picard_rank": pair.pic_rank,
        "steps": len(pair.program),
        "warnings": list(pair.warnings),
    }
    _emit(_report("validate", inputs, results), as_json)
    return OK


def cmd_invariants(as_json, file):
    from logcy3.periods import (
        edge_cokernel_report,
        matching_lattice,
        quotient_character,
        unmarked_period,
    )
    from logcy3.torelli import classify_contraction

    inputs = {}
    pair, _ = _load(documents.pair_from_document, file, "file", inputs)
    lattice = matching_lattice(pair)
    k_basis, saturated = pair.k_image()
    free_rank, torsion, composed_zero = edge_cokernel_report(pair)
    quotient, quotient_torsion = quotient_character(pair)
    period = unmarked_period(pair)
    steps = []
    for k in range(len(pair.program)):
        mori_type, triple = classify_contraction(pair, k)
        steps.append({"step": k, "type": mori_type, "triple": list(triple)})
    results = {
        "matching_lattice_rank": len(lattice),
        "restricted_image_rank": len(k_basis),
        "restricted_image_saturated": saturated,
        "quotient_free_rank": len(quotient.values),
        "quotient_torsion": list(quotient_torsion),
        "edge_cokernel_free_rank": free_rank,
        "edge_cokernel_torsion": list(torsion),
        "wedge_composition_zero": composed_zero,
        "period_trivial": "yes" if period.is_trivial() else "no",
        "contractions": steps,
    }
    _emit(_report("invariants", inputs, results), as_json)
    return OK


def _classes(character):
    return [
        {"class": list(vec), "value": str(val)}
        for vec, val in zip(character.basis, character.values)
    ]


def cmd_periods(as_json, file):
    from logcy3.periods import marked_period, quotient_character, unmarked_period

    inputs = {}
    pair, marking = _load(documents.pair_from_document, file, "file", inputs)
    if marking is None:
        marking = pair.markers()
    marked = marked_period(pair, marking)
    unmarked = unmarked_period(pair)
    quotient, quotient_torsion = quotient_character(pair)
    results = {
        "marked": _classes(marked),
        "unmarked": _classes(unmarked),
        "quotient": _classes(quotient),
        "quotient_torsion": list(quotient_torsion),
    }
    _emit(_report("periods", inputs, results), as_json)
    return OK


def cmd_compare(as_json, file_a, file_b, correspondence=None):
    from logcy3.torelli import decide_isomorphism

    inputs = {}
    pair, _ = _load(documents.pair_from_document, file_a, "file_a", inputs)
    other, _ = _load(documents.pair_from_document, file_b, "file_b", inputs)
    corr = None  # the identity
    if correspondence:
        corr = _load(
            documents.correspondence_from_document, correspondence, "correspondence", inputs
        )
    verdict = decide_isomorphism(pair, other, corr)
    results = {
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "certificate": _stringify(verdict.certificate),
    }
    _emit(_report("compare", inputs, results), as_json)
    return OK if verdict.is_isomorphic else DIAGNOSTIC


def _stringify(value):
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value  # every other certificate value is an int, a str or None


def cmd_oracle_check(as_json, file):
    from logcy3.oracle import cocycle_period, curve_subdivision_check, point_subdivision_check
    from logcy3.periods import matching_lattice, matching_values

    inputs = {}
    pair, _ = _load(documents.pair_from_document, file, "file", inputs)
    discrepancies = []
    # Two computation paths for the period of every matching generator: the
    # held values the periods report prints, and the triangle walk.
    checked = 0
    for gen, direct in zip(matching_lattice(pair), matching_values(pair)):
        via_triangles = cocycle_period(pair, gen)
        checked += 1
        if direct != via_triangles:
            discrepancies.append(
                f"period paths disagree on {list(gen)}: "
                f"{direct} vs {via_triangles}"
            )
            break
    period_paths = "disagree" if discrepancies else "agree"
    # Invariant-center blowup tensors against star subdivisions.
    fan = pair.fan
    point_diag = point_subdivision_check(fan, fan.max_cones[0])
    if point_diag:
        discrepancies.append(f"point blowup: {point_diag}")
    wall = tuple(sorted(next(iter(fan.walls()))))
    curve_diag = curve_subdivision_check(fan, wall)
    if curve_diag:
        discrepancies.append(f"curve blowup: {curve_diag}")
    results = {
        "period_paths": period_paths,
        "generators_checked": checked,
        "point_subdivision": "agree" if not point_diag else "disagree",
        "curve_subdivision": "agree" if not curve_diag else "disagree",
        "discrepancies": discrepancies,
    }
    _emit(_report("oracle-check", inputs, results), as_json)
    return OK if not discrepancies else DIAGNOSTIC


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """An argument list that fits no line of the usage."""


# Each subcommand: its function, then its arguments; one in brackets may be
# left out.  The usage text is read off this table.
COMMANDS = {
    "validate": (cmd_validate, "FILE"),
    "invariants": (cmd_invariants, "FILE"),
    "periods": (cmd_periods, "FILE"),
    "compare": (cmd_compare, "FILE_A", "FILE_B", "[CORRESPONDENCE]"),
    "oracle-check": (cmd_oracle_check, "FILE"),
}
USAGE = "usage: " + "\n       ".join(
    " ".join(("logcy3 [--json]", name, *arguments)) for name, (_, *arguments) in COMMANDS.items()
)


def _parse(argv):
    """``(as_json, function, arguments)`` of an argument list, or ``UsageError``."""
    as_json, words, rest = False, [], iter(argv)
    for argument in rest:
        if argument == "--":
            words += rest  # every argument after it is positional, as ``-`` always is
        elif argument == "--json" and not words:
            as_json = True
        elif argument.startswith("-") and argument != "-":
            raise UsageError(f"unknown option {argument}")
        else:
            words.append(argument)
    if not words:
        raise UsageError("no subcommand given")
    name, *arguments = words
    if name not in COMMANDS:
        raise UsageError(f"unknown subcommand {name}")
    function, *names = COMMANDS[name]
    required = [n for n in names if not n.startswith("[")]
    if not len(required) <= len(arguments) <= len(names):
        raise UsageError(f"{name} takes {' '.join(names)}; {len(arguments)} given")
    return as_json, function, arguments


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    options = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in options or "--help" in options:
        print(USAGE)
        return OK
    try:
        as_json, function, arguments = _parse(argv)
    except UsageError as exc:
        print(f"error: {exc}\n{USAGE}", file=sys.stderr)
        return ERROR
    try:
        return function(as_json, *arguments)
    except (DocumentError, PairError, OSError) as exc:  # CorrespondenceError is a PairError
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except Exception as exc:  # exit 1 would read as a verdict, so never leak
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())

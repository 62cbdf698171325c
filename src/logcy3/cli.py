"""Command-line surface: validation, invariants, periods, comparison, oracles.

Exit codes: 0 for ok / isomorphic, 1 for a diagnostic / distinct verdict,
2 for errors, including any unexpected exception (reported on one line).
Reports are deterministic for identical inputs; ``--json`` switches to
machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from logcy3 import documents
from logcy3.documents import DocumentError
from logcy3.oracle import (
    cocycle_period,
    curve_subdivision_check,
    point_subdivision_check,
)
from logcy3.pair import PairError
from logcy3.periods import (
    edge_cokernel_report,
    evaluate_boundary_character,
    marked_period,
    matching_lattice,
    quotient_character,
    unmarked_period,
)
from logcy3.torelli import (
    Correspondence,
    CorrespondenceError,
    classify_contraction,
    decide_isomorphism,
)

OK, DIAGNOSTIC, ERROR = 0, 1, 2


def _digest(path) -> str:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return "unavailable"


def _report(command, inputs, results) -> dict:
    return {
        "command": command,
        "inputs": {name: _digest(path) for name, path in inputs},
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
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    try:
        pair, _ = documents.load_pair(args.file)
    except DocumentError as exc:
        report = _report(
            "validate", [("file", args.file)], {"status": "invalid", "diagnostic": str(exc)}
        )
        _emit(report, args.json)
        return DIAGNOSTIC
    results = {
        "status": "ok",
        "picard_rank": pair.pic_rank,
        "steps": len(pair.program),
        "warnings": list(pair.warnings),
    }
    _emit(_report("validate", [("file", args.file)], results), args.json)
    return OK


def cmd_invariants(args):
    pair, _ = documents.load_pair(args.file)
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
    _emit(_report("invariants", [("file", args.file)], results), args.json)
    return OK


def _classes(character):
    return [
        {"class": list(vec), "value": str(val)}
        for vec, val in zip(character.basis, character.values)
    ]


def cmd_periods(args):
    pair, marking = documents.load_pair(args.file)
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
    _emit(_report("periods", [("file", args.file)], results), args.json)
    return OK


def cmd_compare(args):
    pair, _ = documents.load_pair(args.file_a)
    other, _ = documents.load_pair(args.file_b)
    inputs = [("file_a", args.file_a), ("file_b", args.file_b)]
    if args.correspondence:
        corr = documents.load_correspondence(args.correspondence)
        inputs.append(("correspondence", args.correspondence))
    else:
        corr = Correspondence.identity(pair)
    verdict = decide_isomorphism(pair, other, corr)
    results = {
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "certificate": _stringify(verdict.certificate),
    }
    _emit(_report("compare", inputs, results), args.json)
    if verdict.kind == "isomorphic":
        return OK
    if verdict.kind == "distinct":
        return DIAGNOSTIC
    return ERROR


def _stringify(value):
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def cmd_oracle_check(args):
    pair, _ = documents.load_pair(args.file)
    discrepancies = []
    # Two computation paths for the period of every matching generator.
    markers = pair.markers()
    checked = 0
    for gen in matching_lattice(pair):
        direct = evaluate_boundary_character(pair, markers, gen)
        via_triangles = cocycle_period(pair, gen, markers)
        checked += 1
        if direct != via_triangles:
            discrepancies.append(
                f"period paths disagree on {list(gen)}: "
                f"{direct} vs {via_triangles}"
            )
            break
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
        "period_paths": "agree" if not discrepancies else "disagree",
        "generators_checked": checked,
        "point_subdivision": "agree" if not point_diag else "disagree",
        "curve_subdivision": "agree" if not curve_diag else "disagree",
        "discrepancies": discrepancies,
    }
    _emit(_report("oracle-check", [("file", args.file)], results), args.json)
    return OK if not discrepancies else DIAGNOSTIC


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="logcy3",
        description="Exact invariants and Torelli comparison for "
        "log Calabi-Yau threefold pairs over toric models.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a pair file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="lattice ranks and contraction data")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("periods", help="marked and unmarked period tables")
    p.add_argument("file")
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("compare", help="decide isomorphism of two pairs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("correspondence", nargs="?", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle-check", help="run independent cross-checks")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, PairError, CorrespondenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except Exception as exc:  # exit 1 would read as a verdict, so never leak
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())

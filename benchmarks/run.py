"""Benchmark of the logcy3 toolkit: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload point-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up generates the workload's inputs (several times, for the
median ``setup_s``).  The timed region is a number of rounds set by
``--seconds``; each round runs every op once on fresh inputs of the
workload's shapes, so no input is seen twice.  After it, the correctness
gate checks every result.  With ``--trace 1`` a warm-up round runs, then
one round untraced and again traced, the ladders add their 20-ray rung,
and the per-layer metrics are reported.  The last line of standard output
is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected_reports.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# ``--seconds`` over these constants, rounded, is the number of rounds (at
# least MIN_ROUNDS): never a clock, so that both sides of a comparison time
# the same work.  At 16 s that is 3, 3 and 2 rounds, and an untraced run
# takes 17-40 s on a 2-vCPU x86-64 virtual machine.
ROUND_SECONDS = {"point-ladder": 5.0, "curve-ladder": 5.5, "ingest": 8.0}
MIN_ROUNDS = 2

PER_LAYER = (
    ("exactnum.snf", ("calls", "self_s", "unique_ratio")),
    ("exactnum.solve_integer", ("calls",)),
    ("exactnum.kernel_basis", ("calls",)),
    ("exactnum.invert_unimodular", ("calls",)),
    ("pair.LogCY3Pair.build", ("calls", "self_s", "unique_ratio")),
    ("pair.LogCY3Pair.truncated", ("calls",)),
    ("pair.LogCY3Pair.k_image", ("calls",)),
    ("pair.LogCY3Pair.restriction_matrix", ("calls",)),
    ("toric.validate_fan", ("calls", "self_s")),
    ("toric.star_surface", ("calls", "self_s")),
    ("toric.Fan3.oriented_triangle", ("calls",)),
    ("toric.TripleIntersection", ("calls",)),
    ("boundary.restrict_to_cycle", ("calls", "self_s")),
    ("boundary.component_marked_period", ("calls", "self_s")),
    ("boundary.section_ratio", ("calls",)),
    ("periods.edge_matching_map", ("calls", "self_s")),
    ("periods.matching_lattice", ("calls", "self_s")),
    ("periods.evaluate_boundary_character", ("calls", "self_s")),
    ("periods.marked_period", ("s",)),
    ("periods.unmarked_period", ("s",)),
    ("periods.quotient_character", ("s",)),
    ("torelli.classify_contraction", ("calls", "self_s")),
    ("torelli.component_transport", ("calls",)),
    ("torelli.threefold_transport", ("calls",)),
    ("torelli.decide_isomorphism", ("s",)),
    ("torelli.marking_transporter", ("s",)),
    ("documents.loads", ("self_s",)),
    ("documents.pair_from_document", ("self_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "s": "s", "unique_ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("point-ladder", "curve-ladder", "ingest"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest rung and a few ingest documents only")
    parser.add_argument("--record", action="store_true",
                        help="write the report digests of the default seed")
    return parser.parse_args(argv)


def rounds_for(args):
    if args.smoke:
        return MIN_ROUNDS
    return max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS[args.workload]))


def run_round(runner, rnd, keep):
    """Rung ops, then validations, then CLI calls (whose fresh interpreters
    disturb the probe samples right after them, so they come last).

    Returns the wall time and the round's records.
    """
    first = len(runner.records)
    # The inputs and the results kept for the gate are the benchmark's, not
    # the program's: move them out of the collector's reach, so that its
    # full collections do not grow with the rounds run so far.
    gc.collect()
    gc.freeze()
    if runner.probe:
        runner.probe.tick(force=True)
    t = perf_counter()
    for inst in rnd.instances:
        runner.instance(inst, keep)
    for doc in rnd.docs:
        runner.validate(doc)
    for key, args in rnd.cli_calls:
        runner.cli(key, args)
    wall = perf_counter() - t
    if runner.probe:
        runner.probe.tick(force=True)
        for record in runner.records[first:]:
            record.factor = runner.probe.factor(record.start, record.start + record.seconds)
    return wall, runner.records[first:]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _timed(records, op, label=None):
    """Records of completed ops; a validation counts for valid documents only."""
    return [
        r for r in records
        if r.op == op and r.outcome != "crash" and (label is None or r.label == label)
        and (op != "validate" or r.kind == "valid")
    ]


def _scaled(records, op, label=None):
    return [r.scaled for r in _timed(records, op, label)]


def _decide_sums(records, label, scaled=True):
    """Both verdicts of each alternative of a rung, summed, by alternative."""
    def seconds(role):
        return {r.alt: r.scaled if scaled else r.seconds
                for r in _timed(records, "decide", f"{label}.{role}")}
    translated, perturbed = seconds("translated"), seconds("perturbed")
    return {alt: translated[alt] + perturbed[alt] for alt in translated if alt in perturbed}


def end_to_end(workload, setup, rounds, records, rss_mb):
    """Medians of scaled times (see speed.py) over alternatives; see README.md."""
    small, large = workload.small, workload.large
    median = statistics.median
    validate = _scaled(records, "validate")
    values = {
        "setup_s": (median(setup), "s"),
        "total_s": (median(sum(r.scaled for r in rnd) for rnd in rounds), "s"),
        "report_s.small": (median(_scaled(records, "report", small)), "s"),
        "report_s.large": (median(_scaled(records, "report", large)), "s"),
        "decide_s.small": (median(_decide_sums(records, small).values()), "s"),
        "decide_s.large": (median(_decide_sums(records, large).values()), "s"),
        "transport_s.large": (median(_scaled(records, "transport", large)), "s"),
        "validate_p50_ms": (1000 * median(validate), "ms"),
        "validate_p95_ms": (1000 * statistics.quantiles(validate, n=20, method="inclusive")[18], "ms"),
        "docs_per_s": (len(validate) / sum(validate), "1/s"),
        "cli_call_p50_s": (median(_scaled(records, "cli")), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _in_process(records):
    return sum(r.scaled for r in records if r.op != "cli")


def per_layer(tracer, overhead_s, large_label):
    inclusive, own = tracer.self_times()
    large = tracer.counts_under("op.decide.translated." + large_label)
    values = {}
    for name, kinds in PER_LAYER:
        for kind in kinds:
            if kind == "calls":
                value = tracer.calls[name]
            elif kind == "unique_ratio":
                value = tracer.unique_ratio(name)
            else:
                value = (own if kind == "self_s" else inclusive).get(name, 0.0)
            values[f"{name}.{kind}"] = (value, UNITS[kind])
    values["decide_large.exactnum.snf.calls"] = (large.get("exactnum.snf", 0), "count")
    values["decide_large.pair.LogCY3Pair.build.calls"] = (
        large.get("pair.LogCY3Pair.build", 0), "count")
    values["trace.spans"] = (len(tracer.span_name), "count")
    values["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def print_table(workload, records):
    """The ROADMAP baseline table from each rung's median alternative, with CLI time."""
    columns = ("build", "marked", "unmarked", "quotient", "classify")
    print(f"{workload.name}: wall seconds per rung (alternative with the median scaled report)")
    print("| rays / steps | " + " | ".join(columns)
          + " | decide (translated + perturbed) | CLI validate (best) |")
    print("|" + " --- |" * (len(columns) + 3))
    for label in workload.shapes:
        reports = _timed(records, "report", label)
        if not reports:
            continue
        report = sorted(reports, key=lambda r: r.scaled)[(len(reports) - 1) // 2]
        inst = next(i for i in workload.instances if (i.label, i.alt) == (label, report.alt))
        decide = _decide_sums(records, label, scaled=False).get(report.alt, float("nan"))
        cli = [r.seconds for r in _timed(records, "cli", f"validate {label}")]
        cli_text = f"{min(cli):.3f}" if cli else "-"
        cells = " | ".join(f"{report.parts[c]:.3f}" for c in columns)
        print(f"| {inst.fan.n_rays} / {len(inst.program)} | {cells} | {decide:.3f} | {cli_text} |")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: --record needs the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "logcy3")):
        print(f"error: no logcy3 package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import inputs
    import ops
    from speed import Probe
    from tracing import Tracer

    # One CPU for the run and the CLI interpreters it starts, so that the
    # speed probe (speed.py) reads the CPU the timed code runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(work, exist_ok=True)
    try:
        bundled = sorted(glob.glob(os.path.join(SRC, "logcy3", "data", "*.pair.json")))
        probe = Probe()
        setup = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            probe.tick(force=True)
            t = perf_counter()
            workload = inputs.make_workload(args.workload, args.seed, work, bundled,
                                            rounds_for(args), args.smoke, bool(args.trace))
            seconds = perf_counter() - t
            probe.tick(force=True)
            setup.append(seconds * probe.factor(t, t + seconds))

        runner = ops.Pass(ROOT, probe=probe)
        if args.trace:
            # After a warm-up, the same round untraced and then traced; the
            # overhead is the difference of their in-process ops' scaled
            # times (CLI calls are not traced).  A cache that outlived a call
            # would lower both the overhead and the traced counts.
            warmup, plain = workload.rounds
            run_round(runner, warmup, keep=False)
            _, untraced_records = run_round(runner, plain, keep=True)
            tracer = Tracer()
            traced = ops.Pass(ROOT, tracer, probe)
            tracer.install()
            try:
                _, traced_records = run_round(traced, plain, keep=True)
            finally:
                tracer.remove()
            records = runner.records + traced.records
        else:
            rounds = [run_round(runner, rnd, keep=True)[1] for rnd in workload.rounds]
            records = runner.records
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = inputs.self_check(workload)
        expected = {}
        if args.seed == DEFAULT_SEED:
            with open(EXPECTED, encoding="utf-8") as handle:
                expected = json.load(handle)
        digests = checks.check(workload, records, {} if args.record else expected, args.seed)
        if args.record:
            expected.update(digests)
            with open(EXPECTED, "w", encoding="utf-8") as handle:
                json.dump(expected, handle, indent=2, sort_keys=True)
                handle.write("\n")
        elif args.seed == DEFAULT_SEED:
            # Rounds beyond the recorded ones have no digest; every shape
            # must still be checked against at least one.
            checked = {key.rsplit("/", 1)[0] for key in digests if key in expected}
            problems += [f"no recorded digest for {args.workload}/{label}"
                         for label in workload.shapes if f"{args.workload}/{label}" not in checked]

        print_table(workload, runner.records)
        if args.trace:
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json.gz"))
            overhead = _in_process(traced_records) - _in_process(untraced_records)
            metrics = per_layer(tracer, overhead, workload.large)
        else:
            metrics = end_to_end(workload, setup, rounds, records, rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r.outcome != "ok"]
    unexpected = [r for r in failed if not ops.is_known_crash(r)]
    for problem in problems:
        print(f"input check: {problem}", file=sys.stderr)
    for r in failed[:20]:
        print(f"failed {r.op} {r.label}: {r.outcome} {r.detail}", file=sys.stderr)
    result = {
        "correct": not unexpected and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate run after the timed region, on the results the ops kept.

Each check that fails marks its op as a wrong outcome, so it is counted in
``failed`` and makes the run incorrect:

* the report's unmarked period agrees with the independent cocycle path of
  ``oracle.cocycle_period`` on every generator;
* the sympy Smith normal form of the edge-matching map has the invariant
  factors that ``exactnum.snf`` gives;
* on the default seed, the SHA-256 of each rung alternative's report matches the digest
  recorded in ``expected_reports.json``;
* an isomorphic verdict's period transcript equals the report's unmarked
  period, and a distinct verdict's witness values re-evaluate as stated;
* the scalars of a marking transport move the first pair's marked period
  onto the re-marked partner's, checked on a sample of basis classes.
"""

from __future__ import annotations

import hashlib
import json
import random

from logcy3 import exactnum, periods
from logcy3.boundary import Marking
from logcy3.oracle import cocycle_period

TRANSPORT_SAMPLE = 12


def report_digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _wrong(record, why):
    record.outcome = "wrong"
    record.detail = f"{record.detail}; {why}" if record.detail else why


def check(workload, records, expected, seed):
    """Run every post-run check; returns the report digests by key."""
    # Imported here, after peak_rss_mb is read, so that it excludes sympy.
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import ZZ

    digests = {}
    unmarked = {}
    for record in records:
        keep = record.keep
        if record.op == "report" and keep:
            pair = keep["pair"]
            character = keep["unmarked"]
            unmarked[record.label, record.alt] = [str(v) for v in character.values]
            for gen, value in zip(character.basis, character.values):
                if cocycle_period(pair, gen) != value:
                    _wrong(record, f"cocycle period disagrees on {list(gen)}")
                    break
            ell = periods.edge_matching_map(pair)
            ours = exactnum.snf(ell).invariant_factors()
            theirs = tuple(
                abs(int(d)) for d in invariant_factors(Matrix(ell.data), domain=ZZ) if d != 0
            )
            if sorted(ours) != sorted(theirs):
                _wrong(record, f"sympy invariant factors {theirs} != {ours}")
            key = f"{workload.name}/{record.label}/{record.alt}"
            digests[key] = report_digest(keep["summary"])
            if key in expected and expected[key] != digests[key]:
                _wrong(record, f"report digest {digests[key]} != recorded {expected[key]}")
    for record in records:
        keep = record.keep
        if record.op == "decide" and keep:
            _check_verdict(record, unmarked)
        elif record.op == "transport" and keep:
            _check_transport(record, random.Random(f"{workload.name}:{seed}:transport"))
    return digests


def _check_verdict(record, unmarked):
    verdict, pair, other = record.keep["verdict"], record.keep["pair"], record.keep["other"]
    cert = verdict.certificate
    if verdict.kind == "isomorphic":
        transcript = [value for _, value in cert["period_transcript"]]
        key = record.label.rsplit(".", 1)[0], record.alt
        if key in unmarked and transcript != unmarked[key]:
            _wrong(record, "period transcript differs from the reported unmarked period")
        return
    value = periods.evaluate_boundary_character(
        pair, Marking.markers(pair.edge_keys()), cert["witness"]
    )
    value2 = periods.evaluate_boundary_character(
        other, Marking.markers(other.edge_keys()), cert["witness_image"]
    )
    if (str(value), str(value2)) != tuple(cert["values"]) or value == value2:
        _wrong(record, "distinct witness does not re-evaluate as certified")


def _check_transport(record, rng):
    """value(pair, markers, e) * scaling(e) == value(other, re-marking, e).

    Both pairs share the fan and the shape of the program, so the identity
    correspondence maps each boundary basis class to the same class.
    """
    keep = record.keep
    pair, other = keep["pair"], keep["other"]
    scaling = periods.edge_scaling_character(pair, keep["scalars"])
    total = len(scaling.values)
    markers = Marking.markers(pair.edge_keys())
    for i in sorted(rng.sample(range(total), min(TRANSPORT_SAMPLE, total))):
        unit = tuple(int(j == i) for j in range(total))
        left = periods.evaluate_boundary_character(pair, markers, unit) * scaling.values[i]
        right = periods.evaluate_boundary_character(other, keep["marking"], unit)
        if left != right:
            _wrong(record, f"transport scalars fail on boundary class {i}")
            return

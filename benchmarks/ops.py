"""The timed operations of one pass, each checked against its expected outcome.

An op is what a user waits for: the report behind ``logcy3 invariants`` and
``logcy3 periods``, a verdict of ``decide_isomorphism``, a marking transport,
an in-process ``logcy3 --json validate``, or one CLI call in a fresh
interpreter.  Checks here are the cheap ones (verdict kinds, certificate
fields, exit codes, Picard ranks); the expensive ones run after the timed
region on the results kept in ``Record.keep``.

An op *fails* when it gives a wrong outcome or an exception escapes it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from logcy3 import cli, periods, torelli
from logcy3.boundary import Marking
from logcy3.pair import LogCY3Pair, PointBlowup

from inputs import CRASH_KINDS

CLI_TIMEOUT_S = 120


@dataclass
class Record:
    op: str  # report | decide | transport | validate | cli
    label: str  # the shape (with the role, for a verdict); alternatives share it
    seconds: float
    alt: int = 0
    kind: str = ""  # of a validated document: "valid" or a malformed kind
    start: float = 0.0  # perf_counter when the op started
    factor: float = 1.0  # speed factor from the probe, see speed.py
    outcome: str = "ok"  # ok | wrong | crash
    detail: str = ""
    parts: dict = field(default_factory=dict)  # per-stage seconds of a report
    keep: dict = field(default_factory=dict)  # results for the post-run checks

    @property
    def scaled(self):
        return self.seconds * self.factor


class Pass:
    """Runs ops and collects their records; ``tracer`` adds one span per op,
    and ``probe`` is sampled before each op (see speed.py)."""

    def __init__(self, root, tracer=None, probe=None):
        self.root = root
        self.tracer = tracer
        self.probe = probe
        self.records = []

    def _region(self, name):
        return self.tracer.region(name) if self.tracer else contextlib.nullcontext()

    def _add(self, record):
        """Sample the probe, then start the op's record."""
        if self.probe:
            self.probe.tick()
        record.start = perf_counter()
        self.records.append(record)
        return record

    # -- instance ops ---------------------------------------------------------

    def instance(self, inst, keep=False):
        """Report, both verdicts and transport on one rung alternative.

        With ``keep`` the results stay on the records for the post-run checks.
        """
        pair = self._report(inst, keep)
        if pair is None:
            return
        translated = self._decide(inst, pair, "translated", keep)
        self._decide(inst, pair, "perturbed", keep)
        if translated is not None:
            self._transport(inst, pair, translated, keep)

    def _report(self, inst, keep):
        record = self._add(Record("report", inst.label, 0.0, inst.alt))
        parts = record.parts
        try:
            with self._region(f"op.report.{inst.label}"):
                t = perf_counter()
                pair = LogCY3Pair.build(inst.fan, inst.program)
                parts["build"] = perf_counter() - t
                t = perf_counter()
                marked = periods.marked_period(pair)
                parts["marked"] = perf_counter() - t
                t = perf_counter()
                unmarked = periods.unmarked_period(pair)
                parts["unmarked"] = perf_counter() - t
                t = perf_counter()
                quotient, torsion = periods.quotient_character(pair)
                parts["quotient"] = perf_counter() - t
                t = perf_counter()
                cokernel = periods.edge_cokernel_report(pair)
                parts["cokernel"] = perf_counter() - t
                t = perf_counter()
                k_basis, saturated = pair.k_image()
                parts["k_image"] = perf_counter() - t
                t = perf_counter()
                contractions = [
                    torelli.classify_contraction(pair, k) for k in range(len(pair.program))
                ]
                parts["classify"] = perf_counter() - t
        except Exception as exc:  # a failed op is recorded, not raised
            record.outcome, record.detail = "crash", repr(exc)
            return None
        record.seconds = sum(parts.values())
        expected = [2 if isinstance(s, PointBlowup) else 1 for s in inst.program]
        if [c[0] for c in contractions] != expected:
            record.outcome, record.detail = "wrong", f"contraction types {contractions}"
        if keep:
            record.keep.update(
                pair=pair,
                unmarked=unmarked,
                summary={
                    "marked": [str(v) for v in marked.values],
                    "unmarked": [[list(b), str(v)] for b, v in zip(unmarked.basis, unmarked.values)],
                    "quotient": [[list(b), str(v)] for b, v in zip(quotient.basis, quotient.values)],
                    "quotient_torsion": list(torsion),
                    "cokernel": [cokernel[0], list(cokernel[1]), cokernel[2]],
                    "k_image": [[list(b) for b in k_basis], saturated],
                    "contractions": [[t, list(triple)] for t, triple in contractions],
                },
            )
        return pair

    def _decide(self, inst, pair, role, keep):
        record = self._add(Record("decide", f"{inst.label}.{role}", 0.0, inst.alt))
        try:
            with self._region(f"op.decide.{role}.{inst.label}"):
                t = perf_counter()
                other = LogCY3Pair.build(inst.fan, getattr(inst, role))
                verdict = torelli.decide_isomorphism(pair, other)
                record.seconds = perf_counter() - t
        except Exception as exc:
            record.outcome, record.detail = "crash", repr(exc)
            return None
        want = ("isomorphic", "complete") if role == "translated" else ("distinct", "period")
        got = (verdict.kind, verdict.certificate.get("check"))
        if got != want:
            record.outcome, record.detail = "wrong", f"verdict {got}, expected {want}"
        if keep:
            record.keep.update(pair=pair, other=other, verdict=verdict)
        return other

    def _transport(self, inst, pair, other, keep):
        record = self._add(Record("transport", inst.label, 0.0, inst.alt))
        marking = Marking.build(inst.marking)
        try:
            with self._region(f"op.transport.{inst.label}"):
                t = perf_counter()
                status, scalars = torelli.marking_transporter(pair, other, marking_other=marking)
                record.seconds = perf_counter() - t
        except Exception as exc:
            record.outcome, record.detail = "crash", repr(exc)
            return
        if status != "solved":
            record.outcome, record.detail = "wrong", f"status {status}"
        elif keep:
            record.keep.update(pair=pair, other=other, marking=marking, scalars=scalars)

    # -- document ops ---------------------------------------------------------

    def validate(self, doc):
        """In-process ``logcy3 --json validate``; stdout is captured and parsed."""
        record = self._add(Record("validate", doc.key, 0.0, kind=doc.kind))
        out = io.StringIO()
        try:
            with self._region("op.validate"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    t = perf_counter()
                    code = cli.main(["--json", "validate", doc.path])
                    record.seconds = perf_counter() - t
        except Exception as exc:
            record.outcome, record.detail = "crash", f"{doc.kind}: {exc!r}"
            return record
        record.detail = _validate_problem(doc, code, out.getvalue())
        if record.detail:
            record.outcome = "wrong"
        return record

    def cli(self, key, args):
        """One ``python -m logcy3.cli --json ...`` call in a fresh interpreter."""
        record = self._add(Record("cli", key, 0.0))
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        t = perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "logcy3.cli", "--json", *args],
                cwd=self.root,
                env=env,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            record.seconds = perf_counter() - t
            record.outcome, record.detail = "crash", "timed out"
            return record
        record.seconds = perf_counter() - t
        if "Traceback" in done.stderr:
            record.outcome, record.detail = "crash", done.stderr.strip().splitlines()[-1]
            return record
        try:
            results = json.loads(done.stdout)["results"]
        except (ValueError, KeyError):
            results = None
        ok = done.returncode == 0 and results is not None
        if ok and args[0] == "validate":
            ok = results["status"] == "ok"
        if ok and args[0] == "compare":
            ok = results["verdict"] == "isomorphic"
        if not ok:
            record.outcome, record.detail = "wrong", f"exit {done.returncode}"
        return record


def _validate_problem(doc, code, text):
    """Why a validate outcome is wrong for this document, or an empty string."""
    try:
        results = json.loads(text)["results"] if text else None
    except (ValueError, KeyError):
        return f"unparsable report, exit {code}"
    if doc.kind == "valid":
        if code != 0 or results is None:
            return f"valid document, exit {code}"
        got = (results["status"], results["picard_rank"], results["steps"])
        want = ("ok", doc.picard_rank, doc.steps)
        return "" if got == want else f"got {got}, expected {want}"
    if code == 1 and (results or {}).get("status") == "invalid":
        return ""
    if code == 2 and results is None:
        return ""
    return f"{doc.kind}: exit {code} with report {results}"


def is_known_crash(record):
    """A crash on a malformed kind that crashed when the benchmark was defined."""
    return record.outcome == "crash" and record.kind in CRASH_KINDS

"""Spans and call counts at the public functions of each logcy3 layer.

The tracer wraps functions from outside the package: a module-level name is
rebound in every ``logcy3`` module that holds it (``from ... import`` copies
the binding, so ``periods.snf`` and ``exactnum.snf`` are both replaced), and
methods are patched on their class.  Everything is restored by ``remove``.

Spans are kept in flat arrays (name, parent, start, end) and written out
once at the end.  A span's self time is its duration minus the durations of
its direct children; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from logcy3 import boundary, cli, documents, exactnum, pair, periods, toric, torelli


def _matrix_key(A, *args, **kwargs):
    return hash(A.data)


def _build_key(cls, fan, program=(), edge_orientations=None):
    edges = None if edge_orientations is None else tuple(map(tuple, edge_orientations))
    return hash((fan, tuple(program), edges))


# (metric prefix, owner, attribute, kind, input key); kind "span" records a
# span and a count, "count" only a count (for functions too hot for spans).
TARGETS = (
    ("exactnum.snf", exactnum, "snf", "span", _matrix_key),
    ("exactnum.solve_integer", exactnum, "solve_integer", "span", None),
    ("exactnum.kernel_basis", exactnum, "kernel_basis", "span", None),
    ("exactnum.invert_unimodular", exactnum, "invert_unimodular", "span", None),
    ("toric.validate_fan", toric, "validate_fan", "span", None),
    ("toric.star_surface", toric, "star_surface", "span", None),
    ("toric.Fan3.oriented_triangle", toric.Fan3, "oriented_triangle", "count", None),
    ("toric.TripleIntersection", toric.TripleIntersection, "__init__", "span", None),
    ("boundary.restrict_to_cycle", boundary, "restrict_to_cycle", "span", None),
    ("boundary.component_marked_period", boundary, "component_marked_period", "span", None),
    ("boundary.section_ratio", boundary, "section_ratio", "count", None),
    ("pair.LogCY3Pair.build", pair.LogCY3Pair, "build", "span", _build_key),
    ("pair.LogCY3Pair.truncated", pair.LogCY3Pair, "truncated", "span", None),
    ("pair.LogCY3Pair.k_image", pair.LogCY3Pair, "k_image", "span", None),
    ("pair.LogCY3Pair.restriction_matrix", pair.LogCY3Pair, "restriction_matrix", "span", None),
    ("periods.edge_matching_map", periods, "edge_matching_map", "span", None),
    ("periods.matching_lattice", periods, "matching_lattice", "span", None),
    ("periods.evaluate_boundary_character", periods, "evaluate_boundary_character", "span", None),
    ("periods.marked_period", periods, "marked_period", "span", None),
    ("periods.unmarked_period", periods, "unmarked_period", "span", None),
    ("periods.quotient_character", periods, "quotient_character", "span", None),
    ("torelli.classify_contraction", torelli, "classify_contraction", "span", None),
    ("torelli.component_transport", torelli, "component_transport", "span", None),
    ("torelli.threefold_transport", torelli, "threefold_transport", "span", None),
    ("torelli.decide_isomorphism", torelli, "decide_isomorphism", "span", None),
    ("torelli.marking_transporter", torelli, "marking_transporter", "span", None),
    ("documents.loads", documents, "loads", "span", None),
    ("documents.pair_from_document", documents, "pair_from_document", "span", None),
    ("cli.main", cli, "main", "span", None),
)


class Tracer:
    """Collects spans, call counts and input keys while installed."""

    def __init__(self):
        self.names = []  # name table; spans refer to it by index
        self.index = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.calls = {}
        self.keys = {}
        self._stack = []
        self._undo = []

    def _name(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def _open(self, name_id):
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def region(self, name):
        """A span around one benchmark op; its descendants form one request."""
        sid = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(sid)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, kind, key):
        name_id = self._name(name)
        self.calls[name] = 0
        if key is not None:
            self.keys[name] = set()
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            tracer.calls[name] += 1
            if key is not None:
                tracer.keys[name].add(key(*args, **kwargs))
            sid = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
        return spanned

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "logcy3" or n.startswith("logcy3.")]
        for name, owner, attr, kind, key in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, kind, key))
                else:
                    wrapped = self._wrap(name, original, kind, key)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, kind, key)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)
                        self._undo.append((module, binding, original))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Seconds per name: inclusive total and self (minus direct children)."""
        child = [0] * len(self.span_name)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        total, own = {}, {}
        for sid, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            duration = self.end[sid] - self.start[sid]
            total[name] = total.get(name, 0) + duration
            own[name] = own.get(name, 0) + duration - child[sid]
        return (
            {k: v / 1e9 for k, v in total.items()},
            {k: v / 1e9 for k, v in own.items()},
        )

    def counts_under(self, region):
        """Calls per name among the descendants of the spans named ``region``."""
        target = self.index.get(region)
        inside = [False] * len(self.span_name)
        counts = {}
        for sid, parent in enumerate(self.parent):
            inside[sid] = parent >= 0 and (inside[parent] or self.span_name[parent] == target)
            if inside[sid]:
                name = self.names[self.span_name[sid]]
                counts[name] = counts.get(name, 0) + 1
        return counts

    def unique_ratio(self, name):
        calls = self.calls[name]
        return len(self.keys[name]) / calls if calls else 1.0

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.span_name),
                    "parent": list(self.parent),
                    "start_ns": list(self.start),
                    "end_ns": list(self.end),
                },
                handle,
            )

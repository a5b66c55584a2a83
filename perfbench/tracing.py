"""Spans and counts recorded around calls into the necfix modules.

A traced pass replaces module attributes (for example
``necfix.census.validate``) with timing wrappers and restores them after the
pass; nothing in the package itself is edited.  Every module binds the
functions it imports under its own name, so the binding that is patched
names the caller: ``necfix.epimorphism.subgroup_generated`` is the closure
run by ``validate``, ``necfix.oracle.subgroup_generated`` the one run by the
oracle, and ``necfix.census.validate`` counts census candidates.

Spans are folded into per-name totals as they close (calls, inclusive
seconds, self seconds) instead of being kept one by one: a census-dense pass
opens about 300k of them.  A span's self time is its duration minus the part
covered by its child spans; calls run on one thread, so children never
overlap and that part is the sum of their durations.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

# First failed CheckResult.name that validate can report, in check order.
CHECKS = (
    "REFLECTIONS",
    "SMOOTH-ELLIPTIC",
    "LONG-RELATION",
    "SURJECTIVE",
    "KERNEL-NON-ORIENTABLE",
    "GENUS",
)


def _count_candidate(tracer, report, _args):
    tracer.counts["census.candidates"] += 1
    if report.valid:
        tracer.counts["census.accepted"] += 1
    else:
        tracer.counts["epimorphism.reject." + report.failed()[0]] += 1


def _count_signatures(tracer, signatures, _args):
    tracer.counts["census.signatures"] += len(signatures)


def _count_row(tracer, _report, _args):
    tracer.counts["census.rows"] += 1


def _count_disagreements(tracer, transcript, _args):
    tracer.counts["oracle.disagreements"] += len(transcript.disagreements)


def _count_written(tracer, _rows, args):
    fh = args[1]
    fh.flush()
    tracer.counts["census.write.bytes"] += os.fstat(fh.fileno()).st_size


# (module, attribute, span name, hook run on the result).  The hook gets
# (tracer, result, positional args).
PATCH_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_signature", "signature.parse_signature", None),
    ("cli", "parse_map_text", "epimorphism.parse_map_text", None),
    ("cli", "validate", "epimorphism.validate", None),
    ("cli", "full_report", "fixedpoints.full_report", None),
    ("cli", "cross_check", "oracle.cross_check", _count_disagreements),
    ("cli", "involution_sweep", "oracle.involution_sweep", _count_disagreements),
    ("cli", "run_census", "census.run_census", None),
    ("cli", "max_cyclic_order", "census.max_cyclic_order", None),
    ("cli", "write_census_csv", "census.write", _count_written),
    ("cli", "write_census_jsonl", "census.write", _count_written),
    ("census", "enumerate_signatures", "census.enumerate_signatures", _count_signatures),
    ("census", "validate", "epimorphism.validate", _count_candidate),
    ("census", "full_report", "fixedpoints.full_report", _count_row),
    ("census", "is_canonical", "census.is_canonical", None),
    ("census", "shadow_key", "census.shadow_key", None),
    ("census", "cross_check", "oracle.cross_check", _count_disagreements),
    ("census", "kernel_genus", "signature.kernel_genus", None),
    ("fixedpoints", "validate", "epimorphism.validate", None),
    ("oracle", "validate", "epimorphism.validate", None),
    ("oracle", "subgroup_generated", "oracle.subgroup_generated", None),
    ("epimorphism", "subgroup_generated", "epimorphism.subgroup_generated", None),
    ("epimorphism", "kernel_genus", "signature.kernel_genus", None),
)


class SpanTotals:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span totals and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.counts = Counter()
        self._stack = []  # open spans: [name, start, time covered by children]

    def open(self, name):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame):
        duration = self.clock() - frame[1]
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        totals = self.spans.get(frame[0])
        if totals is None:
            totals = self.spans[frame[0]] = SpanTotals()
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn, name, hook=None):
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if hook is not None:
                hook(self, result, args)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Patch every PATCH_POINTS binding of the imported package for the
        duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in PATCH_POINTS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def span(self, name):
        return self.spans.get(name) or SpanTotals()

    def metrics(self):
        """Per-layer figures of the pass, by metric name."""
        out = {}
        for name in (
            "census.run_census",
            "census.max_cyclic_order",
            "epimorphism.validate",
            "fixedpoints.full_report",
            "oracle.cross_check",
        ):
            totals = self.span(name)
            out[name + ".s"] = totals.total_s
            out[name + ".self_s"] = totals.self_s
        for name in (
            "census.enumerate_signatures",
            "census.is_canonical",
            "census.shadow_key",
            "census.write",
            "cli.main",
            "epimorphism.parse_map_text",
            "epimorphism.subgroup_generated",
            "oracle.involution_sweep",
            "oracle.subgroup_generated",
            "signature.kernel_genus",
            "signature.parse_signature",
        ):
            out[name + ".s"] = self.span(name).total_s
        for name in (
            "census.is_canonical",
            "epimorphism.subgroup_generated",
            "epimorphism.validate",
            "oracle.cross_check",
            "oracle.subgroup_generated",
            "signature.kernel_genus",
        ):
            out[name + ".calls"] = self.span(name).calls
        out["cli.self.s"] = self.span("cli.main").self_s
        for name in (
            "census.signatures",
            "census.candidates",
            "census.accepted",
            "census.rows",
            "census.write.bytes",
            "oracle.disagreements",
        ):
            out[name] = self.counts[name]
        for check in CHECKS:
            out["epimorphism.reject." + check] = self.counts["epimorphism.reject." + check]
        candidates = self.counts["census.candidates"]
        rows = self.counts["census.rows"]
        out["epimorphism.accept_ratio"] = self.counts["census.accepted"] / candidates if candidates else 0.0
        out["epimorphism.validate.per_row"] = self.span("epimorphism.validate").calls / rows if rows else 0.0
        return out

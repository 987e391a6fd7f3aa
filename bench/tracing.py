"""Spans around calls into liejordan modules, recorded from benchmark code.

A traced worker wraps each operation in a root span ("op.<kind>") and each
call into a liejordan module in a child span named "<module>.<function>".
Spans stay in memory as plain lists and are shipped to the parent process
when the worker finishes:

    [op_id, span_id, parent_id, name, start_ns, end_ns, counts]

`counts` holds exact work counters measured at the same boundary (subgroups
enumerated, classes returned, ...).  The untraced worker uses `OFF`, whose
spans cost one method call and record nothing.
"""
from __future__ import annotations

from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer.stack
        parent = stack[-1][1] if stack else None
        self.rec = [tracer.op, len(tracer.spans), parent, name, 0, 0, {}]

    def __enter__(self):
        self.tracer.spans.append(self.rec)
        self.tracer.stack.append(self.rec)
        self.rec[4] = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[5] = perf_counter_ns()
        self.tracer.stack.pop()
        return False

    def count(self, name: str, n: int):
        self.rec[6][name] = self.rec[6].get(name, 0) + n


class Tracer:
    on = True

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, name, n):
        pass


class _Off:
    on = False
    op = -1
    _null = _NullSpan()

    def span(self, name):
        return self._null


OFF = _Off()


def duration_ns(rec) -> int:
    return rec[5] - rec[4]


def summarize(spans) -> dict:
    """Per span name: calls, total and self milliseconds, share of op time.

    Self time is a span's duration minus the durations of its direct
    children; shares are of the summed root ("op.*") spans.
    """
    child_ns: dict[int, int] = {}
    for rec in spans:
        if rec[2] is not None:
            child_ns[rec[2]] = child_ns.get(rec[2], 0) + duration_ns(rec)
    op_ns = sum(duration_ns(r) for r in spans if r[2] is None and r[0] >= 0) or 1
    out: dict[str, dict] = {}
    for rec in spans:
        row = out.setdefault(rec[3], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += duration_ns(rec) / 1e6
        row["self_ms"] += (duration_ns(rec) - child_ns.get(rec[1], 0)) / 1e6
    for row in out.values():
        row["share_of_op_time"] = round(row["total_ms"] * 1e6 / op_ns, 4)
        row["total_ms"] = round(row["total_ms"], 3)
        row["self_ms"] = round(row["self_ms"], 3)
    return out

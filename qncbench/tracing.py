"""Spans around the calls into each layer of ``qnc``, and the per-layer metrics.

A traced run replaces each name in ``WRAPPED`` with a wrapper that records a
span: its name, start, end, the span that called it, the scope it belongs to
(an operation's index, or ``"inputs"`` while the timed operations' inputs are
generated) and counts taken from the arguments or the result. Names are
wrapped where callers look them up: ``analyze`` finds the kernel as
``qnc.security.conditional_states``, so that is the name wrapped. Installing
fails if a wrapped name is missing. Spans stay in memory until the run ends.
Outside a scope nothing is recorded, so the correctness checks, which call
the same functions, leave no spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

MIB = 2**20


def _conditional_states_counts(args, result) -> dict:
    records, diffs, p = args["records"], args["diffs"], args["p"]
    n, pairs = records.shape[0], diffs.shape[0]
    # batch: one complex128 phase array of records x pairs, the kernel's largest
    return {"records": n, "announced": p ** records.shape[1], "terms": n * pairs, "batch_bytes": 16 * n * pairs}


def _branch_summary_counts(args, result) -> dict:
    records = args["p"] ** args["zmeas"].shape[1]
    return {"terms": records * args["amp"].shape[0]}


def _step2_transmit_counts(args, result) -> dict:
    return {"support": result.support_size}


# (module, attribute looked up by callers, span name, counter)
WRAPPED = (
    ("qnc.adversary", "random_isometry", "adversary.random_isometry", None),
    ("qnc.security", "analyze", "security.analyze", None),
    ("qnc.security", "verify_independence", "security.verify_independence", None),
    ("qnc.security", "attacked_fidelity", "security.attacked_fidelity", None),
    ("qnc.security", "conditional_states", "kernels.conditional_states", _conditional_states_counts),
    ("qnc.security", "trace_distance", "engine.trace_distance", None),
    ("qnc.security", "step2_transmit", "protocol.step2_transmit", _step2_transmit_counts),
    ("qnc.protocol", "step2_transmit", "protocol.step2_transmit", _step2_transmit_counts),
    ("qnc.protocol", "branch_table", "protocol.branch_table", None),
    ("qnc.protocol", "run", "protocol.run", None),
    ("qnc.kernels", "branch_summary", "kernels.branch_summary", _branch_summary_counts),
)

# per-layer metric -> unit, as listed in BENCHMARK.json
LAYER_METRICS = {
    "security.analyze.self_ms": "ms",
    "kernels.conditional_states.ms": "ms",
    "kernels.conditional_states.calls": "count",
    "kernels.conditional_states.terms": "count",
    "kernels.conditional_states.rebuild_ratio": "ratio",
    "kernels.conditional_states.batch_mb": "MB",
    "engine.trace_distance.ms": "ms",
    "engine.trace_distance.calls": "count",
    "protocol.step2_transmit.ms": "ms",
    "protocol.step2_transmit.support": "count",
    "security.attacked_fidelity.self_ms": "ms",
    "kernels.branch_summary.ms": "ms",
    "kernels.branch_summary.terms": "count",
    "protocol.run.ms": "ms",
    "protocol.run.calls": "count",
    "adversary.random_isometry.ms": "ms",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    scope: int | str
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.scope: int | str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def recording(self, scope: int | str):
        self.scope = scope
        try:
            yield
        finally:
            self.scope = None

    def install(self) -> None:
        for module_name, attr, span_name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                raise LookupError(f"wrapped name {module_name}.{attr} is missing")
            setattr(module, attr, self._wrap(fn, span_name, counter))

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self.scope is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.scope)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> list:
        """Spans as plain lists: name, start ms, duration ms, parent, scope, counts."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, (s.start - t0) * 1e3, (s.end - s.start) * 1e3, s.parent, s.scope, s.counts]
            for s in self.spans
        ]

    def layer_metrics(self, n_ops: int) -> dict:
        """Median over the timed operations of each per-operation total."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        ops = [defaultdict(float) for _ in range(n_ops)]
        isometry_ms = 0.0
        for i, s in enumerate(self.spans):
            ms = (s.end - s.start) * 1e3
            if s.scope == "inputs":
                if s.name == "adversary.random_isometry":
                    isometry_ms += ms
                continue
            m = ops[s.scope]
            m[f"{s.name}.ms"] += ms
            m[f"{s.name}.self_ms"] += ms - child[i] * 1e3
            m[f"{s.name}.calls"] += 1
            for key, value in s.counts.items():
                if key in ("announced", "batch_bytes"):
                    m[f"{s.name}.{key}"] = max(m[f"{s.name}.{key}"], value)
                else:
                    m[f"{s.name}.{key}"] += value
        for m in ops:
            cs = "kernels.conditional_states"
            announced = m[f"{cs}.announced"]
            m[f"{cs}.rebuild_ratio"] = m[f"{cs}.records"] / announced if announced else 0.0
            m[f"{cs}.batch_mb"] = m[f"{cs}.batch_bytes"] / MIB
            m["adversary.random_isometry.ms"] = isometry_ms / n_ops
        return {
            name: {"value": statistics.median(m[name] for m in ops), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }

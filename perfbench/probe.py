"""Timing, tracing and counting at the boundaries of covnet's layers.

Every call goes through ``Probe.call``, which accumulates busy time and a
call count per (layer, call).  With tracing on it also records a span
(layer, call, start, end, parent, item) in memory; spans are written out
only when the run ends.  Spans are taken from outside the library, around
the public functions, so ``linalg`` and ``network`` show up only inside
their callers.  ``Counters`` holds the counts read off the results of those
calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.busy: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self.item = None

    def span(self, layer: str, name: str) -> "_Span":
        return _Span(self, layer, name)

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as a timed call into ``layer``."""
        with self.span(layer, name):
            return fn(*args, **kwargs)

    def layer_busy(self, layer: str, name: str | None = None) -> float:
        return sum(v for (l, n), v in self.busy.items() if l == layer and name in (None, n))

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the part covered by child spans."""
        child = [0.0] * len(self.spans)
        for layer, name, t0, t1, parent, item in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (layer, name, t0, t1, parent, item), c in zip(self.spans, child):
            out[layer] += (t1 - t0) - c
        return dict(out)

    def write(self, path, extra: dict) -> None:
        keys = ("layer", "call", "start", "end", "parent", "item")
        doc = dict(extra, spans=[dict(zip(keys, s)) for s in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    def __init__(self, probe: Probe, layer: str, name: str):
        self.probe, self.layer, self.name = probe, layer, name
        self.elapsed = 0.0

    def __enter__(self):
        p = self.probe
        if p.trace:
            self.idx = len(p.spans)
            self.parent = p._open[-1] if p._open else -1
            p.spans.append(None)
            p._open.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        p = self.probe
        self.elapsed = t1 - self.t0
        p.busy[self.layer, self.name] += self.elapsed
        p.calls[self.layer, self.name] += 1
        if p.trace:
            p._open.pop()
            p.spans[self.idx] = (self.layer, self.name, self.t0, t1, self.parent, p.item)
        return False


@dataclass
class Counters:
    """Layer counts that busy time alone does not give."""

    sweeps: list = field(default_factory=list)
    swept_s: float = 0.0
    undecided: int = 0
    infeasible_witness: int = 0
    infeasible_forbidden: int = 0
    table_entries: int = 0
    samples: int = 0
    approx_error_max: float = 0.0
    cli_overhead_s: float = 0.0

"""In-memory spans recorded from the benchmark around calls into cullsq.

A span has a name, a start, an end and a parent.  Spans are kept in a
list and written out once, when the benchmark ends.  The program itself
is not instrumented: a module proxy opens a span named
``<layer>.<function>`` around every public call the benchmark makes into
that module, so work one module does by calling another counts in the
caller's self time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def descendants(self, root_id):
        """Spans strictly inside the span ``root_id``."""
        inside = {root_id}
        out = []
        for rec in self.spans[root_id + 1 :]:
            if rec["parent"] in inside:
                inside.add(rec["id"])
                out.append(rec)
        return out

    def self_times(self):
        """Self time per layer: span time minus the time its child spans
        cover.  Spans of one thread nest, so children never overlap."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        layers = defaultdict(float)
        for rec in self.spans:
            layer = rec["name"].split(".", 1)[0]
            layers[layer] += rec["end"] - rec["start"] - child_time[rec["id"]]
        return dict(layers)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)
            fh.write("\n")


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class TracedModule:
    """Proxy of a cullsq module whose public callables run inside a span."""

    def __init__(self, module, layer, tracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if name.startswith("_") or not callable(attr):
            return attr
        span_name = f"{self._layer}.{name}"
        tracer = self._tracer

        def call(*args, **kwargs):
            with tracer.span(span_name):
                return attr(*args, **kwargs)

        return call
